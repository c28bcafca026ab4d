"""Quadrature exactness and the Gram / dual / derivative operator contracts."""

import sys
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.linalg import get_lapack_funcs

import wavecol as w
from wavecol import cli, operators, oracle, solver
from wavecol.basis import SCALING, WAVELET, PiecewiseLinear, basis_piecewise
from wavecol.errors import ConditioningError
from wavecol.operators import (derivative_inner_products, dual_transform,
                                gram_matrix, guarded_inverse, p1_kernel)
from wavecol.solver import DIRICHLET, derivative_rows

from exact_reference import constant_one, integrate_product, interpolate


def _pieces(max_level):
    spec = w.BasisSpec(max_level=max_level)
    return spec, {(idx.kind, idx.level, idx.shift): piece
                  for idx, piece in zip(spec.index_map, basis_piecewise(spec))}


SPEC4, P4 = _pieces(4)
ONE = constant_one()
IDENTITY_X = PiecewiseLinear((Fraction(0), Fraction(1)), (1.0,), (0.0,))
# a level-3 hat built by hand (the basis itself only carries level-2 hats)
HAT_L3 = PiecewiseLinear((Fraction(0), Fraction(1, 8), Fraction(1, 4)),
                         (8.0, -8.0), (0.0, 2.0))

# hand-integrated pairs: (first factor, second factor, exact value)
HAND_INTEGRALS = [
    (P4[(SCALING, 2, -1)], P4[(SCALING, 2, -1)], Fraction(1, 12)),
    (P4[(SCALING, 2, 0)], P4[(SCALING, 2, 0)], Fraction(1, 6)),
    (P4[(SCALING, 2, 1)], P4[(SCALING, 2, 1)], Fraction(1, 6)),
    (P4[(SCALING, 2, 3)], P4[(SCALING, 2, 3)], Fraction(1, 12)),
    (P4[(SCALING, 2, -1)], P4[(SCALING, 2, 0)], Fraction(1, 24)),
    (P4[(SCALING, 2, 0)], P4[(SCALING, 2, 1)], Fraction(1, 24)),
    (P4[(SCALING, 2, 2)], P4[(SCALING, 2, 3)], Fraction(1, 24)),
    (P4[(SCALING, 2, 0)], P4[(SCALING, 2, 2)], Fraction(0)),   # disjoint supports
    (P4[(SCALING, 2, -1)], P4[(SCALING, 2, 3)], Fraction(0)),  # disjoint supports
    (P4[(SCALING, 2, -1)], ONE, Fraction(1, 8)),
    (P4[(SCALING, 2, 0)], ONE, Fraction(1, 4)),
    (P4[(SCALING, 2, 3)], ONE, Fraction(1, 8)),
    (ONE, ONE, Fraction(1)),
    (IDENTITY_X, IDENTITY_X, Fraction(1, 3)),
    (IDENTITY_X, ONE, Fraction(1, 2)),
    (P4[(WAVELET, 2, 0)], ONE, Fraction(0)),
    (P4[(WAVELET, 2, -1)], ONE, Fraction(0)),
    (P4[(WAVELET, 2, 2)], ONE, Fraction(0)),
    (P4[(WAVELET, 2, 0)], P4[(WAVELET, 2, 0)], Fraction(1, 16)),
    (P4[(WAVELET, 2, -1)], P4[(WAVELET, 2, -1)], Fraction(2, 27)),
    (P4[(WAVELET, 2, 2)], P4[(WAVELET, 2, 2)], Fraction(2, 27)),
    (HAT_L3, HAT_L3, Fraction(1, 12)),
    (P4[(SCALING, 2, -1)].derivative(), ONE, Fraction(-1)),
    (P4[(SCALING, 2, 0)].derivative(), P4[(SCALING, 2, 0)], Fraction(0)),
    (P4[(SCALING, 2, 0)].derivative(), P4[(SCALING, 2, 1)], Fraction(-1, 2)),
    (IDENTITY_X.derivative(), IDENTITY_X, Fraction(1, 2)),
]


class TestIntegrateProduct:
    @pytest.mark.parametrize("a, b, exact", HAND_INTEGRALS)
    def test_hand_integrated_pairs(self, a, b, exact):
        assert abs(integrate_product(a, b) - float(exact)) <= 1e-14

    def test_symmetric_in_its_arguments(self):
        a = P4[(WAVELET, 3, 2)]
        b = P4[(SCALING, 2, 1)]
        assert integrate_product(a, b) == pytest.approx(
            integrate_product(b, a), abs=1e-16)

    def test_partition_of_unity_integrates_to_one(self):
        total = sum(integrate_product(P4[(SCALING, 2, k)], ONE)
                    for k in range(-1, 4))
        assert total == pytest.approx(1.0, abs=1e-14)


class TestGramMatrix:
    def test_coarsest_gram_is_five_by_five(self, operators):
        _, gram, _, _ = operators(2)
        assert gram.shape == (5, 5)
        assert gram[0, 0] == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_exactly_symmetric(self, operators):
        _, gram, _, _ = operators(4)
        assert np.array_equal(gram, gram.T)

    def test_positive_definite(self, operators):
        for level in (2, 3, 4, 5):
            _, gram, _, _ = operators(level)
            assert np.linalg.eigvalsh(gram).min() > 0.0

    def test_wavelets_orthogonal_to_hats(self, operators):
        spec, gram, _, _ = operators(4)
        for i, a in enumerate(spec.index_map):
            for j, b in enumerate(spec.index_map):
                if a.kind != b.kind:
                    assert abs(gram[i, j]) <= 1e-12

    def test_wavelets_orthogonal_across_levels(self, operators):
        spec, gram, _, _ = operators(4)
        for i, a in enumerate(spec.index_map):
            for j, b in enumerate(spec.index_map):
                if a.kind == WAVELET and b.kind == WAVELET and a.level != b.level:
                    assert abs(gram[i, j]) <= 1e-12

    def test_level2_wavelet_orthogonal_to_every_level3_wavelet(self, operators):
        spec, gram, _, _ = operators(4)
        i = spec.index_map.index(w.BasisIndex(WAVELET, 2, 0))
        for shift in range(-1, 7):
            j = spec.index_map.index(w.BasisIndex(WAVELET, 3, shift))
            assert abs(gram[i, j]) <= 1e-12


class TestNodalKernel:
    """The nodal-kernel operators against exact quadrature of the segments."""

    @staticmethod
    def _relative_gap(built, reference):
        return np.max(np.abs(built - reference)) / np.max(np.abs(reference))

    @pytest.mark.parametrize("level", [2, 3, 4, 5])
    def test_gram_matches_reference_quadrature(self, level):
        spec = w.BasisSpec(max_level=level)
        pieces = basis_piecewise(spec)
        reference = np.array([[integrate_product(a, b) for b in pieces]
                              for a in pieces])
        assert self._relative_gap(gram_matrix(spec), reference) <= 1e-13

    @pytest.mark.parametrize("level", [2, 3, 4, 5])
    def test_derivative_inner_products_match_reference_quadrature(self, level):
        spec = w.BasisSpec(max_level=level)
        pieces = basis_piecewise(spec)
        reference = np.array([[integrate_product(a.derivative(), b)
                               for b in pieces] for a in pieces])
        assert self._relative_gap(derivative_inner_products(spec),
                                  reference) <= 1e-13

    def test_program_never_reaches_the_reference(self, monkeypatch, tmp_path,
                                                 fresh_tables):
        def refuse(*args, **kwargs):
            raise AssertionError("reference quadrature reached")

        originals = (basis_piecewise,)
        sites = []
        for name, module in list(sys.modules.items()):
            if name == "wavecol" or name.startswith("wavecol."):
                for attr, value in list(vars(module).items()):
                    if any(value is original for original in originals):
                        monkeypatch.setattr(module, attr, refuse)
                        sites.append(f"{name}.{attr}")
        assert {"wavecol.basis.basis_piecewise"} <= set(sites)
        monkeypatch.setattr(Fraction, "__new__", refuse)
        # fresh_tables emptied the cached nodal matrix: it is rebuilt under
        # the guard

        for case_id in (1, 3):
            w.run_case(w.case_definition(case_id, times=(0.05,)), 9)
        code = cli.main(["--case", "1", "--np", "9", "--times", "0.05",
                         "--profiles", "--dump-operators",
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_OK


class TestDualTransform:
    def test_inverse_identity(self, operators):
        for level in (2, 3, 4, 5):
            spec, gram, dual, _ = operators(level)
            residual = np.max(np.abs(gram @ dual - np.eye(spec.n_functions)))
            assert residual <= 1e-10

    @pytest.mark.parametrize("n_points", [5, 9, 17, 33, 65])
    def test_is_the_guard_inverse_and_bitwise_the_solve(self, n_points,
                                                        monkeypatch):
        # the guard's inverse is returned: the Gram matrix is factored once
        gram = gram_matrix(w.spec_for_points(n_points))
        reference = np.linalg.solve(gram, np.eye(n_points))
        inverses = []
        real_inv = np.linalg.inv

        def counted_inv(matrix):
            inverses.append(matrix)
            return real_inv(matrix)

        def no_solve(*args):
            raise AssertionError("dual_transform solved again")

        monkeypatch.setattr(np.linalg, "inv", counted_inv)
        monkeypatch.setattr(np.linalg, "solve", no_solve)
        dual = dual_transform(gram)
        monkeypatch.undo()
        assert len(inverses) == 1
        np.testing.assert_array_equal(dual, reference)

    def test_dual_pairing_is_kronecker(self, operators):
        # quadrature route: the dual of one hat integrated against the basis
        spec, gram, dual, _ = operators(2)
        pieces = basis_piecewise(spec)
        k = 1  # first full hat
        for j, piece in enumerate(pieces):
            pairing = sum(dual[k, m] * integrate_product(pieces[m], piece)
                          for m in range(spec.n_functions))
            assert pairing == pytest.approx(1.0 if j == k else 0.0, abs=1e-12)

    def test_rescaling_one_function_scales_its_dual_inversely(self):
        spec = w.BasisSpec(max_level=3)
        pieces = basis_piecewise(spec)
        c = 2.5
        k = 3
        scaled = list(pieces)
        scaled[k] = PiecewiseLinear(
            pieces[k].breakpoints,
            tuple(c * s for s in pieces[k].slopes),
            tuple(c * b for b in pieces[k].intercepts))
        n = spec.n_functions
        gram_scaled = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                gram_scaled[i, j] = integrate_product(scaled[i], scaled[j])
        dual = dual_transform(gram_matrix(spec))
        dual_scaled = dual_transform(gram_scaled)
        xs = np.linspace(0.0, 1.0, 37)
        for x in xs:
            base = sum(dual[k, m] * pieces[m](float(x)) for m in range(n))
            new = sum(dual_scaled[k, m] * scaled[m](float(x)) for m in range(n))
            assert new == pytest.approx(base / c, abs=1e-11)

    def test_singular_matrix_rejected(self):
        with pytest.raises(ConditioningError, match="Gram matrix") as info:
            dual_transform(np.ones((4, 4)))
        assert info.value.condition == np.inf

    def test_ill_conditioned_matrix_rejected(self):
        nearly_singular = np.diag([1.0, 1e-15])
        with pytest.raises(ConditioningError, match="condition"):
            dual_transform(nearly_singular)


def _gecon_condition(matrix):
    # the LAPACK estimate the guard used before it went numpy-only
    getrf, gecon = get_lapack_funcs(("getrf", "gecon"), dtype=np.float64)
    lu, _, _ = getrf(matrix)
    rcond, _ = gecon(lu, np.linalg.norm(matrix, 1))
    return 1.0 / rcond


def _collocation_matrix(case_id, n_points, dt):
    case = w.case_definition(case_id)
    config = w.SolverConfig(reynolds=case.reynolds, times=(dt,), bc=case.bc,
                            ic=case.ic, spec=w.spec_for_points(n_points),
                            dt=dt)
    return w.assemble_lhs(config).matrix


class TestConditionGuard:
    """The exact 1-norm condition gives the verdicts gecon's estimate gave."""

    @pytest.mark.parametrize("n_points", [17, 33, 65])
    @pytest.mark.parametrize("case_id", [1, 3])
    @pytest.mark.parametrize("dt", [1e-3, 0.05])
    def test_collocation_matrix_far_below_the_limit(self, case_id, n_points,
                                                    dt):
        matrix = _collocation_matrix(case_id, n_points, dt)
        cond = guarded_inverse(matrix, "collocation system")[1]
        # gecon's estimate is a lower bound, up to roundoff in both
        assert cond >= _gecon_condition(matrix) * (1.0 - 1e-12)
        assert cond <= 1e3  # 7.5e2 at most, 1e-9 of CONDITION_LIMIT

    @pytest.mark.parametrize("n_points", [17, 33, 65])
    def test_gram_and_basis_matrices_far_below_the_limit(self, n_points):
        spec = w.spec_for_points(n_points)
        nodal = w.basis_matrix(spec,
                               np.linspace(0.0, 1.0, spec.n_functions))
        for matrix, bound in ((gram_matrix(spec), 55.0), (nodal, 45.0)):
            cond = guarded_inverse(matrix, "matrix")[1]
            assert cond >= _gecon_condition(matrix) * (1.0 - 1e-12)
            assert cond <= bound

    def test_singular_collocation_matrix_maps_linalg_error_to_inf(self):
        spec = w.spec_for_points(17)
        singular = w.basis_matrix(
            spec, np.linspace(0.0, 1.0, spec.n_functions)).copy()
        singular[:, -1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(singular)
        with pytest.raises(ConditioningError,
                           match="collocation matrix") as info:
            guarded_inverse(singular, "collocation matrix")
        assert info.value.condition == np.inf

    @pytest.mark.parametrize("diagonal", [(1.0, np.nan), (1.0, np.inf),
                                          (np.inf, np.inf)],
                             ids=["nan", "inf", "inf-times-zero"])
    def test_non_finite_matrix_has_infinite_condition(self, diagonal):
        # diag(inf, inf) inverts to zeros, so its condition is inf * 0
        with pytest.raises(ConditioningError) as info:
            guarded_inverse(np.diag(diagonal), "matrix")
        assert info.value.condition == np.inf


class TestDerivativeOperator:
    def test_affine_derivative_is_exact(self, operators):
        spec, _, _, deriv_op = operators(4)
        coeffs = interpolate(lambda x: 0.7 + 1.9 * x, spec)
        xs = np.linspace(0.0, 1.0, 100)
        values = w.basis_matrix(spec, xs) @ (deriv_op.T @ coeffs)
        np.testing.assert_allclose(values, 1.9, rtol=0, atol=1e-9)

    def test_constant_maps_to_zero(self, operators):
        spec, _, _, deriv_op = operators(4)
        coeffs = interpolate(lambda x: np.ones_like(x), spec)
        assert np.max(np.abs(deriv_op.T @ coeffs)) <= 1e-10

    def test_row_sums_equal_endpoint_differences(self):
        # integrating each basis derivative against the constant 1
        spec = w.BasisSpec(max_level=3)
        inner = derivative_inner_products(spec)
        right, left = w.basis_matrix(spec, [1.0, 0.0])
        ends = right - left
        np.testing.assert_allclose(inner.sum(axis=1), ends, atol=1e-12)

    def test_projection_consistency(self, operators):
        spec, gram, _, deriv_op = operators(4)
        inner = derivative_inner_products(spec)
        assert np.max(np.abs(deriv_op @ gram - inner)) <= 1e-10


def _dirichlet_rows(spec):
    """T and the solver's Dirichlet rows, formed in coefficient space."""
    values = w.basis_matrix(spec, np.linspace(0.0, 1.0, spec.n_functions))
    first, second = derivative_rows(spec.n_functions, DIRICHLET)
    return values, first @ values, second @ values


class TestSecondDerivative:
    """The paper's D*D, as the solver's node rows for Dirichlet data."""

    def test_is_the_square_of_the_first(self):
        # the nodal first derivative G = first V^-1 applied to the first
        # rows gives the second rows
        spec = w.BasisSpec(max_level=3)
        values, first, second = _dirichlet_rows(spec)
        nodal = np.linalg.solve(values.T, first.T).T
        np.testing.assert_allclose(second, nodal @ first, rtol=0,
                                   atol=1e-12 * np.max(np.abs(second)))

    def test_affine_second_derivative_vanishes(self):
        spec = w.BasisSpec(max_level=4)
        _, _, second = _dirichlet_rows(spec)
        coeffs = interpolate(lambda x: 0.3 + 2.0 * x, spec)
        assert np.max(np.abs(second @ coeffs)) <= 1e-8
        constant = interpolate(lambda x: np.ones_like(x), spec)
        assert np.max(np.abs(second @ constant)) <= 1e-9

    @pytest.mark.parametrize("level, bound", [(4, 3e-4), (5, 3e-5), (6, 2e-6)])
    def test_sine_curvature_converges(self, level, bound):
        # midpoint errors measured once over levels 4-6 and frozen; the
        # spec-level guarantee is the much looser O(2**-level)
        spec = w.BasisSpec(max_level=level)
        _, _, second = _dirichlet_rows(spec)
        coeffs = interpolate(lambda x: np.sin(np.pi * x), spec)
        value = float(second[2**(level - 1)] @ coeffs)  # node x = 1/2
        assert abs(value + np.pi**2) <= bound
        assert abs(value + np.pi**2) <= 0.01 * 2.0**-level


class TestP1MassAndStiffness:
    def test_entries_and_annihilation(self):
        mass, stiffness, _ = p1_kernel(5)
        h = 0.25
        np.testing.assert_allclose(np.diag(mass), [h / 3, 2 * h / 3, 2 * h / 3,
                                                   2 * h / 3, h / 3])
        np.testing.assert_allclose(np.diag(mass, 1), h / 6)
        np.testing.assert_allclose(np.diag(stiffness), [1 / h, 2 / h, 2 / h,
                                                        2 / h, 1 / h])
        np.testing.assert_allclose(np.diag(stiffness, -1), -1 / h)
        # mass integrates the hats to 1; stiffness annihilates constants
        assert np.sum(mass) == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(stiffness @ np.ones(5), 0.0, atol=1e-12)

    def test_derivative_products_integrate_by_parts(self):
        # K + K^T holds the integrals of (h_a h_b)', which vanish except
        # at the two end nodes
        _, _, hat_deriv = p1_kernel(5)
        np.testing.assert_array_equal(np.diag(hat_deriv, 1), -0.5)
        np.testing.assert_array_equal(np.diag(hat_deriv, -1), 0.5)
        np.testing.assert_array_equal(hat_deriv + hat_deriv.T,
                                      np.diag([-1.0, 0.0, 0.0, 0.0, 1.0]))

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError, match="two nodes"):
            p1_kernel(1)


def test_gauss_rule_literals_are_leggauss():
    # written out so that importing wavecol does not load numpy.polynomial;
    # the one table serves the initial projection and the oracle alike
    nodes, weights = operators._GAUSS10_X, operators._GAUSS10_W
    assert solver._GAUSS10_X is nodes and oracle._GAUSS10_X is nodes
    assert solver._GAUSS10_W is weights and oracle._GAUSS10_W is weights
    expected_nodes, expected_weights = leggauss(10)
    np.testing.assert_allclose(nodes, expected_nodes, rtol=0, atol=1e-15)
    np.testing.assert_allclose(weights, expected_weights, rtol=0, atol=1e-15)
    # exact for every monomial up to degree 19 on [-1, 1], not beyond
    for degree in range(21):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        error = abs(float(np.sum(weights * nodes**degree)) - exact)
        if degree < 20:
            assert error <= 1e-15
        else:
            assert error > 1e-7
