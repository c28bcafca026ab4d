"""Expansion, evaluation of expansions, and the multiresolution views."""

import numpy as np
import pytest

import wavecol as w
from wavecol.basis import PiecewiseLinear, basis_piecewise

from exact_reference import integrate_product, interpolate, project_l2


class TestProjection:
    def test_affine_functions_are_reproduced_exactly(self, operators):
        spec, _, dual, _ = operators(4)
        coeffs = project_l2(lambda x: 0.25 + 3.0 * x, spec, dual)
        # detail coefficients vanish: affine data lives in the hat space
        assert np.max(np.abs(coeffs[5:])) <= 1e-10
        xs = np.linspace(0.0, 1.0, 57)
        np.testing.assert_allclose(w.basis_matrix(spec, xs) @ coeffs,
                                   0.25 + 3.0 * xs, rtol=0, atol=1e-10)

    def test_zero_function_gives_zero_coefficients(self, operators):
        spec, _, dual, _ = operators(3)
        coeffs = project_l2(lambda x: np.zeros_like(x), spec, dual)
        assert np.max(np.abs(coeffs)) <= 1e-14

    @pytest.mark.parametrize("level", [3, 4, 5, 6])
    def test_sine_error_shrinks_like_second_order(self, operators, level):
        # sup error constant measured once over levels 3-6 (~0.83) and frozen
        spec, _, dual, _ = operators(level)
        coeffs = project_l2(lambda x: np.sin(np.pi * x), spec, dual)
        xs = np.linspace(0.0, 1.0, 1001)
        err = np.max(np.abs(w.basis_matrix(spec, xs) @ coeffs - np.sin(np.pi * xs)))
        assert err <= 1.0 * 4.0**-level

    def test_span_members_round_trip(self, operators):
        spec, _, dual, _ = operators(4)
        rng = np.random.default_rng(5)
        original = rng.standard_normal(spec.n_functions)
        coeffs = project_l2(lambda xs: w.basis_matrix(spec, xs) @ original,
                            spec, dual)
        np.testing.assert_allclose(coeffs, original, atol=1e-9)



class TestInterpolation:
    def test_grid_point_values_match_exactly(self, operators):
        spec, _, _, _ = operators(5)
        f = lambda x: 4.0 * x * (1.0 - x)
        coeffs = interpolate(f, spec)
        grid = np.linspace(0.0, 1.0, spec.n_functions)
        values = w.basis_matrix(spec, grid) @ coeffs
        np.testing.assert_allclose(values, f(grid), atol=1e-10)

    def test_sine_hits_one_at_the_center_grid_point(self, operators):
        spec, _, _, _ = operators(5)
        coeffs = interpolate(lambda x: np.sin(np.pi * x), spec)
        assert w.basis_matrix(spec, [0.5])[0] @ coeffs == pytest.approx(
            1.0, abs=1e-10)

    def test_constants_are_reproduced_everywhere(self, operators):
        spec, _, _, _ = operators(4)
        coeffs = interpolate(lambda x: np.full_like(x, 0.37), spec)
        xs = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(w.basis_matrix(spec, xs) @ coeffs, 0.37,
                                   rtol=0, atol=1e-11)

    @pytest.mark.parametrize("level", [4, 5])
    def test_agrees_with_projection_within_the_approximation_error(
            self, operators, level):
        spec, _, dual, _ = operators(level)
        f = lambda x: np.sin(np.pi * x)
        proj = project_l2(f, spec, dual)
        interp = interpolate(f, spec)
        xs = np.linspace(0.0, 1.0, 501)
        rows = w.basis_matrix(spec, xs)
        proj_err = np.max(np.abs(rows @ proj - f(xs)))
        diff = np.max(np.abs(rows @ (interp - proj)))
        assert diff <= 10.0 * proj_err


class TestReconstruct:
    def test_unit_coefficient_picks_one_basis_function(self, operators):
        spec, _, _, _ = operators(3)
        coeffs = np.zeros(spec.n_functions)
        coeffs[1] = 1.0  # first full hat, peak at 1/4
        assert w.basis_matrix(spec, [0.25])[0] @ coeffs == 1.0

    def test_zero_coefficients_give_zero(self, operators):
        spec, _, _, _ = operators(3)
        assert w.basis_matrix(spec, [0.62])[0] @ np.zeros(spec.n_functions) == 0.0


class TestLevelSplit:
    def test_round_trip_is_exact(self, operators):
        spec, _, _, _ = operators(5)
        rng = np.random.default_rng(9)
        coeffs = rng.standard_normal(spec.n_functions)
        parts = w.split_levels(coeffs, spec)
        assert parts.coarse.shape == (5,)
        assert sorted(parts.details) == [2, 3, 4]
        assert all(parts.details[lev].shape == (2**lev,) for lev in parts.details)
        np.testing.assert_array_equal(
            np.concatenate([parts.coarse, *parts.details.values()]), coeffs)

    def test_wrong_length_rejected(self, operators):
        spec, _, _, _ = operators(3)
        with pytest.raises(ValueError, match="coefficients"):
            w.split_levels(np.zeros(7), spec)

    def test_blocks_are_copies(self, operators):
        # writing into a block leaves the coefficients it came from alone
        spec, _, _, _ = operators(4)
        coeffs = np.arange(spec.n_functions, dtype=float)
        parts = w.split_levels(coeffs, spec)
        parts.coarse[:] = -1.0
        for block in parts.details.values():
            block[:] = -1.0
        np.testing.assert_array_equal(coeffs, np.arange(spec.n_functions))


class TestTruncate:
    def test_keeping_everything_is_a_no_op(self, operators):
        spec, _, _, _ = operators(4)
        rng = np.random.default_rng(4)
        coeffs = rng.standard_normal(spec.n_functions)
        np.testing.assert_array_equal(w.truncate(coeffs, spec, spec.max_level),
                                      coeffs)

    def test_affine_projection_unchanged_at_coarsest_view(self, operators):
        spec, _, dual, _ = operators(4)
        coeffs = project_l2(lambda x: 1.0 - 0.5 * x, spec, dual)
        np.testing.assert_allclose(w.truncate(coeffs, spec, 2), coeffs, atol=1e-10)

    def test_out_of_range_level_rejected(self, operators):
        spec, _, _, _ = operators(4)
        coeffs = np.zeros(spec.n_functions)
        with pytest.raises(ValueError, match="keep_level"):
            w.truncate(coeffs, spec, 1)
        with pytest.raises(ValueError, match="keep_level"):
            w.truncate(coeffs, spec, 5)

    @pytest.mark.parametrize("level", [2.5, 3.0])
    def test_non_integer_level_rejected(self, operators, level):
        # 2.5 used to keep level 2, and 3.0 level 3
        spec, _, _, _ = operators(4)
        coeffs = np.ones(spec.n_functions)
        with pytest.raises(ValueError, match="not an integer"):
            w.truncate(coeffs, spec, level)
        np.testing.assert_array_equal(w.truncate(coeffs, spec, np.int64(3)),
                                      w.truncate(coeffs, spec, 3))

    @pytest.mark.parametrize("shape", [(5,), (40,), (16,), (18,), (17, 1)])
    def test_wrong_length_rejected(self, operators, shape):
        # a level-4 spec has 17 functions; a 5-vector used to come back
        # unchanged and a 40-vector with only some slices zeroed
        spec, _, _, _ = operators(4)
        with pytest.raises(ValueError, match="expected 17 coefficients"):
            w.truncate(np.ones(shape), spec, 2)

    def test_reconstruction_error_improves_with_kept_levels(self, operators):
        spec, _, dual, _ = operators(5)
        f = lambda x: np.sin(np.pi * x)
        coeffs = project_l2(f, spec, dual)
        xs = np.linspace(0.0, 1.0, 501)
        rows = w.basis_matrix(spec, xs)
        errors = []
        for keep in range(2, spec.max_level + 1):
            cut = w.truncate(coeffs, spec, keep)
            errors.append(np.max(np.abs(rows @ cut - f(xs))))
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(errors, errors[1:]))


class TestRescalingInvariance:
    def test_reconstruction_unaffected_by_basis_rescaling(self):
        # scale one basis function, rebuild the Gram matrix and duals from
        # the scaled pieces: projections must reconstruct the same function
        spec = w.BasisSpec(max_level=3)
        pieces = basis_piecewise(spec)
        n = spec.n_functions
        k, factor = 6, 2.5
        scaled = list(pieces)
        scaled[k] = PiecewiseLinear(
            pieces[k].breakpoints,
            tuple(factor * s for s in pieces[k].slopes),
            tuple(factor * b for b in pieces[k].intercepts))
        gram_scaled = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                gram_scaled[i, j] = gram_scaled[j, i] = integrate_product(
                    scaled[i], scaled[j])
        dual = w.dual_transform(w.gram_matrix(spec))
        dual_scaled = w.dual_transform(gram_scaled)

        f = lambda x: np.sin(np.pi * x) + 0.3 * x
        base = project_l2(f, spec, dual)
        # moments against the scaled basis, then reconstruct with it
        gauss_x, gauss_w = np.polynomial.legendre.leggauss(5)
        moments = np.empty(n)
        for i, piece in enumerate(scaled):
            acc = 0.0
            for left, right in zip(piece.breakpoints, piece.breakpoints[1:]):
                mid, half = float(left + right) / 2.0, float(right - left) / 2.0
                xs = mid + half * gauss_x
                acc += half * np.sum(gauss_w * f(xs)
                                     * np.array([piece(x) for x in xs]))
            moments[i] = acc
        coeffs_scaled = dual_scaled @ moments
        xs = np.linspace(0.0, 1.0, 41)
        for x, value_base in zip(xs, w.basis_matrix(spec, xs) @ base):
            value_scaled = sum(coeffs_scaled[i] * scaled[i](float(x))
                               for i in range(n))
            assert value_scaled == pytest.approx(value_base, abs=1e-9)
