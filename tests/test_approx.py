"""Expansion, reconstruction, and the multiresolution coefficient views."""

import numpy as np
import pytest

import wavecol as w
from wavecol.approx import collocation_points
from wavecol.errors import ConditioningError

from exact_reference import integrate_product


class TestInterpolationGuard:
    def test_singular_collocation_matrix_rejected(self, monkeypatch):
        spec = w.BasisSpec(max_level=3)
        singular = w.basis_matrix(spec, collocation_points(spec)).copy()
        singular[:, -1] = 0.0
        monkeypatch.setattr("wavecol.approx.basis_matrix",
                            lambda spec, xs: singular)
        with pytest.raises(ConditioningError, match="collocation matrix"):
            w.interpolate(lambda x: np.sin(np.pi * x), spec)


class TestProjection:
    def test_affine_functions_are_reproduced_exactly(self, operators):
        spec, _, dual, _ = operators(4)
        coeffs = w.project_l2(lambda x: 0.25 + 3.0 * x, spec, dual)
        # detail coefficients vanish: affine data lives in the hat space
        assert np.max(np.abs(coeffs[5:])) <= 1e-10
        for x in np.linspace(0.0, 1.0, 57):
            assert w.reconstruct(coeffs, spec, float(x)) == pytest.approx(
                0.25 + 3.0 * x, abs=1e-10)

    def test_zero_function_gives_zero_coefficients(self, operators):
        spec, _, dual, _ = operators(3)
        coeffs = w.project_l2(lambda x: np.zeros_like(x), spec, dual)
        assert np.max(np.abs(coeffs)) <= 1e-14

    @pytest.mark.parametrize("level", [3, 4, 5, 6])
    def test_sine_error_shrinks_like_second_order(self, operators, level):
        # sup error constant measured once over levels 3-6 (~0.83) and frozen
        spec, _, dual, _ = operators(level)
        coeffs = w.project_l2(lambda x: np.sin(np.pi * x), spec, dual)
        xs = np.linspace(0.0, 1.0, 1001)
        err = max(abs(w.reconstruct(coeffs, spec, float(x)) - np.sin(np.pi * x))
                  for x in xs)
        assert err <= 1.0 * 4.0**-level

    def test_span_members_round_trip(self, operators):
        spec, _, dual, _ = operators(4)
        rng = np.random.default_rng(5)
        original = rng.standard_normal(spec.n_functions)
        coeffs = w.project_l2(
            lambda xs: np.array([w.reconstruct(original, spec, float(x)) for x in xs]),
            spec, dual)
        np.testing.assert_allclose(coeffs, original, atol=1e-9)

    def test_non_finite_samples_rejected(self, operators):
        spec, _, dual, _ = operators(3)
        with pytest.raises(ValueError, match="non-finite"):
            w.project_l2(lambda x: np.full_like(x, np.nan), spec, dual)


class TestInterpolation:
    def test_grid_point_values_match_exactly(self, operators):
        spec, _, _, _ = operators(5)
        f = lambda x: 4.0 * x * (1.0 - x)
        coeffs = w.interpolate(f, spec)
        grid = collocation_points(spec)
        values = w.basis_matrix(spec, grid) @ coeffs
        np.testing.assert_allclose(values, f(grid), atol=1e-10)

    def test_sine_hits_one_at_the_center_grid_point(self, operators):
        spec, _, _, _ = operators(5)
        coeffs = w.interpolate(lambda x: np.sin(np.pi * x), spec)
        assert w.reconstruct(coeffs, spec, 0.5) == pytest.approx(1.0, abs=1e-10)

    def test_constants_are_reproduced_everywhere(self, operators):
        spec, _, _, _ = operators(4)
        coeffs = w.interpolate(lambda x: np.full_like(x, 0.37), spec)
        for x in np.linspace(0.0, 1.0, 101):
            assert w.reconstruct(coeffs, spec, float(x)) == pytest.approx(
                0.37, abs=1e-11)

    @pytest.mark.parametrize("level", [4, 5])
    def test_agrees_with_projection_within_the_approximation_error(
            self, operators, level):
        spec, _, dual, _ = operators(level)
        f = lambda x: np.sin(np.pi * x)
        proj = w.project_l2(f, spec, dual)
        interp = w.interpolate(f, spec)
        xs = np.linspace(0.0, 1.0, 501)
        proj_err = max(abs(w.reconstruct(proj, spec, float(x)) - f(float(x)))
                       for x in xs)
        diff = max(abs(w.reconstruct(interp - proj, spec, float(x))) for x in xs)
        assert diff <= 10.0 * proj_err


class TestReconstruct:
    def test_unit_coefficient_picks_one_basis_function(self, operators):
        spec, _, _, _ = operators(3)
        coeffs = np.zeros(spec.n_functions)
        coeffs[1] = 1.0  # first full hat, peak at 1/4
        assert w.reconstruct(coeffs, spec, 0.25) == 1.0

    def test_zero_coefficients_give_zero(self, operators):
        spec, _, _, _ = operators(3)
        assert w.reconstruct(np.zeros(spec.n_functions), spec, 0.62) == 0.0

    def test_equals_dot_product_with_basis_vector(self, operators):
        spec, _, _, _ = operators(4)
        rng = np.random.default_rng(2)
        coeffs = rng.standard_normal(spec.n_functions)
        for x in rng.uniform(0.0, 1.0, 25):
            expected = float(coeffs @ w.basis_vector(spec, float(x)))
            assert w.reconstruct(coeffs, spec, float(x)) == expected


class TestLevelSplit:
    def test_round_trip_is_exact(self, operators):
        spec, _, _, _ = operators(5)
        rng = np.random.default_rng(9)
        coeffs = rng.standard_normal(spec.n_functions)
        parts = w.split_levels(coeffs, spec)
        assert parts.coarse.shape == (5,)
        assert sorted(parts.details) == [2, 3, 4]
        assert all(parts.details[lev].shape == (2**lev,) for lev in parts.details)
        np.testing.assert_array_equal(w.combine_levels(parts, spec), coeffs)

    def test_wrong_length_rejected(self, operators):
        spec, _, _, _ = operators(3)
        with pytest.raises(ValueError, match="coefficients"):
            w.split_levels(np.zeros(7), spec)


class TestTruncate:
    def test_keeping_everything_is_a_no_op(self, operators):
        spec, _, _, _ = operators(4)
        rng = np.random.default_rng(4)
        coeffs = rng.standard_normal(spec.n_functions)
        np.testing.assert_array_equal(w.truncate(coeffs, spec, spec.max_level),
                                      coeffs)

    def test_affine_projection_unchanged_at_coarsest_view(self, operators):
        spec, _, dual, _ = operators(4)
        coeffs = w.project_l2(lambda x: 1.0 - 0.5 * x, spec, dual)
        np.testing.assert_allclose(w.truncate(coeffs, spec, 2), coeffs, atol=1e-10)

    def test_out_of_range_level_rejected(self, operators):
        spec, _, _, _ = operators(4)
        coeffs = np.zeros(spec.n_functions)
        with pytest.raises(ValueError, match="keep_level"):
            w.truncate(coeffs, spec, 1)
        with pytest.raises(ValueError, match="keep_level"):
            w.truncate(coeffs, spec, 5)

    def test_reconstruction_error_improves_with_kept_levels(self, operators):
        spec, _, dual, _ = operators(5)
        f = lambda x: np.sin(np.pi * x)
        coeffs = w.project_l2(f, spec, dual)
        xs = np.linspace(0.0, 1.0, 501)
        errors = []
        for keep in range(2, spec.max_level + 1):
            cut = w.truncate(coeffs, spec, keep)
            errors.append(max(abs(w.reconstruct(cut, spec, float(x)) - f(float(x)))
                              for x in xs))
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(errors, errors[1:]))


class TestRescalingInvariance:
    def test_reconstruction_unaffected_by_basis_rescaling(self):
        # scale one basis function, rebuild the Gram matrix and duals from
        # the scaled pieces: projections must reconstruct the same function
        spec = w.BasisSpec(max_level=3)
        pieces = w.basis_piecewise(spec)
        n = spec.n_functions
        k, factor = 6, 2.5
        scaled = list(pieces)
        scaled[k] = w.PiecewiseLinear(
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
        base = w.project_l2(f, spec, dual)
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
        for x in np.linspace(0.0, 1.0, 41):
            value_base = w.reconstruct(base, spec, float(x))
            value_scaled = sum(coeffs_scaled[i] * scaled[i](float(x))
                               for i in range(n))
            assert value_scaled == pytest.approx(value_base, abs=1e-9)
