"""Basis construction: closed-form values, layout, and structural properties."""

from fractions import Fraction

import numpy as np
import pytest

import wavecol as w
from wavecol.basis import SCALING, WAVELET

from exact_reference import constant_one, integrate_product

SPEC3 = w.BasisSpec(max_level=3)
SPEC4 = w.BasisSpec(max_level=4)


class TestLayout:
    def test_function_count_matches_level(self):
        for m in (2, 3, 4, 5, 6):
            spec = w.BasisSpec(max_level=m)
            assert spec.n_functions == 2**m + 1
            assert len(spec.index_map) == spec.n_functions

    def test_ordering_is_hats_then_detail_blocks(self):
        spec = w.BasisSpec(max_level=4)
        kinds = [idx.kind for idx in spec.index_map]
        assert kinds[:5] == [SCALING] * 5
        assert all(k == WAVELET for k in kinds[5:])
        shifts = [idx.shift for idx in spec.index_map[:5]]
        assert shifts == [-1, 0, 1, 2, 3]
        # one block per detail level, width 2**level, shifts -1 .. 2**level - 2
        offset = 5
        for level in (2, 3):
            block = spec.index_map[offset:offset + 2**level]
            assert all(idx.level == level for idx in block)
            assert [idx.shift for idx in block] == list(range(-1, 2**level - 1))
            offset += 2**level

    def test_coarsest_spec_is_hats_only(self):
        spec = w.BasisSpec(max_level=2)
        assert spec.n_functions == 5
        assert all(idx.kind == SCALING for idx in spec.index_map)

    def test_max_level_below_two_rejected(self):
        with pytest.raises(ValueError, match="max_level"):
            w.BasisSpec(max_level=1)


class TestScalingValues:
    def test_left_boundary_hat_is_one_at_origin(self):
        assert w.eval_scaling(SPEC3, 2, -1, 0.0) == 1.0

    def test_inner_hat_peaks_at_its_node(self):
        assert w.eval_scaling(SPEC3, 2, 0, 0.25) == 1.0

    def test_zero_outside_support(self):
        assert w.eval_scaling(SPEC3, 2, 0, 0.9) == 0.0

    def test_right_boundary_hat_attains_one_at_right_end(self):
        # half-open branches, so the value at x = 1 is the left limit
        assert w.eval_scaling(SPEC3, 2, 3, 1.0) == 1.0

    def test_invalid_shift_rejected(self):
        with pytest.raises(ValueError, match="shift"):
            w.eval_scaling(SPEC3, 2, 4, 0.5)

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            w.eval_scaling(SPEC3, 7, 0, 0.5)

    def test_x_outside_domain_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            w.eval_scaling(SPEC3, 2, 0, 1.5)


class TestWaveletValues:
    def test_left_boundary_wavelet_at_origin(self):
        assert w.eval_wavelet(SPEC3, 2, -1, 0.0) == -1.0

    def test_inner_wavelet_zero_at_support_left_end(self):
        assert w.eval_wavelet(SPEC3, 2, 0, 0.0) == 0.0

    def test_inner_wavelet_first_branch_peak(self):
        # half a cell into the support: value (1/2) / 6 at level 3, shift 1
        assert w.eval_wavelet(SPEC4, 3, 1, 3.0 / 16.0) == pytest.approx(1.0 / 12.0,
                                                                        abs=1e-15)

    def test_right_boundary_wavelet_mirrors_left(self):
        spec = SPEC4
        xs = np.linspace(0.0, 1.0, 641)
        left = np.array([w.eval_wavelet(spec, 3, -1, x) for x in xs])
        right = np.array([w.eval_wavelet(spec, 3, 2**3 - 2, x) for x in xs[::-1]])
        np.testing.assert_allclose(left, right, atol=1e-14)

    def test_level_outside_spec_rejected(self):
        with pytest.raises(ValueError, match="level"):
            w.eval_wavelet(SPEC3, 3, 0, 0.5)  # detail levels of SPEC3 are {2}

    def test_invalid_shift_rejected(self):
        with pytest.raises(ValueError, match="shift"):
            w.eval_wavelet(SPEC3, 2, 3, 0.5)


class TestBasisVector:
    def test_values_at_origin(self):
        vec = w.basis_vector(SPEC3, 0.0)
        expected = np.zeros(9)
        expected[0] = 1.0   # left boundary hat
        expected[5] = -1.0  # left boundary wavelet
        np.testing.assert_allclose(vec, expected, atol=0.0)

    def test_values_at_right_end_use_left_limit(self):
        vec = w.basis_vector(SPEC3, 1.0)
        assert vec[4] == 1.0    # right boundary hat
        assert vec[8] == -1.0   # right boundary wavelet
        assert np.count_nonzero(vec) == 2

    def test_scaling_entries_sum_to_one(self):
        vec = w.basis_vector(SPEC4, 0.37)
        assert sum(vec[:5]) == pytest.approx(1.0, abs=1e-12)

    def test_matches_individual_evaluations(self):
        rng = np.random.default_rng(7)
        for x in rng.uniform(0.0, 1.0, 20):
            vec = w.basis_vector(SPEC4, x)
            for i, idx in enumerate(SPEC4.index_map):
                if idx.kind == SCALING:
                    assert vec[i] == w.eval_scaling(SPEC4, idx.level, idx.shift, x)
                else:
                    assert vec[i] == w.eval_wavelet(SPEC4, idx.level, idx.shift, x)


class TestPartitionOfUnity:
    def test_hats_sum_to_one_everywhere(self):
        rng = np.random.default_rng(42)
        xs = np.concatenate([rng.uniform(0.0, 1.0, 10_000),
                             np.linspace(0.0, 1.0, 129)])
        for x in xs:
            total = sum(w.eval_scaling(SPEC3, 2, k, float(x)) for k in range(-1, 4))
            assert abs(total - 1.0) <= 1e-12


class TestPiecewiseRepresentation:
    def test_agrees_with_closed_form_at_random_points(self):
        spec = SPEC4
        pieces = w.basis_piecewise(spec)
        rng = np.random.default_rng(3)
        xs = np.append(rng.uniform(0.0, 1.0, 1000), [0.0, 1.0])
        for i, idx in enumerate(spec.index_map):
            evaluate = (w.eval_scaling if idx.kind == SCALING else w.eval_wavelet)
            for x in xs:
                x = float(x)
                closed = evaluate(spec, idx.level, idx.shift, x)
                assert abs(closed - pieces[i](x)) <= 1e-13

    def test_inner_hat_segments(self):
        piece = w.basis_piecewise(w.BasisSpec(max_level=2))[1]  # first full hat
        assert piece.breakpoints == (Fraction(0), Fraction(1, 4), Fraction(1, 2))
        assert piece.slopes == (4.0, -4.0)

    def test_left_boundary_wavelet_breakpoints(self):
        spec = SPEC3
        piece = w.basis_piecewise(spec)[5]  # first wavelet, shift -1
        assert piece.breakpoints == (Fraction(0), Fraction(1, 8), Fraction(1, 4),
                                     Fraction(3, 8), Fraction(1, 2))

    def test_breakpoints_are_dyadic_per_level(self):
        spec = w.BasisSpec(max_level=5)
        for idx, piece in zip(spec.index_map, w.basis_piecewise(spec)):
            grid = 2 ** (idx.level + 1)
            for b in piece.breakpoints:
                assert (b * grid).denominator == 1

    def test_zero_outside_support(self):
        spec = SPEC4
        rng = np.random.default_rng(11)
        xs = rng.uniform(0.0, 1.0, 10_000)
        for piece in w.basis_piecewise(spec):
            lo, hi = piece.support
            outside = xs[(xs < lo) | (xs > hi)]
            assert all(piece(float(x)) == 0.0 for x in outside[:50])

    def test_continuous_at_interior_breakpoints(self):
        spec = w.BasisSpec(max_level=5)
        for piece in w.basis_piecewise(spec):
            for seg in range(len(piece.slopes) - 1):
                x = float(piece.breakpoints[seg + 1])
                left = piece.slopes[seg] * x + piece.intercepts[seg]
                right = piece.slopes[seg + 1] * x + piece.intercepts[seg + 1]
                assert abs(left - right) <= 1e-12

    def test_compact_support_ends_vanish_for_inner_functions(self):
        spec = SPEC4
        for idx, piece in zip(spec.index_map, w.basis_piecewise(spec)):
            lo, hi = piece.support
            if lo > 0:
                assert abs(piece(float(lo))) <= 1e-12
            if hi < 1:
                # value just inside the right support end
                assert abs(piece(float(hi) - 1e-9)) <= 1e-7

    def test_malformed_segments_rejected(self):
        with pytest.raises(ValueError, match="breakpoint"):
            w.PiecewiseLinear((Fraction(0),), (1.0,), (0.0,))
        with pytest.raises(ValueError, match="increasing"):
            w.PiecewiseLinear((Fraction(1), Fraction(0)), (1.0,), (0.0,))


class TestMoments:
    def test_inner_wavelets_have_zero_mean(self, operators):
        spec, _, _, _ = operators(4)
        one = constant_one()
        for idx, piece in zip(spec.index_map, w.basis_piecewise(spec)):
            if idx.kind == WAVELET and 0 <= idx.shift <= 2**idx.level - 3:
                assert abs(integrate_product(piece, one)) <= 1e-12

    def test_boundary_wavelets_turn_out_to_have_zero_mean_too(self, operators):
        # not required by construction, but follows from orthogonality to
        # the hat space (which contains the constants)
        spec, _, _, _ = operators(4)
        one = constant_one()
        for idx, piece in zip(spec.index_map, w.basis_piecewise(spec)):
            if idx.kind == WAVELET:
                assert abs(integrate_product(piece, one)) <= 1e-12
