"""Basis construction: closed-form values, layout, and structural properties."""

from fractions import Fraction

import numpy as np
import pytest

import wavecol as w
from wavecol import basis
from wavecol.basis import (SCALING, WAVELET, BasisIndex, PiecewiseLinear,
                           basis_piecewise)

from exact_reference import constant_one, integrate_product

SPEC3 = w.BasisSpec(max_level=3)
SPEC4 = w.BasisSpec(max_level=4)

# The basis as slope/intercept branches, independent of the stencil table:
# on each t-interval of t = 2**level * x - shift a function is
# (a + b * t) / denom, and zero outside the intervals.
_BRANCHES = {
    (SCALING, "left"): (((1, 2), (2, -1)),),
    (SCALING, "inner"): (((0, 1), (0, 1)), ((1, 2), (2, -1))),
    (SCALING, "right"): (((0, 1), (0, 1)),),
    (WAVELET, "left"): (((1, 1.5), (-29, 23)), ((1.5, 2), (31, -17)),
                        ((2, 2.5), (-17, 7)), ((2.5, 3), (3, -1))),
    (WAVELET, "inner"): (((0, 0.5), (0, 1)), ((0.5, 1), (4, -7)),
                         ((1, 1.5), (-19, 16)), ((1.5, 2), (29, -16)),
                         ((2, 2.5), (-17, 7)), ((2.5, 3), (3, -1))),
    (WAVELET, "right"): (((0, 0.5), (0, 1)), ((0.5, 1), (4, -7)),
                         ((1, 1.5), (-20, 17)), ((1.5, 2), (40, -23))),
}
_DENOM = {SCALING: 1, WAVELET: 6}
_LAST_SHIFT = {SCALING: lambda level: 2**level - 1,
               WAVELET: lambda level: 2**level - 2}


def _branches(idx):
    side = ("left" if idx.shift == -1
            else "right" if idx.shift == _LAST_SHIFT[idx.kind](idx.level)
            else "inner")
    return _BRANCHES[idx.kind, side]


def _branch_node_values(idx, max_level):
    t = np.arange(2**max_level + 1) * 2.0**(idx.level - max_level) - idx.shift
    values = np.zeros(t.shape)
    for (t_lo, t_hi), (a, b) in _branches(idx):
        on = (t >= t_lo) & (t <= t_hi)
        values[on] = (a + b * t[on]) / _DENOM[idx.kind]
    return values


def _branch_piece(idx):
    scale = 2**idx.level
    denom = _DENOM[idx.kind]
    rows = _branches(idx)
    breakpoints = [(idx.shift + Fraction(rows[0][0][0])) / scale]
    breakpoints += [(idx.shift + Fraction(t_hi)) / scale for (_, t_hi), _ in rows]
    slopes = [b * scale / denom for _, (_, b) in rows]
    intercepts = [(a - b * idx.shift) / denom for _, (a, b) in rows]
    return tuple(breakpoints), slopes, intercepts


def _bits(values):
    return np.asarray(values, float).tobytes()


def _values(spec, kind, level, shift, xs):
    """One basis function at the points xs: its column of basis_matrix."""
    column = spec.index_map.index(BasisIndex(kind, level, shift))
    return w.basis_matrix(spec, xs)[:, column]


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


class TestStencilTable:
    """The stencil table gives bitwise the values of the branch formula."""

    @pytest.mark.parametrize("max_level", range(2, 13))
    def test_nodal_matrix_is_bitwise_the_branch_formula(self, max_level):
        spec = w.BasisSpec(max_level=max_level)
        # uncached, so that the 134 MB matrix at level 12 is not kept
        nodal = basis._nodal_matrix.__wrapped__(max_level)
        assert nodal.shape == (spec.n_functions,) * 2
        for column, idx in zip(nodal.T, spec.index_map):
            assert _bits(column) == _bits(_branch_node_values(idx, max_level))

    @pytest.mark.parametrize("max_level", range(2, 13))
    def test_every_accepted_scaling_function_is_bitwise_the_branch_formula(
            self, max_level):
        # the hats of every level up to max_level and every shift, also
        # those of the levels above 2, which index_map does not hold
        for level in range(2, max_level + 1):
            for shift in range(-1, 2**level):
                idx = BasisIndex(SCALING, level, shift)
                assert (_bits(basis._node_values(idx, max_level))
                        == _bits(_branch_node_values(idx, max_level)))

    @pytest.mark.parametrize("max_level", range(2, 9))
    def test_pieces_are_bitwise_the_branch_formula(self, max_level):
        spec = w.BasisSpec(max_level=max_level)
        for idx, piece in zip(spec.index_map, basis_piecewise(spec)):
            breakpoints, slopes, intercepts = _branch_piece(idx)
            assert piece.breakpoints == breakpoints
            assert _bits(piece.slopes) == _bits(slopes)
            assert _bits(piece.intercepts) == _bits(intercepts)


class TestScalingValues:
    def test_left_boundary_hat_is_one_at_origin(self):
        assert _values(SPEC3, SCALING, 2, -1, [0.0])[0] == 1.0

    def test_inner_hat_peaks_at_its_node(self):
        assert _values(SPEC3, SCALING, 2, 0, [0.25])[0] == 1.0

    def test_zero_outside_support(self):
        assert _values(SPEC3, SCALING, 2, 0, [0.9])[0] == 0.0

    def test_right_boundary_hat_attains_one_at_right_end(self):
        # the value at x = 1 is the left limit
        assert _values(SPEC3, SCALING, 2, 3, [1.0])[0] == 1.0

    def test_x_outside_domain_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            w.basis_matrix(SPEC3, [1.5])


class TestWaveletValues:
    def test_left_boundary_wavelet_at_origin(self):
        assert _values(SPEC3, WAVELET, 2, -1, [0.0])[0] == -1.0

    def test_inner_wavelet_zero_at_support_left_end(self):
        assert _values(SPEC3, WAVELET, 2, 0, [0.0])[0] == 0.0

    def test_inner_wavelet_first_branch_peak(self):
        # half a cell into the support: value (1/2) / 6 at level 3, shift 1
        assert _values(SPEC4, WAVELET, 3, 1, [3.0 / 16.0])[0] == pytest.approx(
            1.0 / 12.0, abs=1e-15)

    def test_right_boundary_wavelet_mirrors_left(self):
        xs = np.linspace(0.0, 1.0, 641)
        left = _values(SPEC4, WAVELET, 3, -1, xs)
        right = _values(SPEC4, WAVELET, 3, 2**3 - 2, xs[::-1])
        np.testing.assert_allclose(left, right, atol=1e-14)


class TestBasisVector:
    def test_values_at_origin(self):
        vec = w.basis_matrix(SPEC3, [0.0])[0]
        expected = np.zeros(9)
        expected[0] = 1.0   # left boundary hat
        expected[5] = -1.0  # left boundary wavelet
        np.testing.assert_allclose(vec, expected, atol=0.0)

    def test_values_at_right_end_use_left_limit(self):
        vec = w.basis_matrix(SPEC3, [1.0])[0]
        assert vec[4] == 1.0    # right boundary hat
        assert vec[8] == -1.0   # right boundary wavelet
        assert np.count_nonzero(vec) == 2

    def test_scaling_entries_sum_to_one(self):
        vec = w.basis_matrix(SPEC4, [0.37])[0]
        assert sum(vec[:5]) == pytest.approx(1.0, abs=1e-12)

    def test_matches_individual_evaluations(self):
        # each column is its function's node values, hat-interpolated
        rng = np.random.default_rng(7)
        xs = np.append(rng.uniform(0.0, 1.0, 20), [0.0, 1.0])
        grid = np.linspace(0.0, 1.0, SPEC4.n_functions)
        rows = w.basis_matrix(SPEC4, xs)
        for column, idx in zip(rows.T, SPEC4.index_map):
            nodes = basis._node_values(idx, SPEC4.max_level)
            np.testing.assert_allclose(column, np.interp(xs, grid, nodes),
                                       rtol=0, atol=1e-15)


class TestBasisMatrix:
    @pytest.mark.parametrize("xs", [0.3, [[0.1, 0.2]], np.zeros((3, 1))])
    def test_points_that_are_not_1d_rejected(self, xs):
        with pytest.raises(ValueError, match=r"1-D.*shape \("):
            w.basis_matrix(SPEC3, xs)


class TestPartitionOfUnity:
    def test_hats_sum_to_one_everywhere(self):
        rng = np.random.default_rng(42)
        xs = np.concatenate([rng.uniform(0.0, 1.0, 10_000),
                             np.linspace(0.0, 1.0, 129)])
        hats = w.basis_matrix(SPEC3, xs)[:, :5]
        assert [idx.kind for idx in SPEC3.index_map[:5]] == [SCALING] * 5
        assert np.max(np.abs(hats.sum(axis=1) - 1.0)) <= 1e-12


class TestPiecewiseRepresentation:
    def test_agrees_with_closed_form_at_random_points(self):
        spec = SPEC4
        pieces = basis_piecewise(spec)
        rng = np.random.default_rng(3)
        xs = np.append(rng.uniform(0.0, 1.0, 1000), [0.0, 1.0])
        rows = w.basis_matrix(spec, xs)
        for column, piece in zip(rows.T, pieces):
            exact = np.array([piece(float(x)) for x in xs])
            assert np.max(np.abs(column - exact)) <= 1e-13

    def test_inner_hat_segments(self):
        piece = basis_piecewise(w.BasisSpec(max_level=2))[1]  # first full hat
        assert piece.breakpoints == (Fraction(0), Fraction(1, 4), Fraction(1, 2))
        assert piece.slopes == (4.0, -4.0)

    def test_left_boundary_wavelet_breakpoints(self):
        spec = SPEC3
        piece = basis_piecewise(spec)[5]  # first wavelet, shift -1
        assert piece.breakpoints == (Fraction(0), Fraction(1, 8), Fraction(1, 4),
                                     Fraction(3, 8), Fraction(1, 2))

    def test_breakpoints_are_dyadic_per_level(self):
        spec = w.BasisSpec(max_level=5)
        for idx, piece in zip(spec.index_map, basis_piecewise(spec)):
            grid = 2 ** (idx.level + 1)
            for b in piece.breakpoints:
                assert (b * grid).denominator == 1

    def test_zero_outside_support(self):
        spec = SPEC4
        rng = np.random.default_rng(11)
        xs = rng.uniform(0.0, 1.0, 10_000)
        for piece in basis_piecewise(spec):
            lo, hi = piece.support
            outside = xs[(xs < lo) | (xs > hi)]
            assert all(piece(float(x)) == 0.0 for x in outside[:50])

    def test_continuous_at_interior_breakpoints(self):
        spec = w.BasisSpec(max_level=5)
        for piece in basis_piecewise(spec):
            for seg in range(len(piece.slopes) - 1):
                x = float(piece.breakpoints[seg + 1])
                left = piece.slopes[seg] * x + piece.intercepts[seg]
                right = piece.slopes[seg + 1] * x + piece.intercepts[seg + 1]
                assert abs(left - right) <= 1e-12

    def test_compact_support_ends_vanish_for_inner_functions(self):
        spec = SPEC4
        for idx, piece in zip(spec.index_map, basis_piecewise(spec)):
            lo, hi = piece.support
            if lo > 0:
                assert abs(piece(float(lo))) <= 1e-12
            if hi < 1:
                # value just inside the right support end
                assert abs(piece(float(hi) - 1e-9)) <= 1e-7

    def test_malformed_segments_rejected(self):
        with pytest.raises(ValueError, match="breakpoint"):
            PiecewiseLinear((Fraction(0),), (1.0,), (0.0,))
        with pytest.raises(ValueError, match="increasing"):
            PiecewiseLinear((Fraction(1), Fraction(0)), (1.0,), (0.0,))


class TestMoments:
    def test_inner_wavelets_have_zero_mean(self, operators):
        spec, _, _, _ = operators(4)
        one = constant_one()
        for idx, piece in zip(spec.index_map, basis_piecewise(spec)):
            if idx.kind == WAVELET and 0 <= idx.shift <= 2**idx.level - 3:
                assert abs(integrate_product(piece, one)) <= 1e-12

    def test_boundary_wavelets_turn_out_to_have_zero_mean_too(self, operators):
        # not required by construction, but follows from orthogonality to
        # the hat space (which contains the constants)
        spec, _, _, _ = operators(4)
        one = constant_one()
        for idx, piece in zip(spec.index_map, basis_piecewise(spec)):
            if idx.kind == WAVELET:
                assert abs(integrate_product(piece, one)) <= 1e-12
