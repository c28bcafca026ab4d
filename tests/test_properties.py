"""Property tests: basis evaluation, interpolation at the grid through the
tests' reference, and the multiresolution views.

Examples are derandomized so that every run checks the same cases.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import wavecol as w
from wavecol.basis import collocation_points

from exact_reference import interpolate

PROPERTY = settings(derandomize=True, database=None, max_examples=60,
                    deadline=None)

levels = st.integers(min_value=2, max_value=5)
unit_points = st.floats(min_value=0.0, max_value=1.0)


@functools.lru_cache(maxsize=None)
def _pieces(level):
    return w.basis_piecewise(w.BasisSpec(max_level=level))


@st.composite
def spec_and_vector(draw, max_level=6):
    """A spec and one finite value per basis function."""
    spec = w.BasisSpec(max_level=draw(st.integers(2, max_level)))
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=spec.n_functions,
                           max_size=spec.n_functions))
    return spec, np.array(values)


@PROPERTY
@given(level=levels, xs=st.lists(unit_points, min_size=1, max_size=8))
def test_basis_matrix_matches_the_piecewise_reference(level, xs):
    rows = w.basis_matrix(w.BasisSpec(max_level=level), xs)
    reference = np.array([[piece(x) for piece in _pieces(level)] for x in xs])
    np.testing.assert_allclose(rows, reference, rtol=0.0, atol=1e-14)


@PROPERTY
@given(spec_and_vector())
def test_interpolation_round_trips_at_the_grid(drawn):
    spec, values = drawn
    grid = collocation_points(spec)
    coeffs = interpolate(lambda x: values, spec)
    np.testing.assert_allclose(w.basis_matrix(spec, grid) @ coeffs, values,
                               rtol=0.0, atol=1e-9)
    again = interpolate(lambda x: w.basis_matrix(spec, x) @ coeffs, spec)
    np.testing.assert_allclose(again, coeffs, rtol=0.0,
                               atol=1e-9 * max(1.0, np.max(np.abs(coeffs))))


@PROPERTY
@given(spec_and_vector(), st.integers(2, 6))
def test_truncate_commutes_with_the_level_split(drawn, keep):
    spec, coeffs = drawn
    keep = min(keep, spec.max_level)
    parts = w.split_levels(coeffs, spec)
    np.testing.assert_array_equal(
        np.concatenate([parts.coarse, *parts.details.values()]), coeffs)

    kept = w.truncate(coeffs, spec, keep)
    cut = w.split_levels(kept, spec)
    np.testing.assert_array_equal(cut.coarse, parts.coarse)
    for level in spec.wavelet_levels():
        expected = parts.details[level] if level <= keep else 0.0
        np.testing.assert_array_equal(cut.details[level], expected)
    np.testing.assert_array_equal(
        np.concatenate([cut.coarse, *cut.details.values()]), kept)
    np.testing.assert_array_equal(w.truncate(kept, spec, keep), kept)
