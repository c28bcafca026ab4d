"""Linear B-spline scaling functions and semi-orthogonal wavelets on [0, 1].

The basis spans the space of continuous piecewise-linear functions on the
dyadic grid of step 2**-max_level.  It is ordered as the five hat functions
of the coarsest level (level 2, including the two boundary halves) followed
by one wavelet block per detail level: level 2 up to max_level - 1, each
block holding an inner wavelet family plus a left and a right
boundary-adapted wavelet.  All wavelets carry a global 1/6 normalization;
expansion coefficients absorb any rescaling through the dual basis.

Each function is defined by its two-scale node stencil: its values at
knots of the local coordinate t = 2**level * x - shift.  Every knot is a
node of the collocation grid, so a function is fixed by its values at the
grid nodes, and its value anywhere is the hat interpolation of those node
values.  _nodal_matrix builds those node values, the matrix T with one row
per node and one column per function, once per resolution and read-only;
the operators and the solver read T itself.
basis_matrix is the one way to evaluate the basis anywhere else: it
interpolates the rows of T, and at x = 1 the right boundary hat attains 1,
so the partition of unity holds on the closed interval.  basis_piecewise
reads the same stencils into exact segment representations, kept as the
reference that tests integrate against (tests/exact_reference.py).
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from fractions import Fraction

SCALING = "scaling"
WAVELET = "wavelet"


@dataclass(frozen=True)
class BasisIndex:
    """Position of one basis function: kind, dyadic level and shift."""

    kind: str
    level: int
    shift: int


@dataclass(frozen=True)
class BasisSpec:
    """Index layout of the 2**max_level + 1 basis functions.

    max_level is the resolution of the spanned space: the collocation grid
    has spacing 2**-max_level.  Detail (wavelet) levels run from 2 to
    max_level - 1; at max_level == 2 the basis is the five hat functions
    alone.
    """

    max_level: int
    index_map: tuple[BasisIndex, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.max_level < 2:
            raise ValueError("max_level must be at least 2")
        layout = [BasisIndex(kind, level, k) for kind, level in self._blocks()
                  for k in _shifts(kind, level)]
        object.__setattr__(self, "index_map", tuple(layout))

    def _blocks(self) -> list[tuple[str, int]]:
        """(kind, level) of each block of index_map, in order."""
        return [(SCALING, 2)] + [(WAVELET, lev) for lev in self.wavelet_levels()]

    @property
    def n_functions(self) -> int:
        return 2**self.max_level + 1

    def wavelet_levels(self) -> range:
        return range(2, self.max_level)

    def block_slices(self) -> tuple[slice, dict[int, slice]]:
        """Where index_map holds the coarse hats, and each detail level."""
        slices = []
        start = 0
        for kind, level in self._blocks():
            slices.append(slice(start, start + len(_shifts(kind, level))))
            start = slices[-1].stop
        return slices[0], dict(zip(self.wavelet_levels(), slices[1:]))


# Two-scale node stencils: the knots of each function in the local
# coordinate t = 2**level * x - shift, and its values there times 12.  A
# function is the linear interpolant of its knot values and zero outside
# them.  The boundary hats are halves of the inner hat, and the two
# boundary wavelets mirror each other.
_STENCILS = {
    (SCALING, "left"): ((1, 2), (12, 0)),
    (SCALING, "inner"): ((0, 1, 2), (0, 12, 0)),
    (SCALING, "right"): ((0, 1), (0, 12)),
    (WAVELET, "left"): ((1, 1.5, 2, 2.5, 3), (-12, 11, -6, 1, 0)),
    (WAVELET, "inner"): ((0, 0.5, 1, 1.5, 2, 2.5, 3), (0, 1, -6, 10, -6, 1, 0)),
    (WAVELET, "right"): ((0, 0.5, 1, 1.5, 2), (0, 1, -6, 11, -12)),
}


def _shifts(kind: str, level: int) -> range:
    """Shifts of the functions of one kind at one level, left boundary first."""
    return range(-1, 2**level - (1 if kind == WAVELET else 0))


def _stencil(idx: BasisIndex) -> tuple[tuple, tuple]:
    """Knots and twelfths of one basis function."""
    shifts = _shifts(idx.kind, idx.level)
    side = ("left" if idx.shift == shifts[0]
            else "right" if idx.shift == shifts[-1] else "inner")
    return _STENCILS[idx.kind, side]


def _node_values(idx: BasisIndex, max_level: int) -> np.ndarray:
    """Values of one basis function at the 2**max_level + 1 nodes.

    The local coordinate of every node is a dyadic rational, so the
    interpolated twelfths are exact and the one division rounds correctly.
    """
    t = np.arange(2**max_level + 1) * 2.0**(idx.level - max_level) - idx.shift
    knots, twelfths = _stencil(idx)
    return np.interp(t, knots, twelfths, left=0.0, right=0.0) / 12


@functools.lru_cache(maxsize=8)
def _nodal_matrix(max_level: int) -> np.ndarray:
    """Read-only basis values at the grid nodes: one row per node."""
    spec = BasisSpec(max_level=max_level)
    nodal = np.column_stack([_node_values(idx, max_level)
                             for idx in spec.index_map])
    nodal.flags.writeable = False
    return nodal


def basis_matrix(spec: BasisSpec, xs) -> np.ndarray:
    """Evaluation matrix with one row of basis values per x, in index_map order.

    At the collocation points this is the nodal matrix T itself; elsewhere
    each row interpolates the two neighbouring node rows.  Raises ValueError
    unless xs is a 1-D sequence of points in [0, 1].
    """
    xs = np.asarray(xs, float)
    if xs.ndim != 1:
        raise ValueError(f"points must be a 1-D sequence, got shape {xs.shape}")
    outside = xs[~((xs >= 0.0) & (xs <= 1.0))]
    if outside.size:
        raise ValueError(f"x = {outside[0]} outside [0, 1]")
    nodal = _nodal_matrix(spec.max_level)
    n_cells = nodal.shape[0] - 1
    pos = xs * n_cells
    cell = np.minimum(pos.astype(int), n_cells - 1)
    frac = (pos - cell)[:, None]
    return (1.0 - frac) * nodal[cell] + frac * nodal[cell + 1]


@dataclass(frozen=True)
class PiecewiseLinear:
    """Exact segment representation of one piecewise-linear function.

    Breakpoints are stored as rationals so that quadrature cells can be
    placed exactly.  Segment i is value = slopes[i] * x + intercepts[i] on
    [breakpoints[i], breakpoints[i + 1]); the function is zero outside
    [breakpoints[0], breakpoints[-1]].  Evaluation at the right support end
    uses the last segment (limit from the left).
    """

    breakpoints: tuple[Fraction, ...]
    slopes: tuple[float, ...]
    intercepts: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.breakpoints) != len(self.slopes) + 1:
            raise ValueError("need one more breakpoint than segments")
        if len(self.slopes) != len(self.intercepts):
            raise ValueError("slopes and intercepts must pair up")
        if any(b >= c for b, c in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    @property
    def support(self) -> tuple[Fraction, Fraction]:
        return self.breakpoints[0], self.breakpoints[-1]

    def __call__(self, x: float) -> float:
        lo = self.breakpoints[0]
        hi = self.breakpoints[-1]
        if x < lo or x > hi:
            return 0.0
        if x == hi:
            seg = len(self.slopes) - 1
        else:
            seg = bisect.bisect_right(self.breakpoints, x) - 1
        return self.slopes[seg] * x + self.intercepts[seg]

    def derivative(self) -> "PiecewiseLinear":
        """Cell-wise derivative (piecewise constant on the same cells)."""
        zeros = (0.0,) * len(self.slopes)
        return PiecewiseLinear(self.breakpoints, zeros, self.slopes)


def _piecewise(idx: BasisIndex) -> PiecewiseLinear:
    # imported here: a run never needs the exact reference, nor the import
    from fractions import Fraction

    knots, twelfths = _stencil(idx)
    scale = 2**idx.level
    slopes = []
    intercepts = []
    for t_lo, t_hi, v_lo, v_hi in zip(knots, knots[1:], twelfths, twelfths[1:]):
        # 12 * value = v_lo + b * (t - t_lo), with t = scale * x - shift
        b = (v_hi - v_lo) / (t_hi - t_lo)
        slopes.append(b * scale / 12)
        intercepts.append((v_lo - b * (t_lo + idx.shift)) / 12)
    breakpoints = tuple((idx.shift + Fraction(t)) / scale for t in knots)
    return PiecewiseLinear(breakpoints, tuple(slopes), tuple(intercepts))


def basis_piecewise(spec: BasisSpec) -> list[PiecewiseLinear]:
    """Exact segment representations of all basis functions, in order."""
    return [_piecewise(idx) for idx in spec.index_map]
