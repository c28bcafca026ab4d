"""Linear B-spline scaling functions and semi-orthogonal wavelets on [0, 1].

The basis spans the space of continuous piecewise-linear functions on the
dyadic grid of step 2**-max_level.  It is ordered as the five hat functions
of the coarsest level (level 2, including the two boundary halves) followed
by one wavelet block per detail level: level 2 up to max_level - 1, each
block holding an inner wavelet family plus a left and a right
boundary-adapted wavelet.  All wavelets carry a global 1/6 normalization;
expansion coefficients absorb any rescaling through the dual basis.

Each function is defined by one branch table in the dilated coordinate
x_dil = 2**level * x.  Every breakpoint is a node of the collocation grid,
so a function is fixed by its values at the grid nodes, and its value
anywhere is the hat interpolation of those node values.  basis_matrix
builds the node values of the whole basis once per resolution and
interpolates them; at x = 1 the right boundary hat attains 1, so the
partition of unity holds on the closed interval.  basis_piecewise reads
the same table into exact segment representations, kept as the reference
that tests integrate against (tests/exact_reference.py).
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

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
        layout = [BasisIndex(SCALING, 2, k) for k in range(-1, 4)]
        for level in range(2, self.max_level):
            layout.extend(
                BasisIndex(WAVELET, level, k) for k in range(-1, 2**level - 1)
            )
        object.__setattr__(self, "index_map", tuple(layout))

    @property
    def n_functions(self) -> int:
        return 2**self.max_level + 1

    def wavelet_levels(self) -> range:
        return range(2, self.max_level)


# Branch coefficient tables in the local coordinate t = 2**level * x - shift:
# entries ((t_lo, t_hi), (a, b)) meaning value = (a + b * t) / denom on the
# t-interval; the function is continuous, so neighbouring branches agree at
# their shared end.  Boundary variants are the restrictions/mirrors of the
# full stencils.
_SCALING_BRANCHES = {
    "inner": (((0.0, 1.0), (0, 1)),
              ((1.0, 2.0), (2, -1))),
    "left": (((1.0, 2.0), (2, -1)),),
    "right": (((0.0, 1.0), (0, 1)),),
}
_WAVELET_BRANCHES = {
    "inner": (((0.0, 0.5), (0, 1)),
              ((0.5, 1.0), (4, -7)),
              ((1.0, 1.5), (-19, 16)),
              ((1.5, 2.0), (29, -16)),
              ((2.0, 2.5), (-17, 7)),
              ((2.5, 3.0), (3, -1))),
    "left": (((1.0, 1.5), (-29, 23)),
             ((1.5, 2.0), (31, -17)),
             ((2.0, 2.5), (-17, 7)),
             ((2.5, 3.0), (3, -1))),
    "right": (((0.0, 0.5), (0, 1)),
              ((0.5, 1.0), (4, -7)),
              ((1.0, 1.5), (-20, 17)),
              ((1.5, 2.0), (40, -23))),
}


def _branches(idx: BasisIndex) -> tuple[tuple, int]:
    """Branch table rows and denominator of one basis function."""
    if idx.kind == SCALING:
        table, denom, last = _SCALING_BRANCHES, 1, 2**idx.level - 1
    else:
        table, denom, last = _WAVELET_BRANCHES, 6, 2**idx.level - 2
    if idx.shift == -1:
        return table["left"], denom
    return table["right" if idx.shift == last else "inner"], denom


def _node_values(idx: BasisIndex, max_level: int) -> np.ndarray:
    """Values of one basis function at the 2**max_level + 1 nodes.

    The local coordinate of every node is a dyadic rational, so each value
    is the correctly rounded (a + b * t) / denom.
    """
    t = np.arange(2**max_level + 1) * 2.0**(idx.level - max_level) - idx.shift
    values = np.zeros(t.shape)
    branches, denom = _branches(idx)
    for (t_lo, t_hi), (a, b) in branches:
        on = (t >= t_lo) & (t <= t_hi)
        values[on] = (a + b * t[on]) / denom
    return values


@functools.lru_cache(maxsize=8)
def _nodal_matrix(max_level: int) -> np.ndarray:
    """Read-only basis values at the grid nodes: one row per node."""
    spec = BasisSpec(max_level=max_level)
    nodal = np.column_stack([_node_values(idx, max_level)
                             for idx in spec.index_map])
    nodal.flags.writeable = False
    return nodal


def _check_points(xs) -> np.ndarray:
    xs = np.asarray(xs, float)
    outside = xs[~((xs >= 0.0) & (xs <= 1.0))]
    if outside.size:
        raise ValueError(f"x = {outside[0]} outside [0, 1]")
    return xs


def _hat_interpolate(nodal: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Rows of the piecewise-linear interpolant of the node rows at xs."""
    n_cells = nodal.shape[0] - 1
    pos = xs * n_cells
    cell = np.minimum(pos.astype(int), n_cells - 1)
    frac = (pos - cell)[:, None]
    return (1.0 - frac) * nodal[cell] + frac * nodal[cell + 1]


def collocation_points(spec: BasisSpec) -> np.ndarray:
    """Uniform grid of n_functions points on [0, 1] (spacing 2**-max_level)."""
    return np.linspace(0.0, 1.0, spec.n_functions)


def basis_matrix(spec: BasisSpec, xs) -> np.ndarray:
    """Evaluation matrix with one row of basis values per x, in index_map order.

    At the collocation points this is the nodal matrix T itself; elsewhere
    each row interpolates the two neighbouring node rows.
    """
    return _hat_interpolate(_nodal_matrix(spec.max_level), _check_points(xs))


def basis_vector(spec: BasisSpec, x: float) -> np.ndarray:
    """All basis functions evaluated at x, in index_map order."""
    return basis_matrix(spec, [x])[0]


def _evaluate(idx: BasisIndex, spec: BasisSpec, x: float) -> float:
    nodal = _node_values(idx, spec.max_level)[:, None]
    return float(_hat_interpolate(nodal, _check_points([x]))[0, 0])


def eval_scaling(spec: BasisSpec, level: int, shift: int, x: float) -> float:
    """Value of the hat function at the given level and shift.

    Shifts -1 and 2**level - 1 select the boundary half-hats; the shifts in
    between are full hats peaking at (shift + 1) / 2**level.
    """
    if not 2 <= level <= spec.max_level:
        raise ValueError(f"scaling level {level} not in 2..{spec.max_level}")
    if not -1 <= shift <= 2**level - 1:
        raise ValueError(f"scaling shift {shift} invalid for level {level}")
    return _evaluate(BasisIndex(SCALING, level, shift), spec, x)


def eval_wavelet(spec: BasisSpec, level: int, shift: int, x: float) -> float:
    """Value of the (boundary-adapted) wavelet at the given level and shift."""
    if level not in spec.wavelet_levels():
        raise ValueError(
            f"wavelet level {level} not in 2..{spec.max_level - 1} "
            f"(spec with max_level {spec.max_level})"
        )
    if not -1 <= shift <= 2**level - 2:
        raise ValueError(f"wavelet shift {shift} invalid for level {level}")
    return _evaluate(BasisIndex(WAVELET, level, shift), spec, x)


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


def _piecewise_from_branches(idx: BasisIndex) -> PiecewiseLinear:
    branches, denom = _branches(idx)
    scale = 2**idx.level
    breakpoints = []
    slopes = []
    intercepts = []
    for (t_lo, t_hi), (a, b) in branches:
        if not breakpoints:
            breakpoints.append((idx.shift + Fraction(t_lo)) / scale)
        breakpoints.append((idx.shift + Fraction(t_hi)) / scale)
        # value = (a + b * (scale * x - shift)) / denom
        slopes.append(b * scale / denom)
        intercepts.append((a - b * idx.shift) / denom)
    return PiecewiseLinear(tuple(breakpoints), tuple(slopes), tuple(intercepts))


def basis_piecewise(spec: BasisSpec) -> list[PiecewiseLinear]:
    """Exact segment representations of all basis functions, in order."""
    return [_piecewise_from_branches(idx) for idx in spec.index_map]
