"""Grid interpolation in the wavelet basis and multiresolution views.

interpolate gives the expansion coefficients that reproduce a function at
the uniform collocation grid, by one solve with T, the basis values at the
grid nodes.  grid_values samples a function at the grid and refuses what
is not one finite value per point, for interpolate and for the solver's
initial data.  The level split and truncation are the multiresolution
view of the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import BasisSpec, _nodal_matrix, collocation_points
from .operators import guard_condition


@dataclass(frozen=True, eq=False)
class LevelSplit:
    """Coefficients separated into the coarse block and per-level details."""

    coarse: np.ndarray
    details: dict[int, np.ndarray]


def grid_values(f: Callable[[np.ndarray], np.ndarray], grid: np.ndarray,
                what: str) -> np.ndarray:
    """f at the grid points as a new float array.

    Raises ValueError, naming what was evaluated, unless f returns one
    finite value per point.
    """
    values = np.array(f(grid), float)
    if values.shape != grid.shape:
        raise ValueError(f"{what} returned shape {values.shape}, "
                         f"expected {grid.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} returned non-finite values")
    return values


def interpolate(f: Callable[[np.ndarray], np.ndarray], spec: BasisSpec) -> np.ndarray:
    """Expansion coefficients that reproduce f exactly at the collocation grid."""
    matrix = _nodal_matrix(spec.max_level)
    guard_condition(matrix, "collocation matrix")
    values = grid_values(f, collocation_points(spec), "function")
    return np.linalg.solve(matrix, values)


def _coefficient_vector(coeffs: np.ndarray, spec: BasisSpec) -> np.ndarray:
    """coeffs as a float array, or ValueError unless it has one entry per
    basis function of spec."""
    coeffs = np.asarray(coeffs, float)
    if coeffs.shape != (spec.n_functions,):
        raise ValueError(
            f"expected {spec.n_functions} coefficients, got shape {coeffs.shape}"
        )
    return coeffs


def split_levels(coeffs: np.ndarray, spec: BasisSpec) -> LevelSplit:
    """Separate coefficients into the coarse block and per-level detail blocks."""
    coeffs = _coefficient_vector(coeffs, spec)
    coarse, details = spec.block_slices()
    return LevelSplit(coarse=coeffs[coarse].copy(),
                      details={lev: coeffs[sl].copy() for lev, sl in details.items()})


def combine_levels(parts: LevelSplit, spec: BasisSpec) -> np.ndarray:
    """Inverse of split_levels: concatenate blocks back in layout order.

    Raises ValueError unless parts holds the detail levels of spec and every
    block has its width in spec's layout.
    """
    coarse, details = spec.block_slices()
    levels = sorted(parts.details)
    blocks = [parts.coarse] + [parts.details[lev] for lev in levels]
    shapes = [np.shape(block) for block in blocks]
    layout = [(sl.stop - sl.start,) for sl in (coarse, *details.values())]
    if levels != list(details) or shapes != layout:
        raise ValueError(f"blocks of shapes {shapes} at detail levels {levels} "
                         f"do not fit the layout {layout} of levels {list(details)}")
    return np.concatenate(blocks)


def check_keep_level(keep_level: int, spec: BasisSpec) -> None:
    """Raise ValueError unless truncate can keep levels up to keep_level."""
    if not 2 <= keep_level <= spec.max_level:
        raise ValueError(
            f"keep_level {keep_level} not in 2..{spec.max_level}"
        )


def truncate(coeffs: np.ndarray, spec: BasisSpec, keep_level: int) -> np.ndarray:
    """Zero every detail block finer than keep_level (coarse view of the data).

    Raises ValueError for a keep_level outside 2..spec.max_level and for
    coefficients that are not one per basis function of spec.
    """
    check_keep_level(keep_level, spec)
    out = _coefficient_vector(coeffs, spec).copy()
    for level, sl in spec.block_slices()[1].items():
        if level > keep_level:
            out[sl] = 0.0
    return out
