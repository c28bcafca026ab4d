"""Function expansion in the wavelet basis and multiresolution views.

Two expansion routes are provided: L2 projection through the dual basis,
and interpolation at the uniform collocation grid.  The time stepper uses
interpolation for its initial data (zero residual at the points the scheme
controls); projection is the natural choice for approximation studies.
Projection takes its moments from the nodal hats: the moment of basis
function i is sum_a T[a, i] times the moment of hat a, with T the basis
values at the grid nodes.  The level split and truncation are the
multiresolution view of the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import BasisSpec, basis_matrix, basis_vector, collocation_points
from .operators import guard_condition

# Gauss order per grid cell for smooth integrands: high enough that
# projection error is dominated by the basis, not by quadrature.  The nodes
# and weights on [-1, 1] are numpy.polynomial.legendre.leggauss(5)'s.
_GAUSS5_X = np.array([-0.906179845938664, -0.5384693101056831, 0.0,
                      0.5384693101056831, 0.906179845938664])
_GAUSS5_W = np.array([0.23692688505618928, 0.4786286704993663,
                      0.5688888888888887, 0.4786286704993663,
                      0.23692688505618928])


@dataclass(frozen=True)
class LevelSplit:
    """Coefficients separated into the coarse block and per-level details."""

    coarse: np.ndarray
    details: dict[int, np.ndarray]


def project_l2(f: Callable[[np.ndarray], np.ndarray], spec: BasisSpec,
               dual: np.ndarray) -> np.ndarray:
    """Expansion coefficients from L2 projection: dual times raw moments.

    The moments of the nodal hats are integrated with Gauss-5 on every grid
    cell (step 2**-max_level), where each basis function is linear, so
    members of the basis span are integrated exactly and the projection
    round-trips them.
    """
    cells = 2**spec.max_level
    half = 0.5 / cells
    mids = (np.arange(cells) + 0.5) / cells
    xs = mids[:, None] + half * _GAUSS5_X
    fx = np.broadcast_to(np.asarray(f(xs.ravel()), float), xs.size)
    if not np.all(np.isfinite(fx)):
        raise ValueError("function returned non-finite values")
    weighted = half * _GAUSS5_W * fx.reshape(xs.shape)
    rising = (1.0 + _GAUSS5_X) / 2.0  # right node's hat across the cell
    hat_moments = np.zeros(cells + 1)
    hat_moments[:-1] += weighted @ (1.0 - rising)
    hat_moments[1:] += weighted @ rising
    return dual @ (basis_matrix(spec, collocation_points(spec)).T @ hat_moments)


def interpolate(f: Callable[[np.ndarray], np.ndarray], spec: BasisSpec) -> np.ndarray:
    """Expansion coefficients that reproduce f exactly at the collocation grid."""
    grid = collocation_points(spec)
    matrix = basis_matrix(spec, grid)
    guard_condition(matrix, "collocation matrix")
    values = np.asarray(f(grid), float)
    if not np.all(np.isfinite(values)):
        raise ValueError("function returned non-finite values")
    return np.linalg.solve(matrix, values)


def reconstruct(coeffs: np.ndarray, spec: BasisSpec, x: float) -> float:
    """Value of the expansion at x."""
    return float(np.dot(coeffs, basis_vector(spec, x)))


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
