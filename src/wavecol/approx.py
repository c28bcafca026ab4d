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
from numpy.polynomial.legendre import leggauss
from scipy.linalg import lu_solve

from .basis import BasisSpec, basis_matrix, basis_vector, collocation_points
from .operators import guarded_lu_factor

# Gauss order per grid cell for smooth integrands: high enough that
# projection error is dominated by the basis, not by quadrature.
_GAUSS5_X, _GAUSS5_W = leggauss(5)


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
    lu = guarded_lu_factor(basis_matrix(spec, grid), "collocation matrix")
    values = np.asarray(f(grid), float)
    if not np.all(np.isfinite(values)):
        raise ValueError("function returned non-finite values")
    return lu_solve(lu, values)


def reconstruct(coeffs: np.ndarray, spec: BasisSpec, x: float) -> float:
    """Value of the expansion at x."""
    return float(np.dot(coeffs, basis_vector(spec, x)))


def _level_slices(spec: BasisSpec) -> dict[int, slice]:
    slices: dict[int, slice] = {}
    start = 5
    for level in spec.wavelet_levels():
        width = 2**level
        slices[level] = slice(start, start + width)
        start += width
    return slices


def split_levels(coeffs: np.ndarray, spec: BasisSpec) -> LevelSplit:
    """Separate coefficients into the coarse block and per-level detail blocks."""
    coeffs = np.asarray(coeffs, float)
    if coeffs.shape != (spec.n_functions,):
        raise ValueError(
            f"expected {spec.n_functions} coefficients, got shape {coeffs.shape}"
        )
    details = {lev: coeffs[sl].copy() for lev, sl in _level_slices(spec).items()}
    return LevelSplit(coarse=coeffs[:5].copy(), details=details)


def combine_levels(parts: LevelSplit, spec: BasisSpec) -> np.ndarray:
    """Inverse of split_levels: concatenate blocks back in layout order."""
    blocks = [parts.coarse]
    blocks.extend(parts.details[lev] for lev in spec.wavelet_levels())
    return np.concatenate(blocks)


def check_keep_level(keep_level: int, spec: BasisSpec) -> None:
    """Raise ValueError unless truncate can keep levels up to keep_level."""
    if not 2 <= keep_level <= spec.max_level:
        raise ValueError(
            f"keep_level {keep_level} not in 2..{spec.max_level}"
        )


def truncate(coeffs: np.ndarray, spec: BasisSpec, keep_level: int) -> np.ndarray:
    """Zero every detail block finer than keep_level (coarse view of the data)."""
    check_keep_level(keep_level, spec)
    out = np.asarray(coeffs, float).copy()
    for level, sl in _level_slices(spec).items():
        if level > keep_level:
            out[sl] = 0.0
    return out
