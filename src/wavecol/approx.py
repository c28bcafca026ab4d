"""The multiresolution view of the expansion coefficients.

split_levels separates the coefficients into the coarse block and one
detail block per wavelet level; truncate zeros every detail block finer
than a kept level, the coarse view of the data.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec


@dataclass(frozen=True, eq=False)
class LevelSplit:
    """Coefficients separated into the coarse block and per-level details."""

    coarse: np.ndarray
    details: dict[int, np.ndarray]


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


def check_keep_level(keep_level: int, spec: BasisSpec) -> None:
    """Raise ValueError unless keep_level is an integer in 2..spec.max_level,
    a level truncate can keep."""
    if not isinstance(keep_level, numbers.Integral):
        raise ValueError(f"keep_level {keep_level!r} is not an integer")
    if not 2 <= keep_level <= spec.max_level:
        raise ValueError(
            f"keep_level {keep_level} not in 2..{spec.max_level}"
        )


def truncate(coeffs: np.ndarray, spec: BasisSpec, keep_level: int) -> np.ndarray:
    """Zero every detail block finer than keep_level (coarse view of the data).

    Raises ValueError for a keep_level that is not an integer in
    2..spec.max_level and for coefficients that are not one per basis
    function of spec.
    """
    check_keep_level(keep_level, spec)
    out = _coefficient_vector(coeffs, spec).copy()
    for level, sl in spec.block_slices()[1].items():
        if level > keep_level:
            out[sl] = 0.0
    return out
