"""Exact quadrature of piecewise-linear segment representations, the L2
projection the tests check the dual basis and the solver's initial state
with, and the grid interpolation the tests build expansions with.

The reference the tests integrate the basis against: wavecol.basis gives
each basis function as a PiecewiseLinear with exact rational breakpoints,
and integrate_product integrates a product of two such functions with no
error beyond roundoff.  project_l2 expands a function through the dual
basis, dual times the raw moments; wavecol.solver.initial_coefficients
computes the same projection in nodal coordinates, without the dual.
interpolate expands a function so that it is reproduced at the
collocation grid.  The package itself uses none of them.
"""

import math
from fractions import Fraction

import numpy as np
from numpy.polynomial.legendre import leggauss

from wavecol.basis import BasisSpec, PiecewiseLinear, _nodal_matrix

# 2-point Gauss-Legendre on [-1, 1]: exact through cubics.  Products of two
# piecewise-linear segments are at most quadratic per cell.
_GAUSS2 = (-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0))


def integrate_product(a: PiecewiseLinear, b: PiecewiseLinear) -> float:
    """Exact integral of a * b over [0, 1].

    The integrand is polynomial of degree <= 2 on every cell of the merged
    breakpoint grid, so per-cell 2-point Gauss is exact up to roundoff.
    """
    lo = max(a.breakpoints[0], b.breakpoints[0])
    hi = min(a.breakpoints[-1], b.breakpoints[-1])
    if lo >= hi:
        return 0.0
    cuts = sorted({lo, hi}
                  | {p for p in a.breakpoints if lo < p < hi}
                  | {p for p in b.breakpoints if lo < p < hi})
    total = 0.0
    for left, right in zip(cuts, cuts[1:]):
        mid = float(left + right) / 2.0
        half = float(right - left) / 2.0
        for g in _GAUSS2:
            x = mid + half * g
            total += half * a(x) * b(x)
    return total


def constant_one() -> PiecewiseLinear:
    """The constant function 1 on [0, 1], as a single segment."""
    return PiecewiseLinear((Fraction(0), Fraction(1)), (0.0,), (1.0,))


# 5-point Gauss-Legendre on [-1, 1], per grid cell for smooth integrands:
# high enough that projection error is dominated by the basis
_GAUSS5_X, _GAUSS5_W = leggauss(5)


def project_l2(f, spec: BasisSpec, dual: np.ndarray) -> np.ndarray:
    """Expansion coefficients from L2 projection: dual times raw moments.

    The moments of the nodal hats are integrated with Gauss-5 on every grid
    cell (step 2**-max_level), where each basis function is linear, so
    members of the basis span are integrated exactly and the projection
    round-trips them.  The moment of basis function i is sum_a T[a, i]
    times the moment of hat a, with T the basis values at the grid nodes.
    """
    cells = 2**spec.max_level
    half = 0.5 / cells
    mids = (np.arange(cells) + 0.5) / cells
    xs = mids[:, None] + half * _GAUSS5_X
    fx = np.broadcast_to(np.asarray(f(xs.ravel()), float), xs.size)
    weighted = half * _GAUSS5_W * fx.reshape(xs.shape)
    rising = (1.0 + _GAUSS5_X) / 2.0  # right node's hat across the cell
    hat_moments = np.zeros(cells + 1)
    hat_moments[:-1] += weighted @ (1.0 - rising)
    hat_moments[1:] += weighted @ rising
    return dual @ (_nodal_matrix(spec.max_level).T @ hat_moments)


def interpolate(f, spec: BasisSpec) -> np.ndarray:
    """Expansion coefficients that reproduce f at the collocation grid:
    one solve with T, the basis values at the grid nodes."""
    return np.linalg.solve(_nodal_matrix(spec.max_level),
                           f(np.linspace(0.0, 1.0, spec.n_functions)))
