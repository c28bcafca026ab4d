"""Exact quadrature of piecewise-linear segment representations.

The reference the tests integrate the basis against: wavecol.basis gives
each basis function as a PiecewiseLinear with exact rational breakpoints,
and integrate_product integrates a product of two such functions with no
error beyond roundoff.  The package itself never uses it.
"""

import math
from fractions import Fraction

from wavecol.basis import PiecewiseLinear

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
