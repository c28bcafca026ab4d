"""Exact Fourier-series solutions of the benchmark Burgers problems.

For initial data sin(pi x) and 4 x (1 - x) with homogeneous Dirichlet
boundaries, the Cole-Hopf transformation turns the equation into the heat
equation, giving

    u(x, t) = (2 pi / Re) * sum_n  c_n E_n(t) n sin(n pi x)
              -------------------------------------------
              c_0 + sum_n  c_n E_n(t) cos(n pi x)

with E_n(t) = exp(-n**2 pi**2 t / Re) and c_n the cosine moments of the
transformed initial condition (factor 2 for n >= 1).  The series converges
fast for the benchmark times but degenerates as t -> 0+, which is guarded.

The tolerances are fixed: each moment's quadrature is doubled until two
successive values agree to QUAD_TOL (1e-12), and summation stops once two
consecutive terms contribute below TERM_TOL (1e-14, relative) or after
MAX_TERMS (400) terms.  Running out of terms emits a RuntimeWarning and
charges the unsummed tail to the error estimate below, so a series still
far from converged is refused, not served.  A quadrature is
composite Gauss-10 on equal cells: the integrand is called once on all
ten node rows, and one sum adds the weighted values.

At high Reynolds numbers the transformed data fall from 1 to about
exp(-Re/pi), and the series cancels: at t = 0.5, x = 0.9 the denominator's
sum of |term| exceeds |sum of terms| by 5 at Re = 10, 9e9 at Re = 100 and
1e16 at Re = 200.  exact_u therefore estimates the relative error of u
from the moments' quadrature errors, the summation roundoff and any
truncation, and raises SeriesAccuracyError above MAX_REL_ERROR (1e-6)
instead of returning a wrong value.  At t = 0.5 and Re = 1e5 or 1e6 the
series of cases 1 and 2 runs out of terms with an estimate above 9e4 at
every report location; without the truncation charge Re = 1e6 would be
served, with the wrong sign.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError, SeriesAccuracyError
from .operators import _GAUSS10_W, _GAUSS10_X

SIN_PI = "sin_pi"
POLY_4X_1MX = "poly_4x_1mx"

#: Below this time the required number of series terms blows up; the
#: benchmark never needs anything earlier, so refuse instead of degrading.
MIN_TIME = 1e-4

#: Absolute agreement of two successive quadratures of one cosine moment.
QUAD_TOL = 1e-12
#: Relative contribution below which a series term counts as quiet.
TERM_TOL = 1e-14
#: Series terms summed before giving up with a RuntimeWarning.
MAX_TERMS = 400
#: Largest estimated relative error of u that exact_u returns.
MAX_REL_ERROR = 1e-6

_MAX_CELLS = 1 << 18
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class ExactSolutionSpec:
    """Problem family and Reynolds number of one exact solution.

    The series and quadrature tolerances are the module constants QUAD_TOL,
    TERM_TOL and MAX_TERMS.
    """

    reynolds: float
    ic_family: str

    def __post_init__(self) -> None:
        if not (math.isfinite(self.reynolds) and self.reynolds > 0):
            raise ValueError("reynolds must be positive and finite")
        if self.ic_family not in (SIN_PI, POLY_4X_1MX):
            raise ValueError(f"unknown ic_family {self.ic_family!r}")


def _transformed_ic(spec: ExactSolutionSpec, x: np.ndarray) -> np.ndarray:
    # exp of minus the scaled antiderivative of the initial condition
    if spec.ic_family == SIN_PI:
        return np.exp(-(spec.reynolds / (2.0 * math.pi)) * (1.0 - np.cos(math.pi * x)))
    return np.exp(-x * x * (spec.reynolds / 3.0) * (3.0 - 2.0 * x))


def _composite_gauss(f, n_cells: int) -> float:
    edges = np.linspace(0.0, 1.0, n_cells + 1)
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = np.diff(edges) / 2.0
    return float(np.sum(_GAUSS10_W[:, None] * half
                        * f(mid + half * _GAUSS10_X[:, None])))


@functools.lru_cache(maxsize=2048)
def _coefficient(spec: ExactSolutionSpec, n: int) -> tuple[float, float]:
    """Moment n and its error estimate, the last doubling's change."""
    def integrand(x: np.ndarray) -> np.ndarray:
        return _transformed_ic(spec, x) * np.cos(n * math.pi * x)

    # subdivision scaled to the oscillation count, then doubled to tolerance
    cells = max(8, 4 * n)
    previous = _composite_gauss(integrand, cells)
    while cells <= _MAX_CELLS:
        cells *= 2
        current = _composite_gauss(integrand, cells)
        change = abs(current - previous)
        if change <= QUAD_TOL:
            factor = 1.0 if n == 0 else 2.0
            return factor * current, factor * change
        previous = current
    raise QuadratureError(
        f"cosine moment n={n} did not reach tol {QUAD_TOL} "
        f"within {_MAX_CELLS} cells"
    )


def check_time(t: float) -> None:
    """Raise ValueError unless t is a time at which exact_u serves u."""
    if not math.isfinite(t):
        raise ValueError(f"t = {t} is not finite")
    if t <= 0.0:
        raise ValueError("exact solution requires t > 0")
    if t < MIN_TIME:
        raise ValueError(f"t = {t} below {MIN_TIME}: series truncation "
                         "cannot be trusted there")


def _tail_bounds(decay: float, last: int,
                 reynolds: float) -> tuple[float, float]:
    """Bounds on the unsummed tails of the numerator and the denominator.

    theta_0 = exp(-(Re/2) F), F the antiderivative of u_0, has the slope
    -(Re/2) u_0 theta_0, 0 at both ends and unimodal, with u_0 theta_0 <= 1,
    so integrating by parts twice gives
    |c_n| <= 2 ||theta_0''||_1 / (n pi)^2 <= 2 Re / (n pi)^2 = C / n^2.
    With x = decay last^2 and e(s) = exp(-decay s^2), the tails past term
    `last` are at most the integrals from `last` of C e(s) / s and
    C e(s) / s^2: C e^-x / (2 x) and that over `last`.
    """
    x = decay * last * last
    moments = reynolds / math.pi**2 * math.exp(-x) / x
    return moments, moments / last


def exact_u(spec: ExactSolutionSpec, x: float, t: float) -> float:
    """Series solution u(x, t) for t > 0.

    Terms are summed until the relative contribution of the newest term to
    both the numerator and the denominator drops below TERM_TOL for two
    consecutive terms (single-term checks would stop early at points where
    sin(n pi x) vanishes).  Hitting MAX_TERMS first emits a RuntimeWarning.

    The relative error of u is estimated as that of the numerator plus that
    of the denominator.  Each sum is off by at most the moments' quadrature
    errors, each the change of the moment's last doubling (times 2 for
    n >= 1, like the moment), times its damping factor, plus roundoff:
    machine epsilon times the sum of |term|, plus, when MAX_TERMS ran out,
    a rigorous bound on each unsummed tail (_tail_bounds).  Above
    MAX_REL_ERROR the result is refused with SeriesAccuracyError.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x = {x} outside [0, 1]")
    check_time(t)
    if x == 0.0 or x == 1.0:
        # every numerator term carries sin(n pi x) = 0
        return 0.0
    decay = math.pi**2 * t / spec.reynolds
    numerator, error_num = 0.0, 0.0
    denominator, error_den = _coefficient(spec, 0)
    abs_num, abs_den = 0.0, abs(denominator)
    quiet_terms = 0
    for n in range(1, MAX_TERMS + 1):
        c_n, error_n = _coefficient(spec, n)
        damping = math.exp(-decay * n * n)
        damped = c_n * damping
        sin_n = math.sin(n * math.pi * x)
        cos_n = math.cos(n * math.pi * x)
        term_num = damped * n * sin_n
        term_den = damped * cos_n
        numerator += term_num
        denominator += term_den
        abs_num += abs(term_num)
        abs_den += abs(term_den)
        error_num += error_n * damping * n * abs(sin_n)
        error_den += error_n * damping * abs(cos_n)
        small_num = abs(term_num) <= TERM_TOL * max(abs(numerator), 1e-300)
        small_den = abs(term_den) <= TERM_TOL * abs(denominator)
        if small_num and small_den:
            quiet_terms += 1
            if quiet_terms >= 2:
                break
        else:
            quiet_terms = 0
    else:
        warnings.warn(
            f"series hit MAX_TERMS={MAX_TERMS} before reaching "
            f"TERM_TOL={TERM_TOL} (x={x}, t={t})",
            RuntimeWarning,
            stacklevel=2,
        )
        tail_num, tail_den = _tail_bounds(decay, MAX_TERMS, spec.reynolds)
        error_num += tail_num
        error_den += tail_den
    error_num += _EPS * abs_num
    error_den += _EPS * abs_den
    if numerator == 0.0 or denominator == 0.0:
        # the transformed data underflowed: nothing of u is left
        estimate = math.inf
    else:
        estimate = error_num / abs(numerator) + error_den / abs(denominator)
    if not estimate <= MAX_REL_ERROR:
        raise SeriesAccuracyError(
            f"series solution at x = {x:g}, t = {t:g}, Re = {spec.reynolds:g} "
            f"is not accurate to MAX_REL_ERROR = {MAX_REL_ERROR:g}", estimate)
    return (2.0 * math.pi / spec.reynolds) * numerator / denominator


def table_values(spec: ExactSolutionSpec, times, xs) -> np.ndarray:
    """Matrix of exact values, one row per time, one column per location."""
    return np.array([[exact_u(spec, float(x), float(t)) for x in xs] for t in times])
