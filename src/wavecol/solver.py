"""Time integration of the viscous Burgers equation by wavelet collocation.

Each step solves a linear system: diffusion is Crank-Nicolson, weighted
THETA = 1/2 between the old and new time levels, while the convection
product is evaluated fully at the old level.  The left-hand matrix is
therefore constant in time and factored once.  Interior rows collocate
the scheme at the uniform grid points; the first and last rows impose the
boundary conditions on the new coefficients, as value rows for Dirichlet
data or first-derivative rows for Neumann data.

The rows come from the nodal P1 kernel alone.  The basis spans the hats
of the collocation grid, so with V the basis values at the grid nodes the
paper's projected first derivative D has node rows M^-1 K^T V, with M the
P1 mass matrix and K[a, b] = integral of h_a' h_b; no Gram matrix, dual or
wavelet-space D is formed.  The second derivative depends on the boundary
data.  For Dirichlet data it is the paper operator, the projected first
derivative compounded, D*D, whose node rows are M^-1 K^T applied to the
first-derivative rows.  For Neumann data it is the weak P1 Laplacian on
the collocation grid, -M^-1 S applied to the nodal values, with the
prescribed slopes entering as the boundary flux M^-1 b.  D*D with the
Neumann rows is unstable for the steep antisymmetric front of benchmark
case 3: the run blows up near t = 0.26 whatever the time step.
Diffusion alone is stable with either operator, but D*D damps the
grid-scale modes far less (with Neumann rows at 17 points its most
negative eigenvalue is about -730, against -2970 for the weak operator),
which is the likely reason it cannot hold the modes that convection
excites at the front.  The weak operator keeps case 3 bounded to t = 1.
The paper does not say how u_xx is discretised under Neumann data, so the
weak operator is a deviation from its method, not a reading of it.

A step is one mat-vec, two in-place products and one LAPACK getrs solve.
assemble_lhs stacks the explicit operator once, as the (3N x N) array
[V; D1; V + (1 - THETA)(dt/Re) D2], so one gemv gives u, u_x and the
old-level part u + (1 - THETA)(dt/Re) u_xx together; the lagged convection
dt u u_x is then subtracted in place.  getrs is called directly on the
factors assemble_lhs keeps, rather than through scipy.linalg.lu_solve,
whose wrapper costs about nine times the solve at 33 points; the result is
bitwise what lu_solve gives.  solve checks finiteness once per
_CHECK_EVERY steps and at the last step, not per step: getrs cannot turn a
non-finite right-hand side into a finite solution, so the first non-finite
state of a block places the failure, and the step solve reports is the one
a per-step check would have reported.  The np.errstate that lets a
diverging run reach that check without overflow warnings is entered once
around solve's loop, not per step.

A run keeps only the states at its report times, SolverConfig.times, so
its memory does not grow with the number of steps: the loop holds one
block of _CHECK_EVERY + 1 states for the finiteness check, and copies the
report-time states out of each block once it is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from .basis import BasisSpec, basis_matrix, collocation_points
from .errors import DivergenceError
from .operators import guarded_lu_factor, p1_kernel

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

#: Implicit weight of the diffusion term: Crank-Nicolson.
THETA = 0.5

#: A time t / dt may miss an integer by this much of a step (roundoff in
#: the division) and still count as that step.
_STEP_TOLERANCE = 1e-9

#: solve checks the stored states for non-finite values once per this many
#: steps, and after the last step.
_CHECK_EVERY = 64

_getrs, = get_lapack_funcs(("getrs",), dtype=np.float64)


def steps_to(t: float, dt: float) -> int:
    """Number of steps of size dt that reach time t.

    t / dt may miss an integer by _STEP_TOLERANCE of a step; any larger miss
    raises ValueError rather than letting a neighbouring step stand in
    for t.  So does a non-finite t.
    """
    if not math.isfinite(t):
        raise ValueError(f"t = {t} is not finite")
    steps = t / dt
    if abs(steps - round(steps)) > _STEP_TOLERANCE:
        raise ValueError(f"t = {t:g} is not a multiple of dt = {dt:g}")
    return round(steps)


@dataclass(frozen=True)
class BoundarySpec:
    """Endpoint data: values of u (Dirichlet) or of du/dx (Neumann)."""

    kind: str
    left_value: float = 0.0
    right_value: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (DIRICHLET, NEUMANN):
            raise ValueError(f"unknown boundary kind {self.kind!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters: physics, time discretization, boundary and initial data.

    times are the report times: the run steps to the last of them and keeps
    the state at each, in the order given; a time of 0 names the initial
    state.  Every report time must be a non-negative multiple of dt (see
    steps_to), and no two may land on the same step; a bad one raises
    ValueError here, before anything is built.
    """

    reynolds: float
    times: tuple[float, ...]
    bc: BoundarySpec
    ic: Callable[[np.ndarray], np.ndarray]
    spec: BasisSpec
    dt: float = 1e-3

    def __post_init__(self) -> None:
        if not (math.isfinite(self.reynolds) and self.reynolds > 0):
            raise ValueError("reynolds must be positive and finite")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")
        object.__setattr__(self, "times", tuple(self.times))
        if not self.times:
            raise ValueError("times must hold at least one report time")
        seen: dict[int, float] = {}
        for t, k in zip(self.times, self.report_steps()):
            if k < 0:
                raise ValueError(f"report time t = {t:g} is negative")
            if k in seen:
                raise ValueError(f"report times t = {seen[k]:g} and t = {t:g} "
                                 f"land on the same step of dt = {self.dt:g}")
            seen[k] = t

    def report_steps(self) -> tuple[int, ...]:
        """Step number of each report time, in the order of times."""
        return tuple(steps_to(t, self.dt) for t in self.times)

    def n_steps(self) -> int:
        """Number of steps the run takes: to the last report time."""
        return max(self.report_steps())


@dataclass(frozen=True)
class CollocationSystem:
    """Factored left-hand side plus the cached evaluation rows it was built from.

    grid holds the collocation points.  explicit is the stacked explicit
    operator [V; D1; V + (1 - THETA)(dt/Re) D2], one C-contiguous
    (3N x N) array, read-only, so that one mat-vec gives u, du/dx and the
    old-level part of the step (see build_rhs).  values and first_deriv
    are its first two row blocks, as views: row per grid point, the
    coefficients-to-point-values maps for u and du/dx.  second_deriv is
    the unscaled map for d2u/dx2, and flux the constant part of d2u/dx2
    that comes from the boundary data (the weak operator's M^-1 b); flux
    is None for Dirichlet data.
    """

    grid: np.ndarray
    matrix: np.ndarray
    lu: tuple
    explicit: np.ndarray
    values: np.ndarray
    first_deriv: np.ndarray
    second_deriv: np.ndarray
    flux: np.ndarray | None = None


def _boundary_rows(config: SolverConfig, values: np.ndarray,
                   first_deriv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if config.bc.kind == NEUMANN:
        return first_deriv[0], first_deriv[-1]
    return values[0], values[-1]


def derivative_rows(values: np.ndarray, bc: BoundarySpec
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """First- and second-derivative node rows, and the Neumann flux.

    values maps coefficients to nodal values u = V c.  Returns the paper's
    projected first derivative M^-1 K^T V; the second derivative, which is
    M^-1 K^T applied to those rows (D*D) for Dirichlet data and the weak
    Laplacian -M^-1 S V for Neumann data; and, for Neumann data, the flux
    M^-1 b with b = (-g_L, 0, ..., 0, g_R), where g_L and g_R are the
    prescribed slopes (None for Dirichlet data).  The weak Laplacian plus
    the flux is exact for quadratics: for u = x**2 with g_L = 0 and g_R = 2
    it is 2 at every node, endpoints included.  M is factored once and
    every independent right-hand side goes through one solve.
    """
    mass, stiffness, hat_deriv = p1_kernel(values.shape[0])
    lu = lu_factor(mass)
    if bc.kind == DIRICHLET:
        first_deriv = lu_solve(lu, hat_deriv.T @ values)
        return first_deriv, lu_solve(lu, hat_deriv.T @ first_deriv), None
    n = values.shape[1]
    boundary = np.zeros((values.shape[0], 1))
    boundary[0], boundary[-1] = -bc.left_value, bc.right_value
    rows = lu_solve(lu, np.hstack(
        [hat_deriv.T @ values, -(stiffness @ values), boundary]))
    return rows[:, :n], rows[:, n:2 * n], rows[:, -1]


def assemble_lhs(config: SolverConfig) -> CollocationSystem:
    """Build and factor the (time-independent) left-hand matrix, and stack
    the explicit operator the right-hand side is formed with."""
    grid = collocation_points(config.spec)
    values = basis_matrix(config.spec, grid)
    first_deriv, second_deriv, flux = derivative_rows(values, config.bc)
    weight = config.dt / config.reynolds
    n = len(grid)
    explicit = np.vstack(
        [values, first_deriv, values + (1.0 - THETA) * weight * second_deriv])
    explicit.flags.writeable = False
    values, first_deriv = explicit[:n], explicit[n:2 * n]
    matrix = values - THETA * weight * second_deriv
    matrix[0], matrix[-1] = _boundary_rows(config, values, first_deriv)
    return CollocationSystem(
        grid=grid,
        matrix=matrix,
        lu=guarded_lu_factor(matrix, "collocation system"),
        explicit=explicit,
        values=values,
        first_deriv=first_deriv,
        second_deriv=second_deriv,
        flux=flux,
    )


def build_rhs(coeffs: np.ndarray, config: SolverConfig,
              system: CollocationSystem) -> np.ndarray:
    """Right-hand side for one step from the current coefficients.

    Interior entries carry the explicit part of the scheme (old-level
    diffusion share plus the lagged convection product) and, for Neumann
    data, the weak operator's boundary flux at full weight, since it is
    the same at both time levels; the first and last entries are the
    prescribed boundary values.  One mat-vec with system.explicit gives
    u, u_x and u + (1 - THETA)(dt/Re) u_xx; the convection product is
    formed in the u block and subtracted in place.  Overflow in a diverging
    run is left to the caller's np.errstate, under which solve ignores it.
    """
    n = coeffs.shape[0]
    stacked = system.explicit @ coeffs
    u, u_x, rhs = stacked[:n], stacked[n:2 * n], stacked[2 * n:]
    u *= config.dt
    u *= u_x
    rhs -= u
    if system.flux is not None:
        rhs += (config.dt / config.reynolds) * system.flux
    rhs[0] = config.bc.left_value
    rhs[-1] = config.bc.right_value
    return rhs


def initial_coefficients(config: SolverConfig,
                         system: CollocationSystem) -> np.ndarray:
    """Interpolate the initial condition, with the boundary rows enforced.

    Interior rows match the initial data at the grid points; the endpoint
    rows impose the boundary conditions, so for Neumann data the endpoint
    values come from the constrained interpolant rather than the raw data.
    """
    matrix = system.values.copy()
    rhs = np.asarray(config.ic(system.grid), float)
    if not np.all(np.isfinite(rhs)):
        raise ValueError("initial condition returned non-finite values")
    matrix[0], matrix[-1] = _boundary_rows(config, system.values,
                                           system.first_deriv)
    rhs[0] = config.bc.left_value
    rhs[-1] = config.bc.right_value
    return lu_solve(guarded_lu_factor(matrix, "initial interpolation"), rhs)


@dataclass(frozen=True)
class SolutionSeries:
    """Coefficients of one run at its report times.

    coeffs[i] is the state at time config.times[i]; system is the
    collocation system the run was stepped with.
    """

    coeffs: np.ndarray
    config: SolverConfig
    system: CollocationSystem

    def coefficients_at(self, t: float) -> np.ndarray:
        """Coefficients at time t, which must be one of config.times."""
        if t not in self.config.times:
            raise ValueError(f"t = {t} outside the report times of this run")
        return self.coeffs[self.config.times.index(t)]


def solve(config: SolverConfig) -> SolutionSeries:
    """Step to the last report time and keep the state at each report time.

    The states are checked finite once per _CHECK_EVERY steps and after the
    last step, in a block whose row 0 holds the last checked state.  The
    first non-finite state j raises DivergenceError: if the right-hand side
    built from state j - 1 is non-finite, step j - 1 fails; otherwise that
    solve overflowed and step j fails.  Nothing solve allocates grows with
    the number of steps.
    """
    system = assemble_lhs(config)
    lu, piv = system.lu
    coeffs = initial_coefficients(config, system)
    report = np.array(config.report_steps())
    n_steps = int(report.max())
    kept = np.empty((len(report), config.spec.n_functions))
    kept[report == 0] = coeffs
    # block[r] is the state at step base + r; block[0] is checked finite
    block = np.empty((_CHECK_EVERY + 1, config.spec.n_functions))
    block[0] = coeffs
    base = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_steps + 1):
            rhs = build_rhs(coeffs, config, system)
            coeffs, info = _getrs(lu, piv, rhs, overwrite_b=True)
            if info != 0:
                raise ValueError(f"illegal value in argument {-info} of getrs")
            block[n - base] = coeffs
            if n - base == _CHECK_EVERY or n == n_steps:
                finite = np.isfinite(block[1:n - base + 1]).all(axis=1)
                if not finite.all():
                    row = 1 + int(np.argmin(finite))
                    first = base + row
                    rhs = build_rhs(block[row - 1], config, system)
                    if not np.isfinite(rhs).all():
                        first -= 1
                    raise DivergenceError(first, first * config.dt)
                due = (report > base) & (report <= n)
                kept[due] = block[report[due] - base]
                block[0] = block[n - base]
                base = n
    return SolutionSeries(coeffs=kept, config=config, system=system)


def sample(series: SolutionSeries, t: float, xs) -> list[float]:
    """Solution values at report time t, one per location."""
    coeffs = series.coefficients_at(t)
    rows = basis_matrix(series.config.spec, xs)
    return [float(v) for v in rows @ coeffs]
