"""Time integration of the viscous Burgers equation by wavelet collocation.

Each step solves a linear system: diffusion is theta-weighted between the
old and new time levels (Crank-Nicolson at the default theta = 1/2) while
the convection product is evaluated fully at the old level.  The left-hand
matrix is therefore constant in time and factored once.  Interior rows
collocate the scheme at the uniform grid points; the first and last rows
impose the boundary conditions on the new coefficients, as value rows for
Dirichlet data or first-derivative rows for Neumann data.

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
case 3: the run blows up near t = 0.26 whatever the time step or theta.
Diffusion alone is stable with either operator, but D*D damps the
grid-scale modes far less (with Neumann rows at 17 points its most
negative eigenvalue is about -730, against -2970 for the weak operator),
which is the likely reason it cannot hold the modes that convection
excites at the front.  The weak operator keeps case 3 bounded to t = 1.
The paper does not say how u_xx is discretised under Neumann data, so the
weak operator is a deviation from its method, not a reading of it.

A step is three mat-vecs for u, u_x and u_xx, then one LAPACK getrs
solve on the factors assemble_lhs keeps; getrs is called directly rather
than through scipy.linalg.lu_solve, whose wrapper costs about nine times
the solve at 33 points; the result is bitwise what lu_solve gives.
Both ends of a step are checked finite.  The np.errstate that lets a
diverging run reach that check without overflow warnings is entered once
around solve's loop, not per step.
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

#: A time t / dt may miss an integer by this much of a step (roundoff in
#: the division) and still count as that step.
_STEP_TOLERANCE = 1e-9

_getrs, = get_lapack_funcs(("getrs",), dtype=np.float64)


def steps_to(t: float, dt: float) -> int:
    """Number of steps of size dt that reach time t.

    t / dt may miss an integer by _STEP_TOLERANCE of a step; any larger miss
    raises ValueError rather than letting a neighbouring step stand in
    for t.
    """
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
    """Run parameters: physics, time discretization, boundary and initial data."""

    reynolds: float
    t_end: float
    bc: BoundarySpec
    ic: Callable[[np.ndarray], np.ndarray]
    spec: BasisSpec
    dt: float = 1e-3
    theta: float = 0.5

    def __post_init__(self) -> None:
        if self.reynolds <= 0:
            raise ValueError("reynolds must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        if self.t_end < 0:
            raise ValueError("t_end must be non-negative")

    def n_steps(self) -> int:
        # tolerate roundoff in t_end / dt so exact multiples stay exact
        return max(0, math.ceil(self.t_end / self.dt - _STEP_TOLERANCE))


@dataclass(frozen=True)
class CollocationSystem:
    """Factored left-hand side plus the cached evaluation rows it was built from.

    grid holds the collocation points.  values / first_deriv /
    second_deriv hold, row per grid point, the
    coefficients-to-point-values maps for u, du/dx and d2u/dx2.  flux is
    the constant part of d2u/dx2 that comes from the boundary data (the
    weak operator's M^-1 b); it is None for Dirichlet data.
    """

    grid: np.ndarray
    matrix: np.ndarray
    lu: tuple
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
    """Build and factor the (time-independent) left-hand matrix."""
    grid = collocation_points(config.spec)
    values = basis_matrix(config.spec, grid)
    first_deriv, second_deriv, flux = derivative_rows(values, config.bc)
    matrix = values - config.theta * (config.dt / config.reynolds) * second_deriv
    matrix[0], matrix[-1] = _boundary_rows(config, values, first_deriv)
    return CollocationSystem(
        grid=grid,
        matrix=matrix,
        lu=guarded_lu_factor(matrix, "collocation system"),
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
    prescribed boundary values.  Overflow in a diverging run is left to the
    caller's np.errstate; solve ignores it and step reports it.
    """
    u = system.values @ coeffs
    u_x = system.first_deriv @ coeffs
    u_xx = system.second_deriv @ coeffs
    rhs = (u
           + (1.0 - config.theta) * (config.dt / config.reynolds) * u_xx
           - config.dt * u * u_x)
    if system.flux is not None:
        rhs += (config.dt / config.reynolds) * system.flux
    rhs[0] = config.bc.left_value
    rhs[-1] = config.bc.right_value
    return rhs


def step(coeffs: np.ndarray, system: CollocationSystem, config: SolverConfig,
         step_index: int = 0) -> np.ndarray:
    """Advance the coefficients by one time step.

    The solve is LAPACK getrs on the stored factors, the routine lu_solve
    wraps, called directly: rhs has just been checked finite and is not
    used again, so it is solved in place.
    """
    rhs = build_rhs(coeffs, config, system)
    if not np.isfinite(rhs).all():
        raise DivergenceError(step_index, step_index * config.dt)
    new, info = _getrs(*system.lu, rhs, overwrite_b=True)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    if not np.isfinite(new).all():
        raise DivergenceError(step_index + 1, (step_index + 1) * config.dt)
    return new


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
    """Coefficient history at every time step of one run.

    system is the collocation system the run was stepped with.
    """

    times: np.ndarray
    coeffs: np.ndarray
    config: SolverConfig
    system: CollocationSystem

    def coefficients_at(self, t: float) -> np.ndarray:
        """Coefficients at time t, which must be a stored step; see steps_to."""
        if t < self.times[0] - 1e-12 or t > self.times[-1] + 1e-12:
            raise ValueError(
                f"t = {t} outside stored range [{self.times[0]}, {self.times[-1]}]"
            )
        return self.coeffs[steps_to(t, self.config.dt)]


def solve(config: SolverConfig) -> SolutionSeries:
    """Run the full time integration and record every step."""
    system = assemble_lhs(config)
    coeffs = initial_coefficients(config, system)
    n_steps = config.n_steps()
    history = np.empty((n_steps + 1, config.spec.n_functions))
    history[0] = coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            coeffs = step(coeffs, system, config, step_index=n)
            history[n + 1] = coeffs
    times = np.arange(n_steps + 1) * config.dt
    return SolutionSeries(times=times, coeffs=history, config=config,
                          system=system)


def sample(series: SolutionSeries, t: float, xs) -> list[float]:
    """Solution values at stored time t, one per location."""
    coeffs = series.coefficients_at(t)
    rows = basis_matrix(series.config.spec, xs)
    return [float(v) for v in rows @ coeffs]
