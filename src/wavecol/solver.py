"""Time integration of the viscous Burgers equation by wavelet collocation.

The scheme is linearly implicit: diffusion is Crank-Nicolson, weighted
THETA = 1/2 between the old and new time levels, while the convection
product is evaluated fully at the old level.  The left-hand matrix is
therefore constant in time.  Interior rows collocate the scheme at the
uniform grid points; the first and last rows impose the boundary
conditions on the new coefficients, as value rows for Dirichlet data or
first-derivative rows for Neumann data.

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

A step solves no linear system.  The left-hand matrix A is constant, so
the loop carries the right-hand side r_n of step n, with c_n = A^-1 r_n,
rather than the coefficients.  It starts from r_0 = A c_0, the right-hand
side whose solve is the initial state, so every step, the first one
included, is the same update.  assemble_lhs precomposes the propagator
P = F A^-1 once, where F = [dt V; D1; V + (1 - THETA)(dt/Re) D2] is the
stacked explicit operator with dt folded into its first block; F is a
temporary of the build, and P comes from one transposed solve,
P^T = A^-T F^T, not as a product with A^-1.  One gemv P r_n gives dt u,
u_x and the old-level part u + (1 - THETA)(dt/Re) u_xx of state n; the
lagged convection product dt u u_x is formed in place and subtracted
straight into r_{n+1}, and the weak operator's boundary flux (dt/Re)
M^-1 b is added at full weight for Neumann data with nonzero slopes.  The
first and last entries of every r_n after the seed are the boundary data;
they are written once, when the buffers are built, and a step writes only
the interior entries.  So a step is three numpy calls on prebuilt views, the
gemv, a multiply and a subtract, plus an add for nonzero slopes.  The gemv
stays the full 3N x N product: one over the interior rows alone changed
the results in their last bits, since BLAS rounds each row according to
the layout.  The coefficients are solved for, by one np.linalg.solve with
A, only at the report times.  A form that carried the coefficients
instead, c_{n+1} = A^-1 F c_n with A^-1 F precomposed, broke case 3's
antisymmetry gate, and so did P = F inv(A); carrying r with P from the
transposed solve keeps every gate (see the README's numerical notes).

solve runs the steps in blocks of _CHECK_EVERY, the last block shorter.
A block steps from its first right-hand side, then checks the ones it
built for finiteness, then solves for the report states that fall in it.
r_j is built from state j - 1, so the first non-finite r_j fails step
j - 1: either its right-hand side overflowed, or the state before it did
and the product P r_{j-1} carried the overflow on.  A report state
recovered non-finite fails its own step.  The np.errstate that lets a
diverging run reach the check without overflow warnings is entered once
around solve's loop, not per step.

A run keeps only the states at its report times, SolverConfig.times, so
its memory does not grow with the number of steps: the loop holds one
block of _CHECK_EVERY + 1 right-hand sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import BasisSpec, _nodal_matrix, collocation_points
from .errors import DivergenceError
from .operators import guard_condition, p1_kernel

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

#: Implicit weight of the diffusion term: Crank-Nicolson.
THETA = 0.5

#: A time t / dt may miss an integer by this much of a step (roundoff in
#: the division) and still count as that step.
_STEP_TOLERANCE = 1e-9

#: Most steps a run may take.  A report time further than this from 0 is a
#: usage error, raised before anything is built.  At 33 points a step took
#: 2.8 us on one core of a 2-vCPU Xeon VM (10**6 steps of case 1 at dt
#: 1e-6), so 10**8 steps take about 5 minutes, but only while the state
#: stays normal: case 1 at dt 1e-3 run to t = 100 ends with 31 of 33
#: coefficients subnormal and averages 19-33 us a step.
MAX_STEPS = 10**8

#: solve steps in blocks of this many steps and checks each block's
#: right-hand sides for non-finite values once, after its last step.
_CHECK_EVERY = 64


def steps_to(t: float, dt: float) -> int:
    """Number of steps of size dt that reach time t.

    t / dt may miss an integer by _STEP_TOLERANCE of a step; any larger miss
    raises ValueError rather than letting a neighbouring step stand in
    for t.  So do a non-finite t and a t more than MAX_STEPS steps from 0.
    """
    if not math.isfinite(t):
        raise ValueError(f"t = {t} is not finite")
    steps = t / dt
    if not abs(steps) < MAX_STEPS + 0.5:  # also when t / dt overflows
        raise ValueError(f"t = {t:g} is more than MAX_STEPS = {MAX_STEPS:,} "
                         f"steps of dt = {dt:g} from 0")
    if abs(steps - round(steps)) > _STEP_TOLERANCE:
        raise ValueError(f"t = {t:g} is not a multiple of dt = {dt:g}")
    return round(steps)


@dataclass(frozen=True)
class BoundarySpec:
    """Endpoint data: finite values of u (Dirichlet) or of du/dx (Neumann)."""

    kind: str
    left_value: float = 0.0
    right_value: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (DIRICHLET, NEUMANN):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        for name in ("left_value", "right_value"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} = {value} is not finite")


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters: physics, time discretization, boundary and initial data.

    times are the report times: the run steps to the last of them and keeps
    the state at each, in the order given; a time of 0 names the initial
    state.  Every report time must be a non-negative multiple of dt, at
    most MAX_STEPS steps from 0 (see steps_to), and no two may land on the
    same step; a bad one raises ValueError here, before anything is built.
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


@dataclass(frozen=True, eq=False)
class CollocationSystem:
    """Left-hand side plus the cached evaluation rows it was built from.

    grid holds the collocation points and matrix the left-hand matrix A,
    whose condition assemble_lhs has checked.  propagator is P = F A^-1,
    C-contiguous and read-only, with F the (3N x N) stacked explicit
    operator [dt V; D1; V + (1 - THETA)(dt/Re) D2]: it maps a step's
    right-hand side to dt u, u_x and the old-level part of the state that
    step solves for, which, with A for the report states, is all solve
    steps with.  F itself is not kept.  values and first_deriv are the
    coefficients-to-point-values maps for u and du/dx, one row per grid
    point; values is T, the basis values at the grid nodes, shared by
    every run at the resolution and read-only.  second_deriv is the map
    for d2u/dx2, and flux the constant part of d2u/dx2 that comes from the
    boundary data (the weak operator's M^-1 b); flux is None for Dirichlet
    data.
    """

    grid: np.ndarray
    matrix: np.ndarray
    propagator: np.ndarray
    values: np.ndarray
    first_deriv: np.ndarray
    second_deriv: np.ndarray
    flux: np.ndarray | None = None


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
    it is 2 at every node, endpoints included.  Every independent
    right-hand side goes through one solve with M.
    """
    mass, stiffness, hat_deriv = p1_kernel(values.shape[0])
    if bc.kind == DIRICHLET:
        first_deriv = np.linalg.solve(mass, hat_deriv.T @ values)
        return (first_deriv, np.linalg.solve(mass, hat_deriv.T @ first_deriv),
                None)
    n = values.shape[1]
    boundary = np.zeros((values.shape[0], 1))
    boundary[0], boundary[-1] = -bc.left_value, bc.right_value
    rows = np.linalg.solve(mass, np.hstack(
        [hat_deriv.T @ values, -(stiffness @ values), boundary]))
    return rows[:, :n], rows[:, n:2 * n], rows[:, -1]


def assemble_lhs(config: SolverConfig) -> CollocationSystem:
    """Build the (time-independent) left-hand matrix A, check its
    condition, and precompose the propagator P = F A^-1 solve steps with;
    the stacked explicit operator F is formed only to build P."""
    grid = collocation_points(config.spec)
    values = _nodal_matrix(config.spec.max_level)
    first_deriv, second_deriv, flux = derivative_rows(values, config.bc)
    weight = config.dt / config.reynolds
    matrix = values - THETA * weight * second_deriv
    ends = first_deriv if config.bc.kind == NEUMANN else values
    matrix[[0, -1]] = ends[[0, -1]]  # slope or value rows: the boundary rows
    guard_condition(matrix, "collocation system")
    explicit = np.vstack([config.dt * values, first_deriv,
                          values + (1.0 - THETA) * weight * second_deriv])
    # P^T = A^-T F^T: one transposed solve, not a product with A^-1
    propagator = np.ascontiguousarray(np.linalg.solve(matrix.T, explicit.T).T)
    propagator.flags.writeable = False
    return CollocationSystem(
        grid=grid,
        matrix=matrix,
        propagator=propagator,
        values=values,
        first_deriv=first_deriv,
        second_deriv=second_deriv,
        flux=flux,
    )


def _rhs_buffers(n: int, bc: BoundarySpec):
    """The buffers solve steps in, and the interior views a step writes.

    Returns the 3N propagator product, the interior views of its three row
    blocks (dt u, u_x and u + (1 - THETA)(dt/Re) u_xx), the block of
    _CHECK_EVERY + 1 carried right-hand sides, its rows, and the interior
    view of each row.  Every row's first and last entries are set to the
    boundary data here, once: a step writes only the interior, so they
    stay, and block[0] = block[size] carries them into the next block.
    """
    stacked = np.empty(3 * n)
    products = (stacked[1:n - 1], stacked[n + 1:2 * n - 1],
                stacked[2 * n + 1:3 * n - 1])
    block = np.empty((_CHECK_EVERY + 1, n))
    block[:, 0] = bc.left_value
    block[:, -1] = bc.right_value
    return stacked, products, block, list(block), [row[1:-1] for row in block]


def _advance(propagator: np.ndarray, stacked: np.ndarray,
             products: tuple[np.ndarray, np.ndarray, np.ndarray],
             rows: list[np.ndarray], interiors: list[np.ndarray],
             forcing: np.ndarray | None) -> None:
    """Step each right-hand side in rows into the matching interior view.

    One gemv, the propagator's bound dot (np.dot without its
    __array_function__ dispatch, bitwise the same), writes the propagator
    product of a right-hand side into stacked, whose interior views are
    products; the first is overwritten with the convection product
    dt u u_x, which is subtracted from the third straight into the
    interior of the next right-hand side.
    forcing, the interior of the weak operator's boundary flux times dt/Re,
    is added at full weight, since it is the same at both time levels; it
    is None when it is zero.  The ends are not written (see _rhs_buffers).
    """
    dot, multiply, subtract, add = (propagator.dot, np.multiply, np.subtract,
                                    np.add)
    product, u_x, part = products
    for rhs, out in zip(rows, interiors):
        dot(rhs, stacked)
        multiply(product, u_x, product)
        subtract(part, product, out)
        if forcing is not None:
            add(out, forcing, out)


def initial_coefficients(config: SolverConfig,
                         system: CollocationSystem) -> np.ndarray:
    """Interpolate the initial condition, with the boundary rows enforced.

    The initial condition is sampled at the grid points, into a new array;
    ValueError unless it returns one finite value per point.  Interior
    rows are T's, matching those samples; the endpoint rows are A's
    boundary rows, so for Neumann data the endpoint values come from the
    constrained interpolant, not the data.
    """
    matrix = system.values.copy()
    matrix[[0, -1]] = system.matrix[[0, -1]]
    grid = system.grid
    rhs = np.array(config.ic(grid), float)
    if rhs.shape != grid.shape:
        raise ValueError(f"initial condition returned shape {rhs.shape}, "
                         f"expected {grid.shape}")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("initial condition returned non-finite values")
    rhs[0] = config.bc.left_value
    rhs[-1] = config.bc.right_value
    guard_condition(matrix, "initial interpolation")
    return np.linalg.solve(matrix, rhs)


@dataclass(frozen=True, eq=False)
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

    The loop carries right-hand sides from r_0 = A c_0, one propagator
    gemv per step, and solves for the coefficients only at the report
    times; the state at a report time of 0 is c_0, stored before the loop.
    It runs in blocks of _CHECK_EVERY steps, each checked finite once after
    its last step; then the report states whose steps fall in the block
    are solved for, earliest first.  The first non-finite r_j raises
    DivergenceError for step j - 1, the step whose state it was built
    from; a report state recovered non-finite raises it for its own step.
    Nothing solve allocates grows with the number of steps.
    """
    system = assemble_lhs(config)
    propagator = system.propagator
    coeffs = initial_coefficients(config, system)
    report = config.report_steps()
    n_steps = max(report)
    n = config.spec.n_functions
    kept = np.empty((len(report), n))
    if 0 in report:
        kept[report.index(0)] = coeffs
    # (step, index) of every later report state, the earliest last
    pending = sorted(((k, i) for i, k in enumerate(report) if k),
                     reverse=True)
    forcing = (None if system.flux is None
               else (config.dt / config.reynolds) * system.flux[1:-1])
    if forcing is not None and not forcing.any():
        forcing = None
    stacked, products, block, rows, interiors = _rhs_buffers(n, config.bc)
    with np.errstate(over="ignore", invalid="ignore"):
        # block[r] is the right-hand side of step base + r
        block[0] = np.dot(system.matrix, coeffs)
        for base in range(0, n_steps, _CHECK_EVERY):
            size = min(_CHECK_EVERY, n_steps - base)
            _advance(propagator, stacked, products, rows[:size],
                     interiors[1:size + 1], forcing)
            finite = np.isfinite(block[1:size + 1]).all(axis=1)
            if not finite.all():
                failed = base + int(np.argmin(finite))
                raise DivergenceError(failed, failed * config.dt)
            while pending and pending[-1][0] <= base + size:
                k, i = pending.pop()
                # the state step k solves for, c = A^-1 r
                kept[i] = np.linalg.solve(system.matrix, block[k - base])
                if not np.isfinite(kept[i]).all():
                    raise DivergenceError(k, k * config.dt)
            block[0] = block[size]
    return SolutionSeries(coeffs=kept, config=config, system=system)
