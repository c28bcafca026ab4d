"""Time integration of the viscous Burgers equation by wavelet collocation.

The scheme is linearly implicit: diffusion is Crank-Nicolson, weighted
THETA = 1/2 between the old and new time levels, while the convection
product is evaluated fully at the old level.  The left-hand matrix is
therefore constant in time.  Interior rows collocate the scheme at the
uniform grid points; the first and last rows impose the boundary
conditions, as value rows for Dirichlet data or first-derivative rows for
Neumann data.  The boundary data are the paper's, homogeneous: u = 0 at
both ends (Dirichlet) or u_x = 0 at both ends (Neumann); only their kind
is an input.

The scheme is built from the nodal P1 kernel alone.  The basis spans the
hats of the collocation grid, so every operator is a nodal one composed
with T, the basis values at the grid nodes.  The node rows act on nodal
values u = T c: the paper's projected first derivative D has the rows
D1 = M^-1 K^T, with M the P1 mass matrix and K[a, b] = integral of
h_a' h_b; no Gram matrix, dual or wavelet-space D is formed.  For
Dirichlet data the second derivative is the paper's D*D, D2 = M^-1 K^T D1.
For Neumann data it is the weak P1 Laplacian D2 = -M^-1 S, whose
integration-by-parts boundary term u_x h vanishes under zero slopes:
D*D with the Neumann rows blows up near t = 0.26 on the steep front of
case 3, whatever the time step.  D*D damps the grid-scale modes far
less (with Neumann rows at 17 points its most negative eigenvalue is
about -730, against -2970 for the weak operator), the likely reason it
cannot hold the modes that convection excites at the front; the weak
operator keeps case 3 bounded to t = 1.  The paper does not say how u_xx
is discretised under Neumann data, so this is a deviation from its
method.

T enters at two places only: c_0 = T^-1 u in initial_coefficients, and
A = A_n T, the left-hand matrix of the coefficients, with A_n the nodal
one; A seeds the loop and recovers the report states.  The state stays in
coefficients, and slopes are read by rows formed in coefficient space,
D1[[0, -1]] T: the node rows applied to T c read case 3's slopes to
2.4e-13 at 65 points, over its 1e-13 gate, against 9e-15 for those rows.

The initial state is the L2 projection of the initial data onto the basis
span, c_0 = G^-1 <f, psi>, what expanding the data through the dual basis
gives; the paper's printed wavelet-collocation rows imply it (72 of their
75 entries are reproduced to five decimals, none from an interpolation of
the data at the nodes).  For Dirichlet data its end values are then set
to 0.  It is computed as u = M^-1 <f, h>, then c_0 = T^-1 u.

A step solves no linear system.  The left-hand matrix A is constant, so
the loop carries the right-hand side r_n of step n, with c_n = A^-1 r_n,
rather than the coefficients.  It starts from r_0 = A c_0, so every step,
the first one included, is the same update.  The propagator does not
depend on the basis: with F = F_n T, P = F A^-1 = F_n A_n^-1, where
F_n = [dt I; D1; I + (1 - THETA)(dt/Re) D2] is the stacked nodal
explicit operator with dt folded into its first block.  assemble_lhs
forms F_n only to build P, by one transposed solve, P^T = A_n^-T F_n^T.
P's first block is dt A_n^-1, so the same solve gives A_n's exact
condition from A_n's one factorisation, and no inverse is formed.
One gemv P r_n gives dt u, u_x and the old-level part
u + (1 - THETA)(dt/Re) u_xx of state n; the lagged convection product
dt u u_x is formed in place and subtracted straight into r_{n+1}.  The
ends of every r_n after the seed are the boundary data, 0, which the
buffers are allocated with, so a step is three numpy calls on prebuilt
views, the gemv, a multiply and a subtract.  The gemv stays the full
3N x N product: one over the interior rows alone changed the results in
their last bits, since BLAS rounds each row according to the layout.
Carrying the coefficients, c_{n+1} = A^-1 F c_n with A^-1 F precomposed,
broke case 3's antisymmetry gate, and so did P = F inv(A); carrying r
with P from the transposed solve keeps every gate (see the README).

solve runs the steps in blocks of _CHECK_EVERY, the last block shorter.
A block steps from its first right-hand side, then checks the ones it
built for finiteness, then solves for the report states that fall in it.
r_j is built from state j - 1, so the first non-finite r_j fails step
j - 1: either its right-hand side overflowed, or the state before it did
and the product P r_{j-1} carried the overflow on.  A report state
recovered non-finite fails its own step.  The np.errstate that lets a
diverging run reach the check without overflow warnings is entered once
around solve's loop, not per step.  A run keeps only the states at its
report times, so its memory does not grow with the number of steps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import BasisSpec, _nodal_matrix
from .errors import DivergenceError
from .operators import check_condition, guarded_inverse, p1_kernel

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

#: Gauss-Legendre nodes and weights of order 5 on [-1, 1], as
#: numpy.polynomial.legendre.leggauss(5) gives them: the initial data's
#: hat moments are integrated with them on every grid cell.
_GAUSS5_X = np.array([-0.906179845938664, -0.5384693101056831, 0.0,
                      0.5384693101056831, 0.906179845938664])
_GAUSS5_W = np.array([0.23692688505618928, 0.4786286704993663,
                      0.5688888888888887, 0.4786286704993663,
                      0.23692688505618928])


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
        raise ValueError(f"t = {t!r} is not a multiple of dt = {dt!r}")
    return round(steps)


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters: physics, time discretization, boundary and initial data.

    bc is the boundary kind, DIRICHLET (u = 0 at both ends) or NEUMANN
    (u_x = 0 at both ends); any other value raises ValueError here.
    times are the report times: the run steps to the last of them and keeps
    the state at each, in the order given; a time of 0 names the initial
    state.  Every report time must be a non-negative multiple of dt, at
    most MAX_STEPS steps from 0 (see steps_to), and no two may land on the
    same step; a bad one raises ValueError here, before anything is built.
    """

    reynolds: float
    times: tuple[float, ...]
    bc: str
    ic: Callable[[np.ndarray], np.ndarray]
    spec: BasisSpec
    dt: float = 1e-3

    def __post_init__(self) -> None:
        if self.bc not in (DIRICHLET, NEUMANN):
            raise ValueError(f"unknown boundary kind {self.bc!r}")
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
                raise ValueError(f"report times t = {seen[k]!r} and t = {t!r} "
                                 f"land on the same step of dt = {self.dt!r}")
            seen[k] = t

    def report_steps(self) -> tuple[int, ...]:
        """Step number of each report time, in the order of times."""
        return tuple(steps_to(t, self.dt) for t in self.times)

    def n_steps(self) -> int:
        """Number of steps the run takes: to the last report time."""
        return max(self.report_steps())


@dataclass(frozen=True, eq=False)
class CollocationSystem:
    """Left-hand side and propagator of one run.

    matrix is A = A_n T, whose condition assemble_lhs has bounded.
    propagator is P = F_n A_n^-1, C-contiguous and read-only: it maps a
    step's right-hand side to dt u, u_x and the old-level part of the state
    that step solves for.  The node rows both were built from are
    derivative_rows(n_points, bc), and T is _interpolation_matrix(level)[0].
    """

    matrix: np.ndarray
    propagator: np.ndarray


@functools.lru_cache(maxsize=16)
def derivative_rows(n_points: int, bc: str) -> tuple[np.ndarray, np.ndarray]:
    """Nodal first- and second-derivative rows, (D1, D2).

    The rows act on the values at the n_points grid nodes: D1 = M^-1 K^T;
    D2 = M^-1 K^T D1 (D*D) for Dirichlet data, the weak Laplacian -M^-1 S
    for Neumann data, whose boundary term the zero slopes remove.  One
    solve with M per boundary kind; built once per (n_points, bc) and
    returned read-only.
    """
    mass, stiffness, hat_deriv = p1_kernel(n_points)
    if bc == DIRICHLET:
        first_deriv = np.linalg.solve(mass, hat_deriv.T)
        rows = (first_deriv, np.linalg.solve(mass, hat_deriv.T @ first_deriv))
    else:
        stacked = np.linalg.solve(mass, np.hstack([hat_deriv.T, -stiffness]))
        rows = (stacked[:, :n_points], stacked[:, n_points:])
    for array in rows:
        array.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=8)
def _interpolation_matrix(max_level: int) -> tuple[np.ndarray, float]:
    """T, the basis values at the grid nodes, and its checked condition."""
    values = _nodal_matrix(max_level)
    return values, guarded_inverse(values, "initial interpolation")[1]


def assemble_lhs(config: SolverConfig) -> CollocationSystem:
    """Build A_n, the propagator P = F_n A_n^-1 and A = A_n T.

    A_n = I - THETA (dt/Re) D2 with the identity's end rows (Dirichlet
    data) or D1's (Neumann data), so A's end rows are T's value rows, or
    the slope rows D1[[0, -1]] T.  A_n's condition, read off P's first
    block dt A_n^-1 (exact while that block is normal: inf where it
    overflows), is checked before P is used, and A by cond(A_n) cond(T),
    as T's, up to 44 at 65 points, is not bounded by A_n's check.
    """
    n = config.spec.n_functions
    first_deriv, second_deriv = derivative_rows(n, config.bc)
    weight = config.dt / config.reynolds
    identity = np.eye(n)
    nodal = identity - THETA * weight * second_deriv
    ends = first_deriv if config.bc == NEUMANN else identity
    nodal[[0, -1]] = ends[[0, -1]]  # slope or value rows: the boundary rows
    explicit = np.vstack([config.dt * identity, first_deriv,
                          identity + (1.0 - THETA) * weight * second_deriv])
    # P^T's first block is dt A_n^-T, and ||A_n^-1||_1 = ||A_n^-T||_inf
    try:
        solved = np.linalg.solve(nodal.T, explicit.T)
        condition = (float(np.linalg.norm(nodal, 1))
                     * float(np.linalg.norm(solved[:, :n], np.inf)) / config.dt)
    except np.linalg.LinAlgError:
        condition = math.inf
    check_condition(condition, "nodal collocation system")
    propagator = np.ascontiguousarray(solved.T)
    propagator.flags.writeable = False
    values, values_condition = _interpolation_matrix(config.spec.max_level)
    check_condition(condition * values_condition, "collocation system")
    return CollocationSystem(matrix=nodal @ values, propagator=propagator)


def _rhs_buffers(n: int):
    """The buffers solve steps in, and the interior views a step writes.

    Returns the 3N propagator product, the interior views of its three row
    blocks (dt u, u_x and u + (1 - THETA)(dt/Re) u_xx), the block of
    _CHECK_EVERY + 1 carried right-hand sides, its rows, and the interior
    view of each row.  The block is allocated zero, so every row's first
    and last entries are the boundary data: a step writes only the
    interior, so they stay, and block[0] = block[size] carries them into
    the next block.
    """
    stacked = np.empty(3 * n)
    products = (stacked[1:n - 1], stacked[n + 1:2 * n - 1],
                stacked[2 * n + 1:3 * n - 1])
    block = np.zeros((_CHECK_EVERY + 1, n))
    return stacked, products, block, list(block), [row[1:-1] for row in block]


def _advance(propagator: np.ndarray, stacked: np.ndarray,
             products: tuple[np.ndarray, np.ndarray, np.ndarray],
             rows: list[np.ndarray], interiors: list[np.ndarray]) -> None:
    """Step each right-hand side in rows into the matching interior view.

    One gemv, the propagator's bound dot (np.dot without its
    __array_function__ dispatch, bitwise the same), writes the propagator
    product of a right-hand side into stacked, whose interior views are
    products; the first is overwritten with the convection product
    dt u u_x, which is subtracted from the third straight into the
    interior of the next right-hand side.  The ends are not written (see
    _rhs_buffers).
    """
    dot, multiply, subtract = propagator.dot, np.multiply, np.subtract
    product, u_x, part = products
    for rhs, out in zip(rows, interiors):
        dot(rhs, stacked)
        multiply(product, u_x, product)
        subtract(part, product, out)


def initial_coefficients(config: SolverConfig) -> np.ndarray:
    """The L2 projection of the initial condition onto the basis span.

    The hat moments of the data are integrated with Gauss-5 on every grid
    cell: the initial condition is called once on the 5 (N - 1)
    quadrature nodes, cell by cell, and ValueError is raised unless it
    returns one finite value per node.  u = M^-1 moments, with M the P1
    mass matrix, are the nodal values of the projection; for Dirichlet
    data the end values are then set to 0, so the state at t = 0 meets
    the boundary data.  The coefficients are c_0 = T^-1 u.  Expanding
    the data through the dual basis, G^-1 <f, psi> with G = T^T M T, is
    the same projection: its nodal values are M^-1 times the moments.
    """
    n = config.spec.n_functions
    cells = n - 1
    half = 0.5 / cells
    nodes = ((np.arange(cells) + 0.5) / cells)[:, None] + half * _GAUSS5_X
    samples = np.array(config.ic(nodes.ravel()), float)
    if samples.shape != (nodes.size,):
        raise ValueError(f"initial condition returned shape {samples.shape}, "
                         f"expected {(nodes.size,)}")
    if not np.all(np.isfinite(samples)):
        raise ValueError("initial condition returned non-finite values")
    weighted = half * _GAUSS5_W * samples.reshape(nodes.shape)
    rising = (1.0 + _GAUSS5_X) / 2.0  # the cell's right hat at its nodes
    moments = np.zeros(n)
    moments[:-1] += weighted @ (1.0 - rising)
    moments[1:] += weighted @ rising
    mass, _, _ = p1_kernel(n)
    nodal = np.linalg.solve(mass, moments)
    if config.bc == DIRICHLET:
        nodal[0] = nodal[-1] = 0.0
    return np.linalg.solve(_interpolation_matrix(config.spec.max_level)[0],
                           nodal)


def solve(config: SolverConfig) -> np.ndarray:
    """Step to the last report time and return the states at the report times.

    Row i of the returned array holds the coefficients at config.times[i].
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
    coeffs = initial_coefficients(config)
    report = config.report_steps()
    n_steps = max(report)
    n = config.spec.n_functions
    kept = np.empty((len(report), n))
    if 0 in report:
        kept[report.index(0)] = coeffs
    # (step, index) of every later report state, the earliest last
    pending = sorted(((k, i) for i, k in enumerate(report) if k),
                     reverse=True)
    stacked, products, block, rows, interiors = _rhs_buffers(n)
    with np.errstate(over="ignore", invalid="ignore"):
        # block[r] is the right-hand side of step base + r
        block[0] = np.dot(system.matrix, coeffs)
        for base in range(0, n_steps, _CHECK_EVERY):
            size = min(_CHECK_EVERY, n_steps - base)
            _advance(propagator, stacked, products, rows[:size],
                     interiors[1:size + 1])
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
    return kept
