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

T is basis._nodal_matrix(level); the solver caches only the inverse
and condition that T's guard forms (_interpolation_matrix).  T enters
at three places only: c_0 = T^-1 u in initial_coefficients, with that
inverse; A = A_n T, the left-hand matrix of the coefficients, with A_n
the nodal one, which recovers the report states; and the seed map
S = [dt I; D1[1:-1]] T, which starts the loop.  The state stays in
coefficients, and slopes are read by rows formed in coefficient space,
D1[[0, -1]] T: the node rows applied to T c read case 3's slopes to
2.4e-13 at 65 points, over its 1e-13 gate, against 9e-15 for those rows.

The initial state is the L2 projection of the initial data onto the basis
span, c_0 = G^-1 <f, psi>, what expanding the data through the dual basis
gives; the paper's printed wavelet-collocation rows imply it (72 of their
75 entries are reproduced to five decimals, none from an interpolation of
the data at the nodes).  For Dirichlet data its end values are then set
to 0.  It is computed as u = M^-1 <f, h>, the moments <f, h> by
Gauss-10 on every grid cell, then c_0 = T^-1 u.

A step solves no linear system and is two numpy calls.  The left-hand
matrix is constant, so every linear part of a step is precomposed, and
the loop carries what the one nonlinear operation needs: the pair
z_n = (dt u_n, w_n), all N nodal values of dt u_n and the N - 2 interior
entries of the lagged convection product w_n = dt u_n u_x,n.  The next
right-hand side is r_{n+1} = L z_n, where L's end rows are zero, the
boundary data, and its interior rows are [B/dt | -I], with
B = I + (1 - THETA)(dt/Re) D2.  The step map
M = [dt I; D1[1:-1]] A_n^-1 L, square of side 2N - 2, gives dt u_{n+1}
and the interior of u_x,{n+1} in one gemv on prebuilt views, and one
multiply overwrites those u_x entries with w_{n+1}.  M does not depend
on the basis, since u = T c and A^-1 = T^-1 A_n^-1.  assemble_lhs builds
it from one forward solve, X = A_n^-1 [L | e_0 e_{N-1}], whose last N
columns are every column of A_n^-1 (the interior ones negated): the
same factorisation gives A_n's exact condition, and no inverse is
formed.  The loop is seeded with the same two calls, S c_0 in place of
M z, which is u_0 = T c_0 without a second factorisation.  A report
state is solved for from the pair before it, c_k = A^-1 L z_{k-1}, with
A's end rows in the solve; recovering it as T^-1 u_k would read case 3's
slopes as above.  Building M as the rows of P = F_n A_n^-1 (from a
transposed solve) times L moves case 3's golden profiles by 7.2e-11,
against 4.6e-11 for the forward solve.  Carrying the coefficients,
c_{n+1} = A^-1 F c_n with A^-1 F precomposed, broke case 3's
antisymmetry gate, and so did P = F inv(A) (see the README).

solve runs the steps in blocks of _CHECK_EVERY, the last block shorter.
A block steps from its first pair, then checks its pairs, the first
one included, for finiteness, then solves for the report states that
fall in it.  z_j holds state j, so the first non-finite z_j fails step
j, whether the solve inside M overflowed or the product w_j did; a
non-finite seed fails step 0.  A report state recovered non-finite
fails its own step.
The np.errstate that lets a diverging run reach the check without
overflow warnings is entered once around solve's loop, not per step.  A
run keeps only the states at its report times, so its memory does not
grow with the number of steps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import BasisSpec, _nodal_matrix
from .errors import DivergenceError
from .operators import (_GAUSS10_W, _GAUSS10_X, check_condition,
                        guarded_inverse, p1_kernel)

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

#: Implicit weight of the diffusion term: Crank-Nicolson.
THETA = 0.5

#: A time t / dt may miss an integer by this much of a step (roundoff in
#: the division) and still count as that step.
_STEP_TOLERANCE = 1e-9

#: Most steps a run may take.  A report time further than this from 0 is a
#: usage error, raised before anything is built.  At 33 points a step took
#: 1.2 us on one core of a 2-vCPU Xeon VM (10**6 steps of case 1 at dt
#: 1e-6, best of three), so 10**8 steps take about 2 minutes, but only
#: while the state stays normal: case 1 at dt 1e-3 run to t = 100 ends
#: with all 33 coefficients subnormal and averages 8.4 us a step.
MAX_STEPS = 10**8

#: solve steps in blocks of this many steps and checks each block's
#: carried pairs for non-finite values once, after its last step.
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
    """Left-hand side, step map, explicit operator and seed map of one run.

    matrix is A = A_n T, whose condition assemble_lhs has bounded.
    propagator is the step map M = [dt I; D1[1:-1]] A_n^-1 L, square of
    side 2N - 2: it maps the pair z_n = (dt u_n, dt u_n u_x,n) of state n,
    all N values of dt u and the N - 2 interior ones of the convection
    product, to dt u_{n+1} and the interior of u_x,{n+1}.  explicit is L,
    N x (2N - 2): L z_n is the right-hand side r_{n+1} = A c_{n+1}.  seed
    is S = [dt I; D1[1:-1]] T, (2N - 2) x N: it maps c_0 to dt u_0 and the
    interior of u_x,0.  All three are C-contiguous and read-only.  The
    node rows they were built from are derivative_rows(n_points, bc), and
    T is basis._nodal_matrix(level).  propagator starts 64-byte
    aligned: 16 bytes past a 32-byte boundary, where the heap may put it,
    a step took about 10% longer (33 points, one core).
    """

    matrix: np.ndarray
    propagator: np.ndarray
    explicit: np.ndarray
    seed: np.ndarray


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
    """T^-1, read-only, the inverse T's condition guard forms, and that
    checked condition; T itself is basis._nodal_matrix(max_level)."""
    inverse, condition = guarded_inverse(_nodal_matrix(max_level),
                                         "initial interpolation")
    inverse.flags.writeable = False
    return inverse, condition


def assemble_lhs(config: SolverConfig) -> CollocationSystem:
    """Build A = A_n T, the step map M, L and the seed map S.

    A_n = I - THETA (dt/Re) D2 with the identity's end rows (Dirichlet
    data) or D1's (Neumann data), so A's end rows are T's value rows, or
    the slope rows D1[[0, -1]] T.  L maps a carried pair z = (dt u, w) to
    the next right-hand side: its end rows are zero, the boundary data,
    and its interior rows are [B/dt | -I], B = I + (1 - THETA)(dt/Re) D2.
    One forward solve, X = A_n^-1 [L | e_0 e_{N-1}], gives A_n^-1 L and,
    in its last N columns, every column of A_n^-1 (the interior ones
    negated), so A_n's condition is exact and no inverse is formed.  It
    is checked before M = [dt I; D1[1:-1]] A_n^-1 L is built, and A by
    cond(A_n) cond(T), as T's, up to 44 at 65 points, is not bounded by
    A_n's check.  The same stacked rows times T give S.
    """
    n = config.spec.n_functions
    first_deriv, second_deriv = derivative_rows(n, config.bc)
    weight = config.dt / config.reynolds
    identity = np.eye(n)
    nodal = identity - THETA * weight * second_deriv
    ends = first_deriv if config.bc == NEUMANN else identity
    nodal[[0, -1]] = ends[[0, -1]]  # slope or value rows: the boundary rows
    explicit = np.zeros((n, 2 * n - 2))
    explicit[1:-1, :n] = (identity[1:-1] + (1.0 - THETA) * weight
                          * second_deriv[1:-1]) / config.dt
    explicit[1:-1, n:] = -identity[1:-1, 1:-1]
    explicit.flags.writeable = False
    try:
        solved = np.linalg.solve(nodal, np.hstack([explicit,
                                                   identity[:, [0, -1]]]))
        condition = (float(np.linalg.norm(nodal, 1))
                     * float(np.linalg.norm(solved[:, n:], 1)))
    except np.linalg.LinAlgError:
        condition = math.inf
    check_condition(condition, "nodal collocation system")
    rows = np.vstack([config.dt * identity, first_deriv[1:-1]])
    side = 2 * n - 2
    flat = np.empty(side**2 + 8)  # room to start M 64-byte aligned
    step_map = flat[-flat.ctypes.data % 64 // 8:][:side**2].reshape(side, -1)
    np.matmul(rows, solved[:, :side], out=step_map)
    _, values_condition = _interpolation_matrix(config.spec.max_level)
    check_condition(condition * values_condition, "collocation system")
    values = _nodal_matrix(config.spec.max_level)
    seed = rows @ values
    for array in (step_map, seed):
        array.flags.writeable = False
    return CollocationSystem(matrix=nodal @ values, propagator=step_map,
                             explicit=explicit, seed=seed)


def initial_coefficients(config: SolverConfig) -> np.ndarray:
    """The L2 projection of the initial condition onto the basis span.

    The hat moments of the data are integrated with Gauss-10 on every grid
    cell: the initial condition is called once on the 10 (N - 1)
    quadrature nodes, cell by cell, and ValueError is raised unless it
    returns one finite value per node.  u = M^-1 moments, with M the P1
    mass matrix, are the nodal values of the projection; for Dirichlet
    data the end values are then set to 0, so the state at t = 0 meets
    the boundary data.  The coefficients are c_0 = T^-1 u, from the
    inverse _interpolation_matrix keeps, so the one solve is with M.
    Expanding the data through the dual basis, G^-1 <f, psi> with
    G = T^T M T, is the same projection: its nodal values are M^-1 times
    the moments.
    """
    n = config.spec.n_functions
    cells = n - 1
    half = 0.5 / cells
    nodes = ((np.arange(cells) + 0.5) / cells)[:, None] + half * _GAUSS10_X
    samples = np.array(config.ic(nodes.ravel()), float)
    if samples.shape != (nodes.size,):
        raise ValueError(f"initial condition returned shape {samples.shape}, "
                         f"expected {(nodes.size,)}")
    if not np.all(np.isfinite(samples)):
        raise ValueError("initial condition returned non-finite values")
    weighted = half * _GAUSS10_W * samples.reshape(nodes.shape)
    rising = (1.0 + _GAUSS10_X) / 2.0  # the cell's right hat at its nodes
    moments = np.zeros(n)
    moments[:-1] += weighted @ (1.0 - rising)
    moments[1:] += weighted @ rising
    mass, _, _ = p1_kernel(n)
    nodal = np.linalg.solve(mass, moments)
    if config.bc == DIRICHLET:
        nodal[0] = nodal[-1] = 0.0
    return _interpolation_matrix(config.spec.max_level)[0] @ nodal


def solve(config: SolverConfig) -> np.ndarray:
    """Step to the last report time and return the states at the report times.

    Row i of the returned array holds the coefficients at config.times[i].
    The loop carries the pairs z_n = (dt u_n, dt u_n u_x,n), one step-map
    gemv and one multiply per step, and solves for the coefficients only
    at the report times, c_k = A^-1 L z_{k-1}; the state at a report time
    of 0 is c_0, stored before the loop.  The seed is z_0 = (dt u_0,
    dt u_0 u_x,0) from u_0 = T c_0, formed as a step is, with the seed map
    S c_0 in place of M z, so the seed factorises no matrix.  It runs in
    blocks of _CHECK_EVERY steps, each checked finite once after its last
    step, from its first pair on; then the report states whose steps fall
    in the block are solved for, earliest first.  The first non-finite z_j
    raises DivergenceError for step j, as does a report state recovered
    non-finite.  Nothing solve allocates grows with the number of steps.
    """
    system = assemble_lhs(config)
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
    # block[r] is the pair of state base + r; a step writes dt u and u_x
    # into the next row, then overwrites u_x with dt u u_x in place
    block = np.empty((_CHECK_EVERY + 1, 2 * n - 2))
    steps = [(pair, out, out[1:n - 1], out[n:])
             for pair, out in zip(block, block[1:])]
    # the bound dot is np.dot without its __array_function__ dispatch,
    # bitwise the same
    dot, multiply = system.propagator.dot, np.multiply
    with np.errstate(over="ignore", invalid="ignore"):
        np.dot(system.seed, coeffs, block[0])
        multiply(block[0, 1:n - 1], block[0, n:], block[0, n:])
        for base in range(0, n_steps, _CHECK_EVERY):
            size = min(_CHECK_EVERY, n_steps - base)
            for pair, out, scaled, product in steps[:size]:
                dot(pair, out)
                multiply(scaled, product, product)
            finite = np.isfinite(block[:size + 1]).all(axis=1)
            if not finite.all():
                failed = base + int(np.argmin(finite))
                raise DivergenceError(failed, failed * config.dt)
            while pending and pending[-1][0] <= base + size:
                k, i = pending.pop()
                # the state step k solves for, c = A^-1 L z_{k-1}
                rhs = np.dot(system.explicit, block[k - 1 - base])
                kept[i] = np.linalg.solve(system.matrix, rhs)
                if not np.isfinite(kept[i]).all():
                    raise DivergenceError(k, k * config.dt)
            block[0] = block[size]
    return kept
