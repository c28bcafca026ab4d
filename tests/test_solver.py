"""Time stepping: assembly, stepping, boundary enforcement, published anchors."""

import dataclasses
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

import wavecol as w
from wavecol import basis, solver
from wavecol.errors import ConditioningError, DivergenceError
from wavecol.operators import CONDITION_LIMIT, p1_kernel
from wavecol.solver import (
    DIRICHLET,
    NEUMANN,
    assemble_lhs,
    derivative_rows,
    initial_coefficients,
)

from exact_reference import project_l2


def _config(level=4, reynolds=1.0, t_end=0.1, dt=1e-3,
            bc=DIRICHLET, ic=None):
    # every step up to t_end is a report time, so coeffs[k] is step k
    spec = w.BasisSpec(max_level=level)
    times = tuple(k * dt for k in range(round(t_end / dt))) + (t_end,)
    return w.SolverConfig(
        reynolds=reynolds, times=times, dt=dt,
        bc=bc,
        ic=ic or (lambda x: np.sin(np.pi * x)),
        spec=spec,
    )


CASE3_IC = lambda x: 50.0 * (0.5 - x) ** 3


def _rows(config):
    """T and the nodal rows D1 and D2 that assemble_lhs builds the run's
    system from, read from the shared tables: T from basis._nodal_matrix."""
    return (basis._nodal_matrix(config.spec.max_level),
            *derivative_rows(config.spec.n_functions, config.bc))


def _reference_history(config):
    """The step algebra spelled out with scipy's lu_factor and lu_solve.

    A dense per-step solve of the coefficients, with the right-hand side
    u + (1/2)(dt/Re) u_xx - dt u u_x formed here from the assembled node
    rows, taken to coefficient space, so it shares no step code with
    solve.  Returns the coefficient history, or the DivergenceError the
    run ends in.
    """
    lu = lu_factor(assemble_lhs(config).matrix)
    weight = config.dt / config.reynolds
    values, first_deriv, second_deriv = _rows(config)
    first = first_deriv @ values
    second = second_deriv @ values
    coeffs = initial_coefficients(config)
    history = [coeffs]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(config.n_steps()):
            u = values @ coeffs
            u_x = first @ coeffs
            u_xx = second @ coeffs
            rhs = u + 0.5 * weight * u_xx - config.dt * u * u_x
            rhs[0] = rhs[-1] = 0.0
            if not np.all(np.isfinite(rhs)):
                return DivergenceError(n, n * config.dt)
            coeffs = lu_solve(lu, rhs)
            if not np.all(np.isfinite(coeffs)):
                return DivergenceError(n + 1, (n + 1) * config.dt)
            history.append(coeffs)
    return np.array(history)


def _values_at(config, coeffs, t, xs):
    """The solution at report time t at the points xs, from the states
    coeffs that solve(config) returned."""
    return w.basis_matrix(config.spec, xs) @ coeffs[config.times.index(t)]


def _explicit_rows(config):
    """Coefficient rows V, D1 V and D2 V, built apart from assemble_lhs."""
    values = w.basis_matrix(config.spec,
                            np.linspace(0.0, 1.0, config.spec.n_functions))
    first, second = derivative_rows(config.spec.n_functions, config.bc)
    return values, first @ values, second @ values


def _slope_rows(config):
    """D1[[0, -1]] T, the slope rows, through a product of A's own shape:
    the end rows of E T, E zero but for D1's end rows.  BLAS may round a
    row of a product differently with its shape (at 65 points the 2 x N
    product D1[[0, -1]] @ T differs from A's end rows by 1.7e-49), but not
    with the other rows' values."""
    values, first, _ = _rows(config)
    ends = np.zeros_like(first)
    ends[[0, -1]] = first[[0, -1]]
    return (ends @ values)[[0, -1]]


def _nodal_operators(config):
    """A_n and L, the nodal left-hand matrix, with the identity's or D1's
    end rows, and the explicit operator, zero end rows and interior rows
    [B/dt | -I] with B = I + (1 - THETA)(dt/Re) D2, from derivative_rows."""
    n = config.spec.n_functions
    first, second = derivative_rows(n, config.bc)
    weight = config.dt / config.reynolds
    identity = np.eye(n)
    nodal = identity - solver.THETA * weight * second
    nodal[[0, -1]] = (first if config.bc == NEUMANN else identity)[[0, -1]]
    explicit = np.zeros((n, 2 * n - 2))
    explicit[1:-1, :n] = (identity + (1.0 - solver.THETA) * weight
                          * second)[1:-1] / config.dt
    explicit[1:-1, n:] = -np.eye(n - 2)
    return nodal, explicit


def _step_algebra(config, coeffs):
    """The right-hand side the scheme builds from the state coeffs:
    u + (1 - THETA)(dt/Re) u_xx - dt u u_x, with the boundary data, 0, at
    the ends, spelled out from _explicit_rows."""
    values, first, second = _explicit_rows(config)
    weight = config.dt / config.reynolds
    u, u_x, u_xx = values @ coeffs, first @ coeffs, second @ coeffs
    rhs = u + (1.0 - solver.THETA) * weight * u_xx - config.dt * u * u_x
    rhs[0] = rhs[-1] = 0.0
    return rhs


def _first_step(config):
    """The initial state c_0 and r_1, the right-hand side of the first step
    that solve took, as solve hands it to the report solve for c_1."""
    with pytest.MonkeyPatch.context() as patch:
        report_solves = _wrap_report_solves(patch, lambda solved: solved)
        coeffs = w.solve(dataclasses.replace(config, times=(0.0, config.dt)))
    (rhs,) = report_solves.handed
    return coeffs[0], rhs


def _second_step_rhs(config):
    """r_2, the right-hand side of the second step, that solve hands to its
    report solve when the step map is all zero: the pair solve's own
    buffers and step carry after one step from a nonzero seed."""
    n = config.spec.n_functions
    with pytest.MonkeyPatch.context() as patch:
        real_assemble = solver.assemble_lhs
        patch.setattr(solver, "assemble_lhs",
                      lambda config: dataclasses.replace(
                          real_assemble(config),
                          propagator=np.zeros((2 * n - 2, 2 * n - 2))))
        report_solves = _wrap_report_solves(patch, lambda solved: solved)
        w.solve(dataclasses.replace(config, times=(2 * config.dt,)))
    (rhs,) = report_solves.handed
    return rhs


def _full_vector_history(config):
    """The states at the report times from a plain whole-vector loop: the
    seed S c_0 and each step's np.dot(M, z) into a fresh vector, whose
    second block is replaced by a fresh product of the first block's
    interior with it; every step the right-hand side L z is formed, with
    both ends set to the boundary data, 0, and one np.linalg.solve with A
    per nonzero report time."""
    system = assemble_lhs(config)
    n = config.spec.n_functions
    report = config.report_steps()
    states = {0: initial_coefficients(config)}
    stacked = np.dot(system.seed, states[0])
    pair = np.concatenate([stacked[:n], stacked[1:n - 1] * stacked[n:]])
    for step in range(1, max(report) + 1):
        rhs = np.dot(system.explicit, pair)
        rhs[0] = rhs[-1] = 0.0
        if step in report:
            states[step] = np.linalg.solve(system.matrix, rhs)
        stacked = np.dot(system.propagator, pair)
        pair = np.concatenate([stacked[:n], stacked[1:n - 1] * stacked[n:]])
    return np.array([states[k] for k in report])


class _ReportSolves:
    """Stands in for system.matrix, which solve reads only to solve for
    its report states, np.linalg.solve(system.matrix, r).

    Counts the solves, keeps a copy of each right-hand side in handed, and
    hands each real solution to outcome, whose return value is the state
    solve sees.
    """

    def __init__(self, outcome):
        self.outcome, self.real, self.solves = outcome, None, 0
        self.handed = []

    def __array_function__(self, func, types, args, kwargs):
        assert func is np.linalg.solve
        self.solves += 1
        self.handed.append(np.array(args[1]))
        return self.outcome(func(self.real, *args[1:], **kwargs))


def _wrap_report_solves(monkeypatch, outcome):
    report_solves = _ReportSolves(outcome)
    real_assemble = solver.assemble_lhs

    def assemble(config):
        system = real_assemble(config)
        report_solves.real = system.matrix
        return dataclasses.replace(system, matrix=report_solves)

    monkeypatch.setattr(solver, "assemble_lhs", assemble)
    return report_solves


class TestConfigValidation:
    def test_bad_parameters_rejected(self):
        spec = w.BasisSpec(max_level=3)
        bc = DIRICHLET
        ic = lambda x: np.zeros_like(x)
        with pytest.raises(ValueError, match="reynolds"):
            w.SolverConfig(reynolds=-1.0, times=(0.1,), bc=bc, ic=ic, spec=spec)
        with pytest.raises(ValueError, match="dt"):
            w.SolverConfig(reynolds=1.0, times=(0.1,), dt=0.0, bc=bc, ic=ic,
                           spec=spec)
        with pytest.raises(ValueError, match="negative"):
            w.SolverConfig(reynolds=1.0, times=(0.1, -0.1), bc=bc, ic=ic,
                           spec=spec)
        # 0.1 + 1e-13 is within roundoff of step 100, as 0.1 is
        with pytest.raises(ValueError, match="same step"):
            w.SolverConfig(reynolds=1.0, times=(0.1, 0.05, 0.1 + 1e-13),
                           bc=bc, ic=ic, spec=spec)

    def test_report_time_past_the_step_ceiling_rejected(self):
        spec = w.BasisSpec(max_level=3)
        config = dict(reynolds=1.0, dt=1e-3, bc=DIRICHLET,
                      ic=lambda x: np.zeros_like(x), spec=spec)
        at_ceiling = w.SolverConfig(times=(solver.MAX_STEPS * 1e-3,), **config)
        assert at_ceiling.n_steps() == solver.MAX_STEPS
        # 1e12 is 10**15 steps; 1e308 / 1e-3 overflows to inf
        for t in ((solver.MAX_STEPS + 1) * 1e-3, 1e12, 1e308, -1e308):
            with pytest.raises(ValueError, match="MAX_STEPS"):
                w.SolverConfig(times=(t,), **config)

    @pytest.mark.parametrize("bc", [
        "periodic", "robin", None, types.SimpleNamespace(kind=DIRICHLET)],
        ids=["periodic", "robin", "none", "object-with-kind"])
    def test_unknown_boundary_kind_rejected(self, fresh_tables, bc):
        # the kind is the string itself: an object that carries one in a
        # kind attribute is refused too, before anything is built
        with pytest.raises(ValueError, match="unknown boundary kind"):
            w.SolverConfig(reynolds=1.0, times=(0.1,), bc=bc,
                           ic=np.zeros_like, spec=w.BasisSpec(max_level=3))
        for cache in (solver.derivative_rows, solver._interpolation_matrix,
                      basis._nodal_matrix):
            assert cache.cache_info().currsize == 0

    def test_step_count_is_robust_to_roundoff(self):
        config = _config(t_end=0.1, dt=1e-3)
        assert config.n_steps() == 100


class TestAssembleLhs:
    def test_value_rows_are_the_shared_nodal_matrix(self):
        config = _config(level=4)
        system = assemble_lhs(config)
        values, _, _ = _rows(config)
        assert values is basis._nodal_matrix(4)
        assert not values.flags.writeable
        # bitwise, sign bits included, the basis evaluated at the grid
        grid = np.linspace(0.0, 1.0, config.spec.n_functions)
        assert values.tobytes() == w.basis_matrix(config.spec, grid).tobytes()
        # A = A_n T with the identity's end rows in A_n: T's value rows
        np.testing.assert_array_equal(system.matrix[[0, -1]],
                                      values[[0, -1]])

    def test_zero_coefficients_satisfy_homogeneous_boundary_rows(self):
        config = _config()
        system = assemble_lhs(config)
        applied = system.matrix @ np.zeros(config.spec.n_functions)
        assert applied[0] == 0.0 and applied[-1] == 0.0

    def test_vanishing_dt_reduces_interior_rows_to_point_evaluation(
            self):
        config = _config(t_end=0.0, dt=1e-12)
        system = assemble_lhs(config)
        np.testing.assert_allclose(system.matrix[1:-1],
                                   basis._nodal_matrix(4)[1:-1], atol=1e-8)

    def test_smallest_admissible_space_yields_invertible_5x5(self):
        config = _config(level=2)
        system = assemble_lhs(config)
        assert system.matrix.shape == (5, 5)
        assert np.isfinite(np.linalg.cond(system.matrix))

    def test_singular_system_rejected(self, monkeypatch,
                                      fresh_tables):
        # THETA * dt / Re = 1/4 and D*D = 4 I: every interior row vanishes
        spec = w.BasisSpec(max_level=2)
        config = w.SolverConfig(reynolds=1.0, times=(0.5,), dt=0.5,
                                bc=DIRICHLET,
                                ic=lambda x: np.sin(np.pi * x), spec=spec)
        monkeypatch.setattr(solver, "derivative_rows",
                            lambda n_points, bc: (2.0 * np.eye(n_points),
                                                  4.0 * np.eye(n_points)))
        with pytest.raises(ConditioningError,
                           match="collocation system") as info:
            assemble_lhs(config)
        assert info.value.condition == np.inf

    def test_node_rows_are_built_once_per_resolution_and_boundary_data(
            self, fresh_tables):
        # a hit hands back the built arrays themselves
        assemble_lhs(_config(level=4))
        assemble_lhs(_config(level=4, reynolds=10.0, dt=0.01))
        assemble_lhs(_config(level=4, bc=NEUMANN))
        info = solver.derivative_rows.cache_info()
        assert (info.misses, info.hits) == (2, 1)
        for bc in (DIRICHLET, NEUMANN):
            for array in derivative_rows(17, bc):
                assert not array.flags.writeable

    def test_derivative_rows_are_shared_across_dt_and_reynolds(
            self, fresh_tables):
        # keyed by the grid size and the boundary kind alone: the other
        # kind has its own rows
        rows = derivative_rows(33, NEUMANN)
        runs = ((1.0, 1e-3), (10.0, 0.01), (100.0, 0.05))
        for hits, (reynolds, dt) in enumerate(runs, start=1):
            config = _config(level=5, reynolds=reynolds, dt=dt,
                             t_end=dt, bc=NEUMANN, ic=CASE3_IC)
            w.solve(config)
            info = derivative_rows.cache_info()
            assert (info.misses, info.hits) == (1, hits)
        assert derivative_rows(33, DIRICHLET) is not rows
        info = derivative_rows.cache_info()
        assert (info.misses, info.hits) == (2, 3)
        for array in rows:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_propagator_does_not_depend_on_the_basis(
            self, monkeypatch, fresh_tables):
        # M = [dt I; D1[1:-1]] A_n^-1 L: another well-conditioned T leaves
        # M and L bitwise as they were and enters only A = A_n T and the
        # seed map
        config = _config(level=4, reynolds=10.0, dt=0.01,
                         bc=NEUMANN)
        system = assemble_lhs(config)
        n = config.spec.n_functions
        other = np.eye(n) + np.triu(
            np.random.default_rng(4).uniform(-0.5, 0.5, (n, n)), 1)
        assert np.linalg.cond(other, 1) < 1e3
        monkeypatch.setattr(solver, "_nodal_matrix", lambda level: other)
        monkeypatch.setattr(solver, "_interpolation_matrix",
                            lambda level: (np.linalg.inv(other),
                                           np.linalg.cond(other, 1)))
        patched = assemble_lhs(config)
        assert patched.propagator.tobytes() == system.propagator.tobytes()
        assert patched.explicit.tobytes() == system.explicit.tobytes()
        nodal, _ = _nodal_operators(config)
        np.testing.assert_array_equal(patched.matrix, nodal @ other)
        np.testing.assert_array_equal(system.matrix,
                                      nodal @ basis._nodal_matrix(4))

    @pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN],
                             ids=["dirichlet", "neumann"])
    def test_both_solved_matrices_are_guarded(self, monkeypatch,
                                              fresh_tables, bc):
        # A_n's condition, read off the solve that builds M, is the exact
        # one an inverse gives; A is guarded by cond(A_n) cond(T), since
        # T's condition is up to 44 and one check does not bound the other
        checked = []
        check = solver.check_condition
        monkeypatch.setattr(solver, "check_condition",
                            lambda cond, what: checked.append((what, cond))
                            or check(cond, what))
        for level in (4, 5, 6):
            checked.clear()
            config = _config(level=level, reynolds=10.0, dt=0.01,
                             bc=bc)
            assemble_lhs(config)
            nodal, _ = _nodal_operators(config)
            exact = (np.linalg.norm(nodal, 1)
                     * np.linalg.norm(np.linalg.inv(nodal), 1))
            values = basis._nodal_matrix(level)
            inverse, values_cond = solver._interpolation_matrix(level)
            np.testing.assert_array_equal(inverse, np.linalg.inv(values))
            assert values_cond == (np.linalg.norm(values, 1)
                                   * np.linalg.norm(inverse, 1))
            assert [what for what, _ in checked] == [
                "nodal collocation system", "collocation system"]
            assert checked[0][1] == pytest.approx(exact, rel=1e-12)
            assert checked[1][1] == checked[0][1] * values_cond

    def test_huge_dt_reads_the_exact_condition(self, fresh_tables):
        # at dt = 1e300 the condition is read from A_n^-1's own columns,
        # with no dt in them, so it is the exact one, 4.6e303, over the
        # limit, not an overflow
        config = _config(level=4, dt=1e300, t_end=1e300)
        with pytest.raises(ConditioningError,
                           match="^nodal collocation system") as info:
            assemble_lhs(config)
        nodal, _ = _nodal_operators(config)
        exact = (np.linalg.norm(nodal, 1)
                 * np.linalg.norm(np.linalg.inv(nodal), 1))
        assert CONDITION_LIMIT < exact < np.inf
        assert info.value.condition == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN],
                             ids=["dirichlet", "neumann"])
    def test_assembly_forms_no_inverse(self, monkeypatch,
                                       fresh_tables, bc):
        # with T's and the node rows' tables built, A_n is factorised
        # once, by the solve that gives M and its condition: its
        # right-hand side is L and A_n's two end columns, 2N columns
        config = _config(level=5, reynolds=10.0, dt=0.01, bc=bc)
        _rows(config)
        solver._interpolation_matrix(config.spec.max_level)
        inverses, solves = [], []
        inv, solve = np.linalg.inv, np.linalg.solve
        monkeypatch.setattr(np.linalg, "inv",
                            lambda a: inverses.append(a) or inv(a))
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: solves.append(b.shape) or solve(a, b))
        assemble_lhs(config)
        assert not inverses
        assert solves == [(33, 2 * 33)]

    def test_ill_conditioned_interpolation_refused_before_any_step(
            self, monkeypatch, fresh_tables):
        # a T whose recorded condition takes the bound cond(A_n) cond(T)
        # over the limit: cond(A_n) > 1
        config = _config(level=4, reynolds=10.0, dt=0.01)
        inverse, _ = solver._interpolation_matrix(4)
        monkeypatch.setattr(solver, "_interpolation_matrix",
                            lambda level: (inverse, CONDITION_LIMIT))

        def never(*args):
            raise AssertionError("the run went on to its initial state")

        monkeypatch.setattr(solver, "initial_coefficients", never)
        with pytest.raises(ConditioningError,
                           match="^collocation system") as info:
            w.solve(config)
        assert info.value.condition > CONDITION_LIMIT

    @pytest.mark.parametrize("level", [3, 4, 5, 6])
    def test_neumann_rows_are_derivative_rows(self, level):
        config = _config(level=level, bc=NEUMANN)
        system = assemble_lhs(config)
        assert np.array_equal(system.matrix[[0, -1]], _slope_rows(config))

    @pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN],
                             ids=["dirichlet", "neumann"])
    def test_propagator_is_the_explicit_operator_through_the_inverse(
            self, bc):
        # M = [dt I; D1[1:-1]] A_n^-1 L, square of side 2N - 2: its first
        # block is dt A_n^-1 L, so A_n times it is dt L, and its second
        # block is D1's interior rows applied to the first over dt
        config = _config(level=5, reynolds=10.0, dt=0.01, bc=bc)
        system = assemble_lhs(config)
        n = config.spec.n_functions
        step_map = system.propagator
        assert step_map.shape == (2 * n - 2, 2 * n - 2)
        nodal, explicit = _nodal_operators(config)
        np.testing.assert_array_equal(system.explicit, explicit)
        values, first, _ = _rows(config)
        np.testing.assert_array_equal(
            system.seed, np.vstack([config.dt * np.eye(n), first[1:-1]])
            @ values)
        for array in (step_map, system.explicit, system.seed):
            assert array.flags.c_contiguous
            assert not array.flags.writeable
        scaled = config.dt * explicit
        assert (np.max(np.abs(nodal @ step_map[:n] - scaled))
                <= 1e-12 * np.max(np.abs(scaled)))
        slopes = first[1:-1] @ step_map[:n] / config.dt
        assert (np.max(np.abs(step_map[n:] - slopes))
                <= 1e-12 * np.max(np.abs(slopes)))

    @pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN],
                             ids=["dirichlet", "neumann"])
    def test_step_map_starts_64_byte_aligned(self, bc):
        # the heap may place a fresh array 16 bytes past a 32-byte
        # boundary, where the step's gemv ran about 10% slower
        for level in (2, 3, 4, 5, 6):
            for dt in (5e-5, 1e-3, 1e-2):
                config = _config(level=level, dt=dt, t_end=dt,
                                 bc=bc)
                assert assemble_lhs(config).propagator.ctypes.data % 64 == 0


class TestWeakSecondDerivative:
    @pytest.mark.parametrize("level", [3, 4, 5, 6])
    def test_boundary_rows_stay_derivative_rows(self, level):
        # the weak Laplacian changes A's interior rows only
        config = _config(level=level, reynolds=10.0, dt=0.01,
                         bc=NEUMANN)
        system = assemble_lhs(config)
        assert np.array_equal(system.matrix[[0, -1]], _slope_rows(config))

    @pytest.mark.parametrize("level", [3, 4, 5, 6])
    def test_zero_slopes_need_no_boundary_term(self, level):
        # with zero slopes the integration-by-parts term u_x h vanishes, so
        # -M^-1 S alone is the curvature: it annihilates constants to
        # roundoff, and for cos(pi x), whose slopes are 0 at both ends, it
        # is off by the consistent-mass error (pi^4 / 12) h^2 at every
        # node, the ends included
        n = 2**level + 1
        first, second = derivative_rows(n, NEUMANN)
        ones = np.ones(n)
        scale = np.max(np.abs(second).sum(axis=1))
        assert np.max(np.abs(second @ ones)) <= 1e-15 * scale
        assert np.max(np.abs(first @ ones)) <= 1e-13
        x = np.linspace(0.0, 1.0, n)
        u = np.cos(np.pi * x)
        error = np.abs(second @ u + np.pi**2 * u)
        h = 1.0 / (n - 1)
        assert np.max(error) <= 8.2 * h**2
        assert error[0] >= 8.0 * h**2 and error[-1] >= 8.0 * h**2

    def test_dirichlet_data_keep_the_paper_operator(self, operators):
        # the rows are formed from the nodal kernel, not from the
        # wavelet-space D, so in coefficient space they agree with
        # V (D D)^T to roundoff only
        _, _, _, deriv_op = operators(4)
        values, _, second = _rows(_config())
        paper = values @ (deriv_op @ deriv_op).T
        assert (np.max(np.abs(second @ values - paper))
                <= 1e-14 * np.max(np.abs(paper)))


class TestInitialCoefficients:
    @pytest.mark.parametrize("level", [4, 5, 6])
    @pytest.mark.parametrize("bc, ic", [
        (DIRICHLET, lambda x: np.sin(np.pi * x)),
        (NEUMANN, CASE3_IC),
    ], ids=["dirichlet", "neumann"])
    def test_nodal_values_are_the_l2_projection(self, operators, bc, ic,
                                                level):
        # the state's node values T c_0 against the test reference's
        # expansion through the dual basis, G^-1 <f, psi>, at every node
        # but the Dirichlet ends, which the boundary data replace
        spec, _, dual, _ = operators(level)
        config = _config(level=level, bc=bc, ic=ic)
        values = basis._nodal_matrix(level)
        state = values @ initial_coefficients(config)
        reference = values @ project_l2(ic, spec, dual)
        kept = slice(1, -1) if bc == DIRICHLET else slice(None)
        assert (np.max(np.abs(state[kept] - reference[kept]))
                <= 1e-12 * np.max(np.abs(reference)))

    @pytest.mark.parametrize("level", [4, 5, 6])
    def test_dirichlet_ends_meet_the_boundary_data_at_t0(self, level):
        # 1 + x is 1 and 2 at the ends, so the projection's end values are
        # far from the boundary data unless they are replaced
        config = dataclasses.replace(
            _config(level=level, ic=lambda x: 1.0 + x),
            times=(0.0,))
        (initial,) = w.solve(config)
        np.testing.assert_array_equal(initial, initial_coefficients(config))
        state = basis._nodal_matrix(level) @ initial
        assert state[1] > 1.0 and state[-2] > 1.9
        np.testing.assert_allclose(state[[0, -1]], 0.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("level", [3, 4, 6])
    @pytest.mark.parametrize("kind", [DIRICHLET, NEUMANN])
    def test_grid_piecewise_linear_datum_is_reproduced(self, kind,
                                                       level):
        # a member of the span is its own projection: Gauss-10 integrates
        # its products with the hats exactly, cell by cell
        spec = w.BasisSpec(max_level=level)
        grid = np.linspace(0.0, 1.0, spec.n_functions)
        nodal = np.random.default_rng(level).uniform(-1.0, 1.0, grid.size)
        if kind == DIRICHLET:  # a datum that meets the boundary data
            nodal[[0, -1]] = 0.0
        config = _config(level=level, bc=kind,
                         ic=lambda x: np.interp(x, grid, nodal))
        state = basis._nodal_matrix(level) @ initial_coefficients(config)
        np.testing.assert_allclose(state, nodal, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("ic", [lambda x: 1.0, lambda x: np.zeros(3),
                                    lambda x: x[:, None]],
                             ids=["scalar", "3-vector", "column"])
    def test_initial_data_of_the_wrong_shape_rejected(self, ic):
        # one value per quadrature node: ten on each of the 8 cells
        config = _config(level=3, ic=ic)
        with pytest.raises(ValueError, match=r"initial condition returned "
                                             r"shape .*expected \(80,\)"):
            initial_coefficients(config)

    def test_non_finite_samples_rejected(self):
        config = _config(level=3,
                         ic=lambda x: np.full_like(x, np.nan))
        with pytest.raises(ValueError, match="non-finite"):
            initial_coefficients(config)

    @pytest.mark.parametrize("value, index", [(np.nan, 0), (np.inf, 4),
                                              (-np.inf, -1)],
                             ids=["nan-left-end", "inf-interior",
                                  "minus-inf-right-end"])
    def test_one_non_finite_sample_rejected(self, value, index):
        # the samples nearest the ends, whose node values the Dirichlet data
        # replace, are checked too
        def ic(x):
            out = np.sin(np.pi * x)
            out[index] = value
            return out

        config = _config(level=3, ic=ic)
        with pytest.raises(ValueError, match="non-finite"):
            initial_coefficients(config)

    def test_initial_data_are_not_written_through(self):
        # an initial condition that returns its argument: the quadrature
        # nodes it was handed stay as they were
        handed = []

        def ic(x):
            handed.append((x, x.copy()))
            return x

        initial_coefficients(_config(level=3, ic=ic))
        ((nodes, before),) = handed
        np.testing.assert_array_equal(nodes, before)

    def test_singular_interpolation_rejected(self, monkeypatch,
                                             fresh_tables):
        # T's condition is checked on the first run at a resolution, through
        # the cache; a failed check is not cached
        config = _config(level=3)
        monkeypatch.setattr(solver, "_nodal_matrix",
                            lambda level: np.ones((9, 9)))
        for _ in range(2):
            with pytest.raises(ConditioningError,
                               match="initial interpolation"):
                initial_coefficients(config)

    def test_nodal_matrix_is_guarded_once_per_resolution(
            self, monkeypatch, fresh_tables):
        guarded = []
        guard = solver.guarded_inverse
        monkeypatch.setattr(solver, "guarded_inverse",
                            lambda matrix, what: guarded.append(what)
                            or guard(matrix, what))
        for level in (4, 4, 5, 4):
            for bc in (DIRICHLET, NEUMANN):
                initial_coefficients(_config(level=level, bc=bc))
        assert guarded == ["initial interpolation"] * 2
        for level in (4, 5):
            inverse, _ = solver._interpolation_matrix(level)
            with pytest.raises(ValueError, match="read-only"):
                inverse[0, 0] = 0.0

    @pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN],
                             ids=["dirichlet", "neumann"])
    def test_warm_tables_leave_one_solve_with_the_mass_matrix(
            self, monkeypatch, fresh_tables, bc):
        # c_0 = T^-1 u reads the inverse T's guard formed, so once a
        # resolution's tables are built T is not factorised again: the one
        # solve is u = M^-1 moments
        config = _config(level=5, bc=bc)
        initial = initial_coefficients(config)
        inverses, solves = [], []
        inv, solve = np.linalg.inv, np.linalg.solve
        monkeypatch.setattr(np.linalg, "inv",
                            lambda a: inverses.append(a) or inv(a))
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: solves.append(a) or solve(a, b))
        np.testing.assert_array_equal(initial_coefficients(config), initial)
        assert not inverses
        (solved,) = solves
        assert solved is p1_kernel(33)[0]


class TestBuildRhs:
    """The right-hand side r_{k+1} = L z_k built from a carried pair: as
    solve hands it to its report solve, or read back as A c_{k+1} from the
    state a step solved for, the first step from the seed z_0 = S c_0."""

    def test_zero_state_leaves_only_boundary_values(self):
        # a zero step map leaves a zero pair, whose right-hand side is
        # exactly the boundary data, 0, whatever state it came from
        rhs = _second_step_rhs(_config())
        assert np.max(np.abs(rhs)) == 0.0
        # through solve: the zero state stays zero exactly
        config = _config(ic=np.zeros_like)
        initial, rhs = _first_step(config)
        assert np.max(np.abs(initial)) == 0.0
        assert np.max(np.abs(rhs)) == 0.0

    @pytest.mark.parametrize("bc, ic", [
        (DIRICHLET, lambda x: np.sin(np.pi * x)),
        (NEUMANN, CASE3_IC),
    ], ids=["dirichlet", "neumann"])
    def test_carried_rhs_ends_are_exactly_zero(self, monkeypatch,
                                               bc, ic):
        # from a nonzero state every right-hand side L z built from a
        # carried pair has a nonzero interior and ends of exactly 0, the
        # boundary data, across the first block edge too
        config = _config(bc=bc, ic=ic)
        report_solves = _wrap_report_solves(monkeypatch, lambda solved: solved)
        w.solve(config)
        carried = np.array(report_solves.handed)
        assert config.n_steps() > solver._CHECK_EVERY
        assert carried.shape == (config.n_steps(), config.spec.n_functions)
        assert np.all(np.abs(carried[:, 1:-1]).max(axis=1) > 0.0)
        assert not carried[:, [0, -1]].any()

    def test_constant_state_is_nearly_stationary_inside(self):
        # under zero slopes a constant is an exact steady state
        config = _config(bc=NEUMANN,
                         ic=lambda x: np.full_like(x, 0.7))
        _, rhs = _first_step(config)
        np.testing.assert_allclose(rhs[1:-1], 0.7, atol=1e-10)

    @pytest.mark.parametrize("level", [4, 5])
    def test_sine_state_matches_analytic_step_target_at_center(self, level):
        # at the center the convection term vanishes and the diffusion share
        # gives (1 - dt pi^2 / 2) times the state's centre value, which the
        # projection puts at 1 + O(h^2); discrete curvature error is
        # O(2**-level)
        config = _config(level=level)
        initial, rhs = _first_step(config)
        center = config.spec.n_functions // 2
        value = (basis._nodal_matrix(level) @ initial)[center]
        assert abs(value - 1.0) <= 4.0**-level
        target = value * (1.0 - config.dt * np.pi**2 / 2.0)
        assert abs(rhs[center] - target) <= 1e-3 * 2.0**-level

    @pytest.mark.parametrize("bc, ic, reynolds", [
        (DIRICHLET, lambda x: np.sin(np.pi * x), 1.0),
        (NEUMANN, CASE3_IC, 10.0),
    ], ids=["dirichlet", "neumann"])
    def test_matches_the_three_mat_vec_algebra(self, bc, ic,
                                               reynolds):
        # each step's right-hand side, read back as A c_{k+1}, against the
        # scheme applied to c_k, spelled out from rows built apart from
        # assemble_lhs: the seeded first step and two carried ones
        config = _config(level=5, reynolds=reynolds, dt=0.01,
                         bc=bc, ic=ic)
        coeffs = w.solve(dataclasses.replace(
            config, times=tuple(k * config.dt for k in range(4))))
        matrix = assemble_lhs(config).matrix
        for old, new in zip(coeffs, coeffs[1:]):
            rhs = matrix @ new
            expected = _step_algebra(config, old)
            assert (np.max(np.abs(rhs - expected))
                    <= 1e-14 * np.max(np.abs(expected)))


class TestStep:
    def test_zero_is_a_fixed_point(self):
        config = _config(ic=np.zeros_like)
        np.testing.assert_allclose(w.solve(config), 0.0, atol=1e-14)

    def test_linear_system_residual_stays_tiny(self):
        config = _config(level=5, t_end=0.005)
        coeffs = w.solve(config)
        matrix = assemble_lhs(config).matrix
        for old, new in zip(coeffs, coeffs[1:]):
            rhs = _step_algebra(config, old)
            residual = np.max(np.abs(matrix @ new - rhs))
            assert residual <= 1e-10 * max(np.max(np.abs(rhs)), 1.0)

    def test_fifty_steps_reach_published_anchor(self):
        # sin initial data, Re = 1: u(0.5, 0.05) = 0.60907 published
        config = _config(level=5, t_end=0.05)
        coeffs = w.solve(config)[50]
        assert w.basis_matrix(config.spec, [0.5])[0] @ coeffs == pytest.approx(
            0.60907, abs=1e-3)

    def test_antisymmetric_state_stays_antisymmetric(self):
        config = _config(level=4, reynolds=10.0,
                         bc=NEUMANN, ic=CASE3_IC)
        values = basis._nodal_matrix(4)
        for coeffs in w.solve(config)[1:]:
            u = values @ coeffs
            assert np.max(np.abs(u + u[::-1])) <= 1e-8


class TestSolve:
    def test_zero_horizon_returns_initial_state_only(self):
        config = _config(t_end=0.0)
        assert w.solve(config).shape == (1, config.spec.n_functions)

    def test_horizon_off_the_step_grid_is_rejected(self):
        # 0.0105 is 10.5 steps of 1e-3: no step count reaches it
        with pytest.raises(ValueError, match="not a multiple"):
            _config(t_end=0.0105, dt=1e-3)

    def test_published_anchor_case1_re10(self):
        config = _config(level=5, reynolds=10.0, t_end=0.5)
        coeffs = w.solve(config)
        assert _values_at(config, coeffs, 0.5, [0.7])[0] == pytest.approx(
            0.57585, abs=1e-3)

    def test_published_anchor_case2_re1(self):
        config = _config(level=5, t_end=0.05,
                         ic=lambda x: 4.0 * x * (1.0 - x))
        coeffs = w.solve(config)
        assert _values_at(config, coeffs, 0.05, [0.3])[0] == pytest.approx(
            0.49093, abs=1e-3)

    def test_runs_from_the_config_alone(self):
        spec = w.BasisSpec(max_level=3)
        config = w.SolverConfig(reynolds=1.0, times=(0.0, 0.001, 0.002),
                                bc=DIRICHLET,
                                ic=lambda x: np.sin(np.pi * x), spec=spec)
        assert w.solve(config).shape == (3, spec.n_functions)

    def test_one_report_time_keeps_one_state_bitwise(self):
        config = _config(level=5, t_end=0.05)
        every = w.solve(config)
        only = w.solve(dataclasses.replace(config, times=(0.05,)))
        assert only.shape == (1, config.spec.n_functions)
        assert np.array_equal(only[0], every[50])

    @pytest.mark.parametrize("check_every", [None, 1, 7])
    def test_states_come_in_the_order_of_the_report_times(
            self, monkeypatch, check_every):
        if check_every is not None:
            monkeypatch.setattr(solver, "_CHECK_EVERY", check_every)
        config = _config(level=5, t_end=0.1)
        every = w.solve(config)
        kept = w.solve(dataclasses.replace(config, times=(0.1, 0.0, 0.05)))
        assert np.array_equal(kept, every[[100, 0, 50]])

    def test_memory_does_not_grow_with_the_step_count(self):
        # 20 000 steps at 33 points: a stored history alone would be 5.3 MB
        spec = w.BasisSpec(max_level=5)
        config = w.SolverConfig(reynolds=1.0, times=(2.0,), dt=1e-4,
                                bc=DIRICHLET,
                                ic=lambda x: np.sin(np.pi * x), spec=spec)
        assert config.n_steps() == 20_000
        tracemalloc.start()
        try:
            w.solve(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("bc, ic", [
        (DIRICHLET, lambda x: np.sin(np.pi * x)),
        (NEUMANN, CASE3_IC),
    ], ids=["dirichlet", "neumann"])
    def test_needs_no_wavelet_space_operator(self, monkeypatch, bc, ic):
        def forbidden(*args, **kwargs):
            raise AssertionError("the solver built a wavelet-space operator")

        for name in ("gram_matrix", "dual_transform", "derivative_matrix"):
            assert not hasattr(solver, name)
            monkeypatch.setattr(f"wavecol.operators.{name}", forbidden)
            assert not hasattr(w, name)
        config = _config(level=4, reynolds=10.0, t_end=0.01,
                         bc=bc, ic=ic)
        assert w.solve(config).shape == (11, config.spec.n_functions)

    def test_dirichlet_boundaries_enforced_every_step(self):
        config = _config(level=4, t_end=0.05)
        ends = w.basis_matrix(config.spec, [0.0, 1.0])
        for coeffs in w.solve(config):
            assert np.max(np.abs(ends @ coeffs)) <= 1e-9

    def test_neumann_boundaries_enforced_every_step(self, operators):
        config = _config(level=4, reynolds=10.0, t_end=0.05,
                         bc=NEUMANN, ic=CASE3_IC)
        _, _, _, deriv_op = operators(4)
        slope_rows = w.basis_matrix(config.spec, [0.0, 1.0]) @ deriv_op.T
        for coeffs in w.solve(config)[1:]:
            assert np.max(np.abs(slope_rows @ coeffs)) <= 1e-8

    @pytest.mark.parametrize("ic", [lambda x: np.sin(np.pi * x),
                                    lambda x: 4.0 * x * (1.0 - x)])
    def test_peak_magnitude_never_grows(self, ic):
        config = _config(level=4, t_end=0.1, ic=ic)
        grid = np.linspace(0.0, 1.0, config.spec.n_functions)
        grid_values = w.solve(config) @ w.basis_matrix(config.spec, grid).T
        peaks = np.max(np.abs(grid_values), axis=1)
        assert all(b <= a + 1e-6 for a, b in zip(peaks, peaks[1:]))

    def test_steep_neumann_front_diverges_and_is_reported(self):
        # with dt = 0.05 at 33 points (h = 1/32) and max|u| of about 5.6,
        # the convective Courant number dt * max|u| / h is about 9; the
        # explicit convection term cannot hold the front and the run
        # overflows near t = 0.55; the failure must be loud and carry the
        # blow-up time
        config = _config(level=5, reynolds=10.0, t_end=1.0,
                         dt=0.05, bc=NEUMANN,
                         ic=CASE3_IC)
        with pytest.raises(DivergenceError, match="t = 0.5") as info:
            w.solve(config)
        assert 0.5 <= info.value.time <= 0.6

    @pytest.mark.parametrize("bc, ic, reynolds", [
        (DIRICHLET, lambda x: np.sin(np.pi * x), 1.0),
        (NEUMANN, CASE3_IC, 10.0),
    ], ids=["case1-dirichlet", "case3-neumann"])
    def test_history_matches_the_dense_reference_algebra(
            self, bc, ic, reynolds):
        # solve carries (dt u, dt u u_x) through a precomposed step map;
        # over 500 steps its node values must stay within the golden
        # gates of a per-step dense solve, at 17, 33 and 65 points
        gate = 1e-12 if bc == DIRICHLET else 1e-10
        for level in (4, 5, 6):
            config = _config(level=level, reynolds=reynolds,
                             t_end=0.5, bc=bc, ic=ic)
            reference = _reference_history(config)
            assert reference.shape == (501, config.spec.n_functions)
            values = basis._nodal_matrix(level)
            drift = np.max(np.abs((w.solve(config) - reference) @ values.T))
            assert drift <= gate, (level, drift)

    @pytest.mark.parametrize("level", [4, 5, 6])
    @pytest.mark.parametrize("bc, ic, reynolds", [
        (DIRICHLET, lambda x: np.sin(np.pi * x), 1.0),
        (NEUMANN, CASE3_IC, 10.0),
    ], ids=["dirichlet", "neumann"])
    def test_states_are_bitwise_the_full_vector_step(
            self, bc, ic, reynolds, level):
        # solve steps in place, in prebuilt views of one block of pairs,
        # and solves each report state from the pair before it; its states
        # must equal, bit for bit, those of a plain loop over fresh whole
        # vectors that sets the right-hand side's ends every step.  The
        # report times fall at 0, inside the first block, on the block
        # edges 64 and 128, and at step 160, inside the third block
        assert solver._CHECK_EVERY == 64
        config = _config(level=level, reynolds=reynolds,
                         t_end=0.16, bc=bc, ic=ic)
        config = dataclasses.replace(
            config, times=(0.0, 0.03, 0.064, 0.128, 0.16))
        assert config.report_steps() == (0, 30, 64, 128, 160)
        coeffs = w.solve(config)
        assert np.isfinite(coeffs).all()
        np.testing.assert_array_equal(coeffs, _full_vector_history(config))

    @pytest.mark.parametrize("n_steps", [64, 128])
    @pytest.mark.parametrize("bc, ic, reynolds", [
        (DIRICHLET, lambda x: np.sin(np.pi * x), 1.0),
        (NEUMANN, CASE3_IC, 10.0),
    ], ids=["dirichlet", "neumann"])
    def test_run_ending_on_a_block_edge_matches_the_reference_algebra(
            self, bc, ic, reynolds, n_steps):
        # the last step closes a block of _CHECK_EVERY = 64 steps, so the
        # only report state is solved from that block's last row
        gate = 1e-12 if bc == DIRICHLET else 1e-10
        assert solver._CHECK_EVERY == 64
        config = _config(level=5, reynolds=reynolds,
                         t_end=n_steps * 1e-3, bc=bc, ic=ic)
        reference = _reference_history(config)
        assert reference.shape == (n_steps + 1, config.spec.n_functions)
        (last,) = w.solve(dataclasses.replace(config,
                                              times=(config.times[-1],)))
        values = basis._nodal_matrix(5)
        drift = np.max(np.abs((last - reference[-1]) @ values.T))
        assert drift <= gate, drift

    def test_divergence_step_matches_the_reference_algebra(self):
        config = _config(level=5, reynolds=10.0, t_end=1.0,
                         dt=0.05, bc=NEUMANN,
                         ic=CASE3_IC)
        reference = _reference_history(config)
        assert isinstance(reference, DivergenceError)
        with pytest.raises(DivergenceError) as info:
            w.solve(config)
        assert info.value.step == reference.step

    @pytest.mark.parametrize("check_every", [None, 1, 7])
    @pytest.mark.parametrize("level, dt, bc, ic, reynolds, diverges_at", [
        # the convection product overflows in the seed pair z_0, as in
        # the reference's first right-hand side
        (5, 1e-3, DIRICHLET,
         lambda x: 1e160 * np.sin(np.pi * x), 1.0, 0),
        # case 3 past its Courant limit, at 33 and at 65 points
        (5, 0.02, NEUMANN, CASE3_IC, 10.0, 13),
        (6, 0.0125, NEUMANN, CASE3_IC, 10.0, 15),
    ], ids=["rhs-overflow", "case3-np33", "case3-np65"])
    def test_divergence_step_is_pinned_under_the_block_check(
            self, monkeypatch, check_every, level, dt, bc, ic,
            reynolds, diverges_at):
        if check_every is not None:
            monkeypatch.setattr(solver, "_CHECK_EVERY", check_every)
        config = _config(level=level, reynolds=reynolds,
                         t_end=1.0, dt=dt, bc=bc, ic=ic)
        reference = _reference_history(config)
        assert isinstance(reference, DivergenceError)
        assert reference.step == diverges_at
        with pytest.raises(DivergenceError) as info:
            w.solve(config)
        assert info.value.step == diverges_at

    @pytest.mark.parametrize("check_every", [None, 1, 7])
    def test_overflowing_solve_fails_the_next_step(self, monkeypatch,
                                                   check_every):
        # the 6th step-map product solves for state 6 from the pair of
        # state 5; an overflow there stands for a solve that overflowed,
        # so step 6 fails, the step after the last finite pair
        if check_every is not None:
            monkeypatch.setattr(solver, "_CHECK_EVERY", check_every)
        real_assemble = solver.assemble_lhs

        class OverflowingPropagator:
            def __init__(self, real):
                self.real, self.calls = real, 0

            def dot(self, pair, out):
                self.calls += 1
                self.real.dot(pair, out)
                if self.calls == 6:
                    out[:] = np.inf
                return out

        def assemble(config):
            system = real_assemble(config)
            return dataclasses.replace(
                system, propagator=OverflowingPropagator(system.propagator))

        monkeypatch.setattr(solver, "assemble_lhs", assemble)
        config = _config(level=4, t_end=0.05)
        with pytest.raises(DivergenceError) as info:
            w.solve(config)
        assert info.value.step == 6

    def test_solves_only_at_the_nonzero_report_times(self, monkeypatch):
        # 100 steps, three report times: the state is solved for at t = 0.05
        # and 0.1 only, never per step
        report_solves = _wrap_report_solves(monkeypatch, lambda solved: solved)
        config = dataclasses.replace(_config(level=5, t_end=0.1),
                                     times=(0.1, 0.0, 0.05))
        assert config.n_steps() == 100
        w.solve(config)
        assert report_solves.solves == 2

    def test_non_finite_report_state_fails_its_step(self, monkeypatch):
        # a finite right-hand side whose solution is not finite: the state
        # solved for at t = 0.05 fails step 50
        _wrap_report_solves(monkeypatch, lambda solved: np.full_like(solved,
                                                                     np.inf))
        config = dataclasses.replace(_config(level=4, t_end=0.05),
                                     times=(0.0, 0.05))
        with pytest.raises(DivergenceError) as info:
            w.solve(config)
        assert info.value.step == 50

    def test_divergence_escapes_as_an_error_not_a_warning(self):
        config = _config(level=5, reynolds=10.0, t_end=1.0,
                         dt=0.05, bc=NEUMANN,
                         ic=CASE3_IC)
        # with every warning an error, an overflow warning from the loop
        # would surface here instead of the DivergenceError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError):
                w.solve(config)


class TestSample:
    def test_boundary_samples_match_prescribed_values(self):
        config = _config(t_end=0.02)
        left, right = _values_at(config, w.solve(config), 0.02, [0.0, 1.0])
        assert abs(left) <= 1e-9 and abs(right) <= 1e-9

    def test_published_row_sampled_from_one_series(self):
        config = _config(level=5, t_end=0.1)
        values = _values_at(config, w.solve(config), 0.1,
                            [0.1, 0.3, 0.5, 0.7, 0.9])
        published = (0.10954, 0.29190, 0.37158, 0.30991, 0.12069)
        np.testing.assert_allclose(values, published, atol=1e-3)
