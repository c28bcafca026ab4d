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
from wavecol.solver import (
    DIRICHLET,
    NEUMANN,
    assemble_lhs,
    derivative_rows,
    initial_coefficients,
)

from exact_reference import project_l2


def _config(operators, level=4, reynolds=1.0, t_end=0.1, dt=1e-3,
            bc=DIRICHLET, ic=None):
    # every step up to t_end is a report time, so coeffs[k] is step k
    spec, _, _, _ = operators(level)
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
    system from, read from the solver's shared tables."""
    return (solver._interpolation_matrix(config.spec.max_level),
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
    """A_n and F_n, the nodal left-hand matrix, with the identity's or
    D1's end rows, and the stacked explicit operator
    [dt I; D1; I + (1 - THETA)(dt/Re) D2], from derivative_rows."""
    n = config.spec.n_functions
    first, second = derivative_rows(n, config.bc)
    weight = config.dt / config.reynolds
    identity = np.eye(n)
    nodal = identity - solver.THETA * weight * second
    nodal[[0, -1]] = (first if config.bc == NEUMANN else identity)[[0, -1]]
    folded = np.vstack([config.dt * identity, first,
                        identity + (1.0 - solver.THETA) * weight * second])
    return nodal, folded


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


def _one_step(rhs):
    """The next right-hand side, from solve's own buffers and step, under a
    zero propagator: the ends _rhs_buffers allocates and the interior
    _advance writes from rhs, from product blocks that are all zero."""
    n = rhs.shape[0]
    stacked, products, block, rows, interiors = solver._rhs_buffers(n)
    block[0] = rhs
    solver._advance(np.zeros((3 * n, n)), stacked, products, rows[:1],
                    interiors[1:2])
    return block[1]


def _full_vector_history(config):
    """The states at the report times from the full-vector step: np.dot(P,
    r) into one 3N buffer, dt u u_x formed over the whole first block and
    subtracted from the whole third one into a fresh vector, and both ends
    set to the boundary data, 0, every step; one np.linalg.solve with A
    per nonzero report time."""
    system = assemble_lhs(config)
    coeffs = initial_coefficients(config)
    n = config.spec.n_functions
    stacked = np.empty(3 * n)
    product, u_x, part = stacked[:n], stacked[n:2 * n], stacked[2 * n:]
    report = config.report_steps()
    states = {0: coeffs}
    rhs = np.dot(system.matrix, coeffs)
    for step in range(1, max(report) + 1):
        np.dot(system.propagator, rhs, out=stacked)
        product *= u_x
        rhs = np.empty(n)
        np.subtract(part, product, out=rhs)
        rhs[0] = rhs[-1] = 0.0
        if step in report:
            states[step] = np.linalg.solve(system.matrix, rhs)
    return np.array([states[k] for k in report])


class _ReportSolves:
    """Stands in for system.matrix, which solve reads only to seed the
    loop, np.dot(system.matrix, c_0), and to solve for its report states,
    np.linalg.solve(system.matrix, r).

    Passes the seed product through uncounted, counts the solves, keeps a
    copy of each right-hand side in handed, and hands each real solution
    to outcome, whose return value is the state solve sees.
    """

    def __init__(self, outcome):
        self.outcome, self.real, self.solves = outcome, None, 0
        self.handed = []

    def __array_function__(self, func, types, args, kwargs):
        if func is np.dot:
            return func(self.real, *args[1:], **kwargs)
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
    def test_bad_parameters_rejected(self, operators):
        spec, _, _, _ = operators(3)
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

    def test_report_time_past_the_step_ceiling_rejected(self, operators):
        spec, _, _, _ = operators(3)
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

    def test_step_count_is_robust_to_roundoff(self, operators):
        config = _config(operators, t_end=0.1, dt=1e-3)
        assert config.n_steps() == 100


class TestAssembleLhs:
    def test_value_rows_are_the_shared_nodal_matrix(self, operators):
        config = _config(operators, level=4)
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

    def test_zero_coefficients_satisfy_homogeneous_boundary_rows(self, operators):
        config = _config(operators)
        system = assemble_lhs(config)
        applied = system.matrix @ np.zeros(config.spec.n_functions)
        assert applied[0] == 0.0 and applied[-1] == 0.0

    def test_vanishing_dt_reduces_interior_rows_to_point_evaluation(
            self, operators):
        config = _config(operators, t_end=0.0, dt=1e-12)
        system = assemble_lhs(config)
        np.testing.assert_allclose(system.matrix[1:-1],
                                   basis._nodal_matrix(4)[1:-1], atol=1e-8)

    def test_smallest_admissible_space_yields_invertible_5x5(self, operators):
        config = _config(operators, level=2)
        system = assemble_lhs(config)
        assert system.matrix.shape == (5, 5)
        assert np.isfinite(np.linalg.cond(system.matrix))

    def test_singular_system_rejected(self, operators, monkeypatch,
                                      fresh_tables):
        # THETA * dt / Re = 1/4 and D*D = 4 I: every interior row vanishes
        spec, _, _, _ = operators(2)
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
            self, operators, fresh_tables):
        # a hit hands back the built arrays themselves
        assemble_lhs(_config(operators, level=4))
        assemble_lhs(_config(operators, level=4, reynolds=10.0, dt=0.01))
        assemble_lhs(_config(operators, level=4, bc=NEUMANN))
        info = solver.derivative_rows.cache_info()
        assert (info.misses, info.hits) == (2, 1)
        for bc in (DIRICHLET, NEUMANN):
            for array in derivative_rows(17, bc):
                assert not array.flags.writeable

    def test_derivative_rows_are_shared_across_dt_and_reynolds(
            self, operators, fresh_tables):
        # keyed by the grid size and the boundary kind alone: the other
        # kind has its own rows
        rows = derivative_rows(33, NEUMANN)
        runs = ((1.0, 1e-3), (10.0, 0.01), (100.0, 0.05))
        for hits, (reynolds, dt) in enumerate(runs, start=1):
            config = _config(operators, level=5, reynolds=reynolds, dt=dt,
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
            self, operators, monkeypatch, fresh_tables):
        # P = F A^-1 = F_n A_n^-1: another well-conditioned T leaves P
        # bitwise as it was and enters only A = A_n T
        config = _config(operators, level=4, reynolds=10.0, dt=0.01,
                         bc=NEUMANN)
        system = assemble_lhs(config)
        n = config.spec.n_functions
        other = np.eye(n) + np.triu(
            np.random.default_rng(4).uniform(-0.5, 0.5, (n, n)), 1)
        assert np.linalg.cond(other, 1) < 1e3
        monkeypatch.setattr(solver, "_interpolation_matrix",
                            lambda level: other)
        patched = assemble_lhs(config)
        assert patched.propagator.tobytes() == system.propagator.tobytes()
        nodal, _ = _nodal_operators(config)
        np.testing.assert_array_equal(patched.matrix, nodal @ other)
        np.testing.assert_array_equal(system.matrix,
                                      nodal @ basis._nodal_matrix(4))

    @pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN],
                             ids=["dirichlet", "neumann"])
    def test_both_solved_matrices_are_guarded(self, operators, monkeypatch,
                                              fresh_tables, bc):
        # A_n before P's solve, A before the report solves: T's condition
        # is up to 44, so a guard on one does not bound the other
        guarded = []
        monkeypatch.setattr(solver, "guard_condition",
                            lambda matrix, what: guarded.append((what, matrix)))
        config = _config(operators, level=4, reynolds=10.0, dt=0.01, bc=bc)
        system = assemble_lhs(config)
        assert [what for what, _ in guarded] == [
            "nodal collocation system", "initial interpolation",
            "collocation system"]
        np.testing.assert_array_equal(guarded[0][1],
                                      _nodal_operators(config)[0])
        assert guarded[1][1] is basis._nodal_matrix(4)
        assert guarded[2][1] is system.matrix

    @pytest.mark.parametrize("level", [3, 4, 5, 6])
    def test_neumann_rows_are_derivative_rows(self, operators, level):
        config = _config(operators, level=level, bc=NEUMANN)
        system = assemble_lhs(config)
        assert np.array_equal(system.matrix[[0, -1]], _slope_rows(config))

    @pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN],
                             ids=["dirichlet", "neumann"])
    def test_propagator_is_the_explicit_operator_through_the_inverse(
            self, operators, bc):
        # P = F_n A_n^-1 with dt folded into F_n's first block, so
        # P A_n = F_n
        config = _config(operators, level=5, reynolds=10.0, dt=0.01, bc=bc)
        system = assemble_lhs(config)
        n = config.spec.n_functions
        propagator = system.propagator
        assert propagator.shape == (3 * n, n)
        assert propagator.flags.c_contiguous
        assert not propagator.flags.writeable
        nodal, folded = _nodal_operators(config)
        assert (np.max(np.abs(propagator @ nodal - folded))
                <= 1e-12 * np.max(np.abs(folded)))


class TestWeakSecondDerivative:
    @pytest.mark.parametrize("level", [3, 4, 5, 6])
    def test_boundary_rows_stay_derivative_rows(self, operators, level):
        # the weak Laplacian changes A's interior rows only
        config = _config(operators, level=level, reynolds=10.0, dt=0.01,
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
        values, _, second = _rows(_config(operators))
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
        config = _config(operators, level=level, bc=bc, ic=ic)
        values = basis._nodal_matrix(level)
        state = values @ initial_coefficients(config)
        reference = values @ project_l2(ic, spec, dual)
        kept = slice(1, -1) if bc == DIRICHLET else slice(None)
        assert (np.max(np.abs(state[kept] - reference[kept]))
                <= 1e-12 * np.max(np.abs(reference)))

    @pytest.mark.parametrize("level", [4, 5, 6])
    def test_dirichlet_ends_meet_the_boundary_data_at_t0(self, operators,
                                                         level):
        # 1 + x is 1 and 2 at the ends, so the projection's end values are
        # far from the boundary data unless they are replaced
        config = dataclasses.replace(
            _config(operators, level=level, ic=lambda x: 1.0 + x),
            times=(0.0,))
        (initial,) = w.solve(config)
        np.testing.assert_array_equal(initial, initial_coefficients(config))
        state = basis._nodal_matrix(level) @ initial
        assert state[1] > 1.0 and state[-2] > 1.9
        np.testing.assert_allclose(state[[0, -1]], 0.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("level", [3, 4, 6])
    @pytest.mark.parametrize("kind", [DIRICHLET, NEUMANN])
    def test_grid_piecewise_linear_datum_is_reproduced(self, operators, kind,
                                                       level):
        # a member of the span is its own projection: Gauss-5 integrates
        # its products with the hats exactly, cell by cell
        spec, _, _, _ = operators(level)
        grid = np.linspace(0.0, 1.0, spec.n_functions)
        nodal = np.random.default_rng(level).uniform(-1.0, 1.0, grid.size)
        if kind == DIRICHLET:  # a datum that meets the boundary data
            nodal[[0, -1]] = 0.0
        config = _config(operators, level=level, bc=kind,
                         ic=lambda x: np.interp(x, grid, nodal))
        state = basis._nodal_matrix(level) @ initial_coefficients(config)
        np.testing.assert_allclose(state, nodal, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("ic", [lambda x: 1.0, lambda x: np.zeros(3),
                                    lambda x: x[:, None]],
                             ids=["scalar", "3-vector", "column"])
    def test_initial_data_of_the_wrong_shape_rejected(self, operators, ic):
        # one value per quadrature node: five on each of the 8 cells
        config = _config(operators, level=3, ic=ic)
        with pytest.raises(ValueError, match=r"initial condition returned "
                                             r"shape .*expected \(40,\)"):
            initial_coefficients(config)

    def test_non_finite_samples_rejected(self, operators):
        config = _config(operators, level=3,
                         ic=lambda x: np.full_like(x, np.nan))
        with pytest.raises(ValueError, match="non-finite"):
            initial_coefficients(config)

    @pytest.mark.parametrize("value, index", [(np.nan, 0), (np.inf, 4),
                                              (-np.inf, -1)],
                             ids=["nan-left-end", "inf-interior",
                                  "minus-inf-right-end"])
    def test_one_non_finite_sample_rejected(self, operators, value, index):
        # the samples nearest the ends, whose node values the Dirichlet data
        # replace, are checked too
        def ic(x):
            out = np.sin(np.pi * x)
            out[index] = value
            return out

        config = _config(operators, level=3, ic=ic)
        with pytest.raises(ValueError, match="non-finite"):
            initial_coefficients(config)

    def test_initial_data_are_not_written_through(self, operators):
        # an initial condition that returns its argument: the quadrature
        # nodes it was handed stay as they were
        handed = []

        def ic(x):
            handed.append((x, x.copy()))
            return x

        initial_coefficients(_config(operators, level=3, ic=ic))
        ((nodes, before),) = handed
        np.testing.assert_array_equal(nodes, before)

    def test_singular_interpolation_rejected(self, operators, monkeypatch,
                                             fresh_tables):
        # T's condition is checked on the first run at a resolution, through
        # the cache; a failed check is not cached
        config = _config(operators, level=3)
        monkeypatch.setattr(solver, "_nodal_matrix",
                            lambda level: np.ones((9, 9)))
        for _ in range(2):
            with pytest.raises(ConditioningError,
                               match="initial interpolation"):
                initial_coefficients(config)

    def test_nodal_matrix_is_guarded_once_per_resolution(
            self, operators, monkeypatch, fresh_tables):
        guarded = []
        monkeypatch.setattr(solver, "guard_condition",
                            lambda matrix, what: guarded.append(what))
        for level in (4, 4, 5, 4):
            for bc in (DIRICHLET, NEUMANN):
                initial_coefficients(_config(operators, level=level, bc=bc))
        assert guarded == ["initial interpolation"] * 2


class TestBuildRhs:
    """The right-hand side a step builds: from _rhs_buffers and _advance
    themselves, and through solve, as the first step's right-hand side
    solve hands to its report solve or read back as A c_{k+1} from the
    state a step solved for, the first step from the seed r_0 = A c_0."""

    def test_zero_state_leaves_only_boundary_values(self, operators):
        # a zero propagator product leaves exactly the boundary data, 0,
        # whatever right-hand side it came from
        n = _config(operators).spec.n_functions
        rhs = _one_step(np.ones(n))
        assert np.max(np.abs(rhs)) == 0.0
        # through solve: the zero state stays zero exactly
        config = _config(operators, ic=np.zeros_like)
        initial, rhs = _first_step(config)
        assert np.max(np.abs(initial)) == 0.0
        assert np.max(np.abs(rhs)) == 0.0

    @pytest.mark.parametrize("bc, ic", [
        (DIRICHLET, lambda x: np.sin(np.pi * x)),
        (NEUMANN, CASE3_IC),
    ], ids=["dirichlet", "neumann"])
    def test_carried_rhs_ends_are_exactly_zero(self, operators, monkeypatch,
                                               bc, ic):
        # from a nonzero state every carried right-hand side after the
        # seed has a nonzero interior and ends of exactly 0, the boundary
        # data, across the first block edge too
        config = _config(operators, bc=bc, ic=ic)
        report_solves = _wrap_report_solves(monkeypatch, lambda solved: solved)
        w.solve(config)
        carried = np.array(report_solves.handed)
        assert config.n_steps() > solver._CHECK_EVERY
        assert carried.shape == (config.n_steps(), config.spec.n_functions)
        assert np.all(np.abs(carried[:, 1:-1]).max(axis=1) > 0.0)
        assert not carried[:, [0, -1]].any()

    def test_constant_state_is_nearly_stationary_inside(self, operators):
        # under zero slopes a constant is an exact steady state
        config = _config(operators, bc=NEUMANN,
                         ic=lambda x: np.full_like(x, 0.7))
        _, rhs = _first_step(config)
        np.testing.assert_allclose(rhs[1:-1], 0.7, atol=1e-10)

    @pytest.mark.parametrize("level", [4, 5])
    def test_sine_state_matches_analytic_step_target_at_center(self, operators,
                                                               level):
        # at the center the convection term vanishes and the diffusion share
        # gives (1 - dt pi^2 / 2) times the state's centre value, which the
        # projection puts at 1 + O(h^2); discrete curvature error is
        # O(2**-level)
        config = _config(operators, level=level)
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
    def test_matches_the_three_mat_vec_algebra(self, operators, bc, ic,
                                              reynolds):
        # each step's right-hand side, read back as A c_{k+1}, against the
        # scheme applied to c_k, spelled out from rows built apart from
        # assemble_lhs: the seeded first step and two carried ones
        config = _config(operators, level=5, reynolds=reynolds, dt=0.01,
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
    def test_zero_is_a_fixed_point(self, operators):
        config = _config(operators, ic=np.zeros_like)
        np.testing.assert_allclose(w.solve(config), 0.0, atol=1e-14)

    def test_linear_system_residual_stays_tiny(self, operators):
        config = _config(operators, level=5, t_end=0.005)
        coeffs = w.solve(config)
        matrix = assemble_lhs(config).matrix
        for old, new in zip(coeffs, coeffs[1:]):
            rhs = _step_algebra(config, old)
            residual = np.max(np.abs(matrix @ new - rhs))
            assert residual <= 1e-10 * max(np.max(np.abs(rhs)), 1.0)

    def test_fifty_steps_reach_published_anchor(self, operators):
        # sin initial data, Re = 1: u(0.5, 0.05) = 0.60907 published
        config = _config(operators, level=5, t_end=0.05)
        coeffs = w.solve(config)[50]
        assert w.basis_matrix(config.spec, [0.5])[0] @ coeffs == pytest.approx(
            0.60907, abs=1e-3)

    def test_antisymmetric_state_stays_antisymmetric(self, operators):
        config = _config(operators, level=4, reynolds=10.0,
                                   bc=NEUMANN, ic=CASE3_IC)
        values = basis._nodal_matrix(4)
        for coeffs in w.solve(config)[1:]:
            u = values @ coeffs
            assert np.max(np.abs(u + u[::-1])) <= 1e-8


class TestSolve:
    def test_zero_horizon_returns_initial_state_only(self, operators):
        config = _config(operators, t_end=0.0)
        assert w.solve(config).shape == (1, config.spec.n_functions)

    def test_horizon_off_the_step_grid_is_rejected(self, operators):
        # 0.0105 is 10.5 steps of 1e-3: no step count reaches it
        with pytest.raises(ValueError, match="not a multiple"):
            _config(operators, t_end=0.0105, dt=1e-3)

    def test_published_anchor_case1_re10(self, operators):
        config = _config(operators, level=5, reynolds=10.0, t_end=0.5)
        coeffs = w.solve(config)
        assert _values_at(config, coeffs, 0.5, [0.7])[0] == pytest.approx(
            0.57585, abs=1e-3)

    def test_published_anchor_case2_re1(self, operators):
        config = _config(operators, level=5, t_end=0.05,
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

    def test_one_report_time_keeps_one_state_bitwise(self, operators):
        config = _config(operators, level=5, t_end=0.05)
        every = w.solve(config)
        only = w.solve(dataclasses.replace(config, times=(0.05,)))
        assert only.shape == (1, config.spec.n_functions)
        assert np.array_equal(only[0], every[50])

    @pytest.mark.parametrize("check_every", [None, 1, 7])
    def test_states_come_in_the_order_of_the_report_times(
            self, operators, monkeypatch, check_every):
        if check_every is not None:
            monkeypatch.setattr(solver, "_CHECK_EVERY", check_every)
        config = _config(operators, level=5, t_end=0.1)
        every = w.solve(config)
        kept = w.solve(dataclasses.replace(config, times=(0.1, 0.0, 0.05)))
        assert np.array_equal(kept, every[[100, 0, 50]])

    def test_memory_does_not_grow_with_the_step_count(self, operators):
        # 20 000 steps at 33 points: a stored history alone would be 5.3 MB
        spec, _, _, _ = operators(5)
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
    def test_needs_no_wavelet_space_operator(self, operators, monkeypatch,
                                             bc, ic):
        def forbidden(*args, **kwargs):
            raise AssertionError("the solver built a wavelet-space operator")

        for name in ("gram_matrix", "dual_transform", "derivative_matrix"):
            assert not hasattr(solver, name)
            monkeypatch.setattr(f"wavecol.operators.{name}", forbidden)
            monkeypatch.setattr(f"wavecol.{name}", forbidden)
        config = _config(operators, level=4, reynolds=10.0, t_end=0.01,
                         bc=bc, ic=ic)
        assert w.solve(config).shape == (11, config.spec.n_functions)

    def test_dirichlet_boundaries_enforced_every_step(self, operators):
        config = _config(operators, level=4, t_end=0.05)
        ends = w.basis_matrix(config.spec, [0.0, 1.0])
        for coeffs in w.solve(config):
            assert np.max(np.abs(ends @ coeffs)) <= 1e-9

    def test_neumann_boundaries_enforced_every_step(self, operators):
        config = _config(operators, level=4, reynolds=10.0, t_end=0.05,
                                   bc=NEUMANN, ic=CASE3_IC)
        _, _, _, deriv_op = operators(4)
        slope_rows = w.basis_matrix(config.spec, [0.0, 1.0]) @ deriv_op.T
        for coeffs in w.solve(config)[1:]:
            assert np.max(np.abs(slope_rows @ coeffs)) <= 1e-8

    @pytest.mark.parametrize("ic", [lambda x: np.sin(np.pi * x),
                                    lambda x: 4.0 * x * (1.0 - x)])
    def test_peak_magnitude_never_grows(self, operators, ic):
        config = _config(operators, level=4, t_end=0.1, ic=ic)
        grid = np.linspace(0.0, 1.0, config.spec.n_functions)
        grid_values = w.solve(config) @ w.basis_matrix(config.spec, grid).T
        peaks = np.max(np.abs(grid_values), axis=1)
        assert all(b <= a + 1e-6 for a, b in zip(peaks, peaks[1:]))

    def test_steep_neumann_front_diverges_and_is_reported(self, operators):
        # with dt = 0.05 at 33 points (h = 1/32) and max|u| of about 5.6,
        # the convective Courant number dt * max|u| / h is about 9; the
        # explicit convection term cannot hold the front and the run
        # overflows near t = 0.55; the failure must be loud and carry the
        # blow-up time
        config = _config(operators, level=5, reynolds=10.0, t_end=1.0,
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
            self, operators, bc, ic, reynolds):
        # solve carries right-hand sides through a precomposed propagator;
        # over 500 steps its node values must stay within the golden
        # gates of a per-step dense solve, at 17, 33 and 65 points
        gate = 1e-12 if bc == DIRICHLET else 1e-10
        for level in (4, 5, 6):
            config = _config(operators, level=level, reynolds=reynolds,
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
            self, operators, bc, ic, reynolds, level):
        # solve's rows keep the zero ends they are allocated with, and it
        # steps only the interior; its states must equal, bit for bit,
        # those of a step that works on whole vectors and sets the ends
        # every step.  The report times fall at 0, inside the first block,
        # on the block edges 64 and 128, and at step 160, inside the third
        # block
        assert solver._CHECK_EVERY == 64
        config = _config(operators, level=level, reynolds=reynolds,
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
            self, operators, bc, ic, reynolds, n_steps):
        # the last step closes a block of _CHECK_EVERY = 64 steps, so the
        # only report state is solved from that block's last row
        gate = 1e-12 if bc == DIRICHLET else 1e-10
        assert solver._CHECK_EVERY == 64
        config = _config(operators, level=5, reynolds=reynolds,
                         t_end=n_steps * 1e-3, bc=bc, ic=ic)
        reference = _reference_history(config)
        assert reference.shape == (n_steps + 1, config.spec.n_functions)
        (last,) = w.solve(dataclasses.replace(config,
                                              times=(config.times[-1],)))
        values = basis._nodal_matrix(5)
        drift = np.max(np.abs((last - reference[-1]) @ values.T))
        assert drift <= gate, drift

    def test_divergence_step_matches_the_reference_algebra(self, operators):
        config = _config(operators, level=5, reynolds=10.0, t_end=1.0,
                                   dt=0.05, bc=NEUMANN,
                                   ic=CASE3_IC)
        reference = _reference_history(config)
        assert isinstance(reference, DivergenceError)
        with pytest.raises(DivergenceError) as info:
            w.solve(config)
        assert info.value.step == reference.step

    @pytest.mark.parametrize("check_every", [None, 1, 7])
    @pytest.mark.parametrize("level, dt, bc, ic, reynolds, diverges_at", [
        # the convection product overflows in the first right-hand side
        (5, 1e-3, DIRICHLET,
         lambda x: 1e160 * np.sin(np.pi * x), 1.0, 0),
        # case 3 past its Courant limit, at 33 and at 65 points
        (5, 0.02, NEUMANN, CASE3_IC, 10.0, 13),
        (6, 0.0125, NEUMANN, CASE3_IC, 10.0, 15),
    ], ids=["rhs-overflow", "case3-np33", "case3-np65"])
    def test_divergence_step_is_pinned_under_the_block_check(
            self, operators, monkeypatch, check_every, level, dt, bc, ic,
            reynolds, diverges_at):
        if check_every is not None:
            monkeypatch.setattr(solver, "_CHECK_EVERY", check_every)
        config = _config(operators, level=level, reynolds=reynolds,
                         t_end=1.0, dt=dt, bc=bc, ic=ic)
        reference = _reference_history(config)
        assert isinstance(reference, DivergenceError)
        assert reference.step == diverges_at
        with pytest.raises(DivergenceError) as info:
            w.solve(config)
        assert info.value.step == diverges_at

    @pytest.mark.parametrize("check_every", [None, 1, 7])
    def test_overflowing_solve_fails_the_next_step(self, operators,
                                                   monkeypatch, check_every):
        # the 7th propagation product maps the right-hand side of step 6 to
        # the next one through state 6; an overflow there stands for a
        # state 6 that is not finite, so step 6 fails, though the first bad
        # right-hand side is step 7's
        if check_every is not None:
            monkeypatch.setattr(solver, "_CHECK_EVERY", check_every)
        real_assemble = solver.assemble_lhs

        class OverflowingPropagator:
            def __init__(self, real):
                self.real, self.calls = real, 0

            def dot(self, rhs, out):
                self.calls += 1
                self.real.dot(rhs, out)
                if self.calls == 7:
                    out[:] = np.inf
                return out

        def assemble(config):
            system = real_assemble(config)
            return dataclasses.replace(
                system, propagator=OverflowingPropagator(system.propagator))

        monkeypatch.setattr(solver, "assemble_lhs", assemble)
        config = _config(operators, level=4, t_end=0.05)
        with pytest.raises(DivergenceError) as info:
            w.solve(config)
        assert info.value.step == 6

    def test_solves_only_at_the_nonzero_report_times(self, operators,
                                                     monkeypatch):
        # 100 steps, three report times: the state is solved for at t = 0.05
        # and 0.1 only, never per step
        report_solves = _wrap_report_solves(monkeypatch, lambda solved: solved)
        config = dataclasses.replace(_config(operators, level=5, t_end=0.1),
                                     times=(0.1, 0.0, 0.05))
        assert config.n_steps() == 100
        w.solve(config)
        assert report_solves.solves == 2

    def test_non_finite_report_state_fails_its_step(self, operators,
                                                    monkeypatch):
        # a finite right-hand side whose solution is not finite: the state
        # solved for at t = 0.05 fails step 50
        _wrap_report_solves(monkeypatch, lambda solved: np.full_like(solved,
                                                                     np.inf))
        config = dataclasses.replace(_config(operators, level=4, t_end=0.05),
                                     times=(0.0, 0.05))
        with pytest.raises(DivergenceError) as info:
            w.solve(config)
        assert info.value.step == 50

    def test_divergence_escapes_as_an_error_not_a_warning(self, operators):
        config = _config(operators, level=5, reynolds=10.0, t_end=1.0,
                                   dt=0.05, bc=NEUMANN,
                                   ic=CASE3_IC)
        # with every warning an error, an overflow warning from the loop
        # would surface here instead of the DivergenceError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError):
                w.solve(config)


class TestSample:
    def test_boundary_samples_match_prescribed_values(self, operators):
        config = _config(operators, t_end=0.02)
        left, right = _values_at(config, w.solve(config), 0.02, [0.0, 1.0])
        assert abs(left) <= 1e-9 and abs(right) <= 1e-9

    def test_published_row_sampled_from_one_series(self, operators):
        config = _config(operators, level=5, t_end=0.1)
        values = _values_at(config, w.solve(config), 0.1,
                            [0.1, 0.3, 0.5, 0.7, 0.9])
        published = (0.10954, 0.29190, 0.37158, 0.30991, 0.12069)
        np.testing.assert_allclose(values, published, atol=1e-3)
