"""Time stepping: assembly, stepping, boundary enforcement, published anchors."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

import wavecol as w
from wavecol import basis, solver
from wavecol.basis import collocation_points
from wavecol.errors import ConditioningError, DivergenceError
from wavecol.solver import (
    DIRICHLET,
    NEUMANN,
    assemble_lhs,
    derivative_rows,
    initial_coefficients,
)


def _config(operators, level=4, reynolds=1.0, t_end=0.1, dt=1e-3, bc=None,
            ic=None):
    # every step up to t_end is a report time, so coeffs[k] is step k
    spec, _, _, _ = operators(level)
    times = tuple(k * dt for k in range(round(t_end / dt))) + (t_end,)
    return w.SolverConfig(
        reynolds=reynolds, times=times, dt=dt,
        bc=bc or w.BoundarySpec(DIRICHLET),
        ic=ic or (lambda x: np.sin(np.pi * x)),
        spec=spec,
    )


CASE3_IC = lambda x: 50.0 * (0.5 - x) ** 3


def _reference_history(config):
    """The step algebra spelled out with scipy's lu_factor and lu_solve.

    A dense per-step solve of the coefficients, with the right-hand side
    u + (1/2)(dt/Re) u_xx - dt u u_x (+ (dt/Re) flux) formed here from the
    assembled rows, so it shares no step code with solve.  Returns the
    coefficient history, or the DivergenceError the run ends in.
    """
    system = assemble_lhs(config)
    lu = lu_factor(system.matrix)
    weight = config.dt / config.reynolds
    coeffs = initial_coefficients(config, system)
    history = [coeffs]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(config.n_steps()):
            u = system.values @ coeffs
            u_x = system.first_deriv @ coeffs
            u_xx = system.second_deriv @ coeffs
            rhs = u + 0.5 * weight * u_xx - config.dt * u * u_x
            if system.flux is not None:
                rhs += weight * system.flux
            rhs[0], rhs[-1] = config.bc.left_value, config.bc.right_value
            if not np.all(np.isfinite(rhs)):
                return DivergenceError(n, n * config.dt)
            coeffs = lu_solve(lu, rhs)
            if not np.all(np.isfinite(coeffs)):
                return DivergenceError(n + 1, (n + 1) * config.dt)
            history.append(coeffs)
    return np.array(history)


def _values_at(series, t, xs):
    """The solution at report time t at the points xs."""
    return w.basis_matrix(series.config.spec, xs) @ series.coefficients_at(t)


def _explicit_rows(config):
    """Node rows V, D1 and D2 and the flux, built apart from assemble_lhs."""
    values = w.basis_matrix(config.spec, collocation_points(config.spec))
    return (values,) + derivative_rows(values, config.bc)


def _step_algebra(config, coeffs):
    """The right-hand side the scheme builds from the state coeffs:
    u + (1 - THETA)(dt/Re) u_xx - dt u u_x (+ (dt/Re) flux), with the
    boundary data at the ends, spelled out from _explicit_rows."""
    values, first, second, flux = _explicit_rows(config)
    weight = config.dt / config.reynolds
    u, u_x, u_xx = values @ coeffs, first @ coeffs, second @ coeffs
    rhs = u + (1.0 - solver.THETA) * weight * u_xx - config.dt * u * u_x
    if flux is not None:
        rhs += weight * flux
    rhs[0], rhs[-1] = config.bc.left_value, config.bc.right_value
    return rhs


def _first_step(config):
    """The initial state c_0 and A c_1, the right-hand side of the first
    step that solve took, recovered from its state c_1."""
    series = w.solve(dataclasses.replace(config, times=(0.0, config.dt)))
    initial, first = series.coeffs
    return initial, series.system.matrix @ first


def _one_step(rhs, bc, forcing, propagator=None):
    """The next right-hand side, from solve's own buffers and step: the
    ends _rhs_buffers sets and the interior _advance writes from rhs.
    propagator defaults to zero, so the product blocks are all zero."""
    n = rhs.shape[0]
    if propagator is None:
        propagator = np.zeros((3 * n, n))
    stacked, products, block, rows, interiors = solver._rhs_buffers(n, bc)
    block[0] = rhs
    solver._advance(propagator, stacked, products, rows[:1], interiors[1:2],
                    forcing)
    return block[1]


def _full_vector_history(config):
    """The states at the report times from the full-vector step: np.dot(P,
    r) into one 3N buffer, dt u u_x formed over the whole first block and
    subtracted from the whole third one into a fresh vector, the flux added
    whenever there is one, and both ends set to the boundary data every
    step; one np.linalg.solve with A per nonzero report time."""
    system = assemble_lhs(config)
    coeffs = initial_coefficients(config, system)
    n = config.spec.n_functions
    forcing = (None if system.flux is None
               else (config.dt / config.reynolds) * system.flux)
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
        if forcing is not None:
            rhs += forcing
        rhs[0] = config.bc.left_value
        rhs[-1] = config.bc.right_value
        if step in report:
            states[step] = np.linalg.solve(system.matrix, rhs)
    return np.array([states[k] for k in report])


class _ReportSolves:
    """Stands in for system.matrix, which solve reads only to take its
    boundary rows for the initial interpolation, system.matrix[[0, -1]],
    to seed the loop, np.dot(system.matrix, c_0), and to solve for its
    report states, np.linalg.solve(system.matrix, r).

    Hands out the real rows and passes the seed product through, both
    uncounted, counts the solves and hands each real solution to outcome,
    whose return value is the state solve sees.
    """

    def __init__(self, outcome):
        self.outcome, self.real, self.solves = outcome, None, 0

    def __getitem__(self, key):
        return self.real[key]

    def __array_function__(self, func, types, args, kwargs):
        if func is np.dot:
            return func(self.real, *args[1:], **kwargs)
        assert func is np.linalg.solve
        self.solves += 1
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
        bc = w.BoundarySpec(DIRICHLET)
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
        config = dict(reynolds=1.0, dt=1e-3, bc=w.BoundarySpec(DIRICHLET),
                      ic=lambda x: np.zeros_like(x), spec=spec)
        at_ceiling = w.SolverConfig(times=(solver.MAX_STEPS * 1e-3,), **config)
        assert at_ceiling.n_steps() == solver.MAX_STEPS
        # 1e12 is 10**15 steps; 1e308 / 1e-3 overflows to inf
        for t in ((solver.MAX_STEPS + 1) * 1e-3, 1e12, 1e308, -1e308):
            with pytest.raises(ValueError, match="MAX_STEPS"):
                w.SolverConfig(times=(t,), **config)

    def test_unknown_boundary_kind_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            w.BoundarySpec("periodic")

    @pytest.mark.parametrize("kind, left, right", [
        (DIRICHLET, np.nan, 0.0), (DIRICHLET, 0.0, np.inf),
        (DIRICHLET, -np.inf, 1.0), (NEUMANN, np.nan, 0.0),
        (NEUMANN, 0.0, -np.inf)])
    def test_non_finite_boundary_data_rejected(self, kind, left, right):
        # unchecked, a nan gives a nan state at t = 0 and a divergence at
        # step 0 for any later report time
        with pytest.raises(ValueError, match="value = .* is not finite"):
            w.BoundarySpec(kind, left, right)

    def test_step_count_is_robust_to_roundoff(self, operators):
        config = _config(operators, t_end=0.1, dt=1e-3)
        assert config.n_steps() == 100


class TestCollocationGrid:
    def test_interior_count_and_spacing(self, operators):
        spec, _, _, _ = operators(4)
        grid = collocation_points(spec)
        interior = grid[1:-1]
        assert len(interior) == 2**4 - 1
        assert (grid[0], grid[-1]) == (0.0, 1.0)
        np.testing.assert_allclose(np.diff(grid), 2.0**-4, atol=1e-15)
        assert np.all((interior > 0.0) & (interior < 1.0))


class TestAssembleLhs:
    def test_value_rows_are_the_shared_nodal_matrix(self, operators):
        config = _config(operators, level=4)
        system = assemble_lhs(config)
        assert system.values is basis._nodal_matrix(4)
        assert not system.values.flags.writeable
        # bitwise, sign bits included, the basis evaluated at the grid
        assert system.values.tobytes() == w.basis_matrix(
            config.spec, collocation_points(config.spec)).tobytes()

    def test_zero_coefficients_satisfy_homogeneous_boundary_rows(self, operators):
        config = _config(operators)
        system = assemble_lhs(config)
        applied = system.matrix @ np.zeros(config.spec.n_functions)
        assert applied[0] == 0.0 and applied[-1] == 0.0

    def test_vanishing_dt_reduces_interior_rows_to_point_evaluation(
            self, operators):
        config = _config(operators, t_end=0.0, dt=1e-12)
        system = assemble_lhs(config)
        np.testing.assert_allclose(system.matrix[1:-1], system.values[1:-1],
                                   atol=1e-8)

    def test_smallest_admissible_space_yields_invertible_5x5(self, operators):
        config = _config(operators, level=2)
        system = assemble_lhs(config)
        assert system.matrix.shape == (5, 5)
        assert np.isfinite(np.linalg.cond(system.matrix))

    def test_singular_system_rejected(self, operators, monkeypatch):
        # THETA * dt / Re = 1/4 and D*D = 4 I: every interior row vanishes
        spec, _, _, _ = operators(2)
        config = w.SolverConfig(reynolds=1.0, times=(0.5,), dt=0.5,
                                bc=w.BoundarySpec(DIRICHLET),
                                ic=lambda x: np.sin(np.pi * x), spec=spec)
        monkeypatch.setattr(solver, "derivative_rows",
                            lambda values, bc: (2.0 * values, 4.0 * values, None))
        with pytest.raises(ConditioningError,
                           match="collocation system") as info:
            assemble_lhs(config)
        assert info.value.condition == np.inf

    def test_neumann_rows_are_derivative_rows(self, operators):
        config = _config(operators, bc=w.BoundarySpec(NEUMANN))
        system = assemble_lhs(config)
        np.testing.assert_array_equal(system.matrix[0], system.first_deriv[0])
        np.testing.assert_array_equal(system.matrix[-1], system.first_deriv[-1])

    @pytest.mark.parametrize("bc", [w.BoundarySpec(DIRICHLET),
                                    w.BoundarySpec(NEUMANN)],
                             ids=["dirichlet", "neumann"])
    def test_propagator_is_the_explicit_operator_through_the_inverse(
            self, operators, bc):
        # P = F A^-1 with dt folded into F's first block, so P A = F
        config = _config(operators, level=5, reynolds=10.0, dt=0.01, bc=bc)
        system = assemble_lhs(config)
        n = config.spec.n_functions
        propagator = system.propagator
        assert propagator.shape == (3 * n, n)
        assert propagator.flags.c_contiguous
        assert not propagator.flags.writeable
        values, first, second, _ = _explicit_rows(config)
        weight = config.dt / config.reynolds
        folded = np.vstack([config.dt * values, first,
                            values + (1.0 - solver.THETA) * weight * second])
        assert (np.max(np.abs(propagator @ system.matrix - folded))
                <= 1e-12 * np.max(np.abs(folded)))


class TestWeakSecondDerivative:
    def test_flux_makes_quadratic_curvature_exact_at_every_node(
            self, operators):
        # u = x**2 has u'(0) = 0, u'(1) = 2 and u'' = 2; with the consistent
        # P1 mass matrix the weak Laplacian plus the flux M^-1 b reproduces
        # it exactly, so a dropped or mis-signed flux shows at the ends
        config = _config(operators,
                                   bc=w.BoundarySpec(NEUMANN, 0.0, 2.0))
        system = assemble_lhs(config)
        coeffs = np.linalg.solve(system.values, system.grid ** 2)
        curvature = system.second_deriv @ coeffs + system.flux
        np.testing.assert_allclose(curvature, 2.0, rtol=0, atol=1e-11)

    def test_boundary_rows_stay_derivative_rows(self, operators):
        config = _config(operators, bc=w.BoundarySpec(NEUMANN))
        system = assemble_lhs(config)
        np.testing.assert_array_equal(system.matrix[0], system.first_deriv[0])
        np.testing.assert_array_equal(system.matrix[-1], system.first_deriv[-1])

    def test_flux_enters_rhs_interior_at_full_weight(self, operators):
        config = _config(operators, bc=w.BoundarySpec(NEUMANN, 0.5, -1.0),
                         ic=np.zeros_like)
        system = assemble_lhs(config)
        forcing = (config.dt / config.reynolds) * system.flux
        n = config.spec.n_functions
        rhs = _one_step(np.zeros(n), config.bc, forcing[1:-1])
        np.testing.assert_array_equal(rhs[1:-1], forcing[1:-1])
        assert rhs[0] == 0.5 and rhs[-1] == -1.0
        # through solve: what the first step solved, less the scheme
        # without the flux, is the flux times dt/Re inside and the slope
        # data at the ends
        values, first, second, flux = _explicit_rows(config)
        initial, rhs = _first_step(config)
        u, u_x = values @ initial, first @ initial
        without_flux = (u + 0.5 * (config.dt / config.reynolds)
                        * (second @ initial) - config.dt * u * u_x)
        np.testing.assert_allclose(
            rhs[1:-1] - without_flux[1:-1],
            (config.dt / config.reynolds) * flux[1:-1], rtol=0, atol=1e-15)
        assert abs(rhs[0] - 0.5) <= 1e-15 and abs(rhs[-1] + 1.0) <= 1e-15

    def test_dirichlet_data_keep_the_paper_operator(self, operators):
        # the rows are formed from the nodal kernel, not from the
        # wavelet-space D, so they agree with V (D D)^T to roundoff only
        _, _, _, deriv_op = operators(4)
        config = _config(operators, bc=w.BoundarySpec(DIRICHLET, 0.5, 1.0))
        system = assemble_lhs(config)
        assert system.flux is None
        paper = system.values @ (deriv_op @ deriv_op).T
        assert (np.max(np.abs(system.second_deriv - paper))
                <= 1e-14 * np.max(np.abs(paper)))


class TestInitialCoefficients:
    @pytest.mark.parametrize("level", [4, 5, 6])
    @pytest.mark.parametrize("bc", [w.BoundarySpec(DIRICHLET, 0.3, -0.2),
                                    w.BoundarySpec(NEUMANN, 0.5, -1.0)],
                             ids=["dirichlet", "neumann"])
    def test_interpolation_matrix_has_lhs_end_rows_and_t_interior_rows(
            self, operators, monkeypatch, bc, level):
        # the boundary rows are chosen once, by assemble_lhs; the initial
        # interpolation takes A's end rows and T's interior rows, bitwise
        config = _config(operators, level=level, bc=bc)
        system = assemble_lhs(config)
        guarded = {}
        monkeypatch.setattr(solver, "guard_condition", lambda matrix, what:
                            guarded.setdefault(what, matrix.copy()))
        coeffs = initial_coefficients(config, system)
        matrix = guarded["initial interpolation"]
        assert matrix.shape == system.matrix.shape
        np.testing.assert_array_equal(matrix[[0, -1]], system.matrix[[0, -1]])
        np.testing.assert_array_equal(matrix[1:-1], system.values[1:-1])
        ends = system.first_deriv if bc.kind == NEUMANN else system.values
        np.testing.assert_array_equal(matrix[[0, -1]], ends[[0, -1]])
        np.testing.assert_allclose(matrix[[0, -1]] @ coeffs,
                                   [bc.left_value, bc.right_value],
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("ic", [lambda x: 1.0, lambda x: np.zeros(3),
                                    lambda x: x[:, None]],
                             ids=["scalar", "3-vector", "column"])
    def test_initial_data_of_the_wrong_shape_rejected(self, operators, ic):
        config = _config(operators, level=3, ic=ic)
        with pytest.raises(ValueError, match=r"initial condition returned "
                                             r"shape .*expected \(9,\)"):
            initial_coefficients(config, assemble_lhs(config))

    def test_non_finite_samples_rejected(self, operators):
        config = _config(operators, level=3,
                         ic=lambda x: np.full_like(x, np.nan))
        with pytest.raises(ValueError, match="non-finite"):
            initial_coefficients(config, assemble_lhs(config))

    @pytest.mark.parametrize("value, index", [(np.nan, 0), (np.inf, 4),
                                              (-np.inf, -1)],
                             ids=["nan-left-end", "inf-interior",
                                  "minus-inf-right-end"])
    def test_one_non_finite_sample_rejected(self, operators, value, index):
        # the check reads the samples before the boundary data replace
        # their end values, so a bad end sample is refused too
        def ic(x):
            out = np.sin(np.pi * x)
            out[index] = value
            return out

        config = _config(operators, level=3, ic=ic)
        with pytest.raises(ValueError, match="non-finite"):
            initial_coefficients(config, assemble_lhs(config))

    def test_initial_data_are_not_written_through(self, operators):
        # the boundary data replace the end values of a copy: an initial
        # condition that returns its argument leaves the grid as it was
        config = _config(operators, level=3, ic=lambda x: x)
        system = assemble_lhs(config)
        initial_coefficients(config, system)
        np.testing.assert_array_equal(system.grid, collocation_points(config.spec))

    def test_singular_interpolation_rejected(self, operators):
        config = _config(operators, level=3)
        system = assemble_lhs(config)
        broken = dataclasses.replace(system, values=np.ones_like(system.values))
        with pytest.raises(ConditioningError, match="initial interpolation"):
            initial_coefficients(config, broken)


class TestBuildRhs:
    """The right-hand side a step builds: from _rhs_buffers and _advance
    themselves, and through solve, read back as A c_{k+1} from the state that step solved
    for, the first step from the seed r_0 = A c_0."""

    def test_zero_state_leaves_only_boundary_values(self, operators):
        bc = w.BoundarySpec(DIRICHLET, 0.3, -0.2)
        n = _config(operators).spec.n_functions
        rhs = _one_step(np.zeros(n), bc, None)
        assert rhs[0] == 0.3 and rhs[-1] == -0.2
        assert np.max(np.abs(rhs[1:-1])) == 0.0
        # through solve: homogeneous data keep the zero state exactly;
        # other boundary data are what the end rows are set to
        config = _config(operators, ic=np.zeros_like)
        initial, rhs = _first_step(config)
        assert np.max(np.abs(initial)) == 0.0
        assert np.max(np.abs(rhs)) == 0.0
        config = _config(operators, bc=bc, ic=np.zeros_like)
        _, rhs = _first_step(config)
        assert rhs[0] == 0.3 and rhs[-1] == -0.2

    def test_constant_state_is_nearly_stationary_inside(self, operators):
        config = _config(operators, bc=w.BoundarySpec(DIRICHLET, 0.7, 0.7),
                         ic=lambda x: np.full_like(x, 0.7))
        _, rhs = _first_step(config)
        np.testing.assert_allclose(rhs[1:-1], 0.7, atol=1e-10)

    @pytest.mark.parametrize("level", [4, 5])
    def test_sine_state_matches_analytic_step_target_at_center(self, operators,
                                                               level):
        # at the center the convection term vanishes and the diffusion share
        # gives 1 - dt pi^2 / 2; discrete curvature error is O(2**-level)
        config = _config(operators, level=level)
        _, rhs = _first_step(config)
        center = config.spec.n_functions // 2
        target = 1.0 - config.dt * np.pi**2 / 2.0
        assert abs(rhs[center] - target) <= 1e-3 * 2.0**-level

    @pytest.mark.parametrize("bc, ic, reynolds", [
        (w.BoundarySpec(DIRICHLET, 0.3, -0.2), lambda x: np.sin(np.pi * x), 1.0),
        (w.BoundarySpec(NEUMANN, 0.5, -1.0), CASE3_IC, 10.0),
    ], ids=["dirichlet", "neumann"])
    def test_matches_the_three_mat_vec_algebra(self, operators, bc, ic,
                                              reynolds):
        # each step's right-hand side, read back as A c_{k+1}, against the
        # scheme applied to c_k, spelled out from rows built apart from
        # assemble_lhs: the seeded first step and two carried ones
        config = _config(operators, level=5, reynolds=reynolds, dt=0.01,
                         bc=bc, ic=ic)
        series = w.solve(dataclasses.replace(
            config, times=tuple(k * config.dt for k in range(4))))
        for old, new in zip(series.coeffs, series.coeffs[1:]):
            rhs = series.system.matrix @ new
            expected = _step_algebra(config, old)
            assert (np.max(np.abs(rhs - expected))
                    <= 1e-14 * np.max(np.abs(expected)))


class TestStep:
    def test_zero_is_a_fixed_point(self, operators):
        config = _config(operators, ic=np.zeros_like)
        np.testing.assert_allclose(w.solve(config).coeffs, 0.0, atol=1e-14)

    def test_linear_system_residual_stays_tiny(self, operators):
        config = _config(operators, level=5, t_end=0.005)
        series = w.solve(config)
        system = series.system
        for old, new in zip(series.coeffs, series.coeffs[1:]):
            rhs = _step_algebra(config, old)
            residual = np.max(np.abs(system.matrix @ new - rhs))
            assert residual <= 1e-10 * max(np.max(np.abs(rhs)), 1.0)

    def test_fifty_steps_reach_published_anchor(self, operators):
        # sin initial data, Re = 1: u(0.5, 0.05) = 0.60907 published
        config = _config(operators, level=5, t_end=0.05)
        coeffs = w.solve(config).coeffs[50]
        assert w.basis_matrix(config.spec, [0.5])[0] @ coeffs == pytest.approx(
            0.60907, abs=1e-3)

    def test_antisymmetric_state_stays_antisymmetric(self, operators):
        config = _config(operators, level=4, reynolds=10.0,
                                   bc=w.BoundarySpec(NEUMANN), ic=CASE3_IC)
        series = w.solve(config)
        for coeffs in series.coeffs[1:]:
            u = series.system.values @ coeffs
            assert np.max(np.abs(u + u[::-1])) <= 1e-8


class TestSolve:
    def test_zero_horizon_returns_initial_state_only(self, operators):
        config = _config(operators, t_end=0.0)
        series = w.solve(config)
        assert series.coeffs.shape == (1, config.spec.n_functions)

    def test_horizon_off_the_step_grid_is_rejected(self, operators):
        # 0.0105 is 10.5 steps of 1e-3: no step count reaches it
        with pytest.raises(ValueError, match="not a multiple"):
            _config(operators, t_end=0.0105, dt=1e-3)

    def test_published_anchor_case1_re10(self, operators):
        config = _config(operators, level=5, reynolds=10.0, t_end=0.5)
        series = w.solve(config)
        assert _values_at(series, 0.5, [0.7])[0] == pytest.approx(0.57585, abs=1e-3)

    def test_published_anchor_case2_re1(self, operators):
        config = _config(operators, level=5, t_end=0.05,
                                   ic=lambda x: 4.0 * x * (1.0 - x))
        series = w.solve(config)
        assert _values_at(series, 0.05, [0.3])[0] == pytest.approx(0.49093, abs=1e-3)

    def test_runs_from_the_config_alone(self):
        spec = w.BasisSpec(max_level=3)
        config = w.SolverConfig(reynolds=1.0, times=(0.0, 0.001, 0.002),
                                bc=w.BoundarySpec(DIRICHLET),
                                ic=lambda x: np.sin(np.pi * x), spec=spec)
        series = w.solve(config)
        assert series.coeffs.shape == (3, spec.n_functions)

    def test_one_report_time_keeps_one_state_bitwise(self, operators):
        config = _config(operators, level=5, t_end=0.05)
        every = w.solve(config).coeffs
        only = w.solve(dataclasses.replace(config, times=(0.05,))).coeffs
        assert only.shape == (1, config.spec.n_functions)
        assert np.array_equal(only[0], every[50])

    @pytest.mark.parametrize("check_every", [None, 1, 7])
    def test_states_come_in_the_order_of_the_report_times(
            self, operators, monkeypatch, check_every):
        if check_every is not None:
            monkeypatch.setattr(solver, "_CHECK_EVERY", check_every)
        config = _config(operators, level=5, t_end=0.1)
        every = w.solve(config).coeffs
        series = w.solve(dataclasses.replace(config, times=(0.1, 0.0, 0.05)))
        assert np.array_equal(series.coeffs, every[[100, 0, 50]])
        assert np.array_equal(series.coefficients_at(0.0), every[0])

    def test_memory_does_not_grow_with_the_step_count(self, operators):
        # 20 000 steps at 33 points: a stored history alone would be 5.3 MB
        spec, _, _, _ = operators(5)
        config = w.SolverConfig(reynolds=1.0, times=(2.0,), dt=1e-4,
                                bc=w.BoundarySpec(DIRICHLET),
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
        (w.BoundarySpec(DIRICHLET), lambda x: np.sin(np.pi * x)),
        (w.BoundarySpec(NEUMANN), CASE3_IC),
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
        assert w.solve(config).coeffs.shape == (11, config.spec.n_functions)

    def test_dirichlet_boundaries_enforced_every_step(self, operators):
        config = _config(operators, level=4, t_end=0.05)
        series = w.solve(config)
        ends = w.basis_matrix(config.spec, [0.0, 1.0])
        for coeffs in series.coeffs:
            assert np.max(np.abs(ends @ coeffs)) <= 1e-9

    def test_neumann_boundaries_enforced_every_step(self, operators):
        config = _config(operators, level=4, reynolds=10.0, t_end=0.05,
                                   bc=w.BoundarySpec(NEUMANN), ic=CASE3_IC)
        series = w.solve(config)
        _, _, _, deriv_op = operators(4)
        slope_rows = w.basis_matrix(config.spec, [0.0, 1.0]) @ deriv_op.T
        for coeffs in series.coeffs[1:]:
            assert np.max(np.abs(slope_rows @ coeffs)) <= 1e-8

    @pytest.mark.parametrize("ic", [lambda x: np.sin(np.pi * x),
                                    lambda x: 4.0 * x * (1.0 - x)])
    def test_peak_magnitude_never_grows(self, operators, ic):
        config = _config(operators, level=4, t_end=0.1, ic=ic)
        series = w.solve(config)
        grid_values = series.coeffs @ w.basis_matrix(
            config.spec, collocation_points(config.spec)).T
        peaks = np.max(np.abs(grid_values), axis=1)
        assert all(b <= a + 1e-6 for a, b in zip(peaks, peaks[1:]))

    def test_steep_neumann_front_diverges_and_is_reported(self, operators):
        # with dt = 0.05 at 33 points (h = 1/32) and max|u| of about 5.6,
        # the convective Courant number dt * max|u| / h is about 9; the
        # explicit convection term cannot hold the front and the run
        # overflows near t = 0.55; the failure must be loud and carry the
        # blow-up time
        config = _config(operators, level=5, reynolds=10.0, t_end=1.0,
                                   dt=0.05, bc=w.BoundarySpec(NEUMANN),
                                   ic=CASE3_IC)
        with pytest.raises(DivergenceError, match="t = 0.5") as info:
            w.solve(config)
        assert 0.5 <= info.value.time <= 0.6

    @pytest.mark.parametrize("bc, ic, reynolds", [
        (w.BoundarySpec(DIRICHLET), lambda x: np.sin(np.pi * x), 1.0),
        (w.BoundarySpec(NEUMANN), CASE3_IC, 10.0),
        (w.BoundarySpec(NEUMANN, 0.5, -1.0), lambda x: np.sin(np.pi * x),
         1.0),
    ], ids=["case1-dirichlet", "case3-neumann", "neumann-slopes"])
    def test_history_matches_the_dense_reference_algebra(
            self, operators, bc, ic, reynolds):
        # solve carries right-hand sides through a precomposed propagator;
        # over 500 steps its node values must stay within the golden
        # gates of a per-step dense solve, at 17, 33 and 65 points; nonzero
        # slopes check that the boundary flux reaches every step
        gate = 1e-12 if bc.kind == DIRICHLET else 1e-10
        for level in (4, 5, 6):
            config = _config(operators, level=level, reynolds=reynolds,
                             t_end=0.5, bc=bc, ic=ic)
            reference = _reference_history(config)
            assert reference.shape == (501, config.spec.n_functions)
            series = w.solve(config)
            values = series.system.values
            drift = np.max(np.abs((series.coeffs - reference) @ values.T))
            assert drift <= gate, (level, drift)

    @pytest.mark.parametrize("level", [4, 5, 6])
    @pytest.mark.parametrize("bc, ic, reynolds", [
        (w.BoundarySpec(DIRICHLET), lambda x: np.sin(np.pi * x), 1.0),
        (w.BoundarySpec(DIRICHLET, 0.3, -0.2), lambda x: np.sin(np.pi * x),
         1.0),
        (w.BoundarySpec(NEUMANN), CASE3_IC, 10.0),
        (w.BoundarySpec(NEUMANN, 0.5, -1.0), CASE3_IC, 10.0),
    ], ids=["dirichlet", "dirichlet-data", "neumann", "neumann-slopes"])
    def test_states_are_bitwise_the_full_vector_step(
            self, operators, bc, ic, reynolds, level):
        # solve writes each row's ends once and steps only the interior;
        # its states must equal, bit for bit, those of a step that works on
        # whole vectors and sets the ends every step.  The report times
        # fall at 0, inside the first block, on the block edges 64 and
        # 128, and at step 160, inside the third block
        assert solver._CHECK_EVERY == 64
        config = _config(operators, level=level, reynolds=reynolds,
                         t_end=0.16, bc=bc, ic=ic)
        config = dataclasses.replace(
            config, times=(0.0, 0.03, 0.064, 0.128, 0.16))
        assert config.report_steps() == (0, 30, 64, 128, 160)
        coeffs = w.solve(config).coeffs
        assert np.isfinite(coeffs).all()
        np.testing.assert_array_equal(coeffs, _full_vector_history(config))

    @pytest.mark.parametrize("n_steps", [64, 128])
    @pytest.mark.parametrize("bc, ic, reynolds", [
        (w.BoundarySpec(DIRICHLET), lambda x: np.sin(np.pi * x), 1.0),
        (w.BoundarySpec(NEUMANN), CASE3_IC, 10.0),
    ], ids=["dirichlet", "neumann"])
    def test_run_ending_on_a_block_edge_matches_the_reference_algebra(
            self, operators, bc, ic, reynolds, n_steps):
        # the last step closes a block of _CHECK_EVERY = 64 steps, so the
        # only report state is solved from that block's last row
        gate = 1e-12 if bc.kind == DIRICHLET else 1e-10
        assert solver._CHECK_EVERY == 64
        config = _config(operators, level=5, reynolds=reynolds,
                         t_end=n_steps * 1e-3, bc=bc, ic=ic)
        reference = _reference_history(config)
        assert reference.shape == (n_steps + 1, config.spec.n_functions)
        series = w.solve(dataclasses.replace(config,
                                             times=(config.times[-1],)))
        values = series.system.values
        drift = np.max(np.abs((series.coeffs[0] - reference[-1]) @ values.T))
        assert drift <= gate, drift

    def test_divergence_step_matches_the_reference_algebra(self, operators):
        config = _config(operators, level=5, reynolds=10.0, t_end=1.0,
                                   dt=0.05, bc=w.BoundarySpec(NEUMANN),
                                   ic=CASE3_IC)
        reference = _reference_history(config)
        assert isinstance(reference, DivergenceError)
        with pytest.raises(DivergenceError) as info:
            w.solve(config)
        assert info.value.step == reference.step

    @pytest.mark.parametrize("check_every", [None, 1, 7])
    @pytest.mark.parametrize("level, dt, bc, ic, reynolds, diverges_at", [
        # the convection product overflows in the first right-hand side
        (5, 1e-3, w.BoundarySpec(DIRICHLET),
         lambda x: 1e160 * np.sin(np.pi * x), 1.0, 0),
        # case 3 past its Courant limit, at 33 and at 65 points
        (5, 0.02, w.BoundarySpec(NEUMANN), CASE3_IC, 10.0, 15),
        (6, 0.0125, w.BoundarySpec(NEUMANN), CASE3_IC, 10.0, 19),
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
                                   dt=0.05, bc=w.BoundarySpec(NEUMANN),
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
        series = w.solve(config)
        left, right = _values_at(series, 0.02, [0.0, 1.0])
        assert abs(left) <= 1e-9 and abs(right) <= 1e-9

    def test_initial_samples_match_initial_data_at_grid(self, operators):
        config = _config(operators, t_end=0.01)
        series = w.solve(config)
        grid = collocation_points(config.spec)
        values = _values_at(series, 0.0, grid)
        np.testing.assert_allclose(values, np.sin(np.pi * grid), atol=1e-10)

    def test_published_row_sampled_from_one_series(self, operators):
        config = _config(operators, level=5, t_end=0.1)
        series = w.solve(config)
        values = _values_at(series, 0.1, [0.1, 0.3, 0.5, 0.7, 0.9])
        published = (0.10954, 0.29190, 0.37158, 0.30991, 0.12069)
        np.testing.assert_allclose(values, published, atol=1e-3)

    def test_out_of_range_time_rejected(self, operators):
        config = _config(operators, t_end=0.01)
        series = w.solve(config)
        with pytest.raises(ValueError, match="outside"):
            series.coefficients_at(0.5)
