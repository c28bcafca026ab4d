"""Time stepping: assembly, stepping, boundary enforcement, published anchors."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

import wavecol as w
from wavecol import solver
from wavecol.approx import collocation_points
from wavecol.errors import ConditioningError, DivergenceError
from wavecol.solver import (
    DIRICHLET,
    NEUMANN,
    assemble_lhs,
    build_rhs,
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

    Returns the coefficient history, or the DivergenceError the run ends in.
    """
    system = assemble_lhs(config)
    lu = lu_factor(system.matrix)
    coeffs = initial_coefficients(config, system)
    history = [coeffs]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(config.n_steps()):
            rhs = build_rhs(coeffs, config, system)
            if not np.all(np.isfinite(rhs)):
                return DivergenceError(n, n * config.dt)
            coeffs = lu_solve(lu, rhs)
            if not np.all(np.isfinite(coeffs)):
                return DivergenceError(n + 1, (n + 1) * config.dt)
            history.append(coeffs)
    return np.array(history)


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

    def test_unknown_boundary_kind_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            w.BoundarySpec("periodic")

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
        config = _config(operators, bc=w.BoundarySpec(NEUMANN, 0.5, -1.0))
        system = assemble_lhs(config)
        rhs = build_rhs(np.zeros(config.spec.n_functions), config, system)
        np.testing.assert_allclose(
            rhs[1:-1], (config.dt / config.reynolds) * system.flux[1:-1],
            rtol=0, atol=1e-15)
        assert rhs[0] == 0.5 and rhs[-1] == -1.0

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
    def test_singular_interpolation_rejected(self, operators):
        config = _config(operators, level=3)
        system = assemble_lhs(config)
        broken = dataclasses.replace(system, values=np.ones_like(system.values))
        with pytest.raises(ConditioningError, match="initial interpolation"):
            initial_coefficients(config, broken)


class TestBuildRhs:
    def test_zero_state_leaves_only_boundary_values(self, operators):
        config = _config(operators,
                                   bc=w.BoundarySpec(DIRICHLET, 0.3, -0.2))
        system = assemble_lhs(config)
        rhs = build_rhs(np.zeros(config.spec.n_functions), config, system)
        assert rhs[0] == 0.3 and rhs[-1] == -0.2
        assert np.max(np.abs(rhs[1:-1])) == 0.0

    def test_constant_state_is_nearly_stationary_inside(self, operators):
        config = _config(operators)
        system = assemble_lhs(config)
        coeffs = w.interpolate(lambda x: np.full_like(x, 0.7), config.spec)
        rhs = build_rhs(coeffs, config, system)
        np.testing.assert_allclose(rhs[1:-1], 0.7, atol=1e-10)

    @pytest.mark.parametrize("level", [4, 5])
    def test_sine_state_matches_analytic_step_target_at_center(self, operators,
                                                               level):
        # at the center the convection term vanishes and the diffusion share
        # gives 1 - dt pi^2 / 2; discrete curvature error is O(2**-level)
        config = _config(operators, level=level)
        system = assemble_lhs(config)
        coeffs = w.interpolate(lambda x: np.sin(np.pi * x), config.spec)
        rhs = build_rhs(coeffs, config, system)
        center = config.spec.n_functions // 2
        target = 1.0 - config.dt * np.pi**2 / 2.0
        assert abs(rhs[center] - target) <= 1e-3 * 2.0**-level


    @pytest.mark.parametrize("bc, ic, reynolds", [
        (w.BoundarySpec(DIRICHLET, 0.3, -0.2), lambda x: np.sin(np.pi * x), 1.0),
        (w.BoundarySpec(NEUMANN, 0.5, -1.0), CASE3_IC, 10.0),
    ], ids=["dirichlet", "neumann"])
    def test_matches_the_three_mat_vec_algebra(self, operators, bc, ic,
                                              reynolds):
        # the scheme spelled out from rows built apart from assemble_lhs:
        # u + (1 - THETA)(dt/Re) u_xx - dt u u_x (+ (dt/Re) flux)
        config = _config(operators, level=5, reynolds=reynolds, dt=0.01,
                         bc=bc, ic=ic)
        system = assemble_lhs(config)
        n = config.spec.n_functions
        assert system.explicit.shape == (3 * n, n)
        values = w.basis_matrix(config.spec, collocation_points(config.spec))
        first, second, flux = derivative_rows(values, bc)
        for coeffs in w.solve(config).coeffs[:3]:
            u, u_x, u_xx = values @ coeffs, first @ coeffs, second @ coeffs
            expected = (u
                        + (1.0 - solver.THETA) * (config.dt / reynolds) * u_xx
                        - config.dt * u * u_x)
            if flux is not None:
                expected += (config.dt / reynolds) * flux
            expected[0], expected[-1] = bc.left_value, bc.right_value
            rhs = build_rhs(coeffs, config, system)
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
            rhs = build_rhs(old, config, system)
            residual = np.max(np.abs(system.matrix @ new - rhs))
            assert residual <= 1e-10 * max(np.max(np.abs(rhs)), 1.0)

    def test_fifty_steps_reach_published_anchor(self, operators):
        # sin initial data, Re = 1: u(0.5, 0.05) = 0.60907 published
        config = _config(operators, level=5, t_end=0.05)
        coeffs = w.solve(config).coeffs[50]
        assert w.reconstruct(coeffs, config.spec, 0.5) == pytest.approx(
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
        assert w.sample(series, 0.5, [0.7])[0] == pytest.approx(0.57585, abs=1e-3)

    def test_published_anchor_case2_re1(self, operators):
        config = _config(operators, level=5, t_end=0.05,
                                   ic=lambda x: 4.0 * x * (1.0 - x))
        series = w.solve(config)
        assert w.sample(series, 0.05, [0.3])[0] == pytest.approx(0.49093, abs=1e-3)

    def test_builds_operators_when_not_supplied(self):
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
    ], ids=["case1-dirichlet", "case3-neumann"])
    def test_history_is_bitwise_the_reference_algebra(self, operators, bc, ic,
                                                      reynolds):
        config = _config(operators, level=4, reynolds=reynolds,
                                   t_end=0.5, bc=bc, ic=ic)
        reference = _reference_history(config)
        assert reference.shape == (501, config.spec.n_functions)
        assert np.array_equal(w.solve(config).coeffs,
                              reference)

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
        # a finite right-hand side whose solution is not finite: the solve
        # of step 5 overflows, so step 6's state is the first bad one
        if check_every is not None:
            monkeypatch.setattr(solver, "_CHECK_EVERY", check_every)
        real_getrs = solver._getrs
        calls = []

        def overflowing_getrs(lu, piv, b, overwrite_b=False):
            calls.append(len(calls))
            if len(calls) == 6:
                return np.full_like(b, np.inf), 0
            return real_getrs(lu, piv, b, overwrite_b=overwrite_b)

        monkeypatch.setattr(solver, "_getrs", overflowing_getrs)
        config = _config(operators, level=4, t_end=0.05)
        with pytest.raises(DivergenceError) as info:
            w.solve(config)
        assert info.value.step == 6

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
        left, right = w.sample(series, 0.02, [0.0, 1.0])
        assert abs(left) <= 1e-9 and abs(right) <= 1e-9

    def test_initial_samples_match_initial_data_at_grid(self, operators):
        config = _config(operators, t_end=0.01)
        series = w.solve(config)
        grid = collocation_points(config.spec)
        values = w.sample(series, 0.0, grid)
        np.testing.assert_allclose(values, np.sin(np.pi * grid), atol=1e-10)

    def test_published_row_sampled_from_one_series(self, operators):
        config = _config(operators, level=5, t_end=0.1)
        series = w.solve(config)
        values = w.sample(series, 0.1, [0.1, 0.3, 0.5, 0.7, 0.9])
        published = (0.10954, 0.29190, 0.37158, 0.30991, 0.12069)
        np.testing.assert_allclose(values, published, atol=1e-3)

    def test_out_of_range_time_rejected(self, operators):
        config = _config(operators, t_end=0.01)
        series = w.solve(config)
        with pytest.raises(ValueError, match="outside"):
            w.sample(series, 0.5, [0.5])
