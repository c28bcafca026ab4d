"""Time stepping: assembly, stepping, boundary enforcement, published anchors."""

import dataclasses
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
    initial_coefficients,
)


def _config(operators, level=4, reynolds=1.0, t_end=0.1, dt=1e-3, theta=0.5,
            bc=None, ic=None):
    spec, _, _, _ = operators(level)
    return w.SolverConfig(
        reynolds=reynolds, t_end=t_end, dt=dt, theta=theta,
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
            w.SolverConfig(reynolds=-1.0, t_end=0.1, bc=bc, ic=ic, spec=spec)
        with pytest.raises(ValueError, match="dt"):
            w.SolverConfig(reynolds=1.0, t_end=0.1, dt=0.0, bc=bc, ic=ic, spec=spec)
        with pytest.raises(ValueError, match="theta"):
            w.SolverConfig(reynolds=1.0, t_end=0.1, theta=1.5, bc=bc, ic=ic,
                           spec=spec)
        with pytest.raises(ValueError, match="t_end"):
            w.SolverConfig(reynolds=1.0, t_end=-0.1, bc=bc, ic=ic, spec=spec)

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
        config = _config(operators, dt=1e-12)
        system = assemble_lhs(config)
        np.testing.assert_allclose(system.matrix[1:-1], system.values[1:-1],
                                   atol=1e-8)

    def test_smallest_admissible_space_yields_invertible_5x5(self, operators):
        config = _config(operators, level=2)
        system = assemble_lhs(config)
        assert system.matrix.shape == (5, 5)
        assert np.isfinite(np.linalg.cond(system.matrix))

    def test_singular_system_rejected(self, operators, monkeypatch):
        # theta * dt / Re = 1/4 and D*D = 4 I: every interior row vanishes
        spec, _, _, _ = operators(2)
        config = w.SolverConfig(reynolds=1.0, t_end=0.5, dt=0.5, theta=0.5,
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
        config = _config(operators, theta=0.3,
                                   bc=w.BoundarySpec(NEUMANN, 0.5, -1.0))
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


class TestStep:
    def test_zero_is_a_fixed_point(self, operators):
        config = _config(operators)
        system = assemble_lhs(config)
        zero = np.zeros(config.spec.n_functions)
        np.testing.assert_allclose(w.step(zero, system, config), zero, atol=1e-14)

    def test_linear_system_residual_stays_tiny(self, operators):
        config = _config(operators, level=5)
        system = assemble_lhs(config)
        coeffs = initial_coefficients(config, system)
        for n in range(5):
            rhs = build_rhs(coeffs, config, system)
            coeffs = w.step(coeffs, system, config, step_index=n)
            residual = np.max(np.abs(system.matrix @ coeffs - rhs))
            assert residual <= 1e-10 * max(np.max(np.abs(rhs)), 1.0)

    def test_fifty_steps_reach_published_anchor(self, operators):
        # sin initial data, Re = 1: u(0.5, 0.05) = 0.60907 published
        config = _config(operators, level=5, t_end=0.05)
        system = assemble_lhs(config)
        coeffs = initial_coefficients(config, system)
        for n in range(50):
            coeffs = w.step(coeffs, system, config, step_index=n)
        assert w.reconstruct(coeffs, config.spec, 0.5) == pytest.approx(
            0.60907, abs=1e-3)

    def test_antisymmetric_state_stays_antisymmetric(self, operators):
        config = _config(operators, level=4, reynolds=10.0,
                                   bc=w.BoundarySpec(NEUMANN), ic=CASE3_IC)
        system = assemble_lhs(config)
        coeffs = initial_coefficients(config, system)
        for n in range(100):
            coeffs = w.step(coeffs, system, config, step_index=n)
            u = system.values @ coeffs
            assert np.max(np.abs(u + u[::-1])) <= 1e-8


class TestSolve:
    def test_zero_horizon_returns_initial_state_only(self, operators):
        config = _config(operators, t_end=0.0)
        series = w.solve(config)
        assert series.times.shape == (1,)
        assert series.times[0] == 0.0

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
        config = w.SolverConfig(reynolds=1.0, t_end=0.002,
                                bc=w.BoundarySpec(DIRICHLET),
                                ic=lambda x: np.sin(np.pi * x), spec=spec)
        series = w.solve(config)
        assert series.coeffs.shape == (3, spec.n_functions)

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
