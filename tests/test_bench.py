"""Benchmark cases, the error metric, and report emission."""

import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from scipy.integrate import solve_ivp

import wavecol as w
from wavecol import bench, cli, operators
from wavecol.bench import (
    PROFILE_POINTS,
    _comparison_csv,
    _matrix_csv,
    _summary_csv,
    emit_operator_dump,
    emit_profiles,
    emit_reports,
)
from wavecol.approx import truncate
from wavecol.published import (AVERAGE_REL_ERRORS, COMPARISON_X, PROFILE_ROWS,
                               profile_row)
from wavecol.basis import _nodal_matrix
from wavecol.solver import NEUMANN, derivative_rows


def _case3_reference(case, times, n_nodes=2 * PROFILE_POINTS - 1):
    """Case 3 by an independent method of lines on a fine uniform grid.

    Central differences for (u**2 / 2)_x and u_xx / Re, the zero-slope
    Neumann data through mirrored ghost nodes, scipy's BDF in time.  The
    scheme is second order: at 801 nodes it lies within about 2.5e-3 of
    itself at 2049 nodes.  Returns every second node, which are the
    report profiles' abscissae, and the solution there at each time.
    """
    x = np.linspace(0.0, 1.0, n_nodes)
    h = x[1] - x[0]

    def rhs(_, u):
        g = np.concatenate(([u[1]], u, [u[-2]]))
        return (-(g[2:] ** 2 - g[:-2] ** 2) / (4.0 * h)
                + (g[2:] - 2.0 * g[1:-1] + g[:-2]) / (case.reynolds * h * h))

    ones = np.ones(n_nodes)
    sparsity = scipy.sparse.diags([ones[1:], ones, ones[1:]], [-1, 0, 1])
    sol = solve_ivp(rhs, (0.0, max(times)), case.ic(x), method="BDF",
                    t_eval=times, rtol=1e-8, atol=1e-8, jac_sparsity=sparsity)
    assert sol.success
    return x[::2], sol.y[::2].T


@pytest.fixture(scope="module")
def case3_gates():
    """The benchmark's case-3 gates, (CASE3_SYMMETRY_TOL, CASE3_SLOPE_TOL)."""
    wavebench = Path(__file__).resolve().parents[1] / "wavebench"
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(wavebench))
        checks = importlib.import_module("checks")
    return checks.CASE3_SYMMETRY_TOL, checks.CASE3_SLOPE_TOL


class TestCaseDefinition:
    def test_case1_defaults(self):
        case = w.case_definition(1)
        assert case.reynolds == 1.0
        assert case.report_times == (0.05, 0.1, 0.2)
        assert case.bc == "dirichlet"
        assert case.oracle_family == "sin_pi"

    def test_case2_high_reynolds_times(self):
        case = w.case_definition(2, reynolds=10.0)
        assert case.report_times == (0.5, 1.0, 2.0)
        assert case.oracle_family == "poly_4x_1mx"

    def test_case3_defaults(self):
        case = w.case_definition(3)
        assert case.reynolds == 10.0
        assert case.bc == NEUMANN
        assert case.report_times == (0.1, 0.5, 1.0)
        assert case.oracle_family is None

    @pytest.mark.parametrize("family, kind", [
        ("sin_pi", "dirichlet"), ("poly_4x_1mx", "dirichlet"), (None, NEUMANN),
    ], ids=["sin_pi", "poly_4x_1mx", "no-oracle"])
    def test_boundary_kind_follows_the_oracle_family(self, family, kind):
        # an oracle's exact solution has zero Dirichlet data and a case
        # without one is reported by its zero slopes; the kind is read off
        # the family, so no case can be built with the two at odds
        case = w.CaseDefinition(4, 1.0, lambda x: np.sin(np.pi * x), (0.1,),
                                family)
        assert case.bc == kind
        assert "bc" not in {f.name for f in dataclasses.fields(case)}
        with pytest.raises(TypeError):
            w.CaseDefinition(4, 1.0, lambda x: np.sin(np.pi * x), (0.1,),
                             family, kind)
        with pytest.raises(AttributeError):
            case.bc = kind

    def test_explicit_times_override(self):
        case = w.case_definition(1, times=(0.01, 0.02))
        assert case.report_times == (0.01, 0.02)

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError, match="case"):
            w.case_definition(4)

    def test_initial_conditions(self):
        xs = np.array([0.0, 0.25, 0.5, 1.0])
        np.testing.assert_allclose(w.case_definition(1).ic(xs), np.sin(np.pi * xs))
        np.testing.assert_allclose(w.case_definition(2).ic(xs),
                                   4.0 * xs * (1.0 - xs))
        np.testing.assert_allclose(w.case_definition(3).ic(xs),
                                   50.0 * (0.5 - xs) ** 3)


class TestErrorMetrics:
    def test_identical_inputs_give_zero_errors(self):
        case = w.case_definition(1)
        values = np.ones((3, 5))
        report = w.error_metrics(case, values, values)
        assert np.max(report.abs_err) == 0.0
        assert np.max(report.rel_err) == 0.0
        assert all(v == 0.0 for v in report.avg_rel_err.values())

    def test_average_is_the_mean_of_pointwise_relative_errors(self):
        case = w.case_definition(1, times=(0.05,))
        exact = np.array([[0.2, 0.4, 0.5, 0.4, 0.2]])
        numeric = exact + np.array([[0.002, -0.004, 0.005, 0.0, 0.002]])
        report = w.error_metrics(case, numeric, exact)
        expected = np.mean([0.002 / 0.2, 0.004 / 0.4, 0.005 / 0.5, 0.0,
                            0.002 / 0.2])
        assert report.avg_rel_err[0.05] == pytest.approx(expected, rel=1e-12)

    def test_zero_exact_values_are_excluded(self):
        case = w.case_definition(1, times=(0.05,))
        exact = np.array([[0.0, 0.4, 0.5, 0.4, 0.2]])
        numeric = exact + 0.004
        report = w.error_metrics(case, numeric, exact)
        assert np.isnan(report.rel_err[0, 0])
        expected = np.mean([0.004 / 0.4, 0.004 / 0.5, 0.004 / 0.4, 0.004 / 0.2])
        assert report.avg_rel_err[0.05] == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        case = w.case_definition(1)
        with pytest.raises(ValueError, match="shape"):
            w.error_metrics(case, np.ones((3, 5)), np.ones((2, 5)))

    @pytest.mark.parametrize("reynolds", [1.0, 10.0])
    @pytest.mark.parametrize("method", ["ifdm", "bem"])
    def test_published_rows_reproduce_published_averages(self, benchmark_run,
                                                         reynolds, method):
        # the metric definition is validated by feeding it the published
        # comparator values: it must land on the published averages
        result = benchmark_run(2, reynolds, 33)
        for t, computed in result.report.comparator_avg[method].items():
            stored = AVERAGE_REL_ERRORS[(method, reynolds, t)]
            assert computed == pytest.approx(stored, rel=0.05)

    def test_ifdm_worst_cell_value(self, benchmark_run):
        result = benchmark_run(2, 1.0, 33)
        assert result.report.comparator_avg["ifdm"][0.2] == pytest.approx(
            1.97e-2, rel=0.05)


class TestPublishedWaveletRows:
    """The paper's own wavelet-collocation rows (cw_np33, cw_np65), which
    a run started from the L2 projection of the initial data reproduces."""

    def test_every_printed_entry_is_matched_to_the_fifth_decimal(
            self, benchmark_run):
        checked = 0
        for (case_id, reynolds), by_time in PROFILE_ROWS.items():
            for method, n_points in (("cw_np33", 33), ("cw_np65", 65)):
                result = benchmark_run(case_id, reynolds, n_points)
                report = result.report
                for i, t in enumerate(result.case.report_times):
                    row = by_time[t].get(method)
                    if row is None:
                        continue
                    worst = np.max(np.abs(report.numeric[i] - row))
                    assert worst <= 1e-5, (case_id, reynolds, t, method, worst)
                    checked += len(row)
        assert checked == 75

    @pytest.mark.parametrize("reynolds", [1.0, 10.0])
    def test_case2_averages_are_the_published_averages(self, benchmark_run,
                                                       reynolds):
        # within 5%, as criterion 4 holds the IFDM and BEM averages
        result = benchmark_run(2, reynolds, 33)
        for t in result.case.report_times:
            stored = AVERAGE_REL_ERRORS[("cw", reynolds, t)]
            assert result.report.avg_rel_err[t] == pytest.approx(stored,
                                                                 rel=0.05)


class TestOscillationExcess:
    def test_monotone_profiles_have_zero_excess(self):
        assert w.oscillation_excess([0.0, 0.5, 0.7, 1.0]) == 0.0
        assert w.oscillation_excess([1.0, 0.3, -0.2]) == 0.0

    def test_wiggles_add_excess(self):
        assert w.oscillation_excess([0.0, 1.0, 0.5, 2.0]) == pytest.approx(1.0)


class TestRunCase:
    def test_case1_matches_exact_solution(self, benchmark_run):
        result = benchmark_run(1, 1.0, 33)
        report = result.report
        assert np.max(report.abs_err) <= 1e-3
        assert all(v <= 1e-3 for v in report.avg_rel_err.values())
        assert set(report.comparator_avg) == {"ifdm", "bem", "cw_np33",
                                              "cw_np65"}

    def test_profiles_cover_the_domain(self, benchmark_run):
        result = benchmark_run(1, 1.0, 33)
        assert bench._profile_grid().shape == (PROFILE_POINTS,)
        for t in result.case.report_times:
            assert result.profiles[t].shape == (PROFILE_POINTS,)

    def test_invalid_point_count_rejected(self):
        with pytest.raises(ValueError, match="n_points"):
            w.spec_for_points(12)

    def test_report_time_off_the_step_grid_rejected(self):
        # the nearest stored step, t = 0.051, must not be reported as 0.05
        case = w.case_definition(1, times=(0.05,))
        with pytest.raises(ValueError, match=r"t = 0\.05 .*dt = 0\.003"):
            w.run_case(case, 9, dt=0.003)

    def test_report_time_off_the_step_grid_rejected_before_solving(
            self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("run_case integrated before checking times")

        monkeypatch.setattr("wavecol.bench.solve", no_solve)
        case = w.case_definition(1, times=(0.05,))
        with pytest.raises(ValueError, match="not a multiple"):
            w.run_case(case, 17, dt=0.003)

    def test_bad_truncate_level_rejected_before_solving(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("run_case integrated before checking the level")

        monkeypatch.setattr("wavecol.bench.solve", no_solve)
        case = w.case_definition(1, times=(0.05,))
        with pytest.raises(ValueError, match="keep_level 9 not in 2..4"):
            w.run_case(case, 17, truncate_level=9)

    @pytest.mark.parametrize("n_points, truncate_level, message", [
        (33.0, None, "n_points must be one of"),
        (17, 2.5, "keep_level 2.5 is not an integer"),
    ], ids=["float-points", "float-level"])
    def test_non_integer_resolution_rejected_before_solving(
            self, monkeypatch, n_points, truncate_level, message):
        # 33.0 used to run and write report_case1_re1_np33.0.csv, and a
        # keep level of 2.5 kept level 2
        def no_solve(*args, **kwargs):
            raise AssertionError("run_case integrated before checking the "
                                 "resolution")

        monkeypatch.setattr("wavecol.bench.solve", no_solve)
        case = w.case_definition(1, times=(0.05,))
        with pytest.raises(ValueError, match=message):
            w.run_case(case, n_points, truncate_level=truncate_level)

    def test_numpy_integer_point_count_names_its_files(self, tmp_path):
        result = w.run_case(w.case_definition(1, times=(0.05,)), np.int64(17),
                            truncate_level=np.int64(3))
        paths = emit_reports(result, "csv", tmp_path)
        assert [p.name for p in paths] == ["report_case1_re1_np17.csv",
                                           "summary_case1_re1_np17.csv"]

    def test_report_times_with_one_label_rejected_before_solving(
            self, monkeypatch):
        # 0.05 and 0.05000001 are distinct steps of 1e-8 but both print as
        # 0.05, so one profile file and report row would hide the other
        def no_solve(*args, **kwargs):
            raise AssertionError("run_case integrated before checking labels")

        monkeypatch.setattr("wavecol.bench.solve", no_solve)
        case = w.case_definition(3, times=(0.05, 0.05000001))
        with pytest.raises(ValueError, match="share the label 0.05"):
            w.run_case(case, 5, dt=1e-8)

    @pytest.mark.parametrize(
        "case_id, reynolds, times, dt, n_points, message", [
            (2, 10.0, (5e-5, 1.0), 5e-5, 65, r"t = 5e-05 below 0\.0001"),
            (1, None, (0.0, 0.1), 1e-3, 17, r"exact solution requires t > 0"),
        ], ids=["below-min-time", "zero"])
    def test_report_times_the_oracle_refuses_rejected_before_solving(
            self, monkeypatch, case_id, reynolds, times, dt, n_points,
            message):
        # the oracle cannot serve these times, so the run would fail only
        # after its last step
        def no_solve(*args, **kwargs):
            raise AssertionError("run_case integrated before checking the "
                                 "oracle's times")

        monkeypatch.setattr("wavecol.bench.solve", no_solve)
        case = w.case_definition(case_id, reynolds=reynolds, times=times)
        with pytest.raises(ValueError, match=message):
            w.run_case(case, n_points, dt=dt)

    def test_case3_builds_the_solver_rows_once(self, fresh_tables):
        # once per process: the solver and the report of both runs share
        # one build of the rows, and the dump maps coefficients to the nodal
        # u_xx they step with
        case = w.case_definition(3, times=(0.1,))
        result, again = w.run_case(case, 17), w.run_case(case, 17)
        info = derivative_rows.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        _, second_deriv = derivative_rows(17, case.bc)
        assert not second_deriv.flags.writeable
        for run in (result, again):
            np.testing.assert_array_equal(run.operators["second_deriv"],
                                          second_deriv @ _nodal_matrix(4))

    @pytest.mark.parametrize("n_points", [9, 17])
    def test_rows_are_built_once_per_boundary_kind(self, fresh_tables,
                                                   n_points):
        # the rows are keyed by the grid size and the boundary kind alone:
        # cases 1 and 2 share the Dirichlet rows, case 3 builds the Neumann
        # ones, which its report reads again for the slopes
        for case_id in (1, 2, 3):
            w.run_case(w.case_definition(case_id, times=(0.05,)), n_points)
        info = derivative_rows.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 2, 2)

    @pytest.mark.parametrize("n_points", [17, 33])
    def test_slope_residuals_are_the_end_slopes(self, n_points):
        # the residual is |u_x| at each end: u = x - 1/2 has slope 1 at
        # both ends, so the initial state reads about 1, and the stepped
        # state, held to zero slopes, reads 0 to roundoff
        case = w.CaseDefinition(4, 10.0, lambda x: x - 0.5, (0.0, 0.1), None)
        result = w.run_case(case, n_points)
        first_deriv, _ = derivative_rows(n_points, case.bc)
        rows = first_deriv[[0, -1]] @ _nodal_matrix(w.spec_for_points(
            n_points).max_level)
        for t, coeffs in zip(case.report_times, result.coeffs):
            slopes = rows @ coeffs
            np.testing.assert_array_equal(
                result.report.neumann_residuals[t], np.abs(slopes))
        np.testing.assert_allclose(result.report.neumann_residuals[0.0], 1.0,
                                   rtol=0, atol=1e-12)
        left, right = result.report.neumann_residuals[0.1]
        assert left <= 1e-12 and right <= 1e-12

    def test_report_times_within_roundoff_of_a_step_accepted(self):
        # 0.15 / 1e-3 is 149.99999999999997 in floating point
        case = w.case_definition(3, times=(0.05, 0.1, 0.15))
        result = w.run_case(case, 9)
        config = w.SolverConfig(reynolds=case.reynolds, times=(0.15,),
                                bc=case.bc, ic=case.ic,
                                spec=w.spec_for_points(9))
        assert config.report_steps() == (150,)
        np.testing.assert_array_equal(result.coeffs[2], w.solve(config)[0])

    def test_truncated_view_coarsens_the_report(self):
        case = w.case_definition(1, times=(0.05,))
        full = w.run_case(case, 17)
        coarse = w.run_case(case, 17, truncate_level=2)
        same = w.run_case(case, 17, truncate_level=4)
        assert np.max(np.abs(coarse.report.numeric - full.report.numeric)) > 1e-6
        np.testing.assert_array_equal(same.report.numeric, full.report.numeric)

    @pytest.mark.parametrize("case_id", [1, 3])
    def test_truncates_once_per_report_time(self, monkeypatch, case_id):
        calls = []

        def counted(coeffs, spec, keep_level):
            calls.append(keep_level)
            return truncate(coeffs, spec, keep_level)

        monkeypatch.setattr("wavecol.bench.truncate", counted)
        case = w.case_definition(case_id, times=(0.05, 0.1))
        w.run_case(case, 17, truncate_level=3)
        assert calls == [3, 3]

    def test_case3_report_measures_front_properties(self):
        case = w.case_definition(3, times=(0.05, 0.1))
        result = w.run_case(case, 17)
        report = result.report
        assert isinstance(report, w.Case3Report)
        for t in (0.05, 0.1):
            assert report.antisymmetry[t] <= 1e-6
            assert report.center_abs[t] <= 1e-6
            left, right = report.neumann_residuals[t]
            assert left <= 1e-8 and right <= 1e-8
            assert report.front_oscillation[t] >= 0.0

    @pytest.mark.parametrize("n_points", [17, 33, 65])
    def test_case3_meets_the_benchmark_gates(self, case3_gates, n_points):
        # the gates wavebench applies to its case-3 reports, on the same
        # runs, so that a solver change that trips them fails here first
        symmetry_tol, slope_tol = case3_gates
        times = (0.05, 0.1, 0.15)
        report = w.run_case(w.case_definition(3, times=times), n_points).report
        for t in times:
            assert report.antisymmetry[t] <= symmetry_tol, t
            assert report.center_abs[t] <= symmetry_tol, t
            assert max(report.neumann_residuals[t]) <= slope_tol, t

    def test_case3_refinement_shrinks_front_wiggles(self):
        # once the standing front has formed (t = 0.5) the coarse run
        # shows wiggles around it; the finer run must show no more
        # oscillation and the profiles must agree within a
        # resolution-level bound
        case = w.case_definition(3, times=(0.5,))
        coarse = w.run_case(case, 17)
        fine = w.run_case(case, 33)
        assert coarse.report.front_oscillation[0.5] > 0.0
        assert (fine.report.front_oscillation[0.5]
                <= coarse.report.front_oscillation[0.5])
        sup_diff = np.max(np.abs(coarse.profiles[0.5] - fine.profiles[0.5]))
        assert sup_diff <= 2.0

    def test_case3_converges_to_an_independent_reference(self):
        # the weak second derivative must put the front where a fine-grid
        # finite-difference solution has it: the sup-norm distance to that
        # reference falls with every halving of h, at least fourfold over
        # two halvings, and successive resolutions draw closer
        times = (0.5, 1.0)
        case = w.case_definition(3, times=times)
        runs = {n: w.run_case(case, n) for n in (17, 33, 65)}
        xs, reference = _case3_reference(case, times)
        np.testing.assert_allclose(xs, bench._profile_grid(), rtol=0,
                                   atol=1e-15)
        for t, ref in zip(times, reference):
            err = {n: np.max(np.abs(run.profiles[t] - ref))
                   for n, run in runs.items()}
            assert err[65] < err[33] < err[17]
            assert err[65] <= err[17] / 4.0
            step_33 = np.max(np.abs(runs[17].profiles[t] - runs[33].profiles[t]))
            step_65 = np.max(np.abs(runs[33].profiles[t] - runs[65].profiles[t]))
            assert step_65 < step_33

    def test_published_anchor_values_from_reports(self, benchmark_run):
        report1 = benchmark_run(1, 1.0, 33).report
        assert report1.numeric[2, 2] == pytest.approx(0.13847, abs=1e-3)
        report2 = benchmark_run(2, 10.0, 33).report
        assert report2.numeric[1, 3] == pytest.approx(0.31656, abs=1e-3)


# CLI runs at every resolution the warm-cache test covers; the Neumann run
# at 65 points comes before the Dirichlet one, whose dump must not pick up
# the Neumann second_deriv
_CACHE_RUNS = (
    ["--case", "1", "--np", "17", "--times", "0.05", "--profiles",
     "--dump-operators"],
    ["--case", "2", "--re", "10", "--np", "33", "--times", "0.5",
     "--profiles"],
    ["--case", "3", "--np", "65", "--times", "0.05", "--profiles",
     "--dump-operators"],
    ["--case", "1", "--np", "65", "--times", "0.05", "--dump-operators"],
    ["--case", "3", "--np", "17", "--times", "0.05,0.1", "--format", "md",
     "--truncate-level", "3"],
    ["--case", "2", "--np", "33", "--times", "0.05", "--profiles"],
)


def _files(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestResolutionTables:
    """A resolution's profile grid, basis rows and wavelet-space operators
    are built by the first run at it and shared, read-only, by later ones."""

    def test_warm_runs_write_the_files_of_cold_runs(self, tmp_path):
        src = str(Path(w.__file__).resolve().parents[1])
        for i, argv in enumerate(_CACHE_RUNS):
            # cold: one fresh interpreter per run
            done = subprocess.run(
                [sys.executable, "-m", "wavecol.cli", *argv,
                 "--out", str(tmp_path / f"cold{i}")],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": src})
            assert done.returncode == 0, done.stderr
        for sweep in ("first", "warm"):
            # the first sweep fills the caches; the warm one reads them
            for i, argv in enumerate(_CACHE_RUNS):
                out = tmp_path / f"{sweep}{i}"
                assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
        for i in range(len(_CACHE_RUNS)):
            cold = _files(tmp_path / f"cold{i}")
            assert _files(tmp_path / f"warm{i}") == cold
            assert _files(tmp_path / f"first{i}") == cold

    def test_cached_arrays_refuse_writes(self):
        result = w.run_case(w.case_definition(1, times=(0.05,)), 17)
        shared = [bench._profile_grid(), *result.operators.values(),
                  *bench._resolution_tables(4)[:2],
                  *operators.p1_kernel(17)]
        for array in shared:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        # the public builders stay uncached: fresh, writable arrays
        spec = w.spec_for_points(17)
        for build in (w.gram_matrix, w.derivative_inner_products):
            first, second = build(spec), build(spec)
            assert first is not second
            assert first.flags.writeable
        np.testing.assert_array_equal(w.gram_matrix(spec),
                                      result.operators["gram"])

    def test_each_run_has_its_own_operators_dict(self):
        neumann = w.run_case(w.case_definition(3, times=(0.05,)), 17)
        dirichlet = w.run_case(w.case_definition(1, times=(0.05,)), 17)
        again = w.run_case(w.case_definition(3, times=(0.05,)), 17)
        assert neumann.operators is not again.operators
        assert list(dirichlet.operators) == ["gram", "deriv_inner", "deriv_op"]
        assert list(neumann.operators) == list(again.operators) == [
            "gram", "deriv_inner", "deriv_op", "second_deriv"]
        assert again.operators["gram"] is dirichlet.operators["gram"]
        assert bench._profile_grid() is bench._profile_grid()

    def test_each_resolution_has_its_own_tables(self):
        case = w.case_definition(1, times=(0.05,))
        w.run_case(case, 33)
        result = w.run_case(case, 17)
        for matrix in result.operators.values():
            assert matrix.shape == (17, 17)
        np.testing.assert_array_equal(result.operators["gram"],
                                      w.gram_matrix(w.spec_for_points(17)))
        dense_rows, report_rows = bench._resolution_tables(4)[:2]
        assert dense_rows.shape == (PROFILE_POINTS, 17)
        assert report_rows.shape == (5, 17)

    def test_only_the_first_run_at_a_resolution_builds(self, monkeypatch,
                                                        fresh_tables):
        # the builds wavebench counts: gram, dual and deriv_inner (twice)
        calls = []

        def counted(module, name):
            real = getattr(module, name)

            def count(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, count)

        for module, name in ((bench, "gram_matrix"),
                             (bench, "derivative_inner_products"),
                             (bench, "basis_matrix"),
                             (operators, "derivative_inner_products"),
                             (operators, "dual_transform")):
            counted(module, name)
        case = w.case_definition(1, times=(0.05,))
        w.run_case(case, 17)
        assert sorted(calls) == ["basis_matrix", "basis_matrix",
                                 "derivative_inner_products",
                                 "derivative_inner_products", "dual_transform",
                                 "gram_matrix"]
        calls.clear()
        w.run_case(case, 17)
        w.run_case(w.case_definition(3, times=(0.05,)), 17)
        assert calls == []


def _per_value_texts(result):
    """The CSV files of one run, by name in the order the CLI writes them,
    each value formatted on its own."""
    full = lambda v: f"{v:.17g}"
    pub = lambda v: f"{v:.5f}"
    report = result.report
    stem = (f"case{result.case.case_id}_re{result.case.reynolds:g}"
            f"_np{result.n_points}")
    files = {}
    times = result.case.report_times
    if isinstance(report, w.ErrorReport):
        lines = ["time,x,numeric,exact,abs_err,rel_err,ifdm,bem"]
        for i, t in enumerate(times):
            ifdm, bem = (profile_row(result.case.case_id, result.case.reynolds,
                                     t, method) for method in ("ifdm", "bem"))
            for j, x in enumerate(COMPARISON_X):
                lines.append(",".join(
                    [f"{t:g}", f"{x:g}"]
                    + [full(grid[i, j]) for grid in (
                        report.numeric, report.exact, report.abs_err,
                        report.rel_err)]
                    + [pub(ifdm[j]) if ifdm else "",
                       pub(bem[j]) if bem else ""]))
        files[f"report_{stem}.csv"] = lines
        lines = ["time,avg_rel_err,avg_rel_err_ifdm,avg_rel_err_bem"]
        for t in times:
            avgs = [report.comparator_avg.get(m, {}).get(t)
                    for m in ("ifdm", "bem")]
            lines.append(",".join(
                [f"{t:g}", full(report.avg_rel_err[t])]
                + ["" if v is None else full(v) for v in avgs]))
        files[f"summary_{stem}.csv"] = lines
    else:
        lines = ["time,antisymmetry,center_abs,neumann_left,neumann_right,"
                 "front_oscillation"]
        for t in times:
            values = (report.antisymmetry[t], report.center_abs[t],
                      *report.neumann_residuals[t],
                      report.front_oscillation[t])
            lines.append(",".join([f"{t:g}", *map(full, values)]))
        files[f"report_{stem}.csv"] = lines
    for t in result.case.report_times:
        files[f"profile_{stem}_t{t:g}.csv"] = ["x,u"] + [
            f"{full(x)},{full(u)}"
            for x, u in zip(bench._profile_grid(), result.profiles[t])]
    for name, matrix in result.operators.items():
        files[f"operators_np{result.n_points}_{name}.csv"] = [
            ",".join(map(full, row)) for row in matrix]
    return {name: "\n".join(lines) + "\n" for name, lines in files.items()}


class TestEmission:
    @pytest.mark.parametrize("shape", [(2, 4), (8, 1), (1, 8)])
    def test_matrix_csv_is_per_value_formatting(self, shape):
        specials = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -1.0 / 3.0,
                    0.1]
        values = np.reshape(specials, shape)
        expected = "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                           for row in values)
        assert _matrix_csv(values) == expected

    def test_profile_is_the_matrix_csv_of_its_columns(self, tmp_path):
        specials = np.resize([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300,
                              -1.0 / 3.0, 0.1], PROFILE_POINTS)
        real = w.run_case(w.case_definition(1, times=(0.05, 0.1)), 9)
        xs = bench._profile_grid()
        for profiles in (real.profiles,
                         {0.05: specials[::-1], 0.1: specials}):
            result = dataclasses.replace(real, profiles=profiles)
            paths = emit_profiles(result, tmp_path)
            assert [p.name for p in paths] == [
                "profile_case1_re1_np9_t0.05.csv",
                "profile_case1_re1_np9_t0.1.csv"]
            for path, t in zip(paths, (0.05, 0.1)):
                expected = "x,u\n" + _matrix_csv(
                    np.column_stack([xs, profiles[t]]))
                assert path.read_text() == expected

    @pytest.mark.parametrize("argv", [
        ["--case", "1", "--np", "9", "--times", "0.05,0.1"],
        ["--case", "3", "--np", "9", "--times", "0.05"],
    ], ids=["case1", "case3"])
    def test_cli_files_equal_a_per_value_rendering(self, argv, tmp_path,
                                                   monkeypatch, capsys):
        results = []

        def run_case(*args, **kwargs):
            results.append(w.run_case(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "run_case", run_case)
        code = cli.main([*argv, "--profiles", "--dump-operators",
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        expected = _per_value_texts(results[0])
        assert capsys.readouterr().out.splitlines() == [
            str(tmp_path / name) for name in expected]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
        for name, text in expected.items():
            assert (tmp_path / name).read_bytes() == text.encode()


    def test_csv_layout_and_digits(self, benchmark_run, tmp_path):
        result = benchmark_run(1, 1.0, 33)
        paths = emit_reports(result, "csv", tmp_path)
        report_path = next(p for p in paths if p.name.startswith("report"))
        lines = report_path.read_text().splitlines()
        assert lines[0] == "time,x,numeric,exact,abs_err,rel_err,ifdm,bem"
        assert len(lines) == 1 + 3 * 5
        first = lines[1].split(",")
        assert first[0] == "0.05" and first[1] == "0.1"
        assert first[6] == "0.17832" and first[7] == "0.17759"  # published digits
        assert len(first[2].replace("-", "").replace(".", "")) >= 16

    def test_summary_csv_has_per_time_averages(self, benchmark_run, tmp_path):
        result = benchmark_run(1, 1.0, 33)
        paths = emit_reports(result, "csv", tmp_path)
        summary = next(p for p in paths if p.name.startswith("summary"))
        lines = summary.read_text().splitlines()
        assert lines[0] == "time,avg_rel_err,avg_rel_err_ifdm,avg_rel_err_bem"
        assert len(lines) == 4

    def test_empty_report_emits_header_only(self):
        case = w.case_definition(1, times=())
        report = w.error_metrics(case, np.empty((0, 5)), np.empty((0, 5)))
        result = w.RunResult(case=case, n_points=33, report=report,
                             profiles={}, coeffs=np.empty((0, 33)),
                             operators={})
        assert _comparison_csv(result) == ("time,x,numeric,exact,abs_err,"
                                           "rel_err,ifdm,bem\n")
        assert _summary_csv(result).count("\n") == 1

    def test_markdown_contains_all_published_rows(self, benchmark_run, tmp_path):
        result = benchmark_run(1, 1.0, 33)
        (path,) = emit_reports(result, "md", tmp_path)
        text = path.read_text()
        assert "IFDM (published)" in text
        assert "BEM (published)" in text
        assert "wavelet collocation, 33 points (published)" in text
        assert "wavelet collocation, 65 points (published)" in text
        assert "| exact |" in text
        assert "| this run (N_p=33) |" in text
        assert "Average relative error" in text

    def test_markdown_averages_include_the_papers_own_rows(
            self, benchmark_run, tmp_path):
        # every published method with rows at the run's times gets an
        # average row, the paper's wavelet-collocation rows included
        for reynolds, methods in ((1.0, ("ifdm", "bem", "cw_np33", "cw_np65")),
                                  (10.0, ("ifdm", "bem", "cw_np33"))):
            result = benchmark_run(1, reynolds, 33)
            averages_of = result.report.comparator_avg
            (path,) = emit_reports(result, "md", tmp_path / f"re{reynolds:g}")
            _, averages = path.read_text().split("## Average relative error")
            rows = [line for line in averages.splitlines()
                    if line.startswith("| ") and "(published)" in line]
            assert rows == [
                "| " + " | ".join([bench._METHOD_LABELS[method], *(
                    f"{averages_of[method][t]:.2e}"
                    for t in result.case.report_times)]) + " |"
                for method in methods]

    def test_case3_csv_columns(self, tmp_path):
        case = w.case_definition(3, times=(0.05,))
        result = w.run_case(case, 17)
        (path,) = emit_reports(result, "csv", tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("time,antisymmetry,center_abs,neumann_left,"
                            "neumann_right,front_oscillation")
        assert len(lines) == 2

    def test_unknown_format_rejected(self, benchmark_run, tmp_path):
        result = benchmark_run(1, 1.0, 33)
        with pytest.raises(ValueError, match="format"):
            emit_reports(result, "xml", tmp_path)

    def test_profiles_rows_match_resolution(self, benchmark_run, tmp_path):
        result = benchmark_run(1, 1.0, 33)
        paths = emit_profiles(result, tmp_path)
        assert len(paths) == 3
        for path in paths:
            lines = path.read_text().splitlines()
            assert lines[0] == "x,u"
            assert len(lines) == 1 + PROFILE_POINTS

    def test_operator_dump_shapes(self, benchmark_run, tmp_path):
        result = benchmark_run(1, 1.0, 33)
        paths = emit_operator_dump(result, tmp_path)
        assert {p.name for p in paths} == {
            "operators_np33_gram.csv", "operators_np33_deriv_inner.csv",
            "operators_np33_deriv_op.csv"}
        for path in paths:
            rows = path.read_text().splitlines()
            assert len(rows) == 33
            assert all(len(row.split(",")) == 33 for row in rows)

    def test_neumann_dump_holds_the_weak_laplacian_used(self, tmp_path):
        result = w.run_case(w.case_definition(3, times=(0.01,)), 9)
        paths = emit_operator_dump(result, tmp_path)
        assert {p.name for p in paths} == {
            "operators_np9_gram.csv", "operators_np9_deriv_inner.csv",
            "operators_np9_deriv_op.csv", "operators_np9_second_deriv.csv"}
        dumped = np.loadtxt(tmp_path / "operators_np9_second_deriv.csv",
                            delimiter=",")
        _, second_deriv = derivative_rows(9, NEUMANN)
        np.testing.assert_array_equal(dumped, second_deriv @ _nodal_matrix(3))

    def test_emission_is_deterministic(self, benchmark_run, tmp_path):
        result = benchmark_run(1, 1.0, 33)
        first = emit_reports(result, "csv", tmp_path / "a")
        second = emit_reports(result, "csv", tmp_path / "b")
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()

    def test_rerun_produces_byte_identical_reports(self, tmp_path):
        case = w.case_definition(1, times=(0.05,))
        text_a = _comparison_csv(w.run_case(case, 9))
        text_b = _comparison_csv(w.run_case(case, 9))
        assert text_a == text_b
