"""Benchmark cases, the error metric, and report emission."""

import numpy as np
import pytest
import scipy.sparse
from scipy.integrate import solve_ivp

import wavecol as w
from wavecol.bench import (
    PROFILE_POINTS,
    _comparison_csv,
    _summary_csv,
    emit_operator_dump,
    emit_profiles,
    emit_reports,
)
from wavecol.approx import truncate
from wavecol.published import AVERAGE_REL_ERRORS
from wavecol.solver import NEUMANN, assemble_lhs, derivative_rows


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


class TestCaseDefinition:
    def test_case1_defaults(self):
        case = w.case_definition(1)
        assert case.reynolds == 1.0
        assert case.report_times == (0.05, 0.1, 0.2)
        assert case.bc.kind == "dirichlet"
        assert case.oracle_family == "sin_pi"

    def test_case2_high_reynolds_times(self):
        case = w.case_definition(2, reynolds=10.0)
        assert case.report_times == (0.5, 1.0, 2.0)
        assert case.oracle_family == "poly_4x_1mx"

    def test_case3_defaults(self):
        case = w.case_definition(3)
        assert case.reynolds == 10.0
        assert case.bc.kind == NEUMANN
        assert case.report_times == (0.1, 0.5, 1.0)
        assert case.oracle_family is None

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
        report = w.error_metrics(case, 33, values, values)
        assert np.max(report.abs_err) == 0.0
        assert np.max(report.rel_err) == 0.0
        assert all(v == 0.0 for v in report.avg_rel_err.values())

    def test_average_is_the_mean_of_pointwise_relative_errors(self):
        case = w.case_definition(1, times=(0.05,))
        exact = np.array([[0.2, 0.4, 0.5, 0.4, 0.2]])
        numeric = exact + np.array([[0.002, -0.004, 0.005, 0.0, 0.002]])
        report = w.error_metrics(case, 33, numeric, exact)
        expected = np.mean([0.002 / 0.2, 0.004 / 0.4, 0.005 / 0.5, 0.0,
                            0.002 / 0.2])
        assert report.avg_rel_err[0.05] == pytest.approx(expected, rel=1e-12)

    def test_zero_exact_values_are_excluded(self):
        case = w.case_definition(1, times=(0.05,))
        exact = np.array([[0.0, 0.4, 0.5, 0.4, 0.2]])
        numeric = exact + 0.004
        report = w.error_metrics(case, 33, numeric, exact)
        assert np.isnan(report.rel_err[0, 0])
        expected = np.mean([0.004 / 0.4, 0.004 / 0.5, 0.004 / 0.4, 0.004 / 0.2])
        assert report.avg_rel_err[0.05] == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        case = w.case_definition(1)
        with pytest.raises(ValueError, match="shape"):
            w.error_metrics(case, 33, np.ones((3, 5)), np.ones((2, 5)))

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
        assert set(report.comparator_rows) == {"ifdm", "bem", "cw_np33",
                                               "cw_np65"}

    def test_profiles_cover_the_domain(self, benchmark_run):
        result = benchmark_run(1, 1.0, 33)
        assert result.profile_xs.shape == (PROFILE_POINTS,)
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

    def test_case3_builds_the_solver_rows_once(self, monkeypatch):
        calls = []

        def counted(values, bc):
            calls.append(bc.kind)
            return derivative_rows(values, bc)

        assert not hasattr(w.bench, "derivative_rows")
        monkeypatch.setattr("wavecol.solver.derivative_rows", counted)
        result = w.run_case(w.case_definition(3, times=(0.1,)), 17)
        assert calls == [NEUMANN]
        assert result.operators["second_deriv"] is result.series.system.second_deriv

    def test_report_times_within_roundoff_of_a_step_accepted(self):
        # 0.15 / 1e-3 is 149.99999999999997 in floating point
        case = w.case_definition(3, times=(0.05, 0.1, 0.15))
        result = w.run_case(case, 9)
        np.testing.assert_array_equal(result.series.coefficients_at(0.15),
                                      result.series.coeffs[2])

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
        np.testing.assert_allclose(xs, runs[17].profile_xs, rtol=0, atol=1e-15)
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


class TestEmission:
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
        report = w.error_metrics(case, 33, np.empty((0, 5)), np.empty((0, 5)))
        assert _comparison_csv(report) == ("time,x,numeric,exact,abs_err,"
                                           "rel_err,ifdm,bem\n")
        assert _summary_csv(report).count("\n") == 1

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
        system = assemble_lhs(result.series.config)
        np.testing.assert_array_equal(dumped, system.second_deriv)

    def test_emission_is_deterministic(self, benchmark_run, tmp_path):
        result = benchmark_run(1, 1.0, 33)
        first = emit_reports(result, "csv", tmp_path / "a")
        second = emit_reports(result, "csv", tmp_path / "b")
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()

    def test_rerun_produces_byte_identical_reports(self, tmp_path):
        case = w.case_definition(1, times=(0.05,))
        text_a = _comparison_csv(w.run_case(case, 9).report)
        text_b = _comparison_csv(w.run_case(case, 9).report)
        assert text_a == text_b
