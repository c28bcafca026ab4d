"""Command-line driver: flags, outputs, and exit-code mapping."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wavecol
from wavecol import cli
from wavecol.errors import ConditioningError, QuadratureError


def test_fast_dirichlet_run_writes_reports(tmp_path):
    code = cli.main(["--case", "1", "--np", "9", "--times", "0.05",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    assert (tmp_path / "report_case1_re1_np9.csv").exists()
    assert (tmp_path / "summary_case1_re1_np9.csv").exists()


def test_markdown_format_and_profiles(tmp_path):
    code = cli.main(["--case", "1", "--np", "9", "--times", "0.05",
                     "--format", "md", "--profiles", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    assert (tmp_path / "report_case1_re1_np9.md").exists()
    assert (tmp_path / "profile_case1_re1_np9_t0.05.csv").exists()


def test_operator_dump_flag(tmp_path):
    code = cli.main(["--case", "1", "--np", "5", "--times", "0.01",
                     "--dump-operators", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    assert (tmp_path / "operators_np5_gram.csv").exists()
    assert (tmp_path / "operators_np5_deriv_inner.csv").exists()
    assert (tmp_path / "operators_np5_deriv_op.csv").exists()


def test_truncate_level_flag(tmp_path):
    code = cli.main(["--case", "1", "--np", "17", "--times", "0.05",
                     "--truncate-level", "2", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK


def test_neumann_case_diverges_with_default_times(tmp_path, capsys):
    # with dt = 0.05 at 17 points (h = 1/16) and max|u| of about 5.6, the
    # convective Courant number dt * max|u| / h is about 4.5, twice the
    # 2.2 (dt = 0.025) from which case 3 diverges at this resolution; the
    # run overflows before t = 1 and the CLI must report that through its
    # exit code
    code = cli.main(["--case", "3", "--np", "17", "--dt", "0.05",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_DIVERGENCE
    err = capsys.readouterr().err
    assert "diverged" in err
    assert "--dt" in err


def test_neumann_case_with_early_times_succeeds(tmp_path):
    code = cli.main(["--case", "3", "--np", "17", "--times", "0.05,0.1",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    assert (tmp_path / "report_case3_re10_np17.csv").exists()


def test_conditioning_failure_maps_to_exit_3(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise ConditioningError("forced", 1e99)

    monkeypatch.setattr(cli, "run_case", explode)
    code = cli.main(["--case", "1", "--np", "5", "--times", "0.01",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_CONDITIONING


def test_unwritable_output_maps_to_exit_4(tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("occupied")
    code = cli.main(["--case", "1", "--np", "5", "--times", "0.01",
                     "--out", str(blocker)])
    assert code == cli.EXIT_IO


def test_usage_errors_exit_1(tmp_path):
    for flags in (
        ["--case", "9"],
        ["--case", "1", "--np", "12"],
        ["--case", "1", "--times", "-0.5"],
        # removed options: the scheme is Crank-Nicolson, and a run ends at
        # its last report time
        ["--case", "1", "--theta", "0.3"],
        ["--case", "1", "--t-end", "1"],
    ):
        with pytest.raises(SystemExit) as info:
            cli.main([*flags, "--out", str(tmp_path)])
        assert info.value.code == cli.EXIT_USAGE
        assert not list(tmp_path.iterdir())
    # two report times on one step: the run configuration refuses them
    code = cli.main(["--case", "1", "--times", "0.1,0.1", "--out", str(tmp_path)])
    assert code == cli.EXIT_USAGE
    assert not list(tmp_path.iterdir())


def test_bad_truncate_level_exits_1(tmp_path):
    code = cli.main(["--case", "1", "--np", "9", "--times", "0.01",
                     "--truncate-level", "9", "--out", str(tmp_path)])
    assert code == cli.EXIT_USAGE


def test_zero_dt_is_a_usage_error(tmp_path, capsys):
    code = cli.main(["--case", "1", "--np", "9", "--times", "0.01",
                     "--dt", "0", "--out", str(tmp_path)])
    assert code == cli.EXIT_USAGE
    assert "dt must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--times", "inf"], ["--re", "inf"], ["--dt", "inf"],
    ["--re", "nan"], ["--dt", "nan"], ["--times", "nan"],
], ids=" ".join)
def test_non_finite_run_inputs_are_usage_errors(tmp_path, capsys, flags):
    code = cli.main(["--case", "1", "--np", "9", *flags, "--out", str(tmp_path)])
    assert code == cli.EXIT_USAGE
    assert "finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_reported_paths_are_printed(tmp_path, capsys):
    cli.main(["--case", "1", "--np", "9", "--times", "0.05",
              "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert "report_case1_re1_np9.csv" in out


def test_identical_flags_produce_byte_identical_outputs(tmp_path):
    flags = ["--case", "1", "--np", "9", "--times", "0.05", "--profiles"]
    assert cli.main(flags + ["--out", str(tmp_path / "a")]) == cli.EXIT_OK
    assert cli.main(flags + ["--out", str(tmp_path / "b")]) == cli.EXIT_OK
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_report_time_off_the_step_grid_is_a_usage_error(tmp_path, capsys):
    # t = 0.05 is 16.67 steps of 0.003: there is no stored state to report
    code = cli.main(["--case", "1", "--np", "9", "--dt", "0.003",
                     "--times", "0.05", "--out", str(tmp_path)])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "t = 0.05" in err and "dt = 0.003" in err
    assert not list(tmp_path.iterdir())


def test_report_times_with_one_label_are_a_usage_error(tmp_path, capsys):
    # both times would be written to profile_case3_re10_np5_t0.05.csv
    code = cli.main(["--case", "3", "--np", "5", "--dt", "1e-8",
                     "--times", "0.05,0.05000001", "--profiles",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_USAGE
    assert "share the label 0.05" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("times", ["1e12", "1e308"])
def test_report_time_past_the_step_ceiling_is_a_usage_error(
        tmp_path, capsys, monkeypatch, times):
    # at the default dt 1e12 is 10**15 steps, and 1e308 overflows t / dt
    def never(*args, **kwargs):
        raise AssertionError("the run was started")

    monkeypatch.setattr(wavecol.bench, "solve", never)
    code = cli.main(["--case", "1", "--np", "5", "--times", times,
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_USAGE
    assert "MAX_STEPS" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags", [
    ["--re", "1000"],
    ["--re", "1e308", "--times", "0.1"],
    pytest.param(["--re", "1e6", "--times", "0.5"], marks=pytest.mark.
                 filterwarnings("ignore:series hit MAX_TERMS:RuntimeWarning")),
], ids=" ".join)
def test_untrustworthy_exact_solution_maps_to_exit_5(tmp_path, capsys, flags):
    # at Re = 1000 the series cancels to an estimated relative error of
    # order 10; at Re = 1e308 the transformed data underflow to zero and
    # the series divided zero by zero; at Re = 1e6 it runs out of terms
    # with its last terms about twice its sums, where it would otherwise
    # serve u(1/2, 1/2) = -0.00253 for a solution that stays positive
    code = cli.main(["--case", "1", "--np", "33", *flags,
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_ORACLE
    assert "MAX_REL_ERROR" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_quadrature_failure_maps_to_exit_5(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise QuadratureError("forced")

    monkeypatch.setattr(cli, "run_case", explode)
    code = cli.main(["--case", "1", "--np", "5", "--times", "0.01",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_ORACLE


def test_a_run_imports_no_scipy(tmp_path):
    # in a fresh interpreter, since the test suite itself imports scipy
    script = (
        "import sys\n"
        "import wavecol, wavecol.cli\n"
        "code = wavecol.cli.main(['--case', '3', '--np', '17', '--times',"
        " '0.05', '--out', sys.argv[1]])\n"
        "loaded = [m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')]\n"
        "print(code, loaded)\n"
    )
    src = str(Path(wavecol.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "report_case3_re10_np17.csv").exists()


def test_a_run_imports_no_exact_arithmetic_or_polynomials(tmp_path):
    # fractions (with decimal) serves only the exact reference, and the
    # Gauss rules are written out: a run loads neither, nor numpy.polynomial,
    # beyond what importing numpy itself loads
    script = (
        "import sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "import wavecol, wavecol.cli\n"
        "code = wavecol.cli.main(['--case', '1', '--np', '17', '--times',"
        " '0.05', '--profiles', '--dump-operators', '--out', sys.argv[1]])\n"
        "watched = ('fractions', 'decimal', 'numpy.polynomial')\n"
        "loaded = sorted(m for m in set(sys.modules) - before"
        " if any(m == w or m.startswith(w + '.') for w in watched))\n"
        "print(code, loaded)\n"
    )
    src = str(Path(wavecol.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "report_case1_re1_np17.csv").exists()
