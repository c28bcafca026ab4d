"""Golden regression: report numbers frozen from a reference build.

golden_reports.json holds, per run, the run_case report values and every
10th point of the 401-point profiles: cases 1 and 2 at Re = 1 and 10, and
the Neumann case 3 at its default times, each at 17, 33 and 65 points.  A
change to how the operators are built must reproduce them: to 1e-12 for
the Dirichlet cases and to 1e-10 for case 3, whose steep front amplifies
roundoff (about 4e-11 by t = 1).  Case 3's antisymmetry, centre value and
slope residuals are roundoff-sized and stay under their own thresholds in
the acceptance tests instead.

Regenerate (only on purpose, from a build whose numbers are trusted):

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).with_name("golden_reports.json")
N_POINTS = (17, 33, 65)
DIRICHLET_RUNS = [(case_id, reynolds, n)
                  for case_id in (1, 2) for reynolds in (1.0, 10.0)
                  for n in N_POINTS]
DIRICHLET_TOL = 1e-12
NEUMANN_TOL = 1e-10
PROFILE_STRIDE = 10


def _snapshot(result) -> dict:
    """The numbers of one run that the golden file freezes."""
    report, times = result.report, result.case.report_times
    snap = {
        "case": result.case.case_id,
        "reynolds": result.case.reynolds,
        "n_points": result.n_points,
        "times": list(times),
        "profiles": [result.profiles[t][::PROFILE_STRIDE].tolist()
                     for t in times],
    }
    if result.case.case_id == 3:
        snap["front_oscillation"] = [report.front_oscillation[t]
                                     for t in times]
    else:
        snap["numeric"] = report.numeric.tolist()
        snap["abs_err"] = report.abs_err.tolist()
        snap["avg_rel_err"] = [report.avg_rel_err[t] for t in times]
    return snap


def _golden() -> dict:
    records = json.loads(GOLDEN.read_text())
    return {(r["case"], r["reynolds"], r["n_points"]): r for r in records}


def _assert_matches(snap: dict, golden: dict, tol: float) -> None:
    assert snap["times"] == golden["times"]
    for key in golden:
        if key in ("case", "reynolds", "n_points", "times"):
            continue
        got = np.asarray(snap[key], float)
        want = np.asarray(golden[key], float)
        assert got.shape == want.shape, key
        worst = float(np.max(np.abs(got - want)))
        assert worst <= tol, f"{key}: off by {worst:.3e} > {tol:g}"


@pytest.mark.parametrize("case_id, reynolds, n_points", DIRICHLET_RUNS)
def test_dirichlet_reports_match_golden(benchmark_run, case_id, reynolds,
                                        n_points):
    snap = _snapshot(benchmark_run(case_id, reynolds, n_points))
    _assert_matches(snap, _golden()[(case_id, reynolds, n_points)],
                    DIRICHLET_TOL)


@pytest.mark.parametrize("n_points", N_POINTS)
def test_neumann_profiles_match_golden(benchmark_run, n_points):
    snap = _snapshot(benchmark_run(3, 10.0, n_points))
    _assert_matches(snap, _golden()[(3, 10.0, n_points)], NEUMANN_TOL)


def _capture() -> None:
    import wavecol as w

    runs = DIRICHLET_RUNS + [(3, 10.0, n) for n in N_POINTS]
    records = [_snapshot(w.run_case(w.case_definition(c, reynolds=re), n))
               for c, re, n in runs]
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in records)
                      + "\n]\n")


if __name__ == "__main__":
    _capture()
