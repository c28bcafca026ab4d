"""Fast self-check of the benchmark itself, at tiny size (a few seconds).

    python3 wavebench/selfcheck.py

Checks that the metric and workload names agree with BENCHMARK.json, that
self times are computed as span minus children, that every binding site of
a traced function is rebound, and that the output gates trip on
deliberately wrong reports.  Exits non-zero and lists what failed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Run  # noqa: E402

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    if not ok:
        FAILURES.append(what)


def trips(fn, what: str) -> None:
    """The gate fn must reject its input."""
    try:
        fn()
    except (OSError, ValueError, IndexError):
        return
    FAILURES.append(f"gate did not trip: {what}")


def check_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    check(e2e == run.END_TO_END, "end_to_end metrics differ from run.END_TO_END")
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    check(layers == {k: v[:2] for k, v in run.PER_LAYER.items()},
          "per_layer metrics differ from run.PER_LAYER")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "workloads differ from workloads.WORKLOADS")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(bounds["setup_s"] == max(bounds.values()) and max(bounds.values()) <= 0.25,
          "setup_s must carry the largest bound, at most 0.25")


def check_self_times() -> None:
    # root [0, 100] > a [10, 40] > a1 [15, 25];  root > solve [50, 90] > asm [50, 60]
    spans = [tracing.Span(0, None, "harness.sample", 0, 100),
             tracing.Span(1, 0, "operators.gram", 10, 40, {"key": ["gram", 9]}),
             tracing.Span(2, 1, "basis.piecewise", 15, 25),
             tracing.Span(3, 0, "solver.solve", 50, 90, {"steps": 4, "n": 9}),
             tracing.Span(4, 3, "solver.assemble", 50, 60)]
    own = tracing.self_times(spans)
    check(own == {0: 30, 1: 20, 2: 10, 3: 30, 4: 10}, f"self times wrong: {own}")
    check(sum(own.values()) == 100, "self times do not add up to the root span")
    layers = run.layer_metrics(spans, {})
    check(abs(layers["solver.step_us"] - 30e-9 / 4 * 1e6) < 1e-12,
          f"step_us wrong: {layers['solver.step_us']}")
    check(layers["operators.wall_share"] == 0.3, "operators share counts nested spans")
    check(layers["solver.step_flops"] == 8 * 81, "step_flops is not 8 N^2")
    check(layers["solver.history_mb"] == 5 * 9 * 8 / 1e6, "history_mb wrong")
    check(set(layers) | {"trace_overhead"} == set(run.PER_LAYER),
          "layer_metrics does not give every per-layer metric")


def _write(path: Path, header: str, rows) -> None:
    path.write_text("\n".join([header] + [",".join(f"{v!r}" if isinstance(v, float)
                                                   else str(v) for v in r)
                                          for r in rows]) + "\n")


def check_oracle_gate(work: Path) -> None:
    run_ = Run("tiny", "oracle", 1, 1.0, 9, 1e-3, (0.05, 0.1))
    stem = "case1_re1_np9"

    def make(offset=5e-4, oracle_offset=0.0, summary=True) -> Path:
        out = work / "oracle"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        rows = []
        for t in run_.times:
            for x in checks.REPORT_XS:
                exact = checks.exact_solution(1, 1.0, t, x) + oracle_offset
                rows.append((f"{t:g}", f"{x:g}", exact + offset, exact,
                             abs(offset), 0.0, "", ""))
        _write(out / f"report_{stem}.csv",
               "time,x,numeric,exact,abs_err,rel_err,ifdm,bem", rows)
        if summary:
            _write(out / f"summary_{stem}.csv",
                   "time,avg_rel_err,avg_rel_err_ifdm,avg_rel_err_bem",
                   [(f"{t:g}", 1e-3, "", "") for t in run_.times])
        return out

    try:
        err = checks.check_oracle_run(run_, make())
        check(abs(err - 5e-4) < 1e-12, f"max_abs_err read back as {err}")
    except (OSError, ValueError) as exc:
        FAILURES.append(f"oracle gate rejected a good report: {exc}")
    trips(lambda: checks.check_oracle_run(run_, make(offset=2e-3)),
          "numeric 2e-3 from exact")
    trips(lambda: checks.check_oracle_run(run_, make(oracle_offset=1e-6)),
          "oracle column 1e-6 from the series")
    trips(lambda: checks.check_oracle_run(run_, make(summary=False)),
          "missing summary file")
    # the series itself: u(0.5, 0.1) for Re = 1 is printed as 0.37158
    check(abs(checks.exact_solution(1, 1.0, 0.1, 0.5) - 0.37158) < 5e-6,
          "Cole-Hopf series disagrees with the published exact value")


def check_case3_gate(work: Path) -> None:
    run_ = Run("tiny3", "cli", 3, 10.0, 17, 1e-3, (0.05,), profiles=True)
    stem = "case3_re10_np17"
    xs = np.linspace(0, 1, checks.PROFILE_POINTS)

    def make(anti=1e-13, slope=1e-15, skew=0.0) -> Path:
        out = work / "case3"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        _write(out / f"report_{stem}.csv",
               "time,antisymmetry,center_abs,neumann_left,neumann_right,"
               "front_oscillation", [("0.05", anti, 1e-15, slope, slope, 0.0)])
        _write(out / f"profile_{stem}_t0.05.csv", "x,u",
               [(float(x), float(u)) for x, u in
                zip(xs, 50 * (0.5 - xs) ** 3 + skew * xs * xs)])
        return out

    try:
        checks.check_case3_run(run_, make())
    except (OSError, ValueError) as exc:
        FAILURES.append(f"case-3 gate rejected a good report: {exc}")
    trips(lambda: checks.check_case3_run(run_, make(anti=2e-11)),
          "antisymmetry 2e-11")
    trips(lambda: checks.check_case3_run(run_, make(slope=1e-12)),
          "boundary slope residual 1e-12")
    trips(lambda: checks.check_case3_run(run_, make(skew=1e-9)),
          "profile that is not antisymmetric")
    md = Run("tiny-md", "cli", 3, 10.0, 33, 1e-3, (0.05, 0.1), fmt="md")
    out = work / "md"
    out.mkdir()
    (out / "report_case3_re10_np33.md").write_text(
        "# Case 3 (Neumann), Re = 10, N_p = 33\n\n| 0.05 | 1e-13 |\n")
    trips(lambda: checks.check_case3_run(md, out), "markdown report missing t=0.1")


def check_live_trace(work: Path) -> None:
    """Trace one tiny run in this process; every binding site is rebound."""
    sys.path.insert(0, str(ROOT / "src"))
    import wavecol
    import wavecol.bench
    import wavecol.cli

    originals = {f"{home}.{name}": getattr(sys.modules[home], name)
                 for home, name, *_ in tracing.TRACED + tracing.COUNTED}
    tracer = tracing.Tracer()
    sites = tracing.install(tracer)
    for key, found in sites.items():
        check(bool(found), f"{key}: no binding site rebound")
    check("wavecol.bench.gram_matrix" in sites["wavecol.operators.gram_matrix"],
          "gram_matrix not rebound in wavecol.bench")
    for name, module in sys.modules.items():
        if name == "wavecol" or name.startswith("wavecol."):
            for attr, value in vars(module).items():
                for key, original in originals.items():
                    check(value is not original, f"{name}.{attr} still {key}")

    root = tracer.open("harness.sample")
    case = wavecol.case_definition(1, reynolds=1.0, times=(0.05,))
    result = wavecol.run_case(case, 9)
    wavecol.bench.emit_reports(result, "csv", work / "live")
    tracer.close(root)
    spans = tracing.spans_from_json(json.loads(json.dumps(tracer.to_json())))
    layers = run.layer_metrics(spans, tracer.counts)
    check(layers["solver.steps"] == 50, f"traced {layers['solver.steps']} steps, want 50")
    check(layers["oracle.exact_u_calls"] == 5, "exact_u calls not counted")
    check(layers["operators.builds"] == 4, f"{layers['operators.builds']} builds, want 4")
    check(layers["bench.bytes_written"] > 0, "bytes written not counted")
    total = sum(run.self_seconds(spans).values())
    check(abs(total - layers["trace.wall_s"]) < 1e-9,
          "self times do not account for the traced wall time")


def main() -> int:
    work = ROOT / ".wavebench_work" / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        check_names()
        check_self_times()
        check_oracle_gate(work)
        check_case3_gate(work)
        check_live_trace(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for failure in FAILURES:
        print(f"selfcheck: FAILED {failure}", file=sys.stderr)
    if not FAILURES:
        print("selfcheck: ok")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
