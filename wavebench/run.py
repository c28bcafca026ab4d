"""wavecol benchmark: end-to-end and per-layer timings of the paper's workloads.

Usage, from the root of a wavecol checkout:

    python3 wavebench/run.py --workload tables-cli --seed 1 --seconds 60 --trace 0

Each sample is a fresh interpreter (worker.py) that imports wavecol from
``src/`` and performs every run of the workload, in an order the seed
permutes, so the oracle's cache and any later cache start cold the way each
``wavecol`` invocation does.  Samples run one at a time with BLAS pinned to
one thread, closed loop, until --seconds have been spent.  Every run's
reports are parsed back and gated (checks.py); a run that raised, exited
non-zero or failed its gate counts as failed.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced samples and reports the per-layer metrics from the traced ones: self
times (span minus child spans) and counts at wavecol's layer boundaries
(tracing.py), plus the tracing overhead.  The last line of standard output
is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
from tracing import self_times, spans_from_json  # noqa: E402
from workloads import WORKLOADS, Run  # noqa: E402

#: Pinned so that a sample measures one core's work on a 2-core machine.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SAMPLE_TIMEOUT_S = 60
MIN_SAMPLES = 3

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "run_s.p50": ("s", "lower"),
    "run_s.p90": ("s", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "max_abs_err": ("1", "lower"),
    "ok_ratio": ("ratio", "higher"),
}

# name -> (unit, better, the end-to-end metric it should move)
PER_LAYER = {
    "basis.basis_matrix_s": ("s", "lower", "run_s.p50 on tables-cli"),
    "basis.points_evaluated": ("count", "lower", "run_s.p50 on tables-cli"),
    "basis.piecewise_s": ("s", "lower", "wall_s on tables-cli"),
    "operators.gram_s": ("s", "lower", "wall_s, run_s.p50 on tables-cli"),
    "operators.deriv_inner_s": ("s", "lower", "wall_s, run_s.p50 on tables-cli"),
    "operators.dual_s": ("s", "lower", "wall_s, run_s.p50 on tables-cli"),
    "operators.deriv_matrix_s": ("s", "lower", "wall_s on tables-cli"),
    "operators.builds": ("count", "lower", "wall_s on tables-cli"),
    "operators.useful_build_ratio": ("ratio", "higher", "wall_s on tables-cli"),
    "operators.wall_share": ("ratio", "lower", "wall_s on tables-cli"),
    "solver.assemble_s": ("s", "lower", "run_s.p50 on tables-cli"),
    "solver.init_s": ("s", "lower", "run_s.p50 on tables-cli"),
    "solver.step_us": ("us", "lower", "steps_per_s on long-run"),
    "solver.steps": ("count", "higher", "steps_per_s on long-run"),
    "solver.loop_wall_share": ("ratio", "lower", "steps_per_s on long-run"),
    "solver.step_flops": ("flop.computed", "lower", "peak_rss_mb on long-run"),
    "solver.history_mb": ("MB.computed", "lower", "peak_rss_mb on long-run"),
    "oracle.table_s": ("s", "lower", "run_s.p50 on tables-cli"),
    "oracle.exact_u_calls": ("count", "lower", "run_s.p50 on tables-cli"),
    "approx.truncate_s": ("s", "lower", "wall_s on tables-cli"),
    "bench.run_case_self_s": ("s", "lower", "run_s.p50 on every workload"),
    "bench.error_metrics_s": ("s", "lower", "wall_s on tables-cli"),
    "bench.emit_s": ("s", "lower", "wall_s on tables-cli"),
    "bench.bytes_written": ("count", "lower", "wall_s on tables-cli"),
    "cli.main_self_s": ("s", "lower", "wall_s on tables-cli"),
    "harness.self_s": ("s", "lower", "none: the benchmark's own time"),
    "trace.wall_s": ("s", "lower", "none: wall_s of the traced samples"),
    "trace_overhead": ("ratio", "lower", "none: traced over untraced wall_s, minus 1"),
}

# self time of these spans, summed per sample, in seconds
_SELF_SECONDS = {
    "basis.basis_matrix_s": "basis.basis_matrix",
    "basis.piecewise_s": "basis.piecewise",
    "operators.gram_s": "operators.gram",
    "operators.deriv_inner_s": "operators.deriv_inner",
    "operators.dual_s": "operators.dual",
    "operators.deriv_matrix_s": "operators.deriv_matrix",
    "solver.assemble_s": "solver.assemble",
    "solver.init_s": "solver.init",
    "oracle.table_s": "oracle.table",
    "approx.truncate_s": "approx.truncate",
    "bench.run_case_self_s": "bench.run_case",
    "bench.error_metrics_s": "bench.error_metrics",
    "bench.emit_s": "bench.emit",
    "cli.main_self_s": "cli.main",
}
_BUILD_SPANS = ("operators.gram", "operators.deriv_inner", "operators.dual")


def self_seconds(spans) -> dict[str, float]:
    """Self time per span name, summed over the sample; the values add up
    to the duration of the root span."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.id] / 1e9
    return out


def layer_metrics(spans, counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced sample (every PER_LAYER name but
    trace_overhead, which compares samples)."""
    self_s = self_seconds(spans)
    wall = spans[0].duration_ns / 1e9
    out = {metric: self_s.get(name, 0.0) for metric, name in _SELF_SECONDS.items()}

    builds = [s for s in spans if s.name in _BUILD_SPANS]
    solves = [s for s in spans if s.name == "solver.solve"]
    steps = sum(s.attrs["steps"] for s in solves)
    operators_inclusive = sum(
        s.duration_ns for s in spans if s.name.startswith("operators.")
        and not spans[s.parent].name.startswith("operators.")) / 1e9
    out.update({
        "basis.points_evaluated": sum(s.attrs["points"] for s in spans
                                      if s.name == "basis.basis_matrix"),
        "operators.builds": len(builds),
        "operators.useful_build_ratio": (
            len({tuple(s.attrs["key"]) for s in builds}) / len(builds)
            if builds else 0.0),
        "operators.wall_share": operators_inclusive / wall,
        "solver.steps": steps,
        "solver.step_us": self_s.get("solver.solve", 0.0) / steps * 1e6 if steps else 0.0,
        "solver.loop_wall_share": self_s.get("solver.solve", 0.0) / wall,
        # computed, not measured: three dense mat-vecs and one LU solve a
        # step, and the (steps + 1) x N float64 coefficient history
        "solver.step_flops": (sum(8 * s.attrs["n"] ** 2 * s.attrs["steps"]
                                  for s in solves) / steps if steps else 0.0),
        "solver.history_mb": max(((s.attrs["steps"] + 1) * s.attrs["n"] * 8 / 1e6
                                  for s in solves), default=0.0),
        "oracle.exact_u_calls": counts.get("oracle.exact_u_calls", 0),
        "bench.bytes_written": sum(s.attrs.get("bytes", 0) for s in spans
                                   if s.name == "bench.emit"),
        "harness.self_s": self_s["harness.sample"] + self_s.get("harness.run", 0.0),
        "trace.wall_s": wall,
    })
    return out


class Sample:
    """The parsed, gated outcome of one worker process."""

    def __init__(self, runs: tuple[Run, ...], traced: bool) -> None:
        self.traced = traced
        self.attempted = len(runs)
        self.failures: list[str] = []
        self.data: dict | None = None
        self.layers: dict[str, float] | None = None
        self.self_s: dict[str, float] | None = None
        self.max_abs_err = 0.0
        self.steps = sum(r.steps for r in runs)

    @property
    def usable(self) -> bool:
        return self.data is not None


def run_sample(workload: str, seed: int, index: int, traced: bool,
               out: Path, env: dict) -> Sample:
    """Run one worker; its reports stay in out until gate_sample reads them."""
    sample = Sample(WORKLOADS[workload], traced)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--sample", str(index),
           "--out", str(out)] + (["--trace"] if traced else [])
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sample.failures = [f"sample {index}: timed out"] * sample.attempted
        return sample
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        sample.failures = [f"sample {index}: worker exited "
                           f"{proc.returncode}: {tail[0]}"] * sample.attempted
        return sample
    sample.data = json.loads((out / "sample.json").read_text())
    return sample


def gate_sample(workload: str, sample: Sample, out: Path) -> None:
    """Check the sample's reports and read its spans."""
    by_name = {r.name: r for r in WORKLOADS[workload]}
    for record in sample.data["runs"]:
        run = by_name[record["run"]]
        if record["error"]:
            sample.failures.append(f"{run.name}: {record['error'].strip()}")
            continue
        try:
            if run.kind == "oracle":
                sample.max_abs_err = max(sample.max_abs_err,
                                         checks.check_oracle_run(run, out / run.name))
            else:
                checks.check_case3_run(run, out / run.name)
        except (OSError, ValueError, IndexError) as exc:
            sample.failures.append(f"{run.name}: {exc}")
    if sample.traced:
        trace = json.loads((out / "spans.json").read_text())
        spans = spans_from_json(trace)
        sample.layers = layer_metrics(spans, trace["counts"])
        sample.self_s = self_seconds(spans)


def end_to_end(samples: list[Sample], ok_ratio: float) -> dict[str, float]:
    run_s = [r["run_s"] for s in samples for r in s.data["runs"]]
    return {
        "setup_s": statistics.median(s.data["setup_s"] for s in samples),
        "wall_s": statistics.median(s.data["wall_s"] for s in samples),
        "run_s.p50": statistics.median(run_s),
        "run_s.p90": statistics.quantiles(run_s, n=10, method="inclusive")[8],
        "steps_per_s": statistics.median(s.steps / s.data["wall_s"] for s in samples),
        "peak_rss_mb": statistics.median(s.data["peak_rss_mb"] for s in samples),
        "max_abs_err": max(s.max_abs_err for s in samples),
        "ok_ratio": ok_ratio,
    }


def per_layer(plain: list[Sample], traced: list[Sample]) -> dict[str, float]:
    out = {name: statistics.median(s.layers[name] for s in traced)
           for name in traced[0].layers}
    out["trace_overhead"] = (out["trace.wall_s"]
                             / statistics.median(s.data["wall_s"] for s in plain)
                             - 1.0)
    return out


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wavecol" / "__init__.py").is_file():
        print(f"wavebench: no wavecol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {**os.environ, **THREAD_ENV, "PYTHONHASHSEED": "0"}
    work = ROOT / ".wavebench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # also the warm-up: byte-compiles wavecol and pages in numpy/scipy
        info = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), "--root", str(ROOT),
             "--info"], env=env, capture_output=True, text=True,
            timeout=SAMPLE_TIMEOUT_S)
        if info.returncode != 0:
            print(f"wavebench: cannot import wavecol:\n{info.stderr}", file=sys.stderr)
            return 3
        samples: list[Sample] = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            pace = elapsed / len(samples) if samples else 0.0
            if len(samples) >= MIN_SAMPLES * (1 + args.trace) and \
                    elapsed + pace > args.seconds:
                break
            traced = bool(args.trace) and len(samples) % 2 == 1
            samples.append(run_sample(args.workload, args.seed, len(samples),
                                      traced, work / f"s{len(samples)}", env))
        # gated after the timed loop, so that samples run back to back
        for index, sample in enumerate(samples):
            if sample.usable:
                gate_sample(args.workload, sample, work / f"s{index}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted = sum(s.attempted for s in samples)
    failures = [f for s in samples for f in s.failures]
    plain = [s for s in samples if s.usable and not s.traced]
    traced = [s for s in samples if s.usable and s.traced]
    for message in failures[:5]:
        print(f"wavebench: FAILED {message}", file=sys.stderr)
    if not plain or (args.trace and not traced):
        print("wavebench: no sample completed", file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer(plain, traced)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
        for name, (unit, _, moves) in PER_LAYER.items():
            print(f"{name:30s} {values[name]:14.6g} {unit:14s} -> {moves}")
        typical = sorted(traced, key=lambda s: s.layers["trace.wall_s"])[len(traced) // 2]
        wall = typical.layers["trace.wall_s"]
        print(f"self time by span, traced sample with the median wall_s {wall:.6g} s:")
        for name, secs in sorted(typical.self_s.items(), key=lambda kv: -kv[1]):
            print(f"  {name:24s} {secs:10.6f} s {secs / wall:7.1%}")
        print(f"  {'sum':24s} {sum(typical.self_s.values()):10.6f} s")
    else:
        values = end_to_end(plain, 1.0 - len(failures) / attempted)
        units = {name: spec[0] for name, spec in END_TO_END.items()}
        for name, value in values.items():
            print(f"{name:14s} {value:14.6g} {units[name]}")
        print(f"{'fail_ratio':14s} {len(failures) / attempted:14.6g} ratio")
    print(f"samples {len(plain)} untraced, {len(traced)} traced; "
          f"runs attempted {attempted}, failed {len(failures)}")
    print("record " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(),
        "src_sha256": source_digest(), **json.loads(info.stdout)}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
