"""One benchmark sample: a fresh interpreter that imports wavecol and
performs every run of one workload.

Run by run.py, never imported by it:

    python3 wavebench/worker.py --root DIR --workload NAME --seed N
        --sample K --out DIR [--trace]
    python3 wavebench/worker.py --root DIR --info

The sample writes ``sample.json`` (and ``spans.json`` when traced) into
--out.  Only the standard library is imported before the timed import of
wavecol, so ``setup_s`` is the cost a ``wavecol`` invocation pays.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _import_wavecol(root: Path):
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    import wavecol
    import wavecol.bench
    import wavecol.cli
    setup_s = time.perf_counter() - start
    expected = (root / "src" / "wavecol").resolve()
    if Path(wavecol.__file__).resolve().parent != expected:
        raise SystemExit(f"imported wavecol from {wavecol.__file__}, "
                         f"not from {expected}")
    return wavecol, setup_s


def _perform(wavecol, run, out_dir: Path) -> None:
    if run.kind == "cli":
        code = wavecol.cli.main(run.cli_argv(str(out_dir)))
        if code != 0:
            raise RuntimeError(f"wavecol exited with code {code}")
        return
    case = wavecol.case_definition(run.case_id, reynolds=run.reynolds,
                                   times=run.times)
    result = wavecol.run_case(case, run.n_points, dt=run.dt)
    wavecol.bench.emit_reports(result, run.fmt, out_dir)
    if run.profiles:
        wavecol.bench.emit_profiles(result, out_dir)


def _info(root: Path) -> dict:
    """Library and machine configuration recorded with every result."""
    _import_wavecol(root)
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "cpu": cpu}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--info", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--sample", type=int)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.info:
        print(json.dumps(_info(args.root)))
        return 0

    wavecol, setup_s = _import_wavecol(args.root)
    from workloads import sample_order

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    runs = sample_order(args.workload, args.seed, args.sample)
    records = []
    root_span = tracer.open("harness.sample") if tracer else None
    start = time.perf_counter()
    for run in runs:
        out_dir = args.out / run.name
        out_dir.mkdir(parents=True)
        span = tracer.open("harness.run", run=run.name) if tracer else None
        t0 = time.perf_counter()
        error = None
        try:
            _perform(wavecol, run, out_dir)
        except Exception:
            error = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        if tracer:
            tracer.close(span)
        records.append({"run": run.name, "run_s": t1 - t0, "error": error})
    wall_s = time.perf_counter() - start
    if tracer:
        tracer.close(root_span)
        (args.out / "spans.json").write_text(json.dumps(tracer.to_json()))

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (args.out / "sample.json").write_text(json.dumps({
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_kib * 1024 / 1e6,
        "runs": records,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
