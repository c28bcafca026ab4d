"""Command-line benchmark driver.

Runs one benchmark case at one resolution, writes comparison reports and
optional profile / operator dumps, and reports failures through exit codes:
0 success, 1 usage error, 2 solver divergence, 3 conditioning failure,
4 I/O failure, 5 exact solution not trustworthy (the Cole-Hopf series'
error estimate, which covers cancellation, truncation and each moment's
quadrature, exceeds its bound).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (
    VALID_N_POINTS,
    case_definition,
    emit_operator_dump,
    emit_profiles,
    emit_reports,
    run_case,
)
from .errors import ConditioningError, DivergenceError, SeriesAccuracyError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGENCE = 2
EXIT_CONDITIONING = 3
EXIT_IO = 4
EXIT_ORACLE = 5


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors, which would collide with
    # the divergence code; remap to 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_times(text: str) -> tuple[float, ...]:
    try:
        times = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad time list {text!r}") from exc
    if any(t <= 0 for t in times):  # an empty list is SolverConfig's to refuse
        raise argparse.ArgumentTypeError("times must be positive")
    return times


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wavecol",
        description="Wavelet-collocation Burgers benchmark runner.",
    )
    parser.add_argument("--case", type=int, choices=(1, 2, 3), required=True,
                        help="benchmark case to run")
    parser.add_argument("--re", type=float, default=None,
                        help="Reynolds number (default: 1 for cases 1-2, "
                             "10 for case 3)")
    parser.add_argument("--np", type=int, choices=VALID_N_POINTS, default=33,
                        dest="n_points", help="number of collocation points")
    parser.add_argument("--dt", type=float, default=1e-3, help="time step")
    parser.add_argument("--times", type=_parse_times, default=None,
                        help="comma-separated report times")
    parser.add_argument("--format", choices=("csv", "md"), default="csv",
                        help="report format")
    parser.add_argument("--out", type=Path, default=Path("reports"),
                        help="output directory")
    parser.add_argument("--profiles", action="store_true",
                        help="also write x,u profile files per report time")
    parser.add_argument("--dump-operators", action="store_true",
                        help="also write the dense operator matrices as CSV")
    parser.add_argument("--truncate-level", type=int, default=None,
                        help="reconstruct from detail levels up to this one "
                             "only (multiresolution view)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        case = case_definition(args.case, reynolds=args.re, times=args.times)
        result = run_case(case, args.n_points, dt=args.dt,
                          truncate_level=args.truncate_level)
    except DivergenceError as exc:
        print(f"wavecol: solver diverged: {exc}", file=sys.stderr)
        print("wavecol: the convection term is explicit; try a smaller "
              "--dt", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ConditioningError as exc:
        print(f"wavecol: conditioning failure: {exc}", file=sys.stderr)
        return EXIT_CONDITIONING
    except SeriesAccuracyError as exc:
        print(f"wavecol: exact solution unavailable: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except ValueError as exc:
        print(f"wavecol: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        written = emit_reports(result, args.format, args.out)
        if args.profiles:
            written += emit_profiles(result, args.out)
        if args.dump_operators:
            written += emit_operator_dump(result, args.out)
    except OSError as exc:
        print(f"wavecol: cannot write reports: {exc}", file=sys.stderr)
        return EXIT_IO
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
