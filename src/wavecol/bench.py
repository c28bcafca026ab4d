"""Benchmark cases, error metrics against the exact solution, and reports.

Three standard cases are covered: sin(pi x) and 4 x (1 - x) initial data
with homogeneous Dirichlet boundaries (exact series solutions available),
and the antisymmetric cubic 50 (1/2 - x)**3 with zero-derivative Neumann
boundaries, for which only qualitative properties can be checked.  Reports
compare against the exact solution and against published comparator values,
and are written as CSV or markdown shaped like the published tables.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import published
from .approx import check_keep_level, truncate
from .basis import BasisSpec, _nodal_matrix, basis_matrix
from .operators import derivative_matrix, derivative_inner_products, gram_matrix
from .oracle import (POLY_4X_1MX, SIN_PI, ExactSolutionSpec, check_time,
                     table_values)
from .solver import DIRICHLET, NEUMANN, SolverConfig, derivative_rows, solve

VALID_N_POINTS = (5, 9, 17, 33, 65)

#: Resolution of the plot-ready profiles: smooth at every n_points without
#: implying extra accuracy.
PROFILE_POINTS = 401

#: Window over which front oscillation is measured for case 3; the fronts
#: advance from the boundaries and meet at the center.
FRONT_WINDOW = (0.25, 0.75)


@dataclass(frozen=True)
class CaseDefinition:
    """One benchmark problem: initial data, report times and oracle.

    Every case reports at the published locations published.COMPARISON_X.
    The oracle family decides the boundary kind, bc: an oracle family's
    exact solution has zero Dirichlet data, and a case without one has
    zero Neumann slopes and is reported by them.
    """

    case_id: int
    reynolds: float
    ic: Callable[[np.ndarray], np.ndarray]
    report_times: tuple[float, ...]
    oracle_family: str | None

    @property
    def bc(self) -> str:
        return NEUMANN if self.oracle_family is None else DIRICHLET


def _default_times(case_id: int, reynolds: float) -> tuple[float, ...]:
    if case_id == 3:
        return (0.1, 0.5, 1.0)
    return (0.5, 1.0, 2.0) if reynolds >= 5.0 else (0.05, 0.1, 0.2)


def case_definition(case_id: int, reynolds: float | None = None,
                    times: tuple[float, ...] | None = None) -> CaseDefinition:
    """Standard definition of benchmark cases 1-3.

    Cases 1 and 2 default to Re = 1 with the published report times for
    that Reynolds number; case 3 defaults to Re = 10.
    """
    if case_id == 1:
        reynolds = 1.0 if reynolds is None else reynolds
        ic = lambda x: np.sin(np.pi * x)
        family = SIN_PI
    elif case_id == 2:
        reynolds = 1.0 if reynolds is None else reynolds
        ic = lambda x: 4.0 * x * (1.0 - x)
        family = POLY_4X_1MX
    elif case_id == 3:
        reynolds = 10.0 if reynolds is None else reynolds
        ic = lambda x: 50.0 * (0.5 - x) ** 3
        family = None
    else:
        raise ValueError(f"unknown case id {case_id}")
    if times is None:
        times = _default_times(case_id, reynolds)
    return CaseDefinition(case_id, float(reynolds), ic, tuple(times), family)


@dataclass(frozen=True, eq=False)
class ErrorReport:
    """Numeric vs exact values at the report grid, with comparator averages.

    The grids have one row per report time of the case and one column per
    location of published.COMPARISON_X.  avg_rel_err maps each time to the
    arithmetic mean over the report locations of |numeric - exact| / |exact|
    (locations with exact = 0 are excluded; none occur at the standard
    interior points).  comparator_avg applies the same metric to each
    published comparator row, keyed by method and time; the rows themselves
    stay in published.
    """

    numeric: np.ndarray
    exact: np.ndarray
    abs_err: np.ndarray
    rel_err: np.ndarray
    avg_rel_err: dict[float, float]
    comparator_avg: dict[str, dict[float, float]]


def _relative_errors(numeric: np.ndarray, exact: np.ndarray) -> np.ndarray:
    rel = np.full_like(numeric, np.nan)
    mask = exact != 0.0
    rel[mask] = np.abs(numeric - exact)[mask] / np.abs(exact)[mask]
    return rel


_METHOD_LABELS = {
    "ifdm": "IFDM (published)",
    "bem": "BEM (published)",
    "cw_np33": "wavelet collocation, 33 points (published)",
    "cw_np65": "wavelet collocation, 65 points (published)",
}


def _published_row(case: CaseDefinition, t: float,
                   method: str) -> tuple[float, ...] | None:
    return published.profile_row(case.case_id, case.reynolds, t, method)


def error_metrics(case: CaseDefinition, numeric: np.ndarray,
                  exact: np.ndarray) -> ErrorReport:
    """Assemble the error report from the numeric and exact value grids.

    Both grids hold one row per report time of case; each published method
    of _METHOD_LABELS with a row at some report time gets its averages.
    """
    numeric = np.asarray(numeric, float)
    exact = np.asarray(exact, float)
    if numeric.shape != exact.shape:
        raise ValueError("numeric and exact grids must have the same shape")
    abs_err = np.abs(numeric - exact)
    rel_err = _relative_errors(numeric, exact)
    avg = {t: float(np.nanmean(rel_err[i]))
           for i, t in enumerate(case.report_times)}

    comparator_avg: dict[str, dict[float, float]] = {}
    for method in _METHOD_LABELS:
        avgs = {}
        for i, t in enumerate(case.report_times):
            row = _published_row(case, t, method)
            if row is not None:
                rel = _relative_errors(np.asarray(row), exact[i])
                avgs[t] = float(np.nanmean(rel))
        if avgs:
            comparator_avg[method] = avgs

    return ErrorReport(numeric=numeric, exact=exact, abs_err=abs_err,
                       rel_err=rel_err, avg_rel_err=avg,
                       comparator_avg=comparator_avg)


def oscillation_excess(values: np.ndarray) -> float:
    """Total variation beyond the net change: zero for monotone data."""
    steps = np.diff(np.asarray(values, float))
    return float(np.sum(np.abs(steps)) - abs(np.sum(steps)))


@dataclass(frozen=True)
class Case3Report:
    """Qualitative property measurements for the Neumann case.

    Per report time of the case: the antisymmetry defect
    max |u(x) + u(1 - x)| on the dense profile grid, |u(1/2)|, the boundary
    slope residuals (|u_x| at the left and right ends, where the slope is
    0), and the oscillation excess inside FRONT_WINDOW.
    """

    antisymmetry: dict[float, float]
    center_abs: dict[float, float]
    neumann_residuals: dict[float, tuple[float, float]]
    front_oscillation: dict[float, float]


@dataclass(frozen=True, eq=False)
class RunResult:
    """Everything one benchmark run produced, ready for report emission.

    coeffs[i] is the solver's state at case.report_times[i], before any
    truncation; profiles and report are measured from the reported,
    possibly truncated, states.  Every profile is on the shared grid
    _profile_grid().  The gram, deriv_inner and deriv_op arrays of
    operators are shared by every run at the same resolution and are
    read-only; the operators dict itself is the run's own.
    """

    case: CaseDefinition
    n_points: int
    report: ErrorReport | Case3Report
    profiles: dict[float, np.ndarray]
    coeffs: np.ndarray
    operators: dict[str, np.ndarray]


def spec_for_points(n_points: int) -> BasisSpec:
    """Basis spec whose collocation grid has the requested point count.

    Raises ValueError unless n_points is an integer in VALID_N_POINTS.
    """
    if not (isinstance(n_points, numbers.Integral)
            and n_points in VALID_N_POINTS):
        raise ValueError(f"n_points must be one of {VALID_N_POINTS}")
    return BasisSpec(max_level=int(math.log2(n_points - 1)))


@functools.cache
def _profile_grid() -> np.ndarray:
    """The profile grid every run shares, read-only."""
    xs = np.linspace(0.0, 1.0, PROFILE_POINTS)
    xs.flags.writeable = False
    return xs


@functools.lru_cache(maxsize=8)
def _resolution_tables(max_level: int):
    """The run-independent tables of one resolution, built once, read-only.

    Returns the basis rows at the profile grid and at the published report
    locations, and the (name, matrix) pairs of the wavelet-space
    operators: gram, deriv_inner and deriv_op.  The first run at a
    resolution builds the operators whether or not it dumps them; their
    builds (gram, dual and deriv_inner inside derivative_matrix, and
    deriv_inner again) are the four that wavebench/selfcheck.py pins for a
    run at a new resolution.
    """
    spec = BasisSpec(max_level=max_level)
    gram = gram_matrix(spec)
    operators = (("gram", gram),
                 ("deriv_inner", derivative_inner_products(spec)),
                 ("deriv_op", derivative_matrix(spec, gram)))
    rows = (basis_matrix(spec, _profile_grid()),
            basis_matrix(spec, published.COMPARISON_X))
    for array in (*rows, *(matrix for _, matrix in operators)):
        array.flags.writeable = False
    return *rows, operators


def run_case(case: CaseDefinition, n_points: int, dt: float = 1e-3,
             truncate_level: int | None = None) -> RunResult:
    """Solve one case at one resolution and measure everything the reports need.

    The run ends at the last report time, and the result keeps solve's
    states, one row per report time.  For Neumann cases the slope residuals
    and the dumped ``second_deriv`` come from the node rows the solver
    used, derivative_rows(n_points, bc), composed with T: ``second_deriv``
    is the weak Laplacian mapping coefficients to nodal u_xx (see
    ``wavecol.solver``); the Dirichlet second derivative is D*D of the
    dumped ``deriv_op``.  The first run at
    a resolution builds its basis rows and wavelet-space operators (four
    operator builds); later runs at that resolution share them (see
    _resolution_tables and RunResult).  Bad run parameters (n_points, dt,
    report times off the dt grid, on one step, printed with one label or
    refused by the oracle, truncate_level) raise ValueError before any
    operator is built or step taken.
    """
    spec = spec_for_points(n_points)
    config = SolverConfig(
        reynolds=case.reynolds, times=case.report_times,
        bc=case.bc, ic=case.ic, spec=spec, dt=dt,
    )
    # reports and profile file names label a time by f"{t:g}"
    labels: dict[str, float] = {}
    for t in case.report_times:
        label = f"{t:g}"
        if label in labels:
            raise ValueError(f"report times t = {labels[label]!r} and "
                             f"t = {t!r} share the label {label}")
        labels[label] = t
        if case.oracle_family is not None:
            check_time(t)
    if truncate_level is not None:
        check_keep_level(truncate_level, spec)
    coeffs = solve(config)
    dense_rows, report_rows, operators = _resolution_tables(spec.max_level)
    # the arrays are shared; the dict is the run's own, since a Neumann run
    # adds the solver's second derivative, from coefficients to nodal u_xx
    operators = dict(operators)

    # the reported state at each report time, truncated once
    states = dict(zip(case.report_times, coeffs))
    if truncate_level is not None:
        states = {t: truncate(c, spec, truncate_level) for t, c in states.items()}
    profiles = {t: dense_rows @ c for t, c in states.items()}

    if case.oracle_family is not None:
        numeric = np.array([report_rows @ states[t] for t in case.report_times])
        exact = table_values(
            ExactSolutionSpec(reynolds=case.reynolds, ic_family=case.oracle_family),
            case.report_times, published.COMPARISON_X,
        )
        report: ErrorReport | Case3Report = error_metrics(case, numeric, exact)
    else:
        dense_xs = _profile_grid()
        window = (dense_xs >= FRONT_WINDOW[0]) & (dense_xs <= FRONT_WINDOW[1])
        first_deriv, second_deriv = derivative_rows(n_points, case.bc)
        values = _nodal_matrix(spec.max_level)
        # the nodal slope rows, formed in coefficient space and applied to c
        endpoint_deriv = first_deriv[[0, -1]] @ values
        antisymmetry = {}
        center = {}
        residuals = {}
        oscillation = {}
        for t in case.report_times:
            c = states[t]
            u = profiles[t]
            antisymmetry[t] = float(np.max(np.abs(u + u[::-1])))
            center[t] = abs(float(u[PROFILE_POINTS // 2]))  # x = 1/2
            left, right = endpoint_deriv @ c
            residuals[t] = (abs(float(left)), abs(float(right)))
            oscillation[t] = oscillation_excess(u[window])
        report = Case3Report(antisymmetry=antisymmetry, center_abs=center,
                             neumann_residuals=residuals,
                             front_oscillation=oscillation)
        operators["second_deriv"] = second_deriv @ values

    return RunResult(case=case, n_points=n_points, report=report,
                     profiles=profiles, coeffs=coeffs, operators=operators)


# ---------------------------------------------------------------------------
# report emission: every writer renders its text, and _write writes them all

def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _fmt_pub(value: float) -> str:
    return f"{value:.5f}"


def _stem(result: RunResult) -> str:
    return (f"case{result.case.case_id}"
            f"_re{result.case.reynolds:g}_np{result.n_points}")


def _lines(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _csv(header: str, rows) -> str:
    """The header line, then each row of cell strings joined by commas."""
    return _lines([header, *map(",".join, rows)])


def _matrix_csv(values: np.ndarray) -> str:
    """A 2-D array as CSV, one line per row, every value at 17 digits."""
    rows, cols = np.shape(values)
    line = ",".join(["%.17g"] * cols) + "\n"
    return (line * rows) % tuple(np.ravel(values).tolist())


def _comparison_csv(result: RunResult) -> str:
    case, report = result.case, result.report
    rows = []
    for i, t in enumerate(case.report_times):
        ifdm = _published_row(case, t, "ifdm")
        bem = _published_row(case, t, "bem")
        for j, x in enumerate(published.COMPARISON_X):
            rows.append([
                f"{t:g}", f"{x:g}",
                _fmt(report.numeric[i, j]), _fmt(report.exact[i, j]),
                _fmt(report.abs_err[i, j]), _fmt(report.rel_err[i, j]),
                _fmt_pub(ifdm[j]) if ifdm else "",
                _fmt_pub(bem[j]) if bem else "",
            ])
    return _csv("time,x,numeric,exact,abs_err,rel_err,ifdm,bem", rows)


def _summary_csv(result: RunResult) -> str:
    report = result.report
    rows = []
    for t in result.case.report_times:
        ifdm = report.comparator_avg.get("ifdm", {}).get(t)
        bem = report.comparator_avg.get("bem", {}).get(t)
        rows.append([
            f"{t:g}", _fmt(report.avg_rel_err[t]),
            _fmt(ifdm) if ifdm is not None else "",
            _fmt(bem) if bem is not None else "",
        ])
    return _csv("time,avg_rel_err,avg_rel_err_ifdm,avg_rel_err_bem", rows)


def _case3_csv(result: RunResult) -> str:
    report = result.report
    rows = []
    for t in result.case.report_times:
        left, right = report.neumann_residuals[t]
        rows.append([
            f"{t:g}", _fmt(report.antisymmetry[t]), _fmt(report.center_abs[t]),
            _fmt(left), _fmt(right), _fmt(report.front_oscillation[t]),
        ])
    return _csv("time,antisymmetry,center_abs,neumann_left,neumann_right,"
                "front_oscillation", rows)


def _md_table(header: list[str], rows) -> list[str]:
    """Lines of a markdown table: header, rule, then one line per row."""
    lines = ["| " + " | ".join(cells) + " |" for cells in [header, *rows]]
    lines.insert(1, "|---" * len(header) + "|")
    return lines


def _comparison_markdown(result: RunResult) -> str:
    case, report, times = result.case, result.report, result.case.report_times
    parts = [f"# Case {case.case_id}, Re = {case.reynolds:g}, "
             f"N_p = {result.n_points}\n"]
    header = ["method", *(f"x={x:g}" for x in published.COMPARISON_X)]
    for i, t in enumerate(times):
        rows = [[label, *map(_fmt_pub, row)]
                for method, label in _METHOD_LABELS.items()
                if (row := _published_row(case, t, method)) is not None]
        rows.append(["exact", *map(_fmt_pub, report.exact[i])])
        rows.append([f"this run (N_p={result.n_points})",
                     *map(_fmt_pub, report.numeric[i])])
        parts += [f"\n## t = {t:g}\n", *_md_table(header, rows)]
    rows = [["this run", *(f"{report.avg_rel_err[t]:.2e}" for t in times)]]
    for method, label in _METHOD_LABELS.items():
        avgs = report.comparator_avg.get(method)
        if avgs:
            rows.append([label, *(f"{avgs[t]:.2e}" if t in avgs else ""
                                  for t in times)])
    parts += ["\n## Average relative error\n",
              *_md_table(["method", *(f"t={t:g}" for t in times)], rows)]
    return _lines(parts)


def _case3_markdown(result: RunResult) -> str:
    report = result.report
    rows = []
    for t in result.case.report_times:
        left, right = report.neumann_residuals[t]
        rows.append([f"{t:g}", f"{report.antisymmetry[t]:.3e}",
                     f"{report.center_abs[t]:.3e}", f"{left:.3e}, {right:.3e}",
                     f"{report.front_oscillation[t]:.5f}"])
    header = ["t", "antisymmetry", "center value",
              "boundary slope (left, right)", "front oscillation"]
    return _lines([f"# Case 3 (Neumann), Re = {result.case.reynolds:g}, "
                   f"N_p = {result.n_points}\n", *_md_table(header, rows)])


#: (report type, format) -> {file name prefix: text writer}
_REPORT_WRITERS = {
    (ErrorReport, "csv"): {"report": _comparison_csv, "summary": _summary_csv},
    (ErrorReport, "md"): {"report": _comparison_markdown},
    (Case3Report, "csv"): {"report": _case3_csv},
    (Case3Report, "md"): {"report": _case3_markdown},
}


def _write(out_dir: Path, texts: dict[str, str]) -> list[Path]:
    """Write each text to out_dir / name, creating out_dir; returns the
    paths in the order of texts."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / name for name in texts]
    for path, text in zip(paths, texts.values()):
        path.write_text(text)
    return paths


def emit_reports(result: RunResult, fmt: str, out_dir: Path) -> list[Path]:
    """Write the report files for one run; returns the created paths."""
    if fmt not in ("csv", "md"):
        raise ValueError(f"unknown format {fmt!r}")
    stem = _stem(result)
    writers = _REPORT_WRITERS[type(result.report), fmt]
    return _write(out_dir, {f"{prefix}_{stem}.{fmt}": writer(result)
                            for prefix, writer in writers.items()})


@functools.cache
def _profile_template() -> str:
    """The header and x column of a profile file, with a slot for each u,
    rendered once per process from the shared profile grid."""
    values = tuple(_profile_grid().tolist())
    return "x,u\n" + ("%.17g,%%.17g\n" * len(values)) % values


def emit_profiles(result: RunResult, out_dir: Path) -> list[Path]:
    """Write one x,u profile CSV per report time (plot-ready).

    Every profile is on the shared grid _profile_grid(); each fills the
    one template holding its rendered x column with its u values, so the
    text is _matrix_csv's, with the header line.
    """
    stem = _stem(result)
    template = _profile_template()
    return _write(out_dir, {
        f"profile_{stem}_t{t:g}.csv":
            template % tuple(np.asarray(result.profiles[t], float).tolist())
        for t in result.case.report_times})


def emit_operator_dump(result: RunResult, out_dir: Path) -> list[Path]:
    """Write the dense operator matrices as row-major CSV (debug aid)."""
    return _write(out_dir, {
        f"operators_np{result.n_points}_{name}.csv": _matrix_csv(matrix)
        for name, matrix in result.operators.items()})
