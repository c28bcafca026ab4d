"""Output gates: each run's report files are parsed back and checked.

Cases 1-2 are checked against a Cole-Hopf series evaluated here, separately
from wavecol's oracle, so a fault shared by the solver and the oracle
cannot pass unseen.  Case 3 has no closed form; its reports are checked for
the properties the exact solution has (antisymmetry about x = 1/2, a zero
centre value, zero boundary slopes), partly recomputed from the profiles.
"""

from __future__ import annotations

import csv
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

from workloads import Run

#: Cases 1-2: every tabulated point within this of the exact solution.
MAX_ABS_ERR = 1e-3
#: wavecol's oracle column must agree with the series evaluated here.
ORACLE_TOL = 1e-9
#: Case 3: antisymmetry defect and |u(1/2)|, and the boundary slopes.
CASE3_SYMMETRY_TOL = 1e-11
CASE3_SLOPE_TOL = 1e-13

REPORT_XS = (0.1, 0.3, 0.5, 0.7, 0.9)
PROFILE_POINTS = 401

_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)
_N_TERMS = 80


@lru_cache(maxsize=None)
def _cosine_moments(case_id: int, reynolds: float) -> np.ndarray:
    # composite Gauss-Legendre on 8 cells: resolves cos(n pi x) for n <= 80
    edges = np.linspace(0.0, 1.0, 9)
    x = ((edges[:-1, None] + edges[1:, None]) / 2
         + (np.diff(edges)[:, None] / 2) * _GL_X).ravel()
    w = (np.diff(edges)[:, None] / 2 * _GL_W).ravel()
    if case_id == 1:
        theta0 = np.exp(-reynolds / (2 * math.pi) * (1 - np.cos(math.pi * x)))
    else:
        theta0 = np.exp(-x * x * reynolds / 3 * (3 - 2 * x))
    n = np.arange(_N_TERMS + 1)
    moments = (w * theta0 * np.cos(np.pi * np.outer(n, x))).sum(axis=1)
    moments[1:] *= 2
    return moments


def exact_solution(case_id: int, reynolds: float, t: float, x: float) -> float:
    """Cole-Hopf series for cases 1 (sin pi x) and 2 (4x(1-x)), t > 0."""
    a = _cosine_moments(case_id, reynolds)
    n = np.arange(_N_TERMS + 1)
    damped = a * np.exp(-(n * math.pi) ** 2 * t / reynolds)
    num = np.sum(damped[1:] * n[1:] * np.sin(n[1:] * math.pi * x))
    den = damped[0] + np.sum(damped[1:] * np.cos(n[1:] * math.pi * x))
    return float(2 * math.pi / reynolds * num / den)


def _stem(run: Run) -> str:
    return f"case{run.case_id}_re{run.reynolds:g}_np{run.n_points}"


def _read_csv(path: Path, header: str) -> list[list[str]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or ",".join(rows[0]) != header:
        raise ValueError(f"{path.name}: header is not {header!r}")
    return rows[1:]


def _read_profile(path: Path) -> np.ndarray:
    rows = _read_csv(path, "x,u")
    data = np.array([[float(x), float(u)] for x, u in rows])
    if data.shape != (PROFILE_POINTS, 2):
        raise ValueError(f"{path.name}: {len(rows)} rows, want {PROFILE_POINTS}")
    if np.max(np.abs(data[:, 0] - np.linspace(0, 1, PROFILE_POINTS))) > 1e-15:
        raise ValueError(f"{path.name}: x column is not the uniform grid")
    if not np.all(np.isfinite(data[:, 1])):
        raise ValueError(f"{path.name}: non-finite u")
    return data[:, 1]


def _profile_index(x: float) -> int:
    return round(x * (PROFILE_POINTS - 1))


def check_oracle_run(run: Run, out_dir: Path) -> float:
    """Gate a case 1-2 run; returns its largest |numeric - exact|."""
    stem = _stem(run)
    rows = _read_csv(out_dir / f"report_{stem}.csv",
                     "time,x,numeric,exact,abs_err,rel_err,ifdm,bem")
    want = [(t, x) for t in run.times for x in REPORT_XS]
    if len(rows) != len(want):
        raise ValueError(f"report has {len(rows)} rows, want {len(want)}")
    worst = 0.0
    numeric_at: dict[tuple[float, float], float] = {}
    for row, (t, x) in zip(rows, want):
        if (float(row[0]), float(row[1])) != (t, x):
            raise ValueError(f"report row {row[:2]} out of place, want {(t, x)}")
        numeric, exact, abs_err = float(row[2]), float(row[3]), float(row[4])
        ref = exact_solution(run.case_id, run.reynolds, t, x)
        if not abs(exact - ref) <= ORACLE_TOL:
            raise ValueError(f"oracle {exact!r} vs series {ref!r} at t={t}, x={x}")
        err = abs(numeric - ref)
        if not err <= MAX_ABS_ERR:
            raise ValueError(f"|numeric - exact| = {err:.3g} > {MAX_ABS_ERR} "
                             f"at t={t}, x={x}")
        if abs(abs_err - abs(numeric - exact)) > 1e-15:
            raise ValueError(f"abs_err column inconsistent at t={t}, x={x}")
        numeric_at[t, x] = numeric
        worst = max(worst, err)

    summary = _read_csv(out_dir / f"summary_{stem}.csv",
                        "time,avg_rel_err,avg_rel_err_ifdm,avg_rel_err_bem")
    if [float(r[0]) for r in summary] != list(run.times):
        raise ValueError("summary rows do not match the report times")
    if not all(math.isfinite(float(r[1])) for r in summary):
        raise ValueError("summary has a non-finite average error")

    if run.profiles:
        for t in run.times:
            u = _read_profile(out_dir / f"profile_{stem}_t{t:g}.csv")
            if max(abs(u[0]), abs(u[-1])) > 1e-12:
                raise ValueError(f"profile t={t} breaks the Dirichlet data")
            for x in REPORT_XS:
                if abs(u[_profile_index(x)] - numeric_at[t, x]) > 1e-12:
                    raise ValueError(f"profile t={t} disagrees with the report "
                                     f"at x={x}")
    return worst


def check_case3_run(run: Run, out_dir: Path) -> None:
    """Gate a case-3 run."""
    stem = _stem(run)
    if run.fmt == "md":
        text = (out_dir / f"report_{stem}.md").read_text()
        if not text.startswith(f"# Case 3 (Neumann), Re = {run.reynolds:g}, "
                               f"N_p = {run.n_points}\n"):
            raise ValueError("markdown report has the wrong title")
        for t in run.times:
            if f"\n| {t:g} | " not in text:
                raise ValueError(f"markdown report has no row for t={t:g}")
        return

    rows = _read_csv(out_dir / f"report_{stem}.csv",
                     "time,antisymmetry,center_abs,neumann_left,neumann_right,"
                     "front_oscillation")
    if [float(r[0]) for r in rows] != list(run.times):
        raise ValueError("case-3 report rows do not match the report times")
    for r in rows:
        anti, centre, left, right = (float(v) for v in r[1:5])
        if not max(anti, centre) <= CASE3_SYMMETRY_TOL:
            raise ValueError(f"t={r[0]}: antisymmetry {anti:.3g} or "
                             f"|u(1/2)| {centre:.3g} > {CASE3_SYMMETRY_TOL}")
        if not max(left, right) <= CASE3_SLOPE_TOL:
            raise ValueError(f"t={r[0]}: boundary slope residuals "
                             f"{left:.3g}, {right:.3g} > {CASE3_SLOPE_TOL}")
    if run.profiles:
        for t in run.times:
            u = _read_profile(out_dir / f"profile_{stem}_t{t:g}.csv")
            defect = max(float(np.max(np.abs(u + u[::-1]))),
                         abs(u[_profile_index(0.5)]))
            if not defect <= CASE3_SYMMETRY_TOL:
                raise ValueError(f"profile t={t:g} is not antisymmetric: "
                                 f"{defect:.3g}")
