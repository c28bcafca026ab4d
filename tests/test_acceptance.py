"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines.

Two criteria needed more than the package as first written:

* Criterion 1 checks the exact-solution oracle against every printed
  5-decimal EXACT table value at tolerance 5e-6.  One published entry
  (case 1, Re = 1, t = 0.05, x = 0.7, printed 0.51113) is mis-rounded.
  For sin(pi x) data the Cole-Hopf coefficients have the closed form
  c_0 = ive(0, Re / 2 pi), c_n = 2 ive(n, Re / 2 pi), which gives
  0.51112496793: 3.2e-8 below the rounding midpoint, so the correct
  digit is 0.51112.  The table is kept verbatim; ERRATA holds the
  corrected digit, and the test proves it from the closed form before
  using it.  The test also checks the oracle against the closed form
  to 1e-12 at all 30 sin(pi x) table points.

* Criterion 6 requires the Neumann front case at report times 0.1, 0.5
  and 1.0.  With the paper's compounded second derivative D*D and
  first-derivative Neumann rows the run blows up near t = 0.26 whatever
  the time step or theta.  The solver therefore uses the weak P1
  Laplacian for Neumann data (see wavecol.solver), which stays bounded
  to t = 1; test_bench.py checks that case 3 then converges toward an
  independent fine-grid finite-difference solution.
"""

import math
import time

import numpy as np
from scipy.special import ive

import wavecol as w
from wavecol.basis import WAVELET
from wavecol.errors import DivergenceError
from wavecol.oracle import POLY_4X_1MX, SIN_PI
from wavecol.published import AVERAGE_REL_ERRORS, COMPARISON_X, PROFILE_ROWS

from conftest import _benchmark_run, _operator_bundle
from exact_reference import integrate_product, project_l2

XS = COMPARISON_X

PRINTED_EXACT = {
    (SIN_PI, 1.0): {
        0.05: (0.17803, 0.47586, 0.60907, 0.51113, 0.19989),
        0.1: (0.10954, 0.29190, 0.37158, 0.30991, 0.12069),
        0.2: (0.04193, 0.11062, 0.13847, 0.11347, 0.04369),
    },
    (SIN_PI, 10.0): {
        0.5: (0.10992, 0.32219, 0.50279, 0.57585, 0.30935),
        1.0: (0.06632, 0.19279, 0.29192, 0.30809, 0.14607),
        2.0: (0.02876, 0.07946, 0.10789, 0.09685, 0.03969),
    },
    (POLY_4X_1MX, 1.0): {
        0.05: (0.18389, 0.49093, 0.62808, 0.52793, 0.20690),
        0.1: (0.11289, 0.30097, 0.38342, 0.32007, 0.12472),
        0.2: (0.04324, 0.11410, 0.14289, 0.11713, 0.04511),
    },
    (POLY_4X_1MX, 10.0): {
        0.5: (0.11266, 0.33010, 0.51540, 0.59304, 0.32175),
        1.0: (0.06750, 0.19647, 0.29834, 0.31656, 0.15097),
        2.0: (0.02929, 0.08101, 0.11020, 0.09915, 0.04070),
    },
}


#: Printed EXACT entries that are not the correct rounding of the exact
#: solution: (family, Re, t, x) -> (corrected digit, reason).  Each one is
#: proven by the closed form in test_criterion_1_oracle_fidelity.
ERRATA = {
    (SIN_PI, 1.0, 0.05, 0.7): (
        0.51112,
        "printed 0.51113, but the exact value 0.51112496793 lies 3.2e-8 "
        "below the rounding midpoint 0.511125 and rounds to 0.51112"),
}


def _sin_pi_closed_form(reynolds: float, x: float, t: float) -> float:
    """Cole-Hopf series for sin(pi x) data with Bessel-function coefficients.

    The transformed initial data exp(-k (1 - cos pi x)), k = Re / (2 pi),
    have cosine moments e^-k I_n(k); ive carries that scaling, and the
    factor e^-k cancels between numerator and denominator.
    """
    k = reynolds / (2.0 * math.pi)
    n = np.arange(1, 101)
    decayed = 2.0 * ive(n, k) * np.exp(-n * n * math.pi ** 2 * t / reynolds)
    numerator = np.sum(decayed * n * np.sin(n * math.pi * x))
    denominator = ive(0, k) + np.sum(decayed * np.cos(n * math.pi * x))
    return float(2.0 * math.pi / reynolds * numerator / denominator)


def _verdict(number: int, description: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number}] {status} - {description}")
    for line in failures:
        print(f"    {line}")
    assert not failures, (
        f"criterion {number} ({description}): {len(failures)} failure(s):\n"
        + "\n".join(failures))


def test_criterion_1_oracle_fidelity():
    started = time.perf_counter()
    failures = []
    if len(ERRATA) != 1:
        failures.append(f"expected exactly one erratum, found {len(ERRATA)}")
    expected = {}
    for (family, reynolds, t, x), (corrected, reason) in ERRATA.items():
        printed = PRINTED_EXACT[(family, reynolds)][t][XS.index(x)]
        if round(abs(corrected - printed) * 1e5) != 1 or corrected == printed:
            failures.append(
                f"erratum {family} Re={reynolds} t={t} x={x}: corrected "
                f"{corrected:.5f} is not one unit in the fifth decimal from "
                f"printed {printed:.5f}")
        closed = _sin_pi_closed_form(reynolds, x, t)
        if family != SIN_PI or f"{closed:.5f}" != f"{corrected:.5f}":
            failures.append(
                f"erratum {family} Re={reynolds} t={t} x={x}: closed form "
                f"{closed:.11f} does not round to {corrected:.5f} ({reason})")
        expected[(family, reynolds, t, x)] = corrected
    for (family, reynolds), rows in PRINTED_EXACT.items():
        spec = w.ExactSolutionSpec(reynolds=reynolds, ic_family=family)
        for t, printed_row in rows.items():
            for x, printed in zip(XS, printed_row):
                reference = expected.get((family, reynolds, t, x), printed)
                value = w.exact_u(spec, x, t)
                if abs(value - reference) > 5e-6:
                    failures.append(
                        f"{family} Re={reynolds} t={t} x={x}: oracle "
                        f"{value:.8f} vs table {reference:.5f} "
                        f"(|diff| {abs(value - reference):.3e} > 5e-6)")
                if family == SIN_PI:
                    closed = _sin_pi_closed_form(reynolds, x, t)
                    if abs(value - closed) > 1e-12:
                        failures.append(
                            f"{family} Re={reynolds} t={t} x={x}: oracle "
                            f"{value:.15f} vs Bessel closed form "
                            f"{closed:.15f} (|diff| "
                            f"{abs(value - closed):.3e} > 1e-12)")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5s")
    _verdict(1, "oracle reproduces the EXACT rows within 5e-6 (one proven "
                "erratum) and the sin(pi x) closed form within 1e-12",
             failures)


def test_criterion_2_solver_accuracy_case1():
    started = time.perf_counter()
    failures = []
    for reynolds in (1.0, 10.0):
        result = _benchmark_run(1, reynolds, 33)
        report = result.report
        for i, t in enumerate(result.case.report_times):
            for j, x in enumerate(XS):
                if report.abs_err[i, j] > 1e-3:
                    failures.append(
                        f"Re={reynolds} t={t} x={x}: |numeric - exact| "
                        f"= {report.abs_err[i, j]:.3e} > 1e-3")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _verdict(2, "case 1 at 33 points within 1e-3 of the oracle", failures)


def test_criterion_3_solver_accuracy_case2():
    started = time.perf_counter()
    failures = []
    for reynolds in (1.0, 10.0):
        result = _benchmark_run(2, reynolds, 33)
        report = result.report
        for i, t in enumerate(result.case.report_times):
            for j, x in enumerate(XS):
                if report.abs_err[i, j] > 1e-3:
                    failures.append(
                        f"Re={reynolds} t={t} x={x}: |numeric - exact| "
                        f"= {report.abs_err[i, j]:.3e} > 1e-3")
        for t in result.case.report_times:
            average = report.avg_rel_err[t]
            if average > 1e-3:
                failures.append(
                    f"Re={reynolds} t={t}: average relative error "
                    f"{average:.3e} > 1e-3")
            stored_ifdm = AVERAGE_REL_ERRORS[("ifdm", reynolds, t)]
            if stored_ifdm > 1e-2 and average > stored_ifdm / 10.0:
                failures.append(
                    f"Re={reynolds} t={t}: average {average:.3e} not 10x "
                    f"below published IFDM {stored_ifdm:.3e}")
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _verdict(3, "case 2 within 1e-3 and 10x below IFDM averages", failures)


def test_criterion_4_metric_self_validation():
    failures = []
    for reynolds in (1.0, 10.0):
        result = _benchmark_run(2, reynolds, 33)
        for method in ("ifdm", "bem"):
            for t in result.case.report_times:
                computed = result.report.comparator_avg[method][t]
                stored = AVERAGE_REL_ERRORS[(method, reynolds, t)]
                if abs(computed - stored) > 0.05 * stored:
                    failures.append(
                        f"{method} Re={reynolds} t={t}: computed "
                        f"{computed:.3e} vs published {stored:.3e} "
                        f"(off by more than 5%)")
    _verdict(4, "metric reproduces published comparator averages within 5%",
             failures)


def test_criterion_5_mesh_convergence():
    failures = []
    errors = []
    for n_points in (9, 17, 33, 65):
        report = _benchmark_run(1, 1.0, n_points).report
        errors.append((n_points, float(np.max(report.abs_err[1]))))  # t = 0.1
    for (n_a, err_a), (n_b, err_b) in zip(errors, errors[1:]):
        if err_b > err_a * (1.0 + 1e-12):
            failures.append(
                f"max error grew from {err_a:.3e} (N_p={n_a}) to "
                f"{err_b:.3e} (N_p={n_b})")
    print("    mesh-convergence errors:",
          ", ".join(f"N_p={n}: {e:.3e}" for n, e in errors))
    _verdict(5, "case 1 error non-increasing across N_p = 9, 17, 33, 65",
             failures)


def _case3_properties(n_points: int, t: float):
    """Antisymmetry, center value, boundary slopes, and front oscillation."""
    case = w.case_definition(3, times=(t,))
    result = w.run_case(case, n_points)
    report = result.report
    return (report.antisymmetry[t], report.center_abs[t],
            report.neumann_residuals[t], report.front_oscillation[t])


def test_criterion_6_case3_properties():
    failures = []
    for t in (0.1, 0.5, 1.0):
        try:
            anti, center, (left, right), wiggle_33 = _case3_properties(33, t)
            _, _, _, wiggle_17 = _case3_properties(17, t)
        except DivergenceError as exc:
            failures.append(
                f"t={t}: unreachable, solver diverged at t={exc.time:.3f} "
                f"(the solver should use the weak second derivative for "
                f"Neumann data; see module docstring)")
            continue
        if anti > 1e-6:
            failures.append(f"t={t}: antisymmetry defect {anti:.3e} > 1e-6")
        if center > 1e-6:
            failures.append(f"t={t}: |u(0.5)| = {center:.3e} > 1e-6")
        if max(left, right) > 1e-8:
            failures.append(
                f"t={t}: boundary slope residual {max(left, right):.3e} > 1e-8")
        if wiggle_33 > wiggle_17:
            failures.append(
                f"t={t}: front oscillation at 33 points ({wiggle_33:.4f}) "
                f"exceeds that at 17 points ({wiggle_17:.4f})")
    _verdict(6, "Neumann front case properties at t = 0.1, 0.5, 1.0", failures)


def test_criterion_7_basis_and_operator_properties():
    failures = []
    for level in (4, 5):
        spec, gram, dual, deriv_op = _operator_bundle(level)
        n = spec.n_functions

        rng = np.random.default_rng(123)
        xs = rng.uniform(0.0, 1.0, 10_000)
        # the five level-2 hats lead index_map
        totals = w.basis_matrix(spec, xs)[:, :5].sum(axis=1)
        for x, total in zip(xs, totals):
            if abs(total - 1.0) > 1e-12:
                failures.append(f"M={level}: partition of unity off at x={x}")
                break

        if not np.array_equal(gram, gram.T):
            failures.append(f"M={level}: Gram matrix not symmetric")
        if np.linalg.eigvalsh(gram).min() <= 0.0:
            failures.append(f"M={level}: Gram matrix not positive definite")

        worst_cross = max(
            (abs(gram[i, j])
             for i, a in enumerate(spec.index_map)
             for j, b in enumerate(spec.index_map)
             if (a.kind != b.kind)
             or (a.kind == WAVELET and a.level != b.level)),
            default=0.0)
        if worst_cross > 1e-12:
            failures.append(
                f"M={level}: cross-block Gram entry {worst_cross:.3e} > 1e-12")

        dual_residual = np.max(np.abs(gram @ dual - np.eye(n)))
        if dual_residual > 1e-10:
            failures.append(
                f"M={level}: dual identity residual {dual_residual:.3e} > 1e-10")

        affine = project_l2(lambda x: 0.4 + 1.7 * x, spec, dual)
        if np.max(np.abs(affine[5:])) > 1e-10:
            failures.append(f"M={level}: affine data leaks into detail levels")
        slope_errors = np.abs(
            w.basis_matrix(spec, np.linspace(0.0, 1.0, 101))
            @ (deriv_op.T @ affine) - 1.7)
        if max(slope_errors) > 1e-9:
            failures.append(
                f"M={level}: affine slope error {max(slope_errors):.3e} > 1e-9")

    failures.extend(_rescaling_invariance_failures())
    _verdict(7, "basis and operator property suite", failures)


def _rescaling_invariance_failures() -> list[str]:
    spec = w.BasisSpec(max_level=3)
    pieces = w.basis_piecewise(spec)
    n = spec.n_functions
    k, factor = 7, 3.0
    scaled = list(pieces)
    scaled[k] = w.PiecewiseLinear(
        pieces[k].breakpoints,
        tuple(factor * s for s in pieces[k].slopes),
        tuple(factor * b for b in pieces[k].intercepts))
    gram_scaled = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            gram_scaled[i, j] = gram_scaled[j, i] = integrate_product(
                scaled[i], scaled[j])
    dual = w.dual_transform(w.gram_matrix(spec))
    dual_scaled = w.dual_transform(gram_scaled)

    f = lambda x: np.sin(np.pi * x)
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(5)
    moments = np.empty(n)
    for i, piece in enumerate(scaled):
        acc = 0.0
        for left, right in zip(piece.breakpoints, piece.breakpoints[1:]):
            mid, half = float(left + right) / 2.0, float(right - left) / 2.0
            xs = mid + half * gauss_x
            acc += half * np.sum(gauss_w * f(xs)
                                 * np.array([piece(x) for x in xs]))
        moments[i] = acc
    coeffs_scaled = dual_scaled @ moments
    base = project_l2(f, spec, dual)
    failures = []
    xs = np.linspace(0.0, 1.0, 33)
    for x, reference in zip(xs, w.basis_matrix(spec, xs) @ base):
        rescaled = sum(coeffs_scaled[i] * scaled[i](float(x)) for i in range(n))
        if abs(rescaled - reference) > 1e-9:
            failures.append(
                f"rescaling invariance broken at x={x:.3f}: "
                f"{abs(rescaled - reference):.3e} > 1e-9")
            break
    return failures


def test_criterion_8_published_constants_consumed_not_recomputed():
    failures = []
    expected_tables = {(1, 1.0), (1, 10.0), (2, 1.0), (2, 10.0)}
    if set(PROFILE_ROWS) != expected_tables:
        failures.append(f"stored tables {set(PROFILE_ROWS)} != {expected_tables}")
    for key, by_time in PROFILE_ROWS.items():
        if len(by_time) != 3:
            failures.append(f"{key}: expected 3 report times")
        for t, methods in by_time.items():
            for method, row in methods.items():
                if len(row) != 5:
                    failures.append(f"{key} t={t} {method}: row length != 5")
    if len(AVERAGE_REL_ERRORS) != 18:
        failures.append("expected 18 published average-error cells")
    spot = PROFILE_ROWS[(1, 1.0)][0.05]["ifdm"][0]
    if spot != 0.17832:
        failures.append(f"spot check failed: {spot} != 0.17832")
    # nothing in the package computes IFDM or BEM solutions; their values
    # exist only as the constants checked above
    _verdict(8, "comparator methods consumed as published constants", failures)
