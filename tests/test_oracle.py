"""Series-solution oracle: coefficients, published-value reproduction, shape."""

import math
import warnings

import numpy as np
import pytest

import wavecol as w
from wavecol import oracle
from scipy.integrate import quad, trapezoid
from scipy.special import ive

from wavecol.errors import SeriesAccuracyError
from wavecol.oracle import (MAX_REL_ERROR, MIN_TIME, POLY_4X_1MX, QUAD_TOL,
                            SIN_PI)

SIN_RE1 = w.ExactSolutionSpec(reynolds=1.0, ic_family=SIN_PI)
SIN_RE10 = w.ExactSolutionSpec(reynolds=10.0, ic_family=SIN_PI)
POLY_RE1 = w.ExactSolutionSpec(reynolds=1.0, ic_family=POLY_4X_1MX)
POLY_RE10 = w.ExactSolutionSpec(reynolds=10.0, ic_family=POLY_4X_1MX)

# published EXACT rows of the comparison tables (5 decimals, locations
# 0.1 .. 0.9); the oracle must land within one ulp of the printed digit
PUBLISHED_EXACT = {
    (SIN_RE1, 0.05): (0.17803, 0.47586, 0.60907, 0.51113, 0.19989),
    (SIN_RE1, 0.1): (0.10954, 0.29190, 0.37158, 0.30991, 0.12069),
    (SIN_RE1, 0.2): (0.04193, 0.11062, 0.13847, 0.11347, 0.04369),
    (SIN_RE10, 0.5): (0.10992, 0.32219, 0.50279, 0.57585, 0.30935),
    (SIN_RE10, 1.0): (0.06632, 0.19279, 0.29192, 0.30809, 0.14607),
    (SIN_RE10, 2.0): (0.02876, 0.07946, 0.10789, 0.09685, 0.03969),
    (POLY_RE1, 0.05): (0.18389, 0.49093, 0.62808, 0.52793, 0.20690),
    (POLY_RE1, 0.1): (0.11289, 0.30097, 0.38342, 0.32007, 0.12472),
    (POLY_RE1, 0.2): (0.04324, 0.11410, 0.14289, 0.11713, 0.04511),
    (POLY_RE10, 0.5): (0.11266, 0.33010, 0.51540, 0.59304, 0.32175),
    (POLY_RE10, 1.0): (0.06750, 0.19647, 0.29834, 0.31656, 0.15097),
    (POLY_RE10, 2.0): (0.02929, 0.08101, 0.11020, 0.09915, 0.04070),
}
LOCATIONS = (0.1, 0.3, 0.5, 0.7, 0.9)


def _trapezoid_moments(spec, last, nodes=1 << 16):
    """c_0 .. c_last by the trapezoid rule on `nodes` equal cells, all
    from one FFT of the even extension of the transformed data."""
    theta = oracle._transformed_ic(spec, np.linspace(0.0, 1.0, nodes + 1))
    sums = np.fft.rfft(np.concatenate([theta, theta[-2:0:-1]])).real
    moments = sums[:last + 1] / nodes
    moments[0] /= 2.0
    return moments


def _long_sum(spec, x, t, terms):
    """u(x, t) from `terms` terms: the oracle's own moments up to
    MAX_TERMS, trapezoid ones past it, each sum taken exactly (fsum)."""
    own = [oracle._coefficient(spec, n)[0] for n in range(oracle.MAX_TERMS + 1)]
    moments = np.concatenate([
        own, _trapezoid_moments(spec, terms)[oracle.MAX_TERMS + 1:]])
    n = np.arange(terms + 1)
    damped = moments * np.exp(-math.pi**2 * t / spec.reynolds * n * n)
    return (2.0 * math.pi / spec.reynolds
            * math.fsum(damped * n * np.sin(n * math.pi * x))
            / math.fsum(damped * np.cos(n * math.pi * x)))


class TestSpecValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError, match="reynolds"):
            w.ExactSolutionSpec(reynolds=0.0, ic_family=SIN_PI)
        with pytest.raises(ValueError, match="ic_family"):
            w.ExactSolutionSpec(reynolds=1.0, ic_family="bogus")
        for reynolds in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                w.ExactSolutionSpec(reynolds=reynolds, ic_family=SIN_PI)


class TestFourierCoefficients:
    def test_vanishing_exponent_limit(self):
        # as the exponent scale goes to zero the transformed data tends to
        # the constant 1: the mean tends to 1 and the oscillatory moments to 0
        tiny = w.ExactSolutionSpec(reynolds=1e-8, ic_family=SIN_PI)
        assert oracle._coefficient(tiny, 0)[0] == pytest.approx(1.0, abs=1e-8)
        assert abs(oracle._coefficient(tiny, 1)[0]) <= 1e-8
        assert abs(oracle._coefficient(tiny, 5)[0]) <= 1e-8

    def test_mean_against_independent_trapezoid(self):
        xs = np.linspace(0.0, 1.0, 100_001)
        weight = np.exp(-(1.0 / (2.0 * math.pi)) * (1.0 - np.cos(math.pi * xs)))
        reference = trapezoid(weight, xs)
        assert oracle._coefficient(SIN_RE1, 0)[0] == pytest.approx(
            reference, abs=1e-10)

    def test_oscillatory_moment_against_independent_trapezoid(self):
        xs = np.linspace(0.0, 1.0, 100_001)
        weight = np.exp(-xs * xs * (10.0 / 3.0) * (3.0 - 2.0 * xs))
        reference = 2.0 * trapezoid(weight * np.cos(3 * math.pi * xs), xs)
        assert oracle._coefficient(POLY_RE10, 3)[0] == pytest.approx(
            reference, abs=1e-10)

    @pytest.mark.parametrize("family", [SIN_PI, POLY_4X_1MX])
    @pytest.mark.parametrize("reynolds", [1.0, 10.0, 80.0])
    def test_moments_match_adaptive_quadrature(self, family, reynolds):
        # every moment against scipy's adaptive quadrature of the transformed
        # data, written out here: exp(-(Re/2) F), F the antiderivative of
        # u_0.  The ten Gauss nodes of every cell go to the integrand in one
        # call
        if family == SIN_PI:
            def transformed(x):
                return math.exp(-reynolds * (1.0 - math.cos(math.pi * x))
                                / (2.0 * math.pi))
        else:
            def transformed(x):
                return math.exp(-reynolds * x * x * (1.0 - 2.0 * x / 3.0))
        spec = w.ExactSolutionSpec(reynolds=reynolds, ic_family=family)
        for n in (0, 1, 7, 40):
            reference, _ = quad(
                lambda x: transformed(x) * math.cos(n * math.pi * x), 0.0, 1.0,
                epsabs=1e-14, epsrel=0.0, limit=400)
            factor = 1.0 if n == 0 else 2.0
            moment, change = oracle._coefficient(spec, n)
            assert change <= factor * QUAD_TOL
            assert abs(moment - factor * reference) <= factor * QUAD_TOL

            calls = []

            def integrand(x):
                calls.append(x.shape)
                return oracle._transformed_ic(spec, x) * np.cos(n * math.pi * x)

            for cells in (8, 64, 1024):
                calls.clear()
                oracle._composite_gauss(integrand, cells)
                assert calls == [(10, cells)]

    def test_unreachable_tolerance_raises(self, monkeypatch):
        # at Re = 1000 the moments n <= 2 need a second doubling of their
        # 8 starting cells; allow only one.  The moment cache is cleared
        # before, so that no earlier test's moment is served from it, and
        # after, so that this test leaves nothing in it
        oracle._coefficient.cache_clear()
        monkeypatch.setattr(oracle, "_MAX_CELLS", 8)
        steep = w.ExactSolutionSpec(reynolds=1000.0, ic_family=SIN_PI)
        try:
            with pytest.raises(w.QuadratureError, match="tol"):
                oracle._coefficient(steep, 2)
        finally:
            oracle._coefficient.cache_clear()


class TestExactSolution:
    def test_zero_at_both_boundaries(self):
        for t in (0.05, 0.3, 1.7):
            assert w.exact_u(SIN_RE1, 0.0, t) == 0.0
            assert w.exact_u(SIN_RE1, 1.0, t) == 0.0
            assert w.exact_u(POLY_RE10, 0.0, t) == 0.0

    def test_published_anchor_values(self):
        assert w.exact_u(SIN_RE1, 0.5, 0.1) == pytest.approx(0.37158, abs=5e-6)
        assert w.exact_u(POLY_RE10, 0.5, 2.0) == pytest.approx(0.11020, abs=5e-6)

    @pytest.mark.parametrize("key", sorted(PUBLISHED_EXACT, key=str))
    def test_published_exact_rows_within_one_printed_ulp(self, key):
        spec, t = key
        for x, printed in zip(LOCATIONS, PUBLISHED_EXACT[key]):
            assert w.exact_u(spec, x, t) == pytest.approx(printed, abs=1.0e-5)

    def test_time_domain_guards(self):
        with pytest.raises(ValueError, match="t > 0"):
            w.exact_u(SIN_RE1, 0.5, 0.0)
        with pytest.raises(ValueError, match="t > 0"):
            w.exact_u(SIN_RE1, 0.5, -0.3)
        with pytest.raises(ValueError, match="truncation"):
            w.exact_u(SIN_RE1, 0.5, MIN_TIME / 2.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected_before_summing(self, t, monkeypatch):
        def no_moment(*args):
            raise AssertionError("exact_u summed the series")

        monkeypatch.setattr(oracle, "_coefficient", no_moment)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                w.exact_u(SIN_RE1, 0.5, t)

    def test_position_domain_guard(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            w.exact_u(SIN_RE1, 1.2, 0.1)

    def test_truncation_warning_when_terms_run_out(self):
        # at the earliest admitted time these series are still not quiet
        # after MAX_TERMS terms.  At Re = 10 the moments' n^-2 decay bounds
        # the unsummed tails well below MAX_REL_ERROR, and the values
        # served are those of 1500 terms but for the tail past term 400,
        # 5e-15 and 1.3e-14 of u; at Re = 60 and x = 0.5 the bound
        # refuses a value that a charge of the last terms alone served as
        # 0.9999801, where 1500 terms give 0.9999866
        for x in (0.7, 0.9):
            with pytest.warns(RuntimeWarning, match="MAX_TERMS"):
                value = w.exact_u(POLY_RE10, x, MIN_TIME)
            longer = _long_sum(POLY_RE10, x, MIN_TIME, 1500)
            assert abs(value - longer) <= 2e-14 * abs(longer)
        re60 = w.ExactSolutionSpec(reynolds=60.0, ic_family=POLY_4X_1MX)
        with pytest.warns(RuntimeWarning, match="MAX_TERMS"):
            with pytest.raises(SeriesAccuracyError) as info:
                w.exact_u(re60, 0.5, MIN_TIME)
        assert info.value.estimate > MAX_REL_ERROR
        assert _long_sum(re60, 0.5, MIN_TIME, 1500) == pytest.approx(
            0.9999866, abs=1e-7)

    @pytest.mark.parametrize("family", [SIN_PI, POLY_4X_1MX])
    @pytest.mark.parametrize("reynolds", [1.0, 10.0, 60.0])
    def test_tail_bounds_hold_the_summed_tails(self, family, reynolds):
        # the moments themselves obey |c_n| <= 2 Re / (n pi)^2, and their
        # tails past term 400 stay under the bounds at the earliest
        # admitted times
        spec = w.ExactSolutionSpec(reynolds=reynolds, ic_family=family)
        moments = _trapezoid_moments(spec, 8192)
        n = np.arange(1, 8193, dtype=float)
        assert np.all(np.abs(moments[1:]) <= 2.0 * reynolds / (n * math.pi)**2)
        tail, n = np.abs(moments[401:]), n[400:]
        for t in (MIN_TIME, 3e-4, 1e-3):
            decay = math.pi**2 * t / reynolds
            damping = np.exp(-decay * n * n)
            tail_num, tail_den = oracle._tail_bounds(decay, 400, reynolds)
            assert math.fsum(tail * n * damping) <= tail_num
            assert math.fsum(tail * damping) <= tail_den

    @pytest.mark.parametrize("decay", [1e-7, 1e-6, 3.125e-6, 1e-5, 1e-4])
    @pytest.mark.parametrize("reynolds", [1.0, 60.0])
    def test_tail_bounds_hold_for_the_largest_moments(self, decay, reynolds):
        # moments as large as |c_n| <= 2 Re / (n pi)^2 allows; at the
        # smallest decay the terms past 200000 are below e^-4000 of these
        n = np.arange(401, 200_001, dtype=float)
        largest = 2.0 * reynolds / (n * math.pi)**2
        damping = np.exp(-decay * n * n)
        tail_num, tail_den = oracle._tail_bounds(decay, 400, reynolds)
        assert math.fsum(largest * n * damping) <= tail_num
        assert math.fsum(largest * damping) <= tail_den

    @pytest.mark.parametrize("reynolds", [100.0, 150.0, 200.0])
    def test_cancelled_series_is_refused(self, reynolds):
        # at t = 0.5, x = 0.9 the denominator's sum of |term| exceeds the
        # sum itself by 9e9 at Re = 100 and 1e16 at Re = 200; unchecked,
        # Re = 150 gave u = 1.0137, above the maximum of the initial data
        spec = w.ExactSolutionSpec(reynolds=reynolds, ic_family=SIN_PI)
        with pytest.raises(SeriesAccuracyError) as info:
            w.exact_u(spec, 0.9, 0.5)
        assert info.value.estimate > MAX_REL_ERROR

    @staticmethod
    def _assert_served_within_the_bound(reynolds):
        # the Bessel closed form c_0 = ive(0, k), c_n = 2 ive(n, k),
        # k = Re/2pi, carries no quadrature error
        k, n = reynolds / (2.0 * math.pi), np.arange(1, 200)
        spec = w.ExactSolutionSpec(reynolds=reynolds, ic_family=SIN_PI)
        for t in (0.5, 1.0, 2.0):
            decayed = 2.0 * ive(n, k) * np.exp(-n * n * math.pi**2 * t / reynolds)
            for x in LOCATIONS:
                closed = (2.0 * math.pi / reynolds
                          * np.sum(decayed * n * np.sin(n * math.pi * x))
                          / (ive(0, k) + np.sum(decayed * np.cos(n * math.pi * x))))
                value = w.exact_u(spec, x, t)
                assert abs(value - closed) <= MAX_REL_ERROR * abs(closed)

    def test_served_values_hold_the_bound_at_re_50(self):
        self._assert_served_within_the_bound(50.0)

    def test_served_values_hold_the_bound_at_re_80(self):
        # served because each moment is charged its own last doubling
        # change: the worst estimate over the report grid is 3.0e-8, and the
        # true error 3.4e-9
        self._assert_served_within_the_bound(80.0)

    def test_decays_in_time_over_the_tabulated_ranges(self):
        ranges = {SIN_RE1: (0.05, 0.2), POLY_RE1: (0.05, 0.2),
                  SIN_RE10: (0.5, 2.0), POLY_RE10: (0.5, 2.0)}
        for spec, (t_lo, t_hi) in ranges.items():
            for x in (0.1, 0.5, 0.9):
                values = [w.exact_u(spec, x, float(t))
                          for t in np.linspace(t_lo, t_hi, 12)]
                assert all(b < a for a, b in zip(values, values[1:]))

    def test_spatially_smooth_by_difference_ratio(self):
        # centered differences of step h and h/2: the error ratio of a
        # second-order formula on a smooth function is ~4
        x, t, h = 0.37, 0.1, 2e-3

        def central(step):
            return (w.exact_u(SIN_RE1, x + step, t)
                    - w.exact_u(SIN_RE1, x - step, t)) / (2.0 * step)

        coarse, mid, fine = central(h), central(h / 2), central(h / 4)
        ratio = (coarse - mid) / (mid - fine)
        assert 4.0 / 4.5 <= abs(ratio) <= 4.0 * 4.5


class TestTableValues:
    def test_shape_matches_request(self):
        grid = w.table_values(SIN_RE1, (0.05, 0.1), LOCATIONS)
        assert grid.shape == (2, 5)

    def test_empty_locations_give_empty_matrix(self):
        grid = w.table_values(SIN_RE1, (0.05, 0.1), ())
        assert grid.shape == (2, 0)

    def test_higher_reynolds_steepens_front_toward_right_end(self):
        xs = np.linspace(0.0, 1.0, 201)
        slow = w.table_values(w.ExactSolutionSpec(5.0, SIN_PI), (0.5,), xs)[0]
        fast = w.table_values(w.ExactSolutionSpec(30.0, SIN_PI), (0.5,), xs)[0]
        assert np.argmax(fast) > np.argmax(slow)
