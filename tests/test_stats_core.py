"""Distribution functions and the self-normalized statistic.

Expected values marked as oracle-derived were computed by the quadrature
helpers below (Simpson integration of the densities) and frozen; the
helpers rerun here so the constants stay pinned to an independent route.
"""

import math
import warnings

import numpy as np
import pytest

from multiscreen import (InputError, DegenerateColumnError, NumericalError,
                         TStat, chi2_cdf, chi2_quantile, normal_cdf,
                         normal_quantile, self_normalized_t,
                         theoretical_alpha1)
import multiscreen.stats_core as stats_core
from multiscreen.simulate import _rep_rng, _uniform_open
from multiscreen.stats_core import (_NQ_BLOCK, _as_float_array, _erfc,
                                    _erfc_large, _erfc_mid, _erfc_small,
                                    _erfc_scalar, _normal_quantile_scalar)


def simpson(f, lo, hi, n=20001):
    """Composite Simpson integration on an odd-count grid."""
    xs = np.linspace(lo, hi, n)
    ys = f(xs)
    h = (hi - lo) / (n - 1)
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum()
                      + 2.0 * ys[2:-1:2].sum())


def normal_cdf_quadrature(z):
    density = lambda t: np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    return 0.5 + math.copysign(simpson(density, 0.0, abs(z)), z)


def chi2_cdf_quadrature(x, df):
    if x <= 0.0:
        return 0.0
    if df == 1:
        # The density is singular at zero; substitute t = u^2, which turns
        # the integral into a normal one: cdf(x) = 2 Phi(sqrt(x)) - 1.
        return 2.0 * normal_cdf_quadrature(math.sqrt(x)) - 1.0
    half = df / 2.0
    log_norm = half * math.log(2.0) + math.lgamma(half)

    def density(t):
        t = np.maximum(t, 1e-300)
        return np.exp((half - 1.0) * np.log(t) - t / 2.0 - log_norm)

    return simpson(density, 1e-12, x, n=200001)


class TestNormalCdf:
    def test_symmetry_point(self):
        assert normal_cdf(0.0) == 0.5

    def test_threshold_309_matches_999_quantile(self):
        assert normal_cdf(3.0902) == pytest.approx(0.999, abs=1e-4)

    def test_lower_tail_against_quadrature(self):
        # Oracle gives 0.024999999 for z = -1.959964.
        assert normal_cdf_quadrature(-1.959964) == pytest.approx(0.025, abs=1e-6)
        assert normal_cdf(-1.959964) == pytest.approx(0.025, abs=1e-6)

    def test_against_quadrature_grid(self):
        for z in (-4.0, -2.5, -1.0, -0.3, 0.7, 1.9, 3.3):
            assert normal_cdf(z) == pytest.approx(normal_cdf_quadrature(z),
                                                  abs=1e-10)

    def test_against_stdlib_erfc(self):
        zs = np.linspace(-9.0, 9.0, 4001)
        ref = np.array([0.5 * math.erfc(-z / math.sqrt(2)) for z in zs])
        assert np.max(np.abs(normal_cdf(zs) - ref)) < 1e-12

    def test_monotone(self):
        zs = np.linspace(-10, 10, 5001)
        vals = normal_cdf(zs)
        assert np.all(np.diff(vals) >= 0.0)

    def test_far_tails_warning_free(self):
        # Far-tail lanes must not overflow in any erfc branch: ax * ax in
        # the far-tail branch overflowed above about 1.9e154. A float takes
        # the array path too; _erfc_scalar must agree with it.
        zs = np.array([40.0, -40.0, 1e100, -1e100, 1e150, -1e150, 1e160,
                       -1e160, 1e300, -1e300, 1.7e308, -1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(normal_cdf(zs), [1.0, 0.0] * 6)
            assert [normal_cdf(float(z)) for z in zs] == [1.0, 0.0] * 6
            xs = -zs / math.sqrt(2.0)
            assert np.array_equal(_bits([_erfc_scalar(float(x)) for x in xs]),
                                  _bits(_erfc(xs)))

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            normal_cdf(math.nan)
        with pytest.raises(InputError):
            normal_cdf(math.inf)


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_paper_threshold(self):
        assert normal_quantile(0.999) == pytest.approx(3.0902, abs=1e-4)

    def test_default_alpha1_threshold(self):
        # Bisection on normal_cdf gives 3.890592 for p = 0.99995.
        lo, hi = 0.0, 10.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if normal_cdf(mid) < 0.99995:
                lo = mid
            else:
                hi = mid
        assert normal_quantile(0.99995) == pytest.approx(0.5 * (lo + hi),
                                                         abs=1e-9)
        assert normal_quantile(0.99995) == pytest.approx(3.8906, abs=1e-4)

    def test_round_trip(self):
        ps = np.concatenate([np.geomspace(1e-12, 0.5, 500),
                             1.0 - np.geomspace(1e-12, 0.5, 500)])
        back = normal_cdf(normal_quantile(ps))
        assert np.max(np.abs(back - ps)) < 1e-9

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7, math.nan, math.inf):
            with pytest.raises(InputError):
                normal_quantile(bad)

    def test_scalar_matches_array_bitwise(self):
        # A float takes the scalar path, an array the vectorized one; both
        # branches of the rational start and all three erfc branches of
        # the Newton step are covered, and the results must agree exactly.
        ps = np.concatenate([np.geomspace(1e-300, 0.5, 400),
                             1.0 - np.geomspace(1e-16, 0.5, 400),
                             [0.02425, 1.0 - 0.02425, 0.5, 0.95, 0.99995]])
        scalar = np.array([normal_quantile(float(p)) for p in ps])
        assert np.array_equal(scalar, normal_quantile(ps))
        assert type(normal_quantile(0.975)) is float


class TestChi2:
    def test_zero_mass(self):
        assert chi2_cdf(0.0, 3) == 0.0

    def test_quantile_values_against_quadrature(self):
        # Quadrature oracle: cdf(11.0705, 5) = 0.95000004,
        # cdf(9.4877, 4) = 0.94999940.
        assert chi2_cdf_quadrature(11.0705, 5) == pytest.approx(0.95, abs=1e-4)
        assert chi2_cdf_quadrature(9.4877, 4) == pytest.approx(0.95, abs=1e-4)
        assert chi2_cdf(11.0705, 5) == pytest.approx(0.95, abs=1e-4)
        assert chi2_cdf(9.4877, 4) == pytest.approx(0.95, abs=1e-4)

    def test_cdf_against_quadrature_grid(self):
        for x, df in ((0.5, 1), (2.3, 2), (7.7, 4), (11.0, 5), (30.0, 20)):
            assert chi2_cdf(x, df) == pytest.approx(chi2_cdf_quadrature(x, df),
                                                    abs=1e-8)

    def test_df2_closed_form(self):
        for x in np.linspace(0.0, 100.0, 211):
            assert chi2_cdf(float(x), 2) == pytest.approx(
                1.0 - math.exp(-x / 2.0), abs=1e-10)
        for p in np.linspace(0.001, 0.999, 97):
            assert chi2_quantile(float(p), 2) == pytest.approx(
                -2.0 * math.log1p(-p), abs=1e-9)

    def test_quantiles_bracket_table_values(self):
        assert chi2_quantile(0.95, 4) == pytest.approx(9.4877, abs=1e-3)
        assert chi2_quantile(0.95, 4) < 25.31
        assert chi2_quantile(0.95, 5) == pytest.approx(11.0705, abs=1e-3)
        assert chi2_quantile(0.95, 5) > 1.27

    def test_round_trip_over_df_grid(self):
        # Relative below p = 0.5, where the left tail reaches 1e-30; the
        # right half keeps an absolute check.
        for df in range(1, 51):
            for p in np.geomspace(1e-30, 0.5, 40):
                q = chi2_quantile(float(p), df)
                assert abs(chi2_cdf(q, df) - p) < 1e-8 * p
            for p in 1.0 - np.geomspace(1e-10, 0.5, 30):
                q = chi2_quantile(float(p), df)
                assert abs(chi2_cdf(q, df) - p) < 1e-8

    def test_left_tail_against_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        assert chi2_quantile(1e-15, 1) == pytest.approx(1.5707963267949e-30,
                                                        rel=1e-12)
        for df in (1, 2, 3, 5, 10, 50, 200):
            for p in np.geomspace(1e-30, 0.5, 60):
                expect = stats.chi2.ppf(p, df)
                assert chi2_quantile(float(p), df) == pytest.approx(
                    expect, rel=1e-12)

    def test_strictly_increasing_in_p(self):
        for df in (1, 2, 5, 17, 50):
            qs = [chi2_quantile(p, df) for p in np.linspace(0.001, 0.999, 200)]
            assert all(b > a for a, b in zip(qs, qs[1:]))

    def test_domain(self):
        with pytest.raises(InputError):
            chi2_cdf(-0.5, 3)
        with pytest.raises(InputError):
            chi2_cdf(1.0, 0)
        with pytest.raises(InputError):
            chi2_quantile(0.5, -1)
        with pytest.raises(InputError):
            chi2_quantile(1.0, 3)
        with pytest.raises(InputError):
            chi2_cdf(1.0, 2.5)


def direct_summation_t(x, y):
    """Plain-loop reference for the statistic (independent of the package)."""
    n = len(x)
    xbar = sum(x) / n
    ybar = sum(y) / n
    prods = [(x[i] - xbar) * (y[i] - ybar) for i in range(n)]
    sigma = sum(prods) / n
    theta = sum((p - sigma) ** 2 for p in prods) / n
    return math.sqrt(n) * sigma / math.sqrt(theta), sigma, theta


ORACLE_DF = tuple(range(1, 11)) + (20, 50, 100, 200)
# p from 1e-300 to 1 - 1e-16, dense in both tails.
ORACLE_P = np.concatenate([np.geomspace(1e-300, 0.5, 120),
                           1.0 - np.geomspace(0.5, 1e-16, 60)[1:]])


def _tail_error(got, expect):
    """Relative below 0.5, absolute above."""
    return abs(got - expect) / (expect if expect < 0.5 else 1.0)


class TestScipyOracle:
    """Every distribution function against scipy over its whole range."""

    def test_normal_cdf(self):
        special = pytest.importorskip("scipy.special")
        z = np.linspace(-38.0, 38.0, 7601)
        assert np.max(np.abs(normal_cdf(z) - special.ndtr(z))) <= 1e-12

    def test_normal_quantile(self):
        special = pytest.importorskip("scipy.special")
        got, expect = normal_quantile(ORACLE_P), special.ndtri(ORACLE_P)
        assert np.all(np.abs(got - expect) <= 2e-9 * np.abs(expect))

    def test_chi2_cdf(self):
        stats = pytest.importorskip("scipy.stats")
        for df in ORACLE_DF:
            xs = stats.chi2.ppf(ORACLE_P, df)
            for x in xs[xs >= np.finfo(float).tiny]:
                expect = stats.chi2.cdf(x, df)
                assert _tail_error(chi2_cdf(float(x), df), expect) <= 1e-12, \
                    (x, df)

    def test_chi2_quantile_round_trip(self):
        stats = pytest.importorskip("scipy.stats")
        for df in ORACLE_DF:
            # Below this p the quantile is not a normal double.
            p_min = stats.chi2.cdf(2.0 * np.finfo(float).tiny, df)
            for p in ORACLE_P[ORACLE_P > p_min]:
                q = chi2_quantile(float(p), df)
                assert _tail_error(stats.chi2.cdf(q, df), p) <= 1e-8, (p, df)
        with pytest.raises(NumericalError):
            chi2_quantile(1e-300, 1)


class TestSelfNormalizedT:
    def test_small_instance_against_direct_summation(self):
        x = [1.0, 2.0, 3.0, 4.0]
        t = self_normalized_t(x, x)
        value, sigma, theta = direct_summation_t(x, x)
        assert sigma == 1.25
        assert abs(t.value - value) < 1e-12
        assert abs(t.sigma_hat - sigma) < 1e-12
        assert abs(t.theta_hat - theta) < 1e-12

    def test_random_instances_against_direct_summation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            x = rng.normal(size=n).tolist()
            y = rng.normal(size=n).tolist()
            t = self_normalized_t(x, y)
            value, _, _ = direct_summation_t(x, y)
            assert abs(t.value - value) < 1e-10 * max(1.0, abs(value))

    def test_increasing_sequence_is_positive(self):
        for n in (5, 11, 30):
            seq = np.arange(1.0, n + 1.0)
            t = self_normalized_t(seq, seq)
            assert t.value > 0.0
            assert t.theta_hat > 0.0

    def test_constant_column_degenerate(self):
        with pytest.raises(DegenerateColumnError):
            self_normalized_t(np.full(10, 3.0), np.arange(10.0))

    def test_label_in_error(self):
        with pytest.raises(DegenerateColumnError, match="gene7"):
            self_normalized_t(np.full(10, 3.0), np.arange(10.0), label="gene7")

    def test_value_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.normal(size=15)
            y = rng.normal(size=15)
            t = self_normalized_t(x, y)
            assert t.value == pytest.approx(
                math.sqrt(t.n) * t.sigma_hat / math.sqrt(t.theta_hat),
                abs=1e-14)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(5, 60))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            base = self_normalized_t(x, y).value
            a, c = rng.uniform(0.1, 5.0, size=2)
            b, d = rng.uniform(-3.0, 3.0, size=2)
            same = self_normalized_t(a * x + b, c * y + d).value
            flipped = self_normalized_t(-a * x + b, c * y + d).value
            assert same == pytest.approx(base, abs=1e-10)
            assert flipped == pytest.approx(-base, abs=1e-10)
            assert abs(flipped) == pytest.approx(abs(base), abs=1e-10)

    def test_joint_permutation_bitwise(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=31)
        y = rng.normal(size=31)
        base = self_normalized_t(x, y)
        for _ in range(20):
            perm = rng.permutation(31)
            t = self_normalized_t(x[perm], y[perm])
            assert t.value == base.value
            assert t.sigma_hat == base.sigma_hat
            assert t.theta_hat == base.theta_hat

    def test_input_validation(self):
        with pytest.raises(InputError):
            self_normalized_t([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(InputError):
            self_normalized_t([1.0, 2.0, 3.0], [1.0, 2.0])
        with pytest.raises(InputError):
            self_normalized_t([1.0, 2.0, math.nan], [1.0, 2.0, 3.0])

    def test_tstat_construction_guards(self):
        with pytest.raises(InputError):
            TStat(value=0.0, sigma_hat=0.0, theta_hat=-1.0, n=5)
        with pytest.raises(InputError):
            TStat(value=0.0, sigma_hat=0.0, theta_hat=1.0, n=0)
        with pytest.raises(InputError, match="^n must be an integer"):
            TStat(value=0.0, sigma_hat=0.0, theta_hat=1.0, n=5.0)


class TestTheoreticalAlpha1:
    def test_small_p_limit(self):
        # 2 * (1 - Phi(2 sqrt(log 2))), via the quadrature oracle: 0.0958910.
        oracle = 2.0 * (1.0 - normal_cdf_quadrature(2.0 * math.sqrt(math.log(2.0))))
        assert oracle == pytest.approx(0.09589, abs=1e-4)
        assert theoretical_alpha1(2, 1e-12, 0.0) == pytest.approx(oracle, abs=1e-6)

    def test_monotone_decreasing(self):
        assert theoretical_alpha1(10, 1.0, 0.0) > theoretical_alpha1(100, 1.0, 0.0)
        assert theoretical_alpha1(100, 1.0, 0.0) > theoretical_alpha1(100, 2.0, 0.0)
        assert theoretical_alpha1(100, 1.0, 0.0) > theoretical_alpha1(100, 1.0, 1.0)

    def test_extreme_underflow_is_graceful(self):
        value = theoretical_alpha1(1000, 1.0, 0.0)
        assert 0.0 <= value < 1e-20

    def test_domain(self):
        with pytest.raises(InputError):
            theoretical_alpha1(1, 1.0, 0.0)
        with pytest.raises(InputError):
            theoretical_alpha1(10, 0.0, 0.0)
        with pytest.raises(InputError):
            theoretical_alpha1(10, 1.0, -0.5)
        for p in (10.0, True):
            with pytest.raises(InputError, match="^p must be an integer"):
                theoretical_alpha1(p, 1.0, 0.0)
        assert theoretical_alpha1(np.int64(10), 1.0) \
            == theoretical_alpha1(10, 1.0)


# ---------------------------------------------------------------------------
# The distribution layer as it was when each Cody and Acklam branch was
# written out twice (once per path), kept verbatim but for the names as the
# reference that stats_core's shared branches must match bit for bit.
# ---------------------------------------------------------------------------

_REF_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02,
              3.77485237685302021e02, 3.20937758913846947e03,
              1.85777706184603153e-1)
_REF_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02,
              1.28261652607737228e03, 2.84423683343917062e03)
_REF_ERF_C = (5.64188496988670089e-1, 8.88314979438837594e00,
              6.61191906371416295e01, 2.98635138197400131e02,
              8.81952221241769090e02, 1.71204761263407058e03,
              2.05107837782607147e03, 1.23033935479799725e03,
              2.15311535474403846e-8)
_REF_ERF_D = (1.57449261107098347e01, 1.17693950891312499e02,
              5.37181101862009858e02, 1.62138957456669019e03,
              3.29079923573345963e03, 4.36261909014324716e03,
              3.43936767414372164e03, 1.23033935480374942e03)
_REF_ERF_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
              1.25781726111229246e-1, 1.60837851487422766e-2,
              6.58749161529837803e-4, 1.63153871373020978e-2)
_REF_ERF_Q = (2.56852019228982242e00, 1.87295284992346047e00,
              5.27905102951428412e-1, 6.05183413124413191e-2,
              2.33520497626869185e-3)
_REF_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_REF_SQRT2 = math.sqrt(2.0)
_REF_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _reference_erfc(x: np.ndarray) -> np.ndarray:
    """Complementary error function on a 1-d float array."""
    ax = np.abs(x)
    out = np.empty_like(x)

    m1 = ax <= 0.46875
    if m1.any():
        z = x[m1]
        y = z * z
        a, b = _REF_ERF_A, _REF_ERF_B
        num = ((((a[4] * y + a[0]) * y + a[1]) * y + a[2]) * y + a[3])
        den = ((((y + b[0]) * y + b[1]) * y + b[2]) * y + b[3])
        out[m1] = 1.0 - z * num / den

    m2 = (ax > 0.46875) & (ax <= 4.0)
    if m2.any():
        z = ax[m2]
        c, d = _REF_ERF_C, _REF_ERF_D
        num = c[8]
        for ci in c[:8]:
            num = num * z + ci
        den = 1.0
        for di in d:
            den = den * z + di
        out[m2] = np.exp(-z * z) * num / den

    m3 = ax > 4.0
    if m3.any():
        z = ax[m3]
        y = 1.0 / (z * z)
        p, q = _REF_ERF_P, _REF_ERF_Q
        num = p[5]
        for pi in p[:5]:
            num = num * y + pi
        den = 1.0
        for qi in q:
            den = den * y + qi
        r = y * num / den
        out[m3] = np.exp(-z * z) / z * (_REF_INV_SQRT_PI - r)

    neg = (x < 0.0) & ~m1
    out[neg] = 2.0 - out[neg]
    return out


def _reference_erfc_scalar(x: float) -> float:
    """:func:`_erfc` for one float, bit-identical to the array version.

    The arithmetic repeats the array branches operation by operation, and
    ``np.exp`` (not ``math.exp``, which rounds differently) keeps the
    exponential on the same code path.
    """
    ax = abs(x)
    if ax <= 0.46875:
        y = x * x
        a, b = _REF_ERF_A, _REF_ERF_B
        num = ((((a[4] * y + a[0]) * y + a[1]) * y + a[2]) * y + a[3])
        den = ((((y + b[0]) * y + b[1]) * y + b[2]) * y + b[3])
        return 1.0 - x * num / den
    if ax <= 4.0:
        num = _REF_ERF_C[8]
        for ci in _REF_ERF_C[:8]:
            num = num * ax + ci
        den = 1.0
        for di in _REF_ERF_D:
            den = den * ax + di
        out = float(np.exp(-ax * ax)) * num / den
    else:
        y = 1.0 / (ax * ax)
        num = _REF_ERF_P[5]
        for pi in _REF_ERF_P[:5]:
            num = num * y + pi
        den = 1.0
        for qi in _REF_ERF_Q:
            den = den * y + qi
        r = y * num / den
        out = float(np.exp(-ax * ax)) / ax * (_REF_INV_SQRT_PI - r)
    return 2.0 - out if x < 0.0 else out


def _reference_normal_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / _REF_SQRT_2PI


_REF_NQ_A = (-3.969683028665376e+01, 2.209460984245205e+02,
             -2.759285104469687e+02, 1.383577518672690e+02,
             -3.066479806614716e+01, 2.506628277459239e+00)
_REF_NQ_B = (-5.447609879822406e+01, 1.615858368580409e+02,
             -1.556989798598866e+02, 6.680131188771972e+01,
             -1.328068155288572e+01)
_REF_NQ_C = (-7.784894002430293e-03, -3.223964580411365e-01,
             -2.400758277161838e+00, -2.549732539343734e+00,
             4.374664141464968e+00, 2.938163982698783e+00)
_REF_NQ_D = (7.784695709041462e-03, 3.224671290700398e-01,
             2.445134137142996e+00, 3.754408661907416e+00)
_REF_NQ_SPLIT = 0.02425


def _reference_normal_quantile(p):
    """Inverse standard normal CDF for p strictly inside (0, 1).

    Accepts a scalar or array; round-trips through :func:`normal_cdf`
    to better than 1e-9 over p in [1e-12, 1 - 1e-12].
    """
    if isinstance(p, float):
        return _reference_normal_quantile_scalar(p)
    arr, scalar = _as_float_array(p, "p")
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise InputError("p must lie strictly inside (0, 1)")
    flat = arr.ravel()
    z = np.empty_like(flat)
    a, b, c, d = _REF_NQ_A, _REF_NQ_B, _REF_NQ_C, _REF_NQ_D

    lo = flat < _REF_NQ_SPLIT
    hi = flat > 1.0 - _REF_NQ_SPLIT
    mid = ~(lo | hi)
    if mid.any():
        q = flat[mid] - 0.5
        r = q * q
        num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        z[mid] = q * num / den
    for mask, tail_p, sign in ((lo, flat[lo], -1.0), (hi, 1.0 - flat[hi], 1.0)):
        if mask.any():
            q = np.sqrt(-2.0 * np.log(tail_p))
            num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
            den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
            z[mask] = -sign * num / den

    # One Newton step where the density is representable.
    pdf = _reference_normal_pdf(z)
    ok = pdf > 0.0
    if ok.any():
        cdf = 0.5 * _reference_erfc(-z[ok] / _REF_SQRT2)
        z[ok] -= (cdf - flat[ok]) / pdf[ok]

    out = z.reshape(arr.shape)
    return float(out[0]) if scalar else out.reshape(np.shape(p))


def _reference_normal_quantile_scalar(p: float) -> float:
    """:func:`normal_quantile` for one float without array masking;
    bit-identical to the array path (``np.log``/``np.exp`` on purpose)."""
    if not math.isfinite(p):
        raise InputError("p must be finite")
    if not 0.0 < p < 1.0:
        raise InputError("p must lie strictly inside (0, 1)")
    if p < _REF_NQ_SPLIT or p > 1.0 - _REF_NQ_SPLIT:
        c, d = _REF_NQ_C, _REF_NQ_D
        sign, tail_p = (-1.0, p) if p < _REF_NQ_SPLIT else (1.0, 1.0 - p)
        q = math.sqrt(-2.0 * float(np.log(tail_p)))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        z = -sign * num / den
    else:
        a, b = _REF_NQ_A, _REF_NQ_B
        q = p - 0.5
        r = q * q
        num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        z = q * num / den

    pdf = float(np.exp(-0.5 * z * z)) / _REF_SQRT_2PI
    if pdf > 0.0:
        cdf = 0.5 * _reference_erfc_scalar(-z / _REF_SQRT2)
        z -= (cdf - p) / pdf
    return z


def _with_neighbours(points) -> np.ndarray:
    """Each point with the floats on either side of it."""
    pts = np.asarray(points, dtype=float)
    return np.concatenate([np.nextafter(pts, -np.inf), pts,
                           np.nextafter(pts, np.inf)])


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.fixture(scope="module")
def quantile_inputs():
    """10^6 uniforms from the simulations' counter-based stream, the
    extremes 2^-54 and 1 - 2^-53, 1e-300, the smallest positive float and
    both Acklam split points."""
    return np.concatenate([
        _uniform_open(_rep_rng(20240811, 0), 1_000_000),
        [2.0 ** -54, 1.0 - 2.0 ** -53, 1e-300, 5e-324],
        _with_neighbours([0.02425, 1.0 - 0.02425]),
    ])


@pytest.fixture(scope="module")
def erfc_inputs():
    """Zero of both signs, Cody's split points with their neighbours, the
    far tail (27, 40) and 10^6 draws from N(0, 3^2)."""
    return np.concatenate([
        [0.0, -0.0, 27.0, 40.0],
        _with_neighbours([0.46875, -0.46875, 4.0, -4.0]),
        np.random.default_rng(7).normal(0.0, 3.0, 1_000_000),
    ])


def _scalar_sample(inputs: np.ndarray) -> np.ndarray:
    """The crafted points (at both ends) plus every 500th random one: one
    float at a time is too slow for all 10^6."""
    return np.concatenate([inputs[:20], inputs[::500], inputs[-20:]])


class TestDistributionLayerReference:
    """stats_core's shared branches against the two-copy reference above."""

    def test_normal_quantile_array(self, quantile_inputs):
        assert np.array_equal(_bits(normal_quantile(quantile_inputs)),
                              _bits(_reference_normal_quantile(quantile_inputs)))

    @pytest.mark.parametrize("size", [0, 1, _NQ_BLOCK - 1, _NQ_BLOCK,
                                      _NQ_BLOCK + 1, 3 * _NQ_BLOCK + 5])
    def test_normal_quantile_block_edges(self, quantile_inputs, size):
        ps = quantile_inputs[-size:] if size else quantile_inputs[:0]
        got = normal_quantile(ps)
        assert got.shape == (size,)
        assert np.array_equal(_bits(got), _bits(_reference_normal_quantile(ps)))

    @pytest.mark.parametrize("region", ["central", "tails", "subnormal"])
    def test_normal_quantile_one_region(self, quantile_inputs, region):
        # Blocks with no tail lane, with tail lanes only, and with the
        # smallest positive probabilities (whose start has the smallest
        # density) among central ones.
        u = quantile_inputs
        if region == "central":
            ps = u[(u >= 0.02425) & (u <= 1.0 - 0.02425)]
        elif region == "tails":
            ps = u[(u < 0.02425) | (u > 1.0 - 0.02425)]
        else:
            ps = u[:3 * _NQ_BLOCK].copy()
            spots = np.linspace(0, ps.size - 1, 40).astype(int)
            ps[spots] = [5e-324, 1e-320, 1e-310, 2.0 ** -1022] * 10
        assert np.array_equal(_bits(normal_quantile(ps)),
                              _bits(_reference_normal_quantile(ps)))

    def test_normal_quantile_keeps_shape(self, quantile_inputs):
        # Rows of 7 001 lanes, so block edges fall inside rows.
        ps = quantile_inputs[:5 * 7001].reshape(5, 7001)
        got = normal_quantile(ps)
        assert got.shape == ps.shape
        assert np.array_equal(_bits(got), _bits(_reference_normal_quantile(ps)))

    def test_erfc_array(self, erfc_inputs):
        assert np.array_equal(_bits(_erfc(erfc_inputs)),
                              _bits(_reference_erfc(erfc_inputs)))

    def test_normal_quantile_scalar(self, quantile_inputs):
        ps = _scalar_sample(quantile_inputs)
        got = [_normal_quantile_scalar(float(p)) for p in ps]
        assert all(type(z) is float for z in got)
        expect = [_reference_normal_quantile_scalar(float(p)) for p in ps]
        assert np.array_equal(_bits(got), _bits(expect))
        assert np.array_equal(_bits(got), _bits(normal_quantile(ps)))

    def test_erfc_scalar(self, erfc_inputs):
        xs = _scalar_sample(erfc_inputs)
        got = [_erfc_scalar(float(x)) for x in xs]
        assert all(type(v) is float for v in got)
        expect = [_reference_erfc_scalar(float(x)) for x in xs]
        assert np.array_equal(_bits(got), _bits(expect))
        assert np.array_equal(_bits(got), _bits(_erfc(xs)))


def _masked_erfc(x: np.ndarray) -> np.ndarray:
    """The array erfc as it merged its branches with masked ufuncs
    (np.copyto and np.subtract with ``where=``), kept verbatim as the
    reference for the index gathers."""
    ax = np.abs(x)
    out = _erfc_mid(np.clip(ax, 0.46875, 4.0))
    m1 = ax <= 0.46875
    np.copyto(out, _erfc_small(np.clip(x, -0.46875, 0.46875)), where=m1)
    m3 = ax > 4.0
    if m3.any():
        out[m3] = _erfc_large(ax[m3])
    np.subtract(2.0, out, out=out, where=x < -0.46875)
    return out


@pytest.fixture(scope="module")
def merge_inputs():
    """Cody's split points, zero of both signs, 1e-300 and +-26, each with
    its neighbours, then 10^5 draws from N(0, 2^2)."""
    return np.concatenate([
        _with_neighbours([0.46875, -0.46875, 4.0, -4.0, 0.0, -0.0, 1e-300,
                          26.0, -26.0]),
        np.random.default_rng(11).normal(0.0, 2.0, 100_000),
    ])


class TestUnmaskedMerges:
    """_erfc runs each branch only on its own lanes, gathered by index and
    scattered back; every lane must keep the bits of the masked merge, and
    each lane must be evaluated by exactly one branch."""

    def test_erfc(self, merge_inputs):
        assert np.array_equal(_bits(_erfc(merge_inputs)),
                              _bits(_masked_erfc(merge_inputs)))

    def test_erfc_leaves_input_alone(self, merge_inputs):
        x = merge_inputs.copy()
        _erfc(x)
        assert np.array_equal(_bits(x), _bits(merge_inputs))

    def test_normal_cdf(self, merge_inputs):
        expect = 0.5 * _masked_erfc(-merge_inputs / math.sqrt(2.0))
        assert np.array_equal(_bits(normal_cdf(merge_inputs)), _bits(expect))

    def test_each_lane_evaluated_once(self, merge_inputs, monkeypatch):
        seen = {}

        def recorded(name, branch):
            def wrapper(x):
                seen[name] = seen.get(name, 0) + np.size(x)
                return branch(x)
            return wrapper

        for name in ("_erfc_small", "_erfc_mid", "_erfc_large"):
            monkeypatch.setattr(stats_core, name,
                                recorded(name, getattr(stats_core, name)))
        _erfc(merge_inputs)
        ax = np.abs(merge_inputs)
        assert seen == {
            "_erfc_small": np.count_nonzero(ax <= 0.46875),
            "_erfc_mid": np.count_nonzero((ax > 0.46875) & (ax <= 4.0)),
            "_erfc_large": np.count_nonzero(ax > 4.0)}
        assert sum(seen.values()) == len(merge_inputs)

    @pytest.mark.parametrize("block", [
        [], [0.25], [-1.5], [-30.0],
        np.linspace(-0.46875, 0.46875, 1001),
        np.linspace(-4.0, -np.nextafter(0.46875, 1.0), 1001),
        np.linspace(np.nextafter(0.46875, 1.0), 4.0, 1001),
        np.concatenate([np.geomspace(np.nextafter(4.0, 5.0), 1e300, 500),
                        -np.geomspace(np.nextafter(4.0, 5.0), 1e300, 500)]),
        [0.1, -1.0, math.nan, 2.0, -0.2, 5.0, -6.0],
    ], ids=["empty", "one-small-lane", "one-mid-lane", "one-far-lane",
            "all-small", "all-negative-mid", "all-positive-mid",
            "only-far-tail", "nan-lane"])
    def test_erfc_edge_blocks(self, block):
        x = np.array(block, dtype=float)
        got = _erfc(x)
        assert got.shape == x.shape
        assert np.array_equal(np.isnan(got), np.isnan(x))
        assert np.array_equal(_bits(got), _bits(_masked_erfc(x)))

    def test_normal_quantile_edges(self, monkeypatch):
        ps = np.concatenate([
            [5e-324, 1e-300, 2.0 ** -54, 1.0 - 2.0 ** -53],
            _with_neighbours([0.5, 0.02425, 1.0 - 0.02425]),
            _uniform_open(_rep_rng(20240811, 1), 3 * _NQ_BLOCK),
        ])
        got = normal_quantile(ps)
        monkeypatch.setattr(stats_core, "_erfc", _masked_erfc)
        assert np.array_equal(_bits(got), _bits(normal_quantile(ps)))
