"""Distribution functions and the self-normalized statistic.

Expected values marked as oracle-derived were computed by the quadrature
helpers below (Simpson integration of the densities) and frozen; the
helpers rerun here so the constants stay pinned to an independent route.
"""

import math

import numpy as np
import pytest

from multiscreen import (InputError, DegenerateColumnError, TStat, chi2_cdf,
                         chi2_quantile, normal_cdf, normal_quantile,
                         self_normalized_t, theoretical_alpha1)


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
