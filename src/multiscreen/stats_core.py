"""Normal and chi-square distribution functions plus the self-normalized
covariance statistic.

Everything here is dependency-free (numpy only) and deterministic: the
distribution functions are classical rational approximations refined by
Newton steps, and the statistic accumulates moments with exact (Shewchuk)
summation so results are bit-identical across platforms and under joint
permutation of the observations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumnError, InputError, NumericalError

__all__ = [
    "TStat",
    "normal_cdf",
    "normal_quantile",
    "chi2_cdf",
    "chi2_quantile",
    "self_normalized_t",
    "theoretical_alpha1",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


@dataclass(frozen=True)
class TStat:
    """Self-normalized covariance statistic for one (feature, response) pair.

    value = sqrt(n) * sigma_hat / sqrt(theta_hat), where sigma_hat is the
    1/n-normalized sample covariance and theta_hat the 1/n-normalized
    variance of the centered cross-products.
    """

    value: float
    sigma_hat: float
    theta_hat: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"sample count must be positive, got {self.n}")
        if not self.theta_hat >= 0.0:
            raise InputError(f"theta_hat must be nonnegative, got {self.theta_hat}")


# ---------------------------------------------------------------------------
# erfc: Cody's rational Chebyshev approximations, vectorized.
# ---------------------------------------------------------------------------

_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02,
          3.77485237685302021e02, 3.20937758913846947e03,
          1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02,
          1.28261652607737228e03, 2.84423683343917062e03)
_ERF_C = (5.64188496988670089e-1, 8.88314979438837594e00,
          6.61191906371416295e01, 2.98635138197400131e02,
          8.81952221241769090e02, 1.71204761263407058e03,
          2.05107837782607147e03, 1.23033935479799725e03,
          2.15311535474403846e-8)
_ERF_D = (1.57449261107098347e01, 1.17693950891312499e02,
          5.37181101862009858e02, 1.62138957456669019e03,
          3.29079923573345963e03, 4.36261909014324716e03,
          3.43936767414372164e03, 1.23033935480374942e03)
_ERF_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
          1.25781726111229246e-1, 1.60837851487422766e-2,
          6.58749161529837803e-4, 1.63153871373020978e-2)
_ERF_Q = (2.56852019228982242e00, 1.87295284992346047e00,
          5.27905102951428412e-1, 6.05183413124413191e-2,
          2.33520497626869185e-3)


def _erfc(x: np.ndarray) -> np.ndarray:
    """Complementary error function on a 1-d float array."""
    ax = np.abs(x)
    out = np.empty_like(x)

    m1 = ax <= 0.46875
    if m1.any():
        z = x[m1]
        y = z * z
        a, b = _ERF_A, _ERF_B
        num = ((((a[4] * y + a[0]) * y + a[1]) * y + a[2]) * y + a[3])
        den = ((((y + b[0]) * y + b[1]) * y + b[2]) * y + b[3])
        out[m1] = 1.0 - z * num / den

    m2 = (ax > 0.46875) & (ax <= 4.0)
    if m2.any():
        z = ax[m2]
        c, d = _ERF_C, _ERF_D
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
        p, q = _ERF_P, _ERF_Q
        num = p[5]
        for pi in p[:5]:
            num = num * y + pi
        den = 1.0
        for qi in q:
            den = den * y + qi
        r = y * num / den
        out[m3] = np.exp(-z * z) / z * (_INV_SQRT_PI - r)

    neg = (x < 0.0) & ~m1
    out[neg] = 2.0 - out[neg]
    return out


def _erfc_scalar(x: float) -> float:
    """:func:`_erfc` for one float, bit-identical to the array version.

    The arithmetic repeats the array branches operation by operation, and
    ``np.exp`` (not ``math.exp``, which rounds differently) keeps the
    exponential on the same code path.
    """
    ax = abs(x)
    if ax <= 0.46875:
        y = x * x
        a, b = _ERF_A, _ERF_B
        num = ((((a[4] * y + a[0]) * y + a[1]) * y + a[2]) * y + a[3])
        den = ((((y + b[0]) * y + b[1]) * y + b[2]) * y + b[3])
        return 1.0 - x * num / den
    if ax <= 4.0:
        num = _ERF_C[8]
        for ci in _ERF_C[:8]:
            num = num * ax + ci
        den = 1.0
        for di in _ERF_D:
            den = den * ax + di
        out = float(np.exp(-ax * ax)) * num / den
    else:
        y = 1.0 / (ax * ax)
        num = _ERF_P[5]
        for pi in _ERF_P[:5]:
            num = num * y + pi
        den = 1.0
        for qi in _ERF_Q:
            den = den * y + qi
        r = y * num / den
        out = float(np.exp(-ax * ax)) / ax * (_INV_SQRT_PI - r)
    return 2.0 - out if x < 0.0 else out


def _as_float_array(value, name: str) -> tuple[np.ndarray, bool]:
    scalar = np.ndim(value) == 0
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} must be finite")
    return arr, scalar


def normal_cdf(z):
    """Standard normal CDF, accurate to well below 1e-12 absolute error.

    Accepts a scalar or array; returns the same shape.
    """
    arr, scalar = _as_float_array(z, "z")
    out = 0.5 * _erfc(-arr.ravel() / _SQRT2).reshape(arr.shape)
    return float(out[0]) if scalar else out.reshape(np.shape(z))


def _normal_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / _SQRT_2PI


# Acklam's rational approximation to the inverse normal CDF (relative
# error below 1.2e-9 on its own), followed by one Newton step on the CDF.
_NQ_A = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
_NQ_B = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
_NQ_C = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
_NQ_D = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
_NQ_SPLIT = 0.02425


def normal_quantile(p):
    """Inverse standard normal CDF for p strictly inside (0, 1).

    Accepts a scalar or array; round-trips through :func:`normal_cdf`
    to better than 1e-9 over p in [1e-12, 1 - 1e-12].
    """
    if isinstance(p, float):
        return _normal_quantile_scalar(p)
    arr, scalar = _as_float_array(p, "p")
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise InputError("p must lie strictly inside (0, 1)")
    flat = arr.ravel()
    z = np.empty_like(flat)
    a, b, c, d = _NQ_A, _NQ_B, _NQ_C, _NQ_D

    lo = flat < _NQ_SPLIT
    hi = flat > 1.0 - _NQ_SPLIT
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
    pdf = _normal_pdf(z)
    ok = pdf > 0.0
    if ok.any():
        cdf = 0.5 * _erfc(-z[ok] / _SQRT2)
        z[ok] -= (cdf - flat[ok]) / pdf[ok]

    out = z.reshape(arr.shape)
    return float(out[0]) if scalar else out.reshape(np.shape(p))


def _normal_quantile_scalar(p: float) -> float:
    """:func:`normal_quantile` for one float without array masking;
    bit-identical to the array path (``np.log``/``np.exp`` on purpose)."""
    if not math.isfinite(p):
        raise InputError("p must be finite")
    if not 0.0 < p < 1.0:
        raise InputError("p must lie strictly inside (0, 1)")
    if p < _NQ_SPLIT or p > 1.0 - _NQ_SPLIT:
        c, d = _NQ_C, _NQ_D
        sign, tail_p = (-1.0, p) if p < _NQ_SPLIT else (1.0, 1.0 - p)
        q = math.sqrt(-2.0 * float(np.log(tail_p)))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        z = -sign * num / den
    else:
        a, b = _NQ_A, _NQ_B
        q = p - 0.5
        r = q * q
        num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        z = q * num / den

    pdf = float(np.exp(-0.5 * z * z)) / _SQRT_2PI
    if pdf > 0.0:
        cdf = 0.5 * _erfc_scalar(-z / _SQRT2)
        z -= (cdf - p) / pdf
    return z


# ---------------------------------------------------------------------------
# Regularized lower incomplete gamma: series + continued fraction.
# ---------------------------------------------------------------------------

_GAMMA_EPS = 1e-16
_GAMMA_MAX_ITER = 10000


def _gammainc_lower(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for a > 0, x >= 0."""
    if x <= 0.0:
        return 0.0
    log_prefix = -x + a * math.log(x) - math.lgamma(a)
    if x < a + 1.0:
        # Power series around x = 0.
        term = 1.0 / a
        total = term
        k = a
        for _ in range(_GAMMA_MAX_ITER):
            k += 1.0
            term *= x / k
            total += term
            # term and total stay positive, so no abs() is needed.
            if term < total * _GAMMA_EPS:
                return min(1.0, total * math.exp(log_prefix))
        raise InputError(f"incomplete gamma series failed for a={a}, x={x}")
    # Modified Lentz continued fraction for Q(a, x).
    tiny, eps = 1e-300, _GAMMA_EPS
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    fi = 0.0  # the iteration count i as a float; an is exact either way
    for _ in range(1, _GAMMA_MAX_ITER):
        fi += 1.0
        an = -fi * (fi - a)
        b += 2.0
        d = an * d + b
        if -tiny < d < tiny:
            d = tiny
        c = b + an / c
        if -tiny < c < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -eps < delta - 1.0 < eps:
            return max(0.0, 1.0 - math.exp(log_prefix) * h)
    raise InputError(f"incomplete gamma fraction failed for a={a}, x={x}")


def _check_df(df) -> int:
    if not (isinstance(df, (int, np.integer)) and not isinstance(df, bool)):
        raise InputError(f"degrees of freedom must be an integer, got {df!r}")
    if df < 1:
        raise InputError(f"degrees of freedom must be >= 1, got {df}")
    return int(df)


def chi2_cdf(x: float, df: int) -> float:
    """Chi-square CDF with integer degrees of freedom.

    Equals the regularized lower incomplete gamma P(df/2, x/2).
    """
    df = _check_df(df)
    if not (np.ndim(x) == 0 and math.isfinite(float(x))):
        raise InputError("x must be a finite scalar")
    x = float(x)
    if x < 0.0:
        raise InputError(f"x must be nonnegative, got {x}")
    return _gammainc_lower(0.5 * df, 0.5 * x)


def _chi2_pdf(x: float, df: float) -> float:
    if x <= 0.0:
        return 0.0
    half = 0.5 * df
    return math.exp((half - 1.0) * math.log(x) - 0.5 * x
                    - half * math.log(2.0) - math.lgamma(half))


def chi2_quantile(p: float, df: int) -> float:
    """Inverse chi-square CDF via a Wilson-Hilferty start and safeguarded
    Newton iteration; round-trips through :func:`chi2_cdf` within 1e-8
    (relative below p = 0.5). Raises NumericalError when the quantile
    falls below the smallest normal double or the iteration does not
    converge."""
    df = _check_df(df)
    if not (np.ndim(p) == 0 and math.isfinite(float(p))):
        raise InputError("p must be a finite scalar")
    p = float(p)
    if not 0.0 < p < 1.0:
        raise InputError(f"p must lie strictly inside (0, 1), got {p}")

    z = normal_quantile(p)
    t = 2.0 / (9.0 * df)
    x = df * (1.0 - t + z * math.sqrt(t)) ** 3   # positive for p >= 0.5

    # chi2_cdf without its argument checks: x and hi stay positive floats.
    half = 0.5 * df
    lo, hi = 0.0, max(4.0 * x, df + 10.0)
    while _gammainc_lower(half, 0.5 * hi) < p:
        hi *= 2.0
        if hi > 1e300:
            raise InputError(f"chi-square quantile bracket failed for p={p}, df={df}")
    left = p < 0.5
    if left:
        # P(a, y) <= y^a / Gamma(a + 1), so the quantile is at least lo (less
        # a margin for rounding). The left tail is close to that power law:
        # Newton steps on log F against log x, and bisection is geometric.
        lo = 2.0 * math.exp((math.log(p) + math.lgamma(half + 1.0)) / half) \
            * (1.0 - 1e-9)
        if lo < sys.float_info.min:
            raise NumericalError(
                f"chi-square quantile underflows for p={p}, df={df}")
        x = max(x, lo)   # also replaces a start at or below zero

    for _ in range(200):
        cdf = _gammainc_lower(half, 0.5 * x)
        f = cdf - p
        # Relative below p = 0.5, so the left tail converges; absolute above.
        if abs(f) < 1e-14 * min(1.0, 2.0 * p):
            return x
        if f > 0.0:
            hi = x
        else:
            lo = x
        deriv = _chi2_pdf(x, df)
        step_ok = deriv > 0.0
        if step_ok:
            x_new = x * math.exp(math.log(p / cdf) * cdf / (x * deriv)) \
                if left else x - f / deriv
            step_ok = lo < x_new < hi
        if not step_ok:
            x_new = math.sqrt(lo) * math.sqrt(hi) if left else 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-12 * abs(x):
            return x_new
        x = x_new
    raise NumericalError(f"chi-square quantile did not converge for p={p}, df={df}")


# ---------------------------------------------------------------------------
# Self-normalized covariance statistic.
# ---------------------------------------------------------------------------

def _exact_sum(values: np.ndarray) -> float:
    # math.fsum is exact (correctly rounded), hence invariant to input order.
    return math.fsum(values.tolist())


def _t_from_centered(cx: np.ndarray, cy: np.ndarray, n: int,
                     var_x: float, var_y: float, label=None) -> TStat:
    """Statistic from already-centered columns; shared with the screeners."""
    prods = cx * cy
    sigma = _exact_sum(prods) / n
    dev = prods - sigma
    theta = _exact_sum(dev * dev) / n
    floor = 1e-12 * var_x * var_y + 1e-300
    if theta < floor:
        what = "column" if label is None else f"column {label!r}"
        raise DegenerateColumnError(
            f"{what} yields a degenerate self-normalized statistic "
            f"(theta_hat={theta:.3e} below floor {floor:.3e})")
    value = math.sqrt(n) * sigma / math.sqrt(theta)
    return TStat(value=value, sigma_hat=sigma, theta_hat=theta, n=n)


def center_column(col: np.ndarray) -> tuple[np.ndarray, float]:
    """Center a column by its exact-sum mean; returns (centered, 1/n variance)."""
    n = col.shape[0]
    centered = col - _exact_sum(col) / n
    variance = _exact_sum(centered * centered) / n
    return centered, variance


def self_normalized_t(x_col, y, label=None) -> TStat:
    """Self-normalized covariance statistic between one feature column and
    the response.

    Both the covariance and the cross-product variance use 1/n
    normalization. Raises :class:`DegenerateColumnError` when the
    cross-products carry essentially no variation (e.g. a constant column).

    Parameters
    ----------
    x_col, y : 1-d arrays of equal length n >= 3.
    label : optional feature name used in error messages.
    """
    x = np.asarray(x_col, dtype=float)
    yv = np.asarray(y, dtype=float)
    if x.ndim != 1 or yv.ndim != 1:
        raise InputError("x_col and y must be one-dimensional")
    n = x.shape[0]
    if yv.shape[0] != n:
        raise InputError(f"length mismatch: x has {n} rows, y has {yv.shape[0]}")
    if n < 3:
        raise InputError(f"need at least 3 observations, got {n}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(yv))):
        raise InputError("x_col and y must be finite")
    cx, var_x = center_column(x)
    cy, var_y = center_column(yv)
    return _t_from_centered(cx, cy, n, var_x, var_y, label=label)


def theoretical_alpha1(p: int, L: float, b: float = 0.0) -> float:
    """First-step significance level that scales with the feature count.

    Returns 2 * (1 - Phi(gamma * sqrt(log p))) with gamma = 2 * (L + 1 + b).
    Decreasing in p, L, and b; underflows gracefully to 0 for large inputs.
    """
    if not (isinstance(p, (int, np.integer)) and not isinstance(p, bool)):
        raise InputError(f"p must be an integer, got {p!r}")
    if p < 2:
        raise InputError(f"p must be at least 2, got {p}")
    if not (math.isfinite(L) and L > 0.0):
        raise InputError(f"L must be a positive real, got {L}")
    if not (math.isfinite(b) and b >= 0.0):
        raise InputError(f"b must be a nonnegative real, got {b}")
    gamma = 2.0 * (L + 1.0 + b)
    t = gamma * math.sqrt(math.log(p))
    # 2 * (1 - Phi(t)) = erfc(t / sqrt(2)), computed without cancellation.
    return _erfc_scalar(t / _SQRT2)
