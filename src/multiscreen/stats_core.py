"""Normal and chi-square distribution functions plus the self-normalized
covariance statistic.

Everything here is dependency-free (numpy only) and deterministic: the
distribution functions are classical rational approximations refined by
Newton steps, and the statistic accumulates moments with correctly rounded
column sums (:func:`_exact_colsum`, equal to ``math.fsum`` per column), so
the marginal statistics are bit-identical under joint permutation of the
observations. Bits are the same for a given numpy build and SIMD dispatch:
the distribution functions call ``np.exp`` and ``np.log``, whose results
move in the last bit with, for instance, numpy's AVX-512 kernels disabled.
The conditional statistics of ``multi_pc`` solve by LAPACK and are not
invariant under a row permutation.
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
# erfc (Cody, "Rational Chebyshev approximations for the error function",
# Math. Comp. 23, 1969) and the inverse normal CDF (Acklam's rationals).
# Each branch is one function that takes a float or an array; the array
# dispatchers merge branch results by boolean mask, the scalar ones pick a
# branch by comparison, so the two paths run the same IEEE operations.
# Both use np.exp/np.log: math.exp rounds differently.
# ---------------------------------------------------------------------------

# Coefficients highest degree first, in the order _horner reads them; a
# leading 1.0 marks a monic polynomial.
_ERF_A = (1.85777706184603153e-1, 3.16112374387056560e00,
          1.13864154151050156e02, 3.77485237685302021e02,
          3.20937758913846947e03)
_ERF_B = (1.0, 2.36012909523441209e01, 2.44024637934444173e02,
          1.28261652607737228e03, 2.84423683343917062e03)
_ERF_C = (2.15311535474403846e-8, 5.64188496988670089e-1,
          8.88314979438837594e00, 6.61191906371416295e01,
          2.98635138197400131e02, 8.81952221241769090e02,
          1.71204761263407058e03, 2.05107837782607147e03,
          1.23033935479799725e03)
_ERF_D = (1.0, 1.57449261107098347e01, 1.17693950891312499e02,
          5.37181101862009858e02, 1.62138957456669019e03,
          3.29079923573345963e03, 4.36261909014324716e03,
          3.43936767414372164e03, 1.23033935480374942e03)
_ERF_P = (1.63153871373020978e-2, 3.05326634961232344e-1,
          3.60344899949804439e-1, 1.25781726111229246e-1,
          1.60837851487422766e-2, 6.58749161529837803e-4)
_ERF_Q = (1.0, 2.56852019228982242e00, 1.87295284992346047e00,
          5.27905102951428412e-1, 6.05183413124413191e-2,
          2.33520497626869185e-3)


def _horner(coef, x):
    """The polynomial ``coef`` (highest degree first) at a float, or
    elementwise on an array. A monic polynomial starts from ``x + coef[1]``
    (``1.0 * x`` is exact, so this only saves a pass). Every later step
    updates in place, which rounds like ``acc * x + c`` without allocating
    a temporary per step."""
    if coef[0] == 1.0:
        acc = x + coef[1]
    else:
        acc = coef[0] * x
        acc += coef[1]
    for c in coef[2:]:
        acc *= x
        acc += c
    return acc


# The branches update in place, which rounds like the plain expression and
# saves temporaries: ``num = A; num *= x; num /= B`` is ``x * A / B``
# (products commute).

def _erfc_small(x):
    """erfc(x) for |x| <= 0.46875."""
    y = x * x
    num = _horner(_ERF_A, y)
    num *= x
    num /= _horner(_ERF_B, y)
    return 1.0 - num


def _erfc_mid(ax):
    """erfc(ax) for 0.46875 < ax <= 4."""
    num = _horner(_ERF_C, ax)
    num *= np.exp(-ax * ax)
    num /= _horner(_ERF_D, ax)
    return num


def _erfc_large(ax):
    """erfc(ax) for ax > 4."""
    y = 1.0 / (ax * ax)
    r = y * _horner(_ERF_P, y) / _horner(_ERF_Q, y)
    return np.exp(-ax * ax) / ax * (_INV_SQRT_PI - r)


def _select_bits(mask: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a`` where ``mask``, else ``b``: merges the float64 bits in place,
    b ^= (a ^ b) & -mask on int64 views (``a`` is clobbered); returns b."""
    m = mask.astype(np.int64)
    np.negative(m, out=m)
    ai, bi = a.view(np.int64), b.view(np.int64)
    ai ^= bi
    ai &= m
    bi ^= ai
    return b


def _erfc(x: np.ndarray) -> np.ndarray:
    """Complementary error function on a 1-d float array."""
    ax = np.abs(x)
    # The small and mid branches run on every lane and are merged, which is
    # cheaper than gathering and scattering each. Their inputs are clipped
    # to the branch's domain, so lanes outside it raise no overflow warning;
    # clipping leaves the lanes inside it unchanged. Both merges only select
    # lanes, without a masked ufunc: on a 12 288-lane block of normal_quantile
    # np.copyto(..., where=) took about 70 us and np.subtract(..., where=)
    # about 70 us, against 17 us for the bitwise merge of the small and mid
    # branches (np.where takes 44 us there: a random half-and-half mask
    # defeats branch prediction) and 19 us for np.where on the reflection,
    # comparison and subtraction included (a quarter of the lanes).
    out = _select_bits(ax <= 0.46875,
                       _erfc_small(np.clip(x, -0.46875, 0.46875)),
                       _erfc_mid(np.clip(ax, 0.46875, 4.0)))
    # The far tail is rare, so it keeps its mask; an empty one still costs a
    # scan, hence the guard.
    m3 = ax > 4.0
    if m3.any():
        out[m3] = _erfc_large(ax[m3])
    return np.where(x < -0.46875, 2.0 - out, out)


def _erfc_scalar(x: float) -> float:
    """:func:`_erfc` for one float, bit-identical to the array version."""
    ax = abs(x)
    if ax <= 0.46875:
        return _erfc_small(x)
    out = _erfc_mid(ax) if ax <= 4.0 else _erfc_large(ax)
    return float(2.0 - out if x < 0.0 else out)


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
    out = 0.5 * _erfc(-arr.ravel() / _SQRT2)
    return float(out[0]) if scalar else out.reshape(arr.shape)


# Acklam's rational approximation to the inverse normal CDF (relative
# error below 1.2e-9 on its own), followed by one Newton step on the CDF.
# The step needs no guard: the start is -38.47 at the smallest positive p,
# 5e-324, and the density there is 1.9e-322, not zero.
_NQ_A = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
_NQ_B = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01, 1.0)
_NQ_C = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
_NQ_D = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00, 1.0)
_NQ_SPLIT = 0.02425


# Lanes per block of the array quantile. Every float64 temporary of a block
# (96 KiB) stays below glibc's 128 KiB mmap threshold, so it is served from
# the heap instead of a fresh mapping that would be page-faulted in.
_NQ_BLOCK = 12_288


def _nq_central(p):
    """Acklam's start for _NQ_SPLIT <= p <= 1 - _NQ_SPLIT."""
    q = p - 0.5
    r = q * q
    num = _horner(_NQ_A, r)
    num *= q
    num /= _horner(_NQ_B, r)
    return num


def _nq_tail(r, sign):
    """Acklam's start in a tail, from r = sqrt(-2 log q) of the tail
    probability q: p with sign -1.0 below _NQ_SPLIT, 1 - p with sign 1.0
    above 1 - _NQ_SPLIT."""
    num = _horner(_NQ_C, r)
    num *= -sign
    num /= _horner(_NQ_D, r)
    return num


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
    for start in range(0, flat.size, _NQ_BLOCK):
        block = slice(start, start + _NQ_BLOCK)
        _normal_quantile_block(flat[block], z[block])
    return float(z[0]) if scalar else z.reshape(arr.shape)


def _normal_quantile_block(p: np.ndarray, z: np.ndarray) -> None:
    """Write the quantiles of one block of valid probabilities into z."""
    # The central rational runs on every lane: r = (p - 0.5)**2 <= 0.25 and
    # its denominator stays above 1e-4 there, so tail lanes raise no
    # warning. The tails (about 5 % of lanes) overwrite theirs by mask.
    z[:] = _nq_central(p)
    lo = p < _NQ_SPLIT
    if lo.any():
        z[lo] = _nq_tail(np.sqrt(-2.0 * np.log(p[lo])), -1.0)
    hi = p > 1.0 - _NQ_SPLIT
    if hi.any():
        z[hi] = _nq_tail(np.sqrt(-2.0 * np.log(1.0 - p[hi])), 1.0)

    # One Newton step on every lane. In place, it rounds like
    # z -= (0.5 * erfc(-z / sqrt 2) - p) / pdf with
    # pdf = exp(-0.5 * z * z) / sqrt(2 pi); z / -sqrt 2 is -z / sqrt 2.
    pdf = -0.5 * z
    pdf *= z
    np.exp(pdf, out=pdf)
    pdf /= _SQRT_2PI
    step = _erfc(z / -_SQRT2)
    step *= 0.5
    step -= p
    step /= pdf
    z -= step


def _normal_quantile_scalar(p: float) -> float:
    """:func:`normal_quantile` for one float without array masking;
    bit-identical to the array path (np.log and np.exp on purpose: the math
    module rounds differently; math.sqrt is correctly rounded like
    np.sqrt)."""
    if not math.isfinite(p):
        raise InputError("p must be finite")
    if not 0.0 < p < 1.0:
        raise InputError("p must lie strictly inside (0, 1)")
    if p < _NQ_SPLIT:
        z = _nq_tail(math.sqrt(-2.0 * float(np.log(p))), -1.0)
    elif p > 1.0 - _NQ_SPLIT:
        z = _nq_tail(math.sqrt(-2.0 * float(np.log(1.0 - p))), 1.0)
    else:
        z = _nq_central(p)

    pdf = float(np.exp(-0.5 * z * z)) / _SQRT_2PI
    cdf = 0.5 * _erfc_scalar(-z / _SQRT2)
    z -= (cdf - p) / pdf
    return float(z)


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

# Exact column sums (error-free extraction after Demmel & Nguyen, "Fast
# reproducible floating-point summation", ARITH 2013). For a block of at
# most 2**(k + 1) rows (k >= 2) and |x| <= 2**e, adding the shifter
# sigma = 1.5 * 2**(e + k) rounds x to a multiple of u = 2**(e + k - 52);
# subtracting sigma back gives that multiple q exactly, and the remainder
# x - q is exact with |x - q| <= u / 2. Every q is an integer of magnitude
# at most 2**(52 - k) in units of u, so the block's column sum of the q
# (a limb sum) is exact in any order. The remainder is split again with e
# lowered by 53 - k until it is zero.
_ROW_CHUNK = 4096
# Columns with n * max|x| at or above this bound go through math.fsum (which
# may raise OverflowError on them); below it no partial sum can overflow.
_SAFE_TOTAL = 2.0 ** 1000


def _exact_colsum(a: np.ndarray) -> np.ndarray:
    """Correctly rounded column sums of an (n, m) float block: entry j
    equals ``math.fsum(a[:, j].tolist())`` bit for bit, so it does not
    depend on the row order."""
    n, m = a.shape
    if n == 0 or m == 0:
        return np.zeros(m)
    rows = min(n, _ROW_CHUNK)
    k = max(2, (rows - 1).bit_length() - 1)
    # Two buffers serve every limb: fresh temporaries cost several times more.
    r, q = np.empty((rows, m)), np.empty((rows, m))
    big = np.zeros(m, dtype=bool)
    terms = []
    for i in range(0, n, rows):
        rb, qb = r[:n - i], q[:n - i]
        np.copyto(rb, a[i:i + rows])
        top = np.abs(rb, out=qb).max(axis=0)
        hit = ~(top < _SAFE_TOTAL / n)   # also NaN and inf
        if hit.any():
            big |= hit
            rb[:, hit] = 0.0
            top[hit] = 0.0
        sigma = np.ldexp(1.5, np.frexp(top)[1] + k)
        while True:
            np.add(rb, sigma, out=qb)
            qb -= sigma
            terms.append(qb.sum(axis=0))
            rb -= qb
            if not rb.any():
                break
            sigma *= 2.0 ** (k - 53)
    terms = np.array(terms)
    # With at most two nonzero terms one IEEE addition is the correctly
    # rounded sum (and +0.0 for a zero total, as math.fsum returns).
    out = terms.sum(axis=0) + 0.0
    if len(terms) > 2:
        for j in np.flatnonzero(np.count_nonzero(terms, axis=0) > 2):
            out[j] = math.fsum(terms[:, j].tolist())
    for j in np.flatnonzero(big):
        out[j] = math.fsum(a[:, j].tolist())
    return out


def _cross_products(cx: np.ndarray, cy: np.ndarray):
    """(cx * cy, its exact 1/n column means sigma_hat) for centered cx, cy:
    (n, ...) blocks that broadcast, their product flattened to (n, m)."""
    prods = (cx * cy).reshape(cx.shape[0], -1)
    return prods, _exact_colsum(prods) / cx.shape[0]


def _t_from_products(prods: np.ndarray, sigma: np.ndarray, var_x: np.ndarray,
                     var_y: np.ndarray, label=None):
    """Statistics of centered feature columns against the centered response
    from their :func:`_cross_products` (centered in place here) and their
    1/n variances; shared with the screeners. Returns the (value, sigma_hat,
    theta_hat) arrays.

    ``label(i)`` names block column i in the error raised for the first
    degenerate column.
    """
    n = prods.shape[0]
    prods -= sigma
    theta = _exact_colsum(prods * prods) / n
    floor = 1e-12 * var_x * var_y + 1e-300
    bad = np.flatnonzero(theta < floor)
    if bad.size:
        i = bad[0]
        what = "column" if label is None else f"column {label(i)!r}"
        raise DegenerateColumnError(
            f"{what} yields a degenerate self-normalized statistic "
            f"(theta_hat={theta[i]:.3e} below floor {floor[i]:.3e})")
    return math.sqrt(n) * sigma / np.sqrt(theta), sigma, theta


def center_column(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Center each column of an (n, m) block by its exact-sum mean; returns
    (centered block, 1/n variances)."""
    n = a.shape[0]
    centered = a - _exact_colsum(a) / n
    variance = _exact_colsum(centered * centered) / n
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
    c, var = center_column(np.column_stack([x, yv]))
    value, sigma, theta = _t_from_products(
        *_cross_products(c[:, :1], c[:, 1:]), var[:1], var[1:],
        label=None if label is None else lambda i: label)
    return TStat(value=float(value[0]), sigma_hat=float(sigma[0]),
                 theta_hat=float(theta[0]), n=n)


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
    return math.erfc(t / _SQRT2)
