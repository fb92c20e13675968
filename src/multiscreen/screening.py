"""Marginal screening of features across multiple studies.

Three screeners operate on a :class:`MultiStudy`:

* two-step aggregation (:func:`tsa_sis`; :func:`tsa_sis_from_stats` on a
  given (p, K) statistic matrix): per-study self-normalized tests, then a
  chi-square test on the sum of squared statistics from the studies whose
  individual test did not reject;
* one-step (:func:`one_step_sis`): keep a feature only when every study
  individually rejects;
* min-correlation ranking (:func:`min_sis_rank`): order features by the
  minimum absolute Pearson correlation across studies and keep the top d.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import compress, repeat

import numpy as np

from .errors import DegenerateColumnError, InputError
from .stats_core import (_cross_products, _exact_colsum, _t_from_products,
                         center_column, chi2_quantile, normal_quantile)

__all__ = [
    "Study",
    "MultiStudy",
    "ScreeningConfig",
    "FeatureScreenRecord",
    "ScreeningResult",
    "compute_t_matrix",
    "compute_correlation_matrix",
    "tsa_sis",
    "tsa_sis_from_stats",
    "tsa_kept_mask",
    "one_step_sis",
    "min_sis_rank",
    "top_d_selection",
    "default_top_d",
]


@dataclass(frozen=True)
class Study:
    """One study's design matrix (n rows, p feature columns) and response."""

    id: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2:
            raise InputError(f"study {self.id!r}: x must be a 2-d matrix")
        if y.ndim != 1:
            raise InputError(f"study {self.id!r}: y must be a 1-d vector")
        if x.shape[0] != y.shape[0]:
            raise InputError(
                f"study {self.id!r}: x has {x.shape[0]} rows but y has {y.shape[0]}")
        if x.shape[0] < 3:
            raise InputError(f"study {self.id!r}: need at least 3 observations")
        if x.shape[1] < 1:
            raise InputError(f"study {self.id!r}: need at least one feature")
        if not (_all_finite(x) and np.all(np.isfinite(y))):
            raise InputError(f"study {self.id!r}: entries must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the 2-d float array ``a`` is finite, without
    an entry-sized bool array: a column whose sum is finite holds no NaN or
    ±inf, and only a column whose sum is not (an overflow included) is
    checked entry by entry."""
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~np.isfinite(a.sum(axis=0))
    return not bad.any() or bool(np.isfinite(a[:, bad]).all())


@dataclass(frozen=True)
class MultiStudy:
    """An ordered collection of studies sharing one feature list.

    Per-study sample sizes may differ; the feature count and ordering must
    be identical everywhere.
    """

    studies: tuple[Study, ...]
    feature_names: tuple[str, ...]

    def __post_init__(self):
        studies = tuple(self.studies)
        names = tuple(str(s) for s in self.feature_names)
        if len(studies) < 1:
            raise InputError("need at least one study")
        if len(set(names)) != len(names):
            raise InputError("feature names must be unique")
        p = len(names)
        for s in studies:
            if s.p != p:
                raise InputError(
                    f"study {s.id!r} has {s.p} features, expected {p}")
        if len({s.id for s in studies}) != len(studies):
            raise InputError("study ids must be unique")
        object.__setattr__(self, "studies", studies)
        object.__setattr__(self, "feature_names", names)

    @property
    def p(self) -> int:
        return len(self.feature_names)

    @property
    def k(self) -> int:
        return len(self.studies)


@dataclass(frozen=True)
class ScreeningConfig:
    """Significance levels for the two screening steps."""

    alpha1: float = 1e-4
    alpha2: float = 0.05

    def __post_init__(self):
        for name in ("alpha1", "alpha2"):
            object.__setattr__(self, name, _level(name, getattr(self, name)))


def _real(v) -> float | None:
    """``v`` as a float when it is one real number (a 0-d real array
    included), else None: strings, None and complex numbers are not."""
    if isinstance(v, numbers.Real) or (
            np.ndim(v) == 0 and np.asarray(v).dtype.kind in "iuf"):
        return float(v)
    return None


def _level(name: str, v) -> float:
    """``v`` as a float strictly inside (0, 1): the check of every
    significance level, in configs and simulation specs alike."""
    level = _real(v)
    if level is None or not 0.0 < level < 1.0:
        raise InputError(f"{name} must lie strictly inside (0, 1), got {v!r}")
    return level


@dataclass(frozen=True)
class FeatureScreenRecord:
    """Per-feature screening evidence.

    ``l_hat`` holds 0-based study positions whose individual test did not
    reject; ``l_stat`` and ``chi2_threshold`` are None when ``kappa_hat``
    is zero (or for step-1-only screeners).
    """

    feature: int
    t_stats: np.ndarray
    l_hat: tuple[int, ...]
    kappa_hat: int
    l_stat: float | None
    chi2_threshold: float | None
    kept: bool


@dataclass(frozen=True)
class ScreeningResult:
    """Partition of the features into kept and dropped sets."""

    kept: tuple[int, ...]
    dropped: tuple[int, ...]
    records: tuple[FeatureScreenRecord, ...]
    config: ScreeningConfig
    method: str = "tsa"


# Feature columns per block: bounds the (n, chunk) temporaries of the
# statistic matrices. _exact_colsum rounds each column correctly, so the
# width moves no bit. Both matrices of a setting-1 instance (n = 100,
# p = 1000, K = 5) took 11.3 ms at 128 columns, 9.1 ms at 256, 10.8 ms at
# 512 and 19.2 ms at 1 024 (best of 45 calls, 2-core x86-64 host).
_CHUNK = 256


def _stat_matrices(data: MultiStudy, names) -> dict:
    """The (p, K) matrices in ``names``, "t" (self-normalized statistics)
    and "corr" (Pearson correlations, from the same sigma_hat), from one
    centering of every column. Each maps to its matrix or to the error of
    its first degenerate column or response, in study-major order."""
    out = {name: np.empty((data.p, data.k)) for name in names}
    for k, study in enumerate(data.studies):
        _stat_columns(out, k, study, data.feature_names.__getitem__)
    return out


def _stat_columns(out: dict, k: int, study: Study, feature) -> None:
    """Column k of every (p, K) matrix in ``out`` that is still an array,
    "t" or "corr" as in :func:`_stat_matrices`, from one centering of
    ``study``'s columns. A matrix whose first degenerate column or response
    lies in this study is replaced by that error, so calls over the studies
    in order give :func:`_stat_matrices`' study-major errors. ``feature(j)``
    names column j in the messages."""
    filling = {name for name, mat in out.items() if isinstance(mat, np.ndarray)}
    if not filling:
        return
    cy, var_y = center_column(study.y[:, None])
    if var_y[0] <= 0.0:
        out.update(dict.fromkeys(filling, DegenerateColumnError(
            f"response in study {study.id!r} has zero variance")))
        return
    for j0 in range(0, study.p, _CHUNK):
        cx, var_x = center_column(study.x[:, j0:j0 + _CHUNK])
        cols = (slice(j0, j0 + cx.shape[1]), k)
        prods, sigma = _cross_products(cx, cy)
        flat = np.flatnonzero(var_x <= 0.0)
        if "corr" in filling and flat.size:
            filling.remove("corr")
            out["corr"] = DegenerateColumnError(
                f"feature {feature(j0 + flat[0])!r} has zero "
                f"variance in study {study.id!r}")
        elif "corr" in filling:
            out["corr"][cols] = sigma / np.sqrt(var_x * var_y)
        if "t" in filling:
            try:
                out["t"][cols] = _t_from_products(
                    prods, sigma, var_x, var_y, label=lambda i: (
                        f"{feature(j0 + i)} (study {study.id!r})"))[0]
            except DegenerateColumnError as exc:
                filling.remove("t")
                out["t"] = exc
        if not filling:
            return


def _one_matrix(data: MultiStudy, name: str) -> np.ndarray:
    out = _stat_matrices(data, (name,))[name]
    if isinstance(out, DegenerateColumnError):
        raise out
    return out


def compute_t_matrix(data: MultiStudy) -> np.ndarray:
    """Self-normalized statistics for every (feature, study) pair, shape (p, K).

    Degenerate columns raise :class:`DegenerateColumnError` naming the
    first such feature and study, in study-major order.
    """
    return _one_matrix(data, "t")


def compute_correlation_matrix(data: MultiStudy) -> np.ndarray:
    """Pearson sample correlations for every (feature, study) pair, shape (p, K)."""
    return _one_matrix(data, "corr")


def _levels(alpha1, alpha2, threshold) -> tuple[ScreeningConfig, float]:
    """The config and step-1 threshold of one screen, whose step-1 test is
    set by exactly one of alpha1 and an explicit threshold."""
    if (alpha1 is None) == (threshold is None):
        raise InputError("give exactly one of alpha1 and an explicit threshold")
    if threshold is None:
        config = ScreeningConfig(alpha1, alpha2)
        return config, _step1_threshold(config.alpha1)
    value = _real(threshold)
    if value is None or not (value >= 0.0 and math.isfinite(value)):
        raise InputError(f"threshold must be a finite nonnegative real, got {threshold!r}")
    threshold = value
    # 2 * (1 - Phi(t)) without cancellation; clamp so the echoed config
    # stays inside (0, 1) even for absurdly large thresholds.
    implied = max(math.erfc(threshold / math.sqrt(2.0)), 1e-300)
    if implied >= 1.0:
        raise InputError(f"threshold {threshold!r} is too small: its step-1 "
                         "level 2 * (1 - Phi(threshold)) rounds to 1")
    return ScreeningConfig(implied, alpha2), threshold


def _step1_threshold(alpha1: float) -> float:
    """Two-sided step-1 threshold Phi^-1(1 - alpha1 / 2)."""
    return normal_quantile(1.0 - alpha1 / 2.0)


def _step1_mask(t_mat: np.ndarray, threshold: float) -> np.ndarray:
    """True where |T| <= threshold: the study is in l_hat (ties go in)."""
    return np.abs(t_mat) <= threshold


def _chi2_thresholds(alpha2: float, max_df: int) -> list[float]:
    # Index by kappa; entry 0 is a placeholder (no test when kappa == 0).
    return [math.inf] + [chi2_quantile(1.0 - alpha2, df)
                         for df in range(1, max_df + 1)]


def _two_step(t_mat: np.ndarray, threshold: float, chi2_table):
    """The two-step keep rule on a (p, K) matrix at one step-1 threshold.

    Returns (kappa_hat, l_stat, keep); l_stat is the correctly rounded sum
    over l_hat. ``chi2_table`` (from :func:`_chi2_thresholds`) may be a
    stack of tables, one keep row each. An empty l_hat keeps the feature;
    an aggregate exactly at the threshold drops it.
    """
    in_l = _step1_mask(t_mat, threshold)
    kappa = in_l.sum(axis=1)
    l_stat = _exact_colsum(np.where(in_l, t_mat * t_mat, 0.0).T)
    keep = (kappa == 0) | (l_stat > np.asarray(chi2_table)[..., kappa])
    return kappa, l_stat, keep


def _screen(t_mat: np.ndarray, config: ScreeningConfig, threshold: float,
            method: str) -> ScreeningResult:
    """Records and kept/dropped sets of the two-step rule ("tsa") or of the
    one-step rule ("onestep": keep where kappa_hat == 0, no aggregate
    fields) on a (p, K) statistic matrix."""
    in_l = _step1_mask(t_mat, threshold)
    if method == "tsa":
        table = _chi2_thresholds(config.alpha2, t_mat.shape[1])
        kappa, l_stat, keep = _two_step(t_mat, threshold, table)
        aggregates = [(s, table[k]) if k else (None, None)
                      for k, s in zip(kappa.tolist(), l_stat.tolist())]
    else:
        keep = ~in_l.any(axis=1)
        aggregates = repeat((None, None))
    l_hats = [tuple(compress(range(t_mat.shape[1]), mask))
              for mask in in_l.tolist()]
    records = tuple(FeatureScreenRecord(
        feature=j, t_stats=row, l_hat=l_hat, kappa_hat=len(l_hat),
        l_stat=agg[0], chi2_threshold=agg[1], kept=kept)
        for j, (row, l_hat, agg, kept) in enumerate(
            zip(t_mat, l_hats, aggregates, keep.tolist())))
    return ScreeningResult(kept=tuple(np.flatnonzero(keep).tolist()),
                           dropped=tuple(np.flatnonzero(~keep).tolist()),
                           records=records, config=config, method=method)


def tsa_sis(data: MultiStudy, config: ScreeningConfig) -> ScreeningResult:
    """Two-step aggregation screening: step 1 then step 2."""
    return tsa_sis_from_stats(compute_t_matrix(data), config.alpha2,
                              alpha1=config.alpha1)


def tsa_sis_from_stats(t_mat: np.ndarray, alpha2: float,
                       alpha1: float | None = None,
                       threshold: float | None = None) -> ScreeningResult:
    """Two-step screening from an injected (p, K) statistic matrix.

    Exactly one of ``alpha1`` and an explicit ``threshold`` sets step 1; a
    threshold's config echoes the implied level 2 * (1 - Phi(threshold)).
    A study lands in a feature's l_hat when |T| <= threshold (ties go in).
    """
    t_mat = np.asarray(t_mat, dtype=float)
    if t_mat.ndim != 2 or t_mat.shape[1] < 1 or np.isnan(t_mat).any():
        raise InputError("statistic matrix must be 2-d (features x studies) "
                         "with at least one study column and no NaN")
    config, thr = _levels(alpha1, alpha2, threshold)
    return _screen(t_mat, config, thr, "tsa")


def tsa_kept_mask(t_mat: np.ndarray, threshold: float, alpha2: float) -> np.ndarray:
    """Keep mask of the two-step rule, for callers that need no per-feature
    records (the screen of ``tsa_sis_group_lasso``)."""
    t_mat = np.asarray(t_mat, dtype=float)
    return _two_step(t_mat, threshold,
                     _chi2_thresholds(float(alpha2), t_mat.shape[1]))[2]


def one_step_sis(data: MultiStudy, alpha1: float) -> ScreeningResult:
    """Keep a feature only when every study individually rejects a zero
    correlation. Records carry step-1 evidence only (no aggregate fields);
    the config's alpha2 is a placeholder this rule never consults."""
    config, thr = _levels(alpha1, 0.05, None)
    return _screen(compute_t_matrix(data), config, thr, "onestep")


def min_sis_rank(data: MultiStudy) -> list[tuple[int, float]]:
    """Rank features by the minimum absolute Pearson correlation across
    studies, strongest first; ties break toward the lower feature index."""
    order, scores = _min_rank(compute_correlation_matrix(data))
    return [(int(j), float(scores[j])) for j in order]


def _min_rank(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores min_k |mat[j, k]| and the order by score descending, ties
    toward the lower index: (order, scores)."""
    scores = np.abs(mat).min(axis=1)
    return np.lexsort((np.arange(scores.shape[0]), -scores)), scores


def top_d_selection(ranking: list[tuple[int, float]], d: int,
                    p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a ranking into (kept, dropped) index tuples by keeping the top d."""
    if not 0 <= d <= p:
        raise InputError(f"d must lie in [0, {p}], got {d}")
    if len(ranking) != p:
        raise InputError(f"ranking covers {len(ranking)} features, expected {p}")
    top = {j for j, _ in ranking[:d]}
    kept = tuple(sorted(top))
    dropped = tuple(j for j in range(p) if j not in top)
    return kept, dropped


def default_top_d(n: int) -> int:
    """Default kept-set size floor(n / log n) for the ranking screener."""
    if n < 3:
        raise InputError(f"need n >= 3, got {n}")
    return max(1, int(math.floor(n / math.log(n))))


def _top_d(n_min: int, d: int | None) -> int:
    """d as given, else the default of the smallest study, of n_min rows."""
    return default_top_d(n_min) if d is None else d
