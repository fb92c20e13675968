"""Marginal screening of features across multiple studies.

Three screeners operate on a :class:`MultiStudy`:

* two-step aggregation: per-study self-normalized tests, then a chi-square
  test on the sum of squared statistics from the studies whose individual
  test did not reject;
* one-step: keep a feature only when every study individually rejects;
* min-correlation ranking: order features by the minimum absolute Pearson
  correlation across studies and keep the top d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumnError, InputError
from .stats_core import (_exact_sum, _t_from_centered, center_column,
                         chi2_quantile, normal_quantile)

__all__ = [
    "Study",
    "MultiStudy",
    "ScreeningConfig",
    "FeatureScreenRecord",
    "ScreeningResult",
    "Step1Output",
    "compute_t_matrix",
    "compute_correlation_matrix",
    "step1_separate",
    "step1_from_stats",
    "step2_aggregate",
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
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise InputError(f"study {self.id!r}: entries must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


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
            v = getattr(self, name)
            if not (np.ndim(v) == 0 and 0.0 < float(v) < 1.0):
                raise InputError(f"{name} must lie strictly inside (0, 1), got {v!r}")


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


@dataclass(frozen=True)
class Step1Output:
    """Per-feature first-step evidence: (l_hat, kappa_hat, t_stats) tuples."""

    entries: tuple[tuple[tuple[int, ...], int, np.ndarray], ...]
    alpha1: float
    threshold: float

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]


def _centered_pairs(data: MultiStudy):
    """(j, k, study, cx, var_x, cy, var_y) per (feature, study): centered
    columns and their 1/n variances; a constant response raises."""
    for ki, study in enumerate(data.studies):
        cy, var_y = center_column(study.y)
        if var_y <= 0.0:
            raise DegenerateColumnError(
                f"response in study {study.id!r} has zero variance")
        for j in range(data.p):
            cx, var_x = center_column(study.x[:, j])
            yield j, ki, study, cx, var_x, cy, var_y


def compute_t_matrix(data: MultiStudy) -> np.ndarray:
    """Self-normalized statistics for every (feature, study) pair, shape (p, K).

    Degenerate columns raise :class:`DegenerateColumnError` naming the
    feature and study.
    """
    out = np.empty((data.p, data.k))
    for j, ki, study, cx, var_x, cy, var_y in _centered_pairs(data):
        label = f"{data.feature_names[j]} (study {study.id!r})"
        out[j, ki] = _t_from_centered(cx, cy, study.n, var_x, var_y,
                                      label=label).value
    return out


def compute_correlation_matrix(data: MultiStudy) -> np.ndarray:
    """Pearson sample correlations for every (feature, study) pair, shape (p, K)."""
    out = np.empty((data.p, data.k))
    for j, ki, study, cx, var_x, cy, var_y in _centered_pairs(data):
        if var_x <= 0.0:
            raise DegenerateColumnError(
                f"feature {data.feature_names[j]!r} has zero variance "
                f"in study {study.id!r}")
        cov = _exact_sum(cx * cy) / study.n
        out[j, ki] = cov / math.sqrt(var_x * var_y)
    return out


def _resolve_threshold(alpha1: float | None, threshold: float | None) -> tuple[float, float]:
    """Returns (alpha1, threshold); either argument determines the other."""
    if threshold is not None:
        if not (np.ndim(threshold) == 0 and float(threshold) >= 0.0
                and math.isfinite(float(threshold))):
            raise InputError(f"threshold must be a finite nonnegative real, got {threshold!r}")
        threshold = float(threshold)
        # 2 * (1 - Phi(t)) without cancellation; clamp so the echoed config
        # stays inside (0, 1) even for absurdly large thresholds.
        implied = max(math.erfc(threshold / math.sqrt(2.0)), 1e-300)
        return (implied if alpha1 is None else float(alpha1)), threshold
    if alpha1 is None:
        raise InputError("either alpha1 or an explicit threshold is required")
    if not 0.0 < float(alpha1) < 1.0:
        raise InputError(f"alpha1 must lie strictly inside (0, 1), got {alpha1!r}")
    return float(alpha1), _step1_threshold(float(alpha1))


def _step1_threshold(alpha1: float) -> float:
    """Two-sided step-1 threshold Phi^-1(1 - alpha1 / 2)."""
    return normal_quantile(1.0 - alpha1 / 2.0)


def _step1_mask(t_mat: np.ndarray, threshold: float) -> np.ndarray:
    """True where |T| <= threshold: the study is in l_hat (ties go in)."""
    return np.abs(t_mat) <= threshold


def step1_from_stats(t_mat: np.ndarray, alpha1: float | None = None,
                     threshold: float | None = None) -> Step1Output:
    """First screening step from an injected (p, K) statistic matrix.

    A study lands in a feature's l_hat when |T| <= threshold (ties go in).
    """
    t_mat = np.asarray(t_mat, dtype=float)
    if t_mat.ndim != 2:
        raise InputError("statistic matrix must be 2-d (features x studies)")
    alpha1, thr = _resolve_threshold(alpha1, threshold)
    entries = []
    for row, in_l in zip(t_mat, _step1_mask(t_mat, thr)):
        l_hat = tuple(int(k) for k in np.nonzero(in_l)[0])
        entries.append((l_hat, len(l_hat), row))
    return Step1Output(entries=tuple(entries), alpha1=alpha1, threshold=thr)


def step1_separate(data: MultiStudy, alpha1: float,
                   threshold: float | None = None) -> Step1Output:
    """First screening step: per-study tests for every feature.

    No feature is removed here; the step only separates, per feature, the
    studies with potential zero correlation from the rest.
    """
    return step1_from_stats(compute_t_matrix(data), alpha1=alpha1,
                            threshold=threshold)


def _chi2_thresholds(alpha2: float, max_df: int) -> list[float]:
    # Index by kappa; entry 0 is a placeholder (no test when kappa == 0).
    return [math.inf] + [chi2_quantile(1.0 - alpha2, df)
                         for df in range(1, max_df + 1)]


def _two_step(t_mat: np.ndarray, threshold: float, chi2_table):
    """The two-step keep rule on a (p, K) matrix at one step-1 threshold.

    Returns (kappa_hat, l_stat, keep); l_stat is the correctly rounded sum
    over l_hat. ``chi2_table`` (from :func:`_chi2_thresholds`) may be a
    stack of tables, one keep row each.
    """
    in_l = _step1_mask(t_mat, threshold)
    kappa = in_l.sum(axis=1)
    l_stat = np.array([math.fsum(r) for r in
                       np.where(in_l, t_mat * t_mat, 0.0).tolist()])
    keep = (kappa == 0) | (l_stat > np.asarray(chi2_table)[..., kappa])
    return kappa, l_stat, keep


def step2_aggregate(step1_output: Step1Output, alpha2: float) -> ScreeningResult:
    """Second screening step: chi-square test on the aggregate of the
    potential-zero studies. A feature with an empty l_hat is kept outright;
    an aggregate statistic exactly at the threshold is dropped."""
    if not 0.0 < float(alpha2) < 1.0:
        raise InputError(f"alpha2 must lie strictly inside (0, 1), got {alpha2!r}")
    rows = [t_row for _, _, t_row in step1_output]
    t_mat = np.array(rows, dtype=float) if rows else np.empty((0, 0))
    thresholds = _chi2_thresholds(float(alpha2), max(
        (kappa for _, kappa, _ in step1_output), default=0))
    _, l_stat, keep = _two_step(t_mat, step1_output.threshold, thresholds)
    config = ScreeningConfig(alpha1=step1_output.alpha1, alpha2=float(alpha2))
    return _result(step1_output, keep, config, "tsa", l_stat, thresholds)


def _result(step1: Step1Output, keep: np.ndarray, config: ScreeningConfig,
            method: str, l_stat=None, chi2_table=None) -> ScreeningResult:
    """Records and kept/dropped sets from step-1 evidence and a keep mask;
    the aggregate fields are set where kappa_hat > 0 and l_stat is given."""
    records = tuple(FeatureScreenRecord(
        feature=j, t_stats=t_row, l_hat=l_hat, kappa_hat=kappa,
        l_stat=float(l_stat[j]) if kappa and l_stat is not None else None,
        chi2_threshold=chi2_table[kappa] if kappa and l_stat is not None
        else None, kept=bool(keep[j]))
        for j, (l_hat, kappa, t_row) in enumerate(step1))
    return ScreeningResult(kept=tuple(int(j) for j in np.nonzero(keep)[0]),
                           dropped=tuple(int(j) for j in np.nonzero(~keep)[0]),
                           records=records, config=config, method=method)


def tsa_sis(data: MultiStudy, config: ScreeningConfig) -> ScreeningResult:
    """Two-step aggregation screening: step 1 then step 2."""
    return step2_aggregate(step1_separate(data, config.alpha1), config.alpha2)


def tsa_sis_from_stats(t_mat: np.ndarray, alpha2: float,
                       alpha1: float | None = None,
                       threshold: float | None = None) -> ScreeningResult:
    """Two-step screening from an injected statistic matrix.

    When an explicit first-step threshold is given, the config echoes the
    implied two-sided level 2 * (1 - Phi(threshold)).
    """
    return step2_aggregate(step1_from_stats(t_mat, alpha1=alpha1,
                                            threshold=threshold), alpha2)


def tsa_kept_mask(t_mat: np.ndarray, threshold: float, alpha2: float) -> np.ndarray:
    """Keep mask of the two-step rule, for callers that need no per-feature
    records. Kept public under this name because the benchmark tracer wraps
    it."""
    t_mat = np.asarray(t_mat, dtype=float)
    return _two_step(t_mat, threshold,
                     _chi2_thresholds(float(alpha2), t_mat.shape[1]))[2]


def one_step_sis(data: MultiStudy, alpha1: float) -> ScreeningResult:
    """Keep a feature only when every study individually rejects a zero
    correlation. Records carry step-1 evidence only (no aggregate fields);
    the config's alpha2 is a placeholder this rule never consults."""
    step1 = step1_separate(data, alpha1)
    keep = np.array([kappa == 0 for _, kappa, _ in step1], dtype=bool)
    config = ScreeningConfig(alpha1=step1.alpha1, alpha2=0.05)
    return _result(step1, keep, config, "onestep")


def min_sis_rank(data: MultiStudy, score: str = "pearson") -> list[tuple[int, float]]:
    """Rank features by the minimum absolute marginal association across
    studies, strongest first; ties break toward the lower feature index.

    ``score`` selects Pearson correlation (default) or the self-normalized
    statistic.
    """
    if score == "pearson":
        mat = compute_correlation_matrix(data)
    elif score == "tstat":
        mat = compute_t_matrix(data)
    else:
        raise InputError(f"unknown score {score!r}; expected 'pearson' or 'tstat'")
    order, scores = _min_rank(mat)
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


def _top_d(data: MultiStudy, d: int | None) -> int:
    """d as given, else the default of the smallest study."""
    return default_top_d(min(s.n for s in data.studies)) if d is None else d
