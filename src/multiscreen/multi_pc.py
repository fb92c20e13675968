"""Iterative selection by screening partial correlations of increasing order.

Stage 1 is the marginal two-step screen. At stage m >= 2 a feature stays
active only if the two-step test keeps it for every conditioning set of
size m - 1 drawn from the remaining active features. The statistic for a
conditioned pair is the self-normalized statistic of the residuals after
regressing both the feature and the response on the conditioning set.

The regressions are projections built from correctly rounded column sums
and elementwise arithmetic in a fixed order, with no BLAS or LAPACK call,
so every statistic is bit-identical under a permutation of a study's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations, groupby

import numpy as np

from .errors import (BudgetExceededError, DegenerateColumnError, InputError,
                     SingularDesignError)
from .screening import (MultiStudy, ScreeningConfig, Study, _all_finite,
                        _chi2_thresholds, _step1_threshold, _two_step,
                        compute_t_matrix)
from .stats_core import (TStat, _exact_colsum, _indices, _integer,
                         _real_array, _t_from_products, center_column,
                         self_normalized_t)

__all__ = [
    "StopReason",
    "MultiPcState",
    "residualize",
    "partial_t",
    "multi_pc_run",
]

DEFAULT_BUDGET = 10 ** 6


class StopReason(Enum):
    REACHED_MREACH = "reached_mreach"
    MAX_ORDER = "max_order"
    FIXPOINT = "fixpoint"


@dataclass(frozen=True)
class MultiPcState:
    """Nested active sets produced by the staged procedure."""

    stage: int
    active_sets: tuple[tuple[int, ...], ...]
    stopped_reason: StopReason

    @property
    def active(self) -> tuple[int, ...]:
        return self.active_sets[-1]


# A set is singular when one of its columns, after its projection on the
# intercept and the earlier columns of the set, keeps at most this fraction
# of its 1/n variance: its squared multiple correlation with them is above
# 1 - 1e-10.
_PIVOT_TOL = 1e-10


def residualize(x: np.ndarray, cond, target) -> np.ndarray:
    """Residual of ``target`` after least-squares projection onto the
    intercept and the columns of ``x`` indexed by ``cond``.

    ``target`` is a length-n vector or an (n, m) matrix; each column is
    residualized on its own by :func:`_project`, the kernel of the stage
    loop, so the residuals do not move under a permutation of the rows.
    Raises :class:`InputError` when ``x`` or ``target`` holds a NaN or an
    infinity, and :class:`SingularDesignError` when a conditioning column
    keeps at most 1e-10 of its variance after the projection on the
    earlier ones.
    """
    x = _real_array("x", x)
    t = _real_array("target", target)
    if x.ndim != 2 or t.ndim not in (1, 2) or x.shape[0] != t.shape[0]:
        raise InputError(
            "x must be (n, p) and target a length-n vector or (n, m) matrix")
    if not (_all_finite(x) and np.isfinite(t).all()):
        raise InputError("x and target entries must be finite")
    n = x.shape[0]
    cond = _indices("conditioning", cond, x.shape[1])
    if len(cond) >= n - 2:
        raise InputError(
            f"conditioning set of size {len(cond)} too large for n={n}")
    block, var = center_column(np.column_stack([x[:, cond], t]))
    resid, rank = _project(block[:, None, :], var[None, :len(cond)])
    if rank[0] <= len(cond):
        raise SingularDesignError(
            f"conditioning set {cond} is rank deficient (rank {rank[0]} "
            f"of {len(cond) + 1} including the intercept)")
    return resid.reshape(t.shape)


def _project(block: np.ndarray, var: np.ndarray):
    """Residuals of the targets on the conditioning columns of each study,
    and each study's rank including the intercept.

    ``block`` is (n, k, q + M): per study, the q conditioning columns, then
    the M targets, all centered by :func:`center_column`; ``var`` (k, q)
    holds the set columns' 1/n variances from that centering. The columns
    are projected out one at a time, in set order (modified Gram-Schmidt):
    one exact-sum call gives every study's products of the leading column
    with itself and the columns after it, each a correctly rounded sum, so
    none depends on the row order; the later columns then lose
    ``head * (their product / the head's)``. For q = 1 this is one exact
    sum of the Gram and the cross-products and one division. Working on
    the columns, not on the Gram, keeps the rounding error of a residual
    near eps times the set's condition number, not its square.

    A leading column whose 1/n mean square is at most ``_PIVOT_TOL`` times
    its variance is in the span of the earlier ones: it is not
    projected out (its coefficients are 0) and the study's rank stays
    lower. The residuals, a view of ``block`` (which is overwritten), come
    from exactly centered columns and are not centered again: their column
    means are at rounding level, not zero. No BLAS or LAPACK routine is
    called.
    """
    n, k = block.shape[:2]
    q = var.shape[1]
    rank = np.ones(k, dtype=int)
    for i in range(q):
        head, rest = block[:, :, i:i + 1], block[:, :, i + 1:]
        prods = head * block[:, :, i:]
        sums = _exact_colsum(prods.reshape(n, -1)).reshape(k, -1)
        kept = sums[:, 0] / n > _PIVOT_TOL * var[:, i]
        rank += kept
        coef = sums[:, 1:] / np.where(kept, sums[:, 0], np.inf)[:, None]
        rest -= np.multiply(head, coef, out=prods[:, :, 1:])
    return block[:, :, q:], rank


def partial_t(study: Study, j: int, cond) -> TStat:
    """Self-normalized statistic of feature ``j`` against the response after
    both are residualized on the conditioning set.

    An empty conditioning set reproduces the marginal statistic exactly
    (the statistic centers internally, so no residualization is applied).
    The sqrt(n) factor and the stored sample count are the study's n, not
    adjusted for the size of the conditioning set.
    """
    cond = _indices("conditioning", cond, study.p)
    (j,) = _indices("feature", (j,), study.p)
    if j in cond:
        raise InputError(f"feature {j} cannot condition on itself")
    if not cond:
        return self_normalized_t(study.x[:, j], study.y, label=j)
    value, sigma, theta = _conditional_stats([study], [j], cond)
    return TStat(value=float(value[0, 0]), sigma_hat=float(sigma[0, 0]),
                 theta_hat=float(theta[0, 0]), n=study.n)


class _Stage(tuple):
    """The studies of a stage, in study order, with the stage's columns
    centered once. ``runs`` holds, for each run of consecutive studies with
    equal n, the run, an (n, len(run), len(columns) + 1) block of every
    study's centered columns, then its centered response, and the exact 1/n
    variances of that centering."""

    def __new__(cls, studies, columns):
        stage = super().__new__(cls, studies)
        stage.index = {c: i for i, c in enumerate(columns)}
        stage.runs = []
        for n, run in groupby(stage, key=lambda study: study.n):
            run = list(run)
            block, var = center_column(np.hstack(
                [np.column_stack([study.x[:, columns], study.y])
                 for study in run]))
            stage.runs.append((run, block.reshape(n, len(run), -1),
                               var.reshape(len(run), -1)))
        return stage


def _conditional_stats(studies, features: list[int], cond: tuple[int, ...]):
    """Statistics of ``features`` given a non-empty sorted ``cond`` in every
    study. Returns the (value, sigma_hat, theta_hat) arrays, shape
    (len(features), len(studies)).

    ``studies`` is a :class:`_Stage`, or a sequence of studies to center
    here. Each run of consecutive studies with equal n makes one
    :func:`_project` call for the features and the response of all its
    studies (one exact-sum call per column of the set), then one exact-sum
    call for the residuals' 1/n variances and cross-product means
    sigma_hat, and one for theta_hat. Every exact column sum depends on its
    own column only, so the entries equal those of a pass per study bit
    for bit, and none moves under a permutation of a study's rows.

    The first failing study in study order raises its first fault:
    :class:`SingularDesignError` for a set column that keeps at most 1e-10
    of its variance after the projection on the earlier ones, then
    :class:`DegenerateColumnError` for a feature or the response in the
    span of the set (1/n residual variance at most 1e-24 times its centered
    variance), then one for a degenerate statistic.
    """
    if not isinstance(studies, _Stage):
        studies = _Stage(studies, [*cond, *features])
    pick = [studies.index[c] for c in (*cond, *features)] + [-1]
    parts = [_equal_n_stats(*run, pick, features, cond)
             for run in studies.runs]
    if len(parts) == 1:
        return parts[0]
    return tuple(np.hstack(stats) for stats in zip(*parts))


def _equal_n_stats(run: list[Study], block: np.ndarray, var: np.ndarray,
                   pick: list[int], features: list[int],
                   cond: tuple[int, ...]):
    # The statistics of _conditional_stats for one run of a _Stage. On a
    # fault only the studies before the failing one are scored, so that an
    # earlier study's degenerate statistic is raised first.
    n, k, q, m = block.shape[0], len(run), len(cond), len(features)
    resid, rank = _project(np.take(block, pick, axis=2), var[:, pick[:q]])
    # One block holds the cross-products, then the squared residuals, so
    # that one exact-sum call serves both and the statistics read a view.
    work = np.empty((n, k * (2 * m + 1)))
    prods = work[:, :k * m]
    np.multiply(resid[:, :, :m], resid[:, :, m:],
                out=prods.reshape(n, k, m))
    np.multiply(resid, resid, out=work[:, k * m:].reshape(n, k, m + 1))
    del resid   # frees the gathered block before theta_hat's temporaries
    sums = _exact_colsum(work) / n
    sigma, var_r = sums[:k * m], sums[k * m:].reshape(k, m + 1)
    span = var_r <= 1e-24 * np.maximum(var[:, pick[q:]], 1e-300)
    done = k
    fault = None
    bad = np.flatnonzero((rank <= q) | span.any(axis=1))
    if bad.size:
        done = int(bad[0])
        if rank[done] <= q:
            fault = SingularDesignError(
                f"conditioning set {cond} is rank deficient (rank "
                f"{rank[done]} of {q + 1} including the intercept)")
        else:
            i = int(np.flatnonzero(span[done])[0])
            what = f"feature {features[i]}" if i < m else "response"
            fault = DegenerateColumnError(
                f"{what} lies in the span of conditioning set {cond} "
                f"(study {run[done].id!r})")
    stats = _t_from_products(
        prods[:, :done * m], sigma[:done * m],
        var_r[:done, :m].ravel(), np.repeat(var_r[:done, m], m),
        label=lambda i: features[i % m])
    if fault is not None:
        raise fault
    return tuple(a.reshape(done, m).T for a in stats)


def multi_pc_run(data: MultiStudy, config: ScreeningConfig, max_order: int,
                 budget: int = DEFAULT_BUDGET) -> MultiPcState:
    """Run the staged procedure up to ``max_order`` conditioning stages.

    The procedure stops at the first stage m with at most m active
    features, at ``max_order``, or when a stage leaves the active set
    unchanged, whichever comes first. A stage walks the conditioning sets
    in lexicographic index order and tests, in one batch, every feature
    outside the set that has passed all earlier sets. For a feature j the
    sets without j come in the order of the sets drawn from the other
    active features, so j is tested on the same sets as by a per-feature
    loop that stops at j's first failure; since a feature survives only
    by passing every set, the result does not depend on the order.

    Each stage centers its active columns and the response once. Each set
    then costs one exact projection for all studies of equal n, one
    statistic pass across them and one two-step call. ``budget`` caps the
    (feature, set) pairs a stage tests, counted as they are tested:
    :class:`BudgetExceededError` is raised before the set that would pass
    it.
    """
    if _integer("max_order", max_order) < 1:
        raise InputError(f"max_order must be >= 1, got {max_order}")
    if _integer("budget", budget) < 1:
        raise InputError(f"budget must be positive, got {budget}")

    threshold = _step1_threshold(config.alpha1)
    chi2_thresholds = np.array(_chi2_thresholds(config.alpha2, data.k))
    active = np.flatnonzero(_two_step(compute_t_matrix(data), threshold,
                                      chi2_thresholds)[2]).tolist()
    active_sets = [tuple(active)]
    if len(active) <= 1:
        return MultiPcState(stage=1, active_sets=tuple(active_sets),
                            stopped_reason=StopReason.REACHED_MREACH)
    if max_order == 1:
        return MultiPcState(stage=1, active_sets=tuple(active_sets),
                            stopped_reason=StopReason.MAX_ORDER)

    min_n = min(s.n for s in data.studies)
    stage = 1
    reason = StopReason.MAX_ORDER
    for m in range(2, max_order + 1):
        order = m - 1
        if order > min_n - 3:
            raise InputError(
                f"stage {m} needs conditioning sets of size {order}, too "
                f"large for the smallest study (n={min_n})")
        pairs = 0
        survivors = list(active)
        studies = _Stage(data.studies, active)
        for cond in combinations(active, order):
            tested = [j for j in survivors if j not in cond]
            if not tested:
                continue
            pairs += len(tested)
            if pairs > budget:
                raise BudgetExceededError(
                    f"stage {m} would test at least {pairs} (feature, set) "
                    f"pairs, exceeding the budget of {budget}")
            t_mat = _conditional_stats(studies, tested, cond)[0]
            verdict = dict(zip(tested, _two_step(t_mat, threshold,
                                                 chi2_thresholds)[2]))
            survivors = [j for j in survivors if verdict.get(j, True)]
        previous = active
        active = survivors
        active_sets.append(tuple(active))
        stage = m
        if len(active) <= m:
            reason = StopReason.REACHED_MREACH
            break
        if active == previous:
            reason = StopReason.FIXPOINT
            break
    return MultiPcState(stage=stage, active_sets=tuple(active_sets),
                        stopped_reason=reason)
