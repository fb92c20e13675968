"""Iterative selection by screening partial correlations of increasing order.

Stage 1 is the marginal two-step screen. At stage m >= 2 a feature stays
active only if the two-step test keeps it for every conditioning set of
size m - 1 drawn from the remaining active features. The statistic for a
conditioned pair is the self-normalized statistic of the residuals after
regressing both the feature and the response on the conditioning set.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations, groupby

import numpy as np

from .errors import (BudgetExceededError, DegenerateColumnError, InputError,
                     SingularDesignError)
from .screening import (MultiStudy, ScreeningConfig, Study, _chi2_thresholds,
                        _step1_threshold, _two_step, compute_t_matrix)
from .stats_core import (TStat, _cross_products, _t_from_products,
                         center_column, self_normalized_t)

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


def residualize(x: np.ndarray, cond, target) -> np.ndarray:
    """Residual of ``target`` after least-squares projection onto the
    intercept and the columns of ``x`` indexed by ``cond``.

    ``target`` is a length-n vector or an (n, m) matrix; the columns of a
    matrix are residualized in one least-squares solve. Raises
    :class:`SingularDesignError` when the conditioning columns are rank
    deficient (up to the least-squares tolerance).
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(target, dtype=float)
    if x.ndim != 2 or t.ndim not in (1, 2) or x.shape[0] != t.shape[0]:
        raise InputError(
            "x must be (n, p) and target a length-n vector or (n, m) matrix")
    n = x.shape[0]
    cond = tuple(sorted(int(c) for c in cond))
    if len(set(cond)) != len(cond):
        raise InputError(f"conditioning set has repeated indices: {cond}")
    if any(c < 0 or c >= x.shape[1] for c in cond):
        raise InputError(f"conditioning index out of range: {cond}")
    if len(cond) >= n - 2:
        raise InputError(
            f"conditioning set of size {len(cond)} too large for n={n}")
    design = np.column_stack([np.ones(n)] + [x[:, c] for c in cond])
    coef, _, rank, _ = np.linalg.lstsq(design, t, rcond=None)
    if rank < design.shape[1]:
        raise SingularDesignError(
            f"conditioning set {cond} is rank deficient (rank {rank} "
            f"of {design.shape[1]} including the intercept)")
    return t - design @ coef


def partial_t(study: Study, j: int, cond) -> TStat:
    """Self-normalized statistic of feature ``j`` against the response after
    both are residualized on the conditioning set.

    An empty conditioning set reproduces the marginal statistic exactly
    (the statistic centers internally, so no residualization is applied).
    The sqrt(n) factor and the stored sample count are the study's n, not
    adjusted for the size of the conditioning set.
    """
    cond = tuple(sorted(int(c) for c in cond))
    j = int(j)
    if j in cond:
        raise InputError(f"feature {j} cannot condition on itself")
    if not cond:
        return self_normalized_t(study.x[:, j], study.y, label=j)
    value, sigma, theta = _conditional_stats([study], [j], cond)
    return TStat(value=float(value[0, 0]), sigma_hat=float(sigma[0, 0]),
                 theta_hat=float(theta[0, 0]), n=study.n)


def _conditional_stats(studies, features: list[int], cond: tuple[int, ...]):
    """Statistics of ``features`` given a non-empty sorted ``cond`` in every
    study. Returns the (value, sigma_hat, theta_hat) arrays, shape
    (len(features), len(studies)).

    Each study's features and response share one least-squares solve. The
    statistics of each run of consecutive studies with equal n then come
    from one exact-sum pass over their residual blocks side by side, each
    study's response multiplied into its own features. Every exact column
    sum depends on its own column only, so the entries equal those of a
    pass per study bit for bit.

    The first failing study in study order raises its first fault:
    :class:`SingularDesignError` for a rank-deficient set, then
    :class:`DegenerateColumnError` for a feature or the response in the
    span of the set, then one for a degenerate statistic.
    """
    parts = [_equal_n_stats(list(run), features, cond)
             for _, run in groupby(studies, key=lambda study: study.n)]
    return tuple(np.hstack(stats) for stats in zip(*parts))


def _equal_n_stats(run: list[Study], features: list[int],
                   cond: tuple[int, ...]):
    # The statistics of _conditional_stats for studies that share n, from
    # one (n, len(run) * (m + 1)) block: each study's residual features,
    # then its residual response. On a fault only the studies before the
    # failing one are scored, so that an earlier study's degenerate
    # statistic is raised first.
    n, m, width = run[0].n, len(features), len(features) + 1
    block, scale = np.empty((n, len(run) * width)), np.empty(len(run) * width)
    fault, done = None, 0
    for study in run:
        raw = np.column_stack([study.x[:, features], study.y])
        cols = slice(done * width, (done + 1) * width)
        try:
            block[:, cols] = residualize(study.x, cond, raw)
        except SingularDesignError as exc:
            fault = exc
            break
        scale[cols] = raw.var(axis=0)
        done += 1
    # The centered block replaces the residuals, so one copy is held.
    block, var = center_column(block[:, :done * width])
    flat = np.flatnonzero(
        var <= 1e-24 * np.maximum(scale[:done * width], 1e-300))
    if flat.size:
        done, i = divmod(int(flat[0]), width)
        what = f"feature {features[i]}" if i < m else "response"
        fault = DegenerateColumnError(
            f"{what} lies in the span of conditioning set {cond} "
            f"(study {run[done].id!r})")
    block = block[:, :done * width].reshape(n, done, width)
    var = var[:done * width].reshape(done, width)
    stats = _t_from_products(
        *_cross_products(block[:, :, :m], block[:, :, m:]),
        var[:, :m].ravel(), np.repeat(var[:, m], m),
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

    Each set costs one least-squares solve per study, then one statistic
    pass across the studies and one two-step call. ``budget`` caps the
    (feature, set) pairs a stage tests, counted as they are tested:
    :class:`BudgetExceededError` is raised before the set that would pass
    it.
    """
    if max_order < 1:
        raise InputError(f"max_order must be >= 1, got {max_order}")
    if budget < 1:
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
        for cond in combinations(active, order):
            tested = [j for j in survivors if j not in cond]
            if not tested:
                continue
            pairs += len(tested)
            if pairs > budget:
                raise BudgetExceededError(
                    f"stage {m} would test at least {pairs} (feature, set) "
                    f"pairs, exceeding the budget of {budget}")
            t_mat = _conditional_stats(data.studies, tested, cond)[0]
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
