"""Iterative selection by screening partial correlations of increasing order.

Stage 1 is the marginal two-step screen. At stage m >= 2 a feature stays
active only if the two-step test keeps it for every conditioning set of
size m - 1 drawn from the remaining active features. The statistic for a
conditioned pair is the self-normalized statistic of the residuals after
regressing both the feature and the response on the conditioning set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

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
    value, sigma, theta = _conditional_stats(study, [j], cond)
    return TStat(value=float(value[0]), sigma_hat=float(sigma[0]),
                 theta_hat=float(theta[0]), n=study.n)


def _conditional_stats(study: Study, features: list[int],
                       cond: tuple[int, ...]):
    """Statistics of ``features`` given a non-empty sorted ``cond`` in one
    study: the features and the response share one least-squares solve.
    Returns the (value, sigma_hat, theta_hat) arrays, one entry per feature.

    Raises :class:`DegenerateColumnError` when a feature or the response
    lies in the span of the conditioning set.
    """
    raw = np.column_stack([study.x[:, features], study.y])
    centered, var = center_column(residualize(study.x, cond, raw))
    flat = np.flatnonzero(var <= 1e-24 * np.maximum(raw.var(axis=0), 1e-300))
    if flat.size:
        i = flat[0]
        what = f"feature {features[i]}" if i < len(features) else "response"
        raise DegenerateColumnError(
            f"{what} lies in the span of conditioning set {cond} "
            f"(study {study.id!r})")
    return _t_from_products(*_cross_products(centered[:, :-1], centered[:, -1:]),
                            var[:-1], var[-1:], label=lambda i: features[i])


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
        pairs = len(active) * math.comb(len(active) - 1, order)
        if pairs > budget:
            raise BudgetExceededError(
                f"stage {m} would test {pairs} (feature, set) pairs, "
                f"exceeding the budget of {budget}")
        survivors = list(active)
        for cond in combinations(active, order):
            tested = [j for j in survivors if j not in cond]
            if not tested:
                continue
            t_mat = np.column_stack([_conditional_stats(study, tested, cond)[0]
                                     for study in data.studies])
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
