"""Second-stage selection on a screened feature set.

One coefficient vector per study is fit jointly under a squared loss summed
over studies plus a group penalty: each feature's coefficients across
studies form one group penalized by its Euclidean norm, so a feature is
selected in all studies or in none. Columns are centered and scaled to
unit 1/n-variance per study internally; reported coefficients and
intercepts are on the original scale.

Each iteration is one sweep of cyclic block proximal gradient steps
(group soft-thresholding) at the fixed step 1/(2 max n_k), which
majorizes every block's loss because the standardized columns have
squared norm n_k. The sweep decides the support: a block is set to
exactly zero iff its gradient at the block origin fits in the penalty
ball. On the nonzero groups the objective is smooth, so a sweep that
does not meet the stop rule is followed by one Newton step on those
groups (an active-set proximal Newton method; Lee, Sun & Saunders, SIAM
J. Optim. 24(3), 2014), damped by halving until the objective does not
rise. Zero groups stay exactly zero in that step. Ordered by study, its
Hessian on the a nonzero groups is M - U C U': K blocks 2 G_k[A, A] +
diag(c), c_j = lambda/|b_j|, less each group's rank-one penalty curvature.
So the step is one batched solve of the K blocks plus one a x a capacitance
solve (Sherman-Morrison-Woodbury; Hager, SIAM Review 31(2), 1989).

Covariance form (Friedman, Hastie & Tibshirani 2010): per study k, the
Gram matrix G_k of the standardized columns and c_k = Xs_k' (y_k - ybar_k)
give every block gradient 2(c_k[j] - G_k[j] beta_k) at once; lambda_max,
the KKT check and the Newton step read the same arrays, and a penalty
path builds them once for all its penalties. The objective is still
summed from residuals once per sweep and once per Newton trial, since
y'y - 2c'beta + beta'G beta cancels badly near a good fit. c takes one
dot product per column, not a matrix-vector product, so lambda_max and
the penalty grid keep their exact bits. The fitted coefficients do not:
like ``gram``, they depend on the BLAS/LAPACK kernels, here also through
the Newton step's ``np.linalg.solve``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateColumnError, InputError, SelectionError,
                     SingularDesignError)
from .screening import (MultiStudy, ScreeningConfig, Study, _step1_threshold,
                        compute_t_matrix, tsa_kept_mask)

__all__ = [
    "GroupLassoFit",
    "SelectionModel",
    "OlsStudyFit",
    "lambda_max",
    "group_lasso_fit",
    "select_lambda",
    "tsa_sis_group_lasso",
    "ols_refit",
]

# Solver limits: sweeps per fit, relative objective change, KKT residual;
# and the number of cross-validation folds.
_MAX_ITER = 10000
_TOL = 1e-10
_KKT_TOL = 1e-6
_FOLDS = 5


@dataclass(frozen=True)
class GroupLassoFit:
    """Converged (or best-effort) group-penalized fit.

    ``beta`` is (len(features), K) on the original data scale; ``beta_std``
    holds the coefficients of the internally standardized problem on which
    the KKT residual is defined. ``selected`` are the features whose group
    norm is exactly nonzero. ``iterations`` counts sweeps;
    ``objective_trace`` holds one entry per sweep and one per accepted
    Newton step, in the order they were taken, so it never rises.
    """

    features: tuple[int, ...]
    beta: np.ndarray
    intercepts: np.ndarray
    lambda_: float
    objective_trace: tuple[float, ...]
    converged: bool
    iterations: int
    kkt_residual: float
    beta_std: np.ndarray
    selected: tuple[int, ...]
    warning: str | None = None


@dataclass(frozen=True)
class SelectionModel:
    """End-to-end result: screen, tune the penalty, fit, select."""

    screened: tuple[int, ...]
    selected: tuple[int, ...]
    lambda_: float | None
    fit: GroupLassoFit | None
    diagnostics: tuple[dict, ...] | None
    tune_method: str | None
    empty_screen: bool = False


@dataclass(frozen=True)
class OlsStudyFit:
    """Per-study least-squares refit on the selected features."""

    study_id: str
    intercept: float
    intercept_se: float
    coef: np.ndarray
    coef_se: np.ndarray
    r2: float
    adj_r2: float
    sigma2: float


def _check_active(data: MultiStudy, active) -> tuple[int, ...]:
    active = tuple(sorted(int(j) for j in active))
    if not active:
        raise InputError("active feature set must not be empty")
    if len(set(active)) != len(active):
        raise InputError("active feature set has repeated indices")
    if active[0] < 0 or active[-1] >= data.p:
        raise InputError(f"active feature index out of range [0, {data.p})")
    return active


def _standardize(data: MultiStudy, active: tuple[int, ...]):
    """Center y and center/scale the active columns per study; also return
    the per-study Gram matrices ``gram`` (K, m, m) and the inner products
    ``c`` (m, K) of the standardized columns with the centered response."""
    m, K = len(active), data.k
    xs, cys = [], []
    xbar = np.empty((m, K))
    scale = np.empty((m, K))
    ybar = np.empty(K)
    for k, study in enumerate(data.studies):
        sub = study.x[:, active]
        mu = sub.mean(axis=0)
        cx = sub - mu
        sd = np.sqrt((cx * cx).mean(axis=0))
        bad = np.nonzero(sd <= 0.0)[0]
        if bad.size:
            raise DegenerateColumnError(
                f"feature {data.feature_names[active[bad[0]]]!r} has zero "
                f"variance in study {study.id!r}")
        xs.append(cx / sd)
        ybar[k] = study.y.mean()
        cys.append(study.y - ybar[k])
        xbar[:, k] = mu
        scale[:, k] = sd
    gram = np.stack([x.T @ x for x in xs])
    # One dot product per column, not x.T @ cy: the penalty grid is built
    # from lambda_max and must keep its exact bits.
    c = np.array([[float(x[:, j] @ cy) for x, cy in zip(xs, cys)]
                  for j in range(m)])
    return xs, cys, xbar, scale, ybar, gram, c


def lambda_max(data: MultiStudy, active) -> float:
    """Smallest penalty at which the all-zero solution is optimal:
    max_j of the group norm of 2 * Xs_j' (y - ybar) across studies."""
    return _lambda_max(_standardize(data, _check_active(data, active))[-1])


def _lambda_max(c) -> float:
    return max(_group_norm(2.0 * cj) for cj in c)


def _group_norm(z) -> float:
    """Euclidean norm from exact squares (v * v; v ** 2 goes through libm
    pow) and an exact sum, shared by lambda_max and the zero-block test."""
    return math.sqrt(math.fsum((z * z).tolist()))


def _objective(xs, cys, beta_std, lam) -> float:
    # The loss comes from the residuals themselves: the Gram form
    # y'y - 2c'beta + beta'G beta cancels badly when the fit is good.
    loss = math.fsum(float(r @ r) for r in
                     (cy - x @ b for x, cy, b in zip(xs, cys, beta_std.T)))
    return loss + lam * math.fsum(np.sqrt((beta_std * beta_std).sum(axis=1)))


def _gradient(gram, c, beta_std) -> np.ndarray:
    """Loss gradient -2(c - G beta) of every group at once, (m, K)."""
    return -2.0 * (c - np.einsum("kjl,lk->jk", gram, beta_std))


def _kkt_residual(gram, c, beta_std, lam) -> float:
    """Largest violation of the group optimality conditions; NaN if any
    group's violation is NaN, so a NaN fit never counts as converged."""
    g = _gradient(gram, c, beta_std)
    norms = np.sqrt((beta_std * beta_std).sum(axis=1))
    zero = norms == 0.0
    off = np.sqrt((g[zero] * g[zero]).sum(axis=1)) - lam
    on = np.abs(g[~zero] + lam * beta_std[~zero] / norms[~zero, None])
    return float(np.maximum(off.max(initial=0.0), on.max(initial=0.0)))


def _newton_direction(gram, c, beta_std, lam):
    """(act, d) for the nonzero groups act; None if none or singular."""
    norms = np.sqrt((beta_std * beta_std).sum(axis=1))
    act = np.nonzero(norms > 0.0)[0]
    if not act.size:
        return None
    ja = np.arange(act.size)
    unit = beta_std[act] / norms[act, None]
    grad = _gradient(gram, c, beta_std)[act] + lam * unit
    # Per study k, solve M_k [Y_k | w_k] = [diag(u_.k) | -g_k]; then
    # d_k = w_k + Y_k t with the capacitance system S t = sum_k u_.k * w_k,
    # S = C^-1 - sum_k diag(u_.k) Y_k. At lam = 0 there is no curvature.
    blocks = gram[:, act[:, None], act]
    blocks *= 2.0
    blocks[:, ja, ja] += lam / norms[act]
    rhs = np.zeros(blocks.shape[:2] + (act.size + 1,))
    rhs[:, ja, ja] = unit.T
    rhs[:, :, -1] = -grad.T
    try:
        sol = np.linalg.solve(blocks, rhs)
        ys, w = sol[:, :, :-1], sol[:, :, -1]
        if lam > 0.0:
            cap = np.diag(norms[act] / lam) - np.einsum("jk,kjl->jl", unit, ys)
            t = np.linalg.solve(cap, np.einsum("jk,kj->j", unit, w))
            w = w + ys @ t
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(w)):
        return None
    return act, w.T


def _newton_step(xs, cys, gram, c, beta_std, lam, obj):
    """Damped Newton step: the new coefficients and objective, or None
    without a direction or a step length in 1 .. 2^-30 that does not rise."""
    step = _newton_direction(gram, c, beta_std, lam)
    if step is None:
        return None
    act, d = step
    trial = beta_std.copy()
    t = 1.0
    for _ in range(31):
        trial[act] = beta_std[act] + t * d
        trial_obj = _objective(xs, cys, trial, lam)
        if trial_obj <= obj:
            return trial, trial_obj
        t *= 0.5
    return None


def group_lasso_fit(data: MultiStudy, active, lambda_: float, *,
                    beta0: np.ndarray | None = None) -> GroupLassoFit:
    """Fit the group-penalized multi-study regression at one penalty value.

    Alternates sweeps and Newton steps until the relative objective change
    between sweeps drops below ``_TOL`` and the group-wise KKT residual is
    within ``_KKT_TOL``; if ``_MAX_ITER`` sweeps do not get there the
    best-effort fit is returned with ``converged=False`` and a warning code.
    """
    active = _check_active(data, active)
    if not (np.ndim(lambda_) == 0 and float(lambda_) >= 0.0
            and math.isfinite(float(lambda_))):
        raise InputError(f"lambda must be a finite nonnegative real, got {lambda_!r}")
    std = _standardize(data, active)
    m, K = len(active), data.k
    beta = np.zeros((m, K)) if beta0 is None else np.array(beta0, dtype=float)
    if beta.shape != (m, K):
        raise InputError(f"beta0 must have shape {(m, K)}")
    if not np.all(np.isfinite(beta)):
        raise InputError("beta0 must be finite")
    return _fit(data, active, std, float(lambda_), beta)


def _fit(data: MultiStudy, active, std, lam: float,
         beta: np.ndarray) -> GroupLassoFit:
    """``group_lasso_fit`` on a ``_standardize`` tuple from start ``beta``."""
    xs, cys, xbar, scale, ybar, gram, c = std
    m, K = beta.shape
    n_k = np.array([s.n for s in data.studies], dtype=float)
    lips = 2.0 * float(n_k.max())
    trace = []
    prev_obj = math.inf
    for it in range(1, _MAX_ITER + 1):
        for j in range(m):
            z = 2.0 * (c[j] - (gram[:, j, :] * beta.T).sum(axis=1))
            old = beta[j]
            # Zero is the exact block minimizer iff the gradient at the
            # block origin fits in the penalty ball.
            if _group_norm(z + 2.0 * n_k * old) <= lam:
                beta[j] = 0.0
                continue
            v = old + z / lips
            norm_v = math.sqrt(float(v @ v))
            shrink = max(0.0, 1.0 - lam / (lips * norm_v)) if norm_v > 0.0 else 0.0
            beta[j] = shrink * v
        obj = _objective(xs, cys, beta, lam)
        trace.append(obj)
        if abs(prev_obj - obj) <= _TOL * max(1.0, abs(prev_obj)):
            kkt = _kkt_residual(gram, c, beta, lam)
            if kkt <= _KKT_TOL:
                converged = True
                break
        step = _newton_step(xs, cys, gram, c, beta, lam, obj)
        if step is not None:
            beta, obj = step
            trace.append(obj)
        prev_obj = obj
    else:
        kkt = _kkt_residual(gram, c, beta, lam)
        converged = kkt <= _KKT_TOL
    warning = None if converged else "max_iter"

    beta_orig = beta / scale
    intercepts = ybar - np.array([float(xbar[:, k] @ beta_orig[:, k])
                                  for k in range(K)])
    group_norms = np.sqrt((beta * beta).sum(axis=1))
    selected = tuple(active[j] for j in range(m) if group_norms[j] > 0.0)
    return GroupLassoFit(features=active, beta=beta_orig,
                         intercepts=intercepts, lambda_=lam,
                         objective_trace=tuple(trace), converged=converged,
                         iterations=it, kkt_residual=kkt, beta_std=beta,
                         selected=selected, warning=warning)


def _fit_rss(data: MultiStudy, fit: GroupLassoFit) -> float:
    resid = (s.y - (fit.intercepts[k] + s.x[:, fit.features] @ fit.beta[:, k])
             for k, s in enumerate(data.studies))
    return sum(float(r @ r) for r in resid)


def _subset_rows(data: MultiStudy, keep_masks) -> MultiStudy:
    studies = tuple(Study(id=s.id, x=s.x[mask], y=s.y[mask])
                    for s, mask in zip(data.studies, keep_masks))
    return MultiStudy(studies=studies, feature_names=data.feature_names)


def _path(data: MultiStudy, active, std, grid):
    """Fits over the grid in order on one standardization, warm-started."""
    beta = np.zeros((len(active), data.k))
    for lam in grid:
        fit = _fit(data, active, std, float(lam), beta.copy())
        beta = fit.beta_std
        yield fit


def _solver_stats(fits) -> dict:
    """The worst solver outcome among the fits at one penalty."""
    return {"converged": all(f.converged for f in fits),
            "iterations": max(f.iterations for f in fits),
            "kkt_residual": max(f.kkt_residual for f in fits)}


def select_lambda(data: MultiStudy, active, method: str = "bic",
                  grid_size: int = 50):
    """Tune the penalty on a log-spaced grid from lambda_max down three
    decades. Returns (best_lambda, per-lambda diagnostics, fit at
    best_lambda); ties resolve to the smallest lambda.

    ``bic`` scores N*log(RSS/N) + df*log(N) with df = K * n_selected and
    N the pooled sample count, and returns the path's own fit. Its path
    ends at the first saturated fit, df >= N (glmnet's ``dfmax``): there
    RSS heads to 0 and BIC's fixed-dimension derivation fails, so the
    diagnostics list only the fits that ran, that one included. ``cv``
    scores the pooled squared prediction error over ``_FOLDS`` folds
    assigned by row position within each study, and fits the chosen
    penalty once on the full data. Rows also report the solver's
    converged, iterations and kkt_residual (cv: worst fold).
    """
    if method not in ("bic", "cv"):
        raise InputError(f"unknown tuning method {method!r}; expected 'bic' or 'cv'")
    if grid_size < 2:
        raise InputError(f"grid_size must be >= 2, got {grid_size}")
    active = _check_active(data, active)
    std = _standardize(data, active)
    lam_max = _lambda_max(std[-1])
    if not (math.isfinite(lam_max) and lam_max > 0.0):
        raise SelectionError(
            "response is orthogonal to every active column; no usable "
            "penalty grid exists")
    grid = np.geomspace(lam_max, lam_max * 1e-3, grid_size)

    if method == "bic":
        n_total = sum(s.n for s in data.studies)
        fits, diagnostics = [], []
        for fit in _path(data, active, std, grid):
            rss = _fit_rss(data, fit)
            df = data.k * len(fit.selected)
            bic = n_total * math.log(max(rss, 1e-300) / n_total) \
                + df * math.log(n_total)
            fits.append(fit)
            diagnostics.append({"lambda": fit.lambda_, "bic": bic,
                                "rss": rss, "n_selected": len(fit.selected),
                                **_solver_stats([fit])})
            if df >= n_total:
                break
    else:
        sse = np.zeros(len(grid))
        count = 0
        fold_fits = [[] for _ in grid]
        fold_ids = [np.arange(s.n) % _FOLDS for s in data.studies]
        for f in range(_FOLDS):
            train_masks = [ids != f for ids in fold_ids]
            test_masks = [ids == f for ids in fold_ids]
            if any(mask.sum() < 3 for mask in train_masks):
                raise InputError(
                    f"fold {f} leaves a study with fewer than 3 training rows")
            train = _subset_rows(data, train_masks)
            for gi, fit in enumerate(_path(train, active,
                                           _standardize(train, active), grid)):
                fold_fits[gi].append(fit)
                for k, (study, mask) in enumerate(zip(data.studies, test_masks)):
                    if mask.any():
                        pred = fit.intercepts[k] \
                            + study.x[mask][:, fit.features] @ fit.beta[:, k]
                        err = study.y[mask] - pred
                        sse[gi] += float(err @ err)
            count += sum(int(mask.sum()) for mask in test_masks)
        mse = sse / count
        if not np.all(np.isfinite(mse)):
            raise SelectionError("cross-validation produced non-finite errors")
        diagnostics = [{"lambda": float(lam), "cv_mse": float(mse[gi]),
                        **_solver_stats(fold_fits[gi])}
                       for gi, lam in enumerate(grid)]
    score = "bic" if method == "bic" else "cv_mse"
    best = min(reversed(range(len(diagnostics))),
               key=lambda gi: diagnostics[gi][score])
    lam = diagnostics[best]["lambda"]
    fit = fits[best] if method == "bic" else next(_path(data, active, std, [lam]))
    return lam, diagnostics, fit


def tsa_sis_group_lasso(data: MultiStudy, config: ScreeningConfig,
                        method: str = "bic",
                        grid_size: int = 50) -> SelectionModel:
    """Screen with the two-step rule, tune the group penalty, fit, and
    report the nonzero groups. An empty screened set yields an explicitly
    marked empty model rather than an error."""
    keep = tsa_kept_mask(compute_t_matrix(data),
                         _step1_threshold(config.alpha1), config.alpha2)
    if not keep.any():
        return SelectionModel(screened=(), selected=(), lambda_=None,
                              fit=None, diagnostics=None, tune_method=method,
                              empty_screen=True)
    lam, diagnostics, fit = select_lambda(data, np.flatnonzero(keep),
                                          method=method, grid_size=grid_size)
    return SelectionModel(screened=fit.features, selected=fit.selected,
                          lambda_=lam, fit=fit, diagnostics=tuple(diagnostics),
                          tune_method=method, empty_screen=False)


def ols_refit(data: MultiStudy, selected) -> list[OlsStudyFit]:
    """Per-study least squares with intercept on the selected features,
    with standard errors from the unbiased residual variance and the
    degrees-of-freedom adjusted R-squared."""
    selected = tuple(sorted(int(j) for j in selected))
    if len(set(selected)) != len(selected):
        raise InputError("selected feature set has repeated indices")
    if selected and (selected[0] < 0 or selected[-1] >= data.p):
        raise InputError(f"selected feature index out of range [0, {data.p})")
    m = len(selected)
    out = []
    for study in data.studies:
        n = study.n
        if m + 1 >= n:
            raise InputError(
                f"study {study.id!r}: {m} features plus intercept needs "
                f"more than {m + 1} observations, have {n}")
        cy = study.y - study.y.mean()
        tss = float(cy @ cy)
        if tss <= 0.0:
            raise DegenerateColumnError(
                f"study {study.id!r}: response has zero variance")
        if m == 0:
            # Intercept-only model: both R^2 values are exactly zero.
            sigma2 = tss / (n - 1)
            out.append(OlsStudyFit(study_id=study.id,
                                   intercept=float(study.y.mean()),
                                   intercept_se=math.sqrt(sigma2 / n),
                                   coef=np.empty(0), coef_se=np.empty(0),
                                   r2=0.0, adj_r2=0.0, sigma2=sigma2))
            continue
        design = np.column_stack([np.ones(n), study.x[:, selected]])
        coef, _, rank, _ = np.linalg.lstsq(design, study.y, rcond=None)
        if rank < design.shape[1]:
            raise SingularDesignError(
                f"study {study.id!r}: selected design is rank deficient")
        resid = study.y - design @ coef
        rss = float(resid @ resid)
        dof = n - m - 1
        sigma2 = rss / dof
        cov = sigma2 * np.linalg.inv(design.T @ design)
        ses = np.sqrt(np.diag(cov))
        r2 = 1.0 - rss / tss
        adj = 1.0 - (1.0 - r2) * (n - 1) / dof
        out.append(OlsStudyFit(study_id=study.id, intercept=float(coef[0]),
                               intercept_se=float(ses[0]),
                               coef=coef[1:].copy(), coef_se=ses[1:].copy(),
                               r2=r2, adj_r2=adj, sigma2=sigma2))
    return out
