"""Monte-Carlo harness: benchmark data generation and one replication
entry point, ``replicate``, for screener summaries, level grids and ROC
curves.

Every random draw is a pure function of (setting, replication index): a
counter-based generator supplies uniforms on the open unit interval and
normals come from the package's own inverse CDF, so runs reproduce
bit-for-bit for a given numpy build, SIMD dispatch and BLAS kernel. The
inverse CDF calls ``np.exp`` and ``np.log``, which round differently with,
for instance, numpy's AVX-512 kernels disabled, and the response is a BLAS
matrix-vector product. On Linux, replications may run in forked
processes, up to ``replicate``'s ``threads`` and one per usable CPU;
results are aggregated in replication order with exact summation, so the
thread count never changes the output.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from ._forked import forked_map
from .errors import InputError, MultiscreenError
from .screening import (MultiStudy, Study, _chi2_thresholds, _min_rank,
                        _stat_columns, _step1_threshold, _top_d, _two_step)
from .stats_core import (_NQ_BLOCK, _exact_colsum, _indices, _integer, _level,
                         _real, normal_quantile)

__all__ = [
    "SimSetting",
    "RepMetrics",
    "MethodSpec",
    "LevelGrid",
    "RocGrid",
    "ReplicationSummary",
    "RocPoint",
    "RocCurve",
    "SensitivityGrid",
    "even_spaced_active",
    "gen_instance",
    "evaluate",
    "replicate",
]

_SETTING_PRESETS = {
    1: dict(beta_low=0.1, beta_high=0.3, heterogeneous=False),
    2: dict(beta_low=0.7, beta_high=1.0, heterogeneous=False),
    3: dict(beta_low=0.1, beta_high=0.3, heterogeneous=True),
    4: dict(beta_low=0.7, beta_high=1.0, heterogeneous=True),
}


@dataclass(frozen=True)
class SimSetting:
    """Parameters of one benchmark scenario.

    Defaults mirror the standard benchmark: n=100 observations, p=1000
    features, K=5 studies, 10 evenly spaced active features, noise sd 0.5,
    and per-study AR(1) design correlation drawn from ``r_pool``. ``B`` is
    the desk-scale replication count; raise it to 1000 for full runs.
    """

    n: int = 100
    p: int = 1000
    K: int = 5
    s0: int = 10
    beta_low: float = 0.1
    beta_high: float = 0.3
    heterogeneous: bool = False
    hetero_sd: float = 0.5
    noise_sd: float = 0.5
    r_pool: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6)
    B: int = 200
    seed: int = 0
    fix_r: bool = False

    def __post_init__(self):
        for name in ("n", "p", "K", "s0", "B", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in ("beta_low", "beta_high", "hetero_sd", "noise_sd"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        for name in ("heterogeneous", "fix_r"):
            flag = getattr(self, name)
            if not isinstance(flag, (bool, np.bool_)):
                raise InputError(f"{name} must be a bool, got {flag!r}")
            object.__setattr__(self, name, bool(flag))
        for name, low in (("n", 3), ("p", 1), ("K", 1), ("B", 1)):
            if getattr(self, name) < low:
                raise InputError(
                    f"{name} must be >= {low}, got {getattr(self, name)}")
        if not 1 <= self.s0 <= self.p:
            raise InputError(f"s0 must lie in [1, p], got {self.s0}")
        if not self.beta_low <= self.beta_high:
            raise InputError("beta_low must not exceed beta_high")
        if self.hetero_sd < 0:
            raise InputError(f"hetero_sd must be >= 0, got {self.hetero_sd}")
        if not self.noise_sd > 0:
            raise InputError(f"noise_sd must be > 0, got {self.noise_sd}")
        pool = tuple(_real("every r in r_pool", r, "satisfy 0 <= r < 1",
                           lambda v: 0.0 <= v < 1.0) for r in self.r_pool)
        if not pool:
            raise InputError("r_pool must not be empty")
        if not 0 <= self.seed < 2 ** 64:
            raise InputError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "r_pool", pool)

    @classmethod
    def preset(cls, setting_id: int, **overrides) -> "SimSetting":
        """The four standard scenarios: 1/2 homogeneous weak/strong signal
        coefficients, 3/4 their heterogeneous counterparts."""
        if _integer("setting", setting_id) not in _SETTING_PRESETS:
            raise InputError(f"setting must be one of 1-4, got {setting_id}")
        params = dict(_SETTING_PRESETS[setting_id])
        params.update(overrides)
        return cls(**params)


@dataclass(frozen=True)
class RepMetrics:
    """Confusion summary of one replication's kept set."""

    sensitivity: float
    specificity: float
    fp: int
    fn: int


@dataclass(frozen=True)
class ReplicationSummary:
    b: int
    n_failed: int
    mean_sensitivity: float
    se_sensitivity: float
    mean_specificity: float
    se_specificity: float
    mean_fp: float
    mean_fn: float
    per_rep: tuple[RepMetrics, ...]
    failures: tuple[str, ...]


@dataclass(frozen=True)
class RocPoint:
    d: int
    sensitivity: float
    one_minus_specificity: float


@dataclass(frozen=True)
class RocCurve:
    points: tuple[RocPoint, ...]
    b: int
    n_failed: int
    failures: tuple[str, ...]


@dataclass(frozen=True)
class SensitivityGrid:
    alpha1_list: tuple[float, ...]
    alpha2_list: tuple[float, ...]
    mean_sensitivity: np.ndarray
    mean_specificity: np.ndarray
    se_sensitivity: np.ndarray
    se_specificity: np.ndarray
    b: int
    n_failed: int
    failures: tuple[str, ...]

    def __eq__(self, other):
        # Arrays compare elementwise; a B=1 grid has NaN standard errors.
        if not isinstance(other, SensitivityGrid):
            return NotImplemented
        return all(np.array_equal(a, b, equal_nan=True)
                   if isinstance(a, np.ndarray) else a == b
                   for a, b in zip(vars(self).values(), vars(other).values()))


# ---------------------------------------------------------------------------
# Seeded generation.
# ---------------------------------------------------------------------------

def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(0, rep))
    return np.random.Generator(np.random.Philox(ss))


def _side_rng(seed: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(1,))
    return np.random.Generator(np.random.Philox(ss))


def _uniform_open(rng: np.random.Generator, size) -> np.ndarray:
    # (2k + 1) / 2^54 for k < 2^53, rounded: ``random`` returns k / 2^53
    # exactly, k the top 53 bits of one 64-bit output (as ``integers(0,
    # 2^53)`` draws it), and adding 2^-54 rounds once. Exact for k < 2^52;
    # above, the sum rounds to even, so the upper half of the grid has
    # spacing 2^-53. Only k = 2^53 - 1 would round up to 1.0, hence the
    # clamp to the largest float below 1.
    u = rng.random(size)
    u += 2.0 ** -54
    return np.minimum(u, 1.0 - 2.0 ** -53, out=u)


def _standard_normal(rng: np.random.Generator, size) -> np.ndarray:
    return normal_quantile(_uniform_open(rng, size))


def even_spaced_active(p: int, s0: int) -> tuple[int, ...]:
    """0-based indices of s0 features evenly spaced over [0, p-1],
    deduplicated: round(1 + (i - 1)(p - 1)/(s0 - 1)) - 1 for i = 1..s0."""
    if not 1 <= _integer("s0", s0) <= _integer("p", p):
        raise InputError(f"s0 must lie in [1, p], got {s0}")
    if s0 == 1:
        return (0,)
    positions = {int(math.floor(1.0 + i * (p - 1) / (s0 - 1) + 0.5)) - 1
                 for i in range(s0)}
    return tuple(sorted(positions))


def _fixed_r_values(setting: SimSetting) -> tuple[float, ...]:
    rng = _side_rng(setting.seed)
    u = _uniform_open(rng, setting.K)
    idx = np.minimum((u * len(setting.r_pool)).astype(int),
                     len(setting.r_pool) - 1)
    return tuple(setting.r_pool[i] for i in idx)


# Lanes per call of the design draw: normal_quantile's block size, so each
# call's temporaries come from the heap, not from fresh mappings. Whole rows
# are drawn per call while they fit, and the draws land in a stage of at
# least _STAGE_ROWS rows (whole calls) that is copied into the transposed
# workspace at once: one row at a time, that copy writes one value per cache
# line, and at p = 2e4 the design draw took about a quarter longer.
_DRAW_LANES = _NQ_BLOCK
_STAGE_ROWS = 16


def _feature_name(j: int) -> str:
    return f"x{j + 1}"


def _draw_studies(setting: SimSetting, rep: int, active: tuple[int, ...]):
    """Yield (x, y, coefficients) for each study of the replication, in
    ``gen_instance``'s draw order, once the study's y exists.

    The design normals are drawn in row-major blocks of at most _DRAW_LANES
    lanes, through a stage of whole rows, into one (p, n) workspace that the
    AR(1) recursion then runs on; x is the transposed view of that
    workspace, valid until the next study is drawn. Blocked draws reproduce
    one draw of all n * p: each value takes one 64-bit output of the
    stream.
    """
    rng = _rep_rng(setting.seed, rep)
    n, p, K = setting.n, setting.p, setting.K
    s_act = len(active)
    beta_base = setting.beta_low + (setting.beta_high - setting.beta_low) \
        * _uniform_open(rng, s_act)
    fixed_r = _fixed_r_values(setting) if setting.fix_r else None
    pool = setting.r_pool
    rows = max(1, _DRAW_LANES // p)
    lanes = min(rows * p, _DRAW_LANES)
    stage = np.empty((min(n, rows * math.ceil(_STAGE_ROWS / rows)), p))
    xt = np.empty((p, n))
    step = np.empty(n)
    for k in range(K):
        if fixed_r is not None:
            r = fixed_r[k]
        else:
            u = float(_uniform_open(rng, 1)[0])
            r = pool[min(int(u * len(pool)), len(pool) - 1)]
        betas = beta_base.copy()
        if setting.heterogeneous:
            betas = betas + setting.hetero_sd * _standard_normal(rng, s_act)
        for i in range(0, n, stage.shape[0]):
            staged = stage[:n - i]
            flat = staged.reshape(-1)
            for a in range(0, flat.size, lanes):
                flat[a:a + lanes] = _standard_normal(
                    rng, min(lanes, flat.size - a))
            xt[:, i:i + staged.shape[0]] = staged.T
        # The recursion runs on the contiguous rows of x.T, iterated rather
        # than indexed, with r as a 0-d array so no call converts it and the
        # outputs passed by position: per row, call overhead is most of the
        # cost. IEEE addition commutes, so c * z_j + r * col_{j-1} has the
        # bits of the docstring's recursion. At r = 0 it multiplies by 1.0
        # and adds +-0.0, which leaves every nonzero entry as it is, so it is
        # skipped unless a draw is zero (-0.0 + 0.0 is +0.0).
        if r != 0.0 or not xt.all():
            xt[1:] *= math.sqrt(1.0 - r * r)
            r_arr = np.array(r)
            multiply, add = np.multiply, np.add
            prev = xt[0]
            for row in xt[1:]:
                multiply(prev, r_arr, step)
                add(row, step, row)
                prev = row
        eps = setting.noise_sd * _standard_normal(rng, n)
        # xt[active].T has the layout of x[:, active] taken from a
        # C-contiguous x (a transposed (s0, n) block), so the product runs
        # the BLAS kernel that gen_instance's digests pin.
        y = xt[list(active)].T @ betas + eps
        yield xt.T, y, betas


def gen_instance(setting: SimSetting, rep: int, *, on_study=None):
    """Generate one replication: (MultiStudy, active indices, beta matrix).

    Draw order per replication, from the (seed, rep) child stream: base
    coefficients for the active features; then per study the design
    correlation r (skipped when fix_r), the heterogeneous coefficient
    offsets (heterogeneous only), the n*p design normals in row-major
    order, and the n noise normals. The design follows the AR(1) recursion
    col_j = r * col_{j-1} + sqrt(1 - r^2) * z_j, whose population
    correlation between columns i and j is r^|i-j|.

    The studies are drawn one at a time into one (p, n) workspace shared
    by the replication; the MultiStudy holds a C-contiguous copy of each x.
    With ``on_study``, each study is passed to ``on_study(k, study)``
    instead, as soon as its y exists: its x is a view of the workspace,
    valid only during the call. The replication then holds one study's
    design, and the MultiStudy slot of the result is None.
    """
    if _integer("rep", rep) < 0:
        raise InputError(f"rep must be >= 0, got {rep}")
    active = even_spaced_active(setting.p, setting.s0)
    beta_mat = np.zeros((setting.p, setting.K))
    studies = []
    for k, (x, y, betas) in enumerate(_draw_studies(setting, rep, active)):
        beta_mat[active, k] = betas
        if on_study is None:
            studies.append(Study(id=f"study{k + 1}", x=x.copy(), y=y))
        else:
            on_study(k, Study(id=f"study{k + 1}", x=x, y=y))
    if on_study is not None:
        return None, active, beta_mat
    names = tuple(map(_feature_name, range(setting.p)))
    return MultiStudy(studies=tuple(studies), feature_names=names), active, \
        beta_mat


def evaluate(kept, truth, p: int) -> RepMetrics:
    """Confusion metrics of a kept set against the true active set."""
    kept = frozenset(_indices("kept", kept, _integer("p", p)))
    truth = frozenset(_indices("truth", truth, p, empty=False))
    tp = len(kept & truth)
    fp = len(kept - truth)
    fn = len(truth - kept)
    tn = p - len(truth) - fp
    sensitivity = tp / len(truth)
    specificity = tn / (p - len(truth)) if p > len(truth) else 1.0
    return RepMetrics(sensitivity=sensitivity, specificity=specificity,
                      fp=fp, fn=fn)


# ---------------------------------------------------------------------------
# Rules: evaluations the replication worker applies to one instance.
# ``matrix`` names the statistic matrix a rule reads ("t" or "corr", as
# ``screening._stat_matrices`` names them); calling a rule with that (p, K)
# matrix and the active indices returns its payload.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _StepRule:
    """The two-step rule at each (step-1 threshold, chi-square table) pair,
    row-major, scored per kept set. An all-infinite table gives the
    one-step rule, kappa_hat == 0."""

    thresholds: tuple[float, ...]
    chi2_tables: tuple[tuple[float, ...], ...]
    matrix = "t"

    def __call__(self, t_mat, active) -> list[RepMetrics]:
        return [evaluate(np.nonzero(keep)[0], active, t_mat.shape[0])
                for threshold in self.thresholds
                for keep in _two_step(t_mat, threshold, self.chi2_tables)[2]]


@dataclass(frozen=True)
class _TopD:
    """The ranking screener keeping the top d (at most p)."""

    d: int
    matrix = "corr"

    def __call__(self, corr, active) -> list[RepMetrics]:
        order, _ = _min_rank(corr)
        return [evaluate(order[:self.d], active, corr.shape[0])]


@dataclass(frozen=True)
class _Roc:
    """The ranking screener's (sensitivity, 1 - specificity) at each d."""

    d_grid: tuple[int, ...]
    matrix = "corr"

    def __call__(self, corr, active):
        order, _ = _min_rank(corr)
        p = corr.shape[0]
        truth = np.zeros(p, dtype=bool)
        truth[list(active)] = True
        d = np.array(self.d_grid, dtype=int)
        tp = np.concatenate([[0], np.cumsum(truth[order])])[d]
        neg = p - len(active)
        return tp / len(active), (d - tp) / neg if neg else np.zeros(len(d))


# ---------------------------------------------------------------------------
# Replication engine.
# ---------------------------------------------------------------------------

def _attempt(rep: int, fn, *args):
    try:
        return "ok", fn(*args)
    except MultiscreenError as exc:
        return "err", f"rep {rep}: {exc}"


def _streamed_matrices(setting: SimSetting, rep: int, names):
    """The instance's (p, K) statistic matrices in ``names``, as
    ``screening._stat_matrices`` returns them, filled one study at a time
    as ``gen_instance`` draws it; returns (matrices, active indices)."""
    matrices = {name: np.empty((setting.p, setting.K)) for name in names}
    _, active, _ = gen_instance(setting, rep, on_study=lambda k, study: (
        _stat_columns(matrices, k, study, _feature_name)))
    return matrices, active


def _replicate(setting: SimSetting, rep: int, evaluations):
    """One replication: its studies drawn one at a time, each making one
    pass for the statistic matrices the evaluations read and then dropped;
    then every evaluation. Returns one ("ok", payload) or ("err", message)
    per evaluation, failed only by what that one uses."""
    tag, drawn = _attempt(rep, _streamed_matrices, setting, rep,
                          {ev.matrix for ev in evaluations})
    if tag == "err":
        return [(tag, drawn)] * len(evaluations)
    matrices, active = drawn
    out = []
    for ev in evaluations:
        mat = matrices[ev.matrix]
        out.append(("err", f"rep {rep}: {mat}") if isinstance(mat, Exception)
                   else _attempt(rep, ev, mat, active))
    return out


def _split(outcomes) -> tuple[list, tuple[str, ...]]:
    """(payloads of the replications that ran, messages of those that failed)."""
    return ([payload for tag, payload in outcomes if tag == "ok"],
            tuple(payload for tag, payload in outcomes if tag == "err"))


def _mean_se(rows, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Column means and standard errors of the mean of b rows of ``width``
    values, each sum correctly rounded (``_exact_colsum``, equal to
    ``math.fsum``): NaN means when b < 1, NaN standard errors when b < 2."""
    b = len(rows)
    values = np.array(rows, dtype=float).reshape(b, width)
    if b < 1:
        return np.full(width, math.nan), np.full(width, math.nan)
    mean = _exact_colsum(values) / b
    if b < 2:
        return mean, np.full(width, math.nan)
    dev = values - mean
    return mean, np.sqrt(_exact_colsum(dev * dev) / (b - 1) / b)


_D_GRID_POINTS = 200


def default_d_grid(p: int) -> tuple[int, ...]:
    """0..p subsampled to at most _D_GRID_POINTS + 1 distinct counts."""
    return tuple(sorted({int(v) for v in
                         np.linspace(0, p, min(p, _D_GRID_POINTS) + 1).round()}))


# ---------------------------------------------------------------------------
# Specs: what ``replicate`` evaluates. ``_rule(setting)`` builds the
# per-replication rule once per run; ``_reduce(setting, outcomes)`` turns
# its outcomes over replications 0..B-1 into the spec's result.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MethodSpec:
    """One screener, summarized per replication: a ``ReplicationSummary``.

    ``name`` is one of tsa, onestep, minsis. ``d`` (minsis only) defaults
    to floor(n/log n) of the smallest study.
    """

    name: str = "tsa"
    alpha1: float = 1e-4
    alpha2: float = 0.05
    d: int | None = None

    def __post_init__(self):
        if self.name not in ("tsa", "onestep", "minsis"):
            raise InputError(f"unknown method {self.name!r}")
        for field_name in ("alpha1", "alpha2"):
            object.__setattr__(self, field_name,
                               _level(field_name, getattr(self, field_name)))
        if self.d is not None:
            object.__setattr__(self, "d", _integer("d", self.d))
            if self.d < 0:
                raise InputError(f"d must be >= 0, got {self.d}")

    def _rule(self, setting: SimSetting):
        if self.name == "minsis":
            return _TopD(min(_top_d(setting.n, self.d), setting.p))
        table = tuple(_chi2_thresholds(self.alpha2, setting.K)) \
            if self.name == "tsa" else (math.inf,) * (setting.K + 1)
        return _StepRule((_step1_threshold(self.alpha1),), (table,))

    def _reduce(self, setting: SimSetting, outcomes) -> ReplicationSummary:
        payloads, failures = _split(outcomes)
        metrics = tuple(payload[0] for payload in payloads)
        mean, se = _mean_se([astuple(m) for m in metrics], 4)
        (mean_sens, mean_spec, mean_fp, mean_fn), (se_sens, se_spec, _, _) \
            = mean.tolist(), se.tolist()
        return ReplicationSummary(b=setting.B, n_failed=len(failures),
                                  mean_sensitivity=mean_sens,
                                  se_sensitivity=se_sens,
                                  mean_specificity=mean_spec,
                                  se_specificity=se_spec,
                                  mean_fp=mean_fp, mean_fn=mean_fn,
                                  per_rep=metrics, failures=failures)


@dataclass(frozen=True)
class LevelGrid:
    """Full factorial sweep of the two significance levels: a
    ``SensitivityGrid``. Each replication's statistic matrix is shared by
    every cell, which is exactly equivalent to screening each cell from
    scratch."""

    alpha1_list: tuple[float, ...]
    alpha2_list: tuple[float, ...]

    def __post_init__(self):
        alpha1_list = tuple(_level("alpha1", a) for a in self.alpha1_list)
        alpha2_list = tuple(_level("alpha2", a) for a in self.alpha2_list)
        if not alpha1_list or not alpha2_list:
            raise InputError("alpha lists must not be empty")
        object.__setattr__(self, "alpha1_list", alpha1_list)
        object.__setattr__(self, "alpha2_list", alpha2_list)

    def _rule(self, setting: SimSetting):
        return _StepRule(tuple(_step1_threshold(a) for a in self.alpha1_list),
                         tuple(tuple(_chi2_thresholds(a, setting.K))
                               for a in self.alpha2_list))

    def _reduce(self, setting: SimSetting, outcomes) -> SensitivityGrid:
        payloads, failures = _split(outcomes)
        shape = (len(self.alpha1_list), len(self.alpha2_list), 2)
        # Per replication, (sensitivity, specificity) of each cell.
        mean, se = _mean_se([[(m.sensitivity, m.specificity) for m in payload]
                             for payload in payloads], math.prod(shape))
        mean, se = mean.reshape(shape), se.reshape(shape)
        return SensitivityGrid(alpha1_list=self.alpha1_list,
                               alpha2_list=self.alpha2_list,
                               mean_sensitivity=mean[:, :, 0],
                               mean_specificity=mean[:, :, 1],
                               se_sensitivity=se[:, :, 0],
                               se_specificity=se[:, :, 1],
                               b=setting.B, n_failed=len(failures),
                               failures=failures)


@dataclass(frozen=True)
class RocGrid:
    """Operating points of the ranking screener over kept-set sizes
    ``d_grid`` (default ``default_d_grid(p)``), averaged over
    replications: a ``RocCurve``."""

    d_grid: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.d_grid is not None:
            object.__setattr__(self, "d_grid",
                               tuple(_integer("d", d) for d in self.d_grid))

    def _grid(self, setting: SimSetting) -> tuple[int, ...]:
        d_grid = default_d_grid(setting.p) if self.d_grid is None \
            else self.d_grid
        if any(d < 0 or d > setting.p for d in d_grid):
            raise InputError(f"every d must lie in [0, {setting.p}]")
        return d_grid

    def _rule(self, setting: SimSetting):
        return _Roc(self._grid(setting))

    def _reduce(self, setting: SimSetting, outcomes) -> RocCurve:
        oks, failures = _split(outcomes)
        d_grid = self._grid(setting)
        mean, _ = _mean_se([np.concatenate(ok) for ok in oks], 2 * len(d_grid))
        sens, fpr = np.split(mean, 2)
        points = tuple(map(RocPoint, d_grid, sens.tolist(), fpr.tolist()))
        return RocCurve(points=points, b=setting.B,
                        n_failed=len(failures), failures=failures)


def replicate(setting: SimSetting, specs, threads: int = 1) -> list:
    """Evaluate every spec on replications 0..B-1 in one pass: each
    instance is generated once, one study at a time, and each study's
    columns are centered once for every statistic matrix the specs read
    before the study is dropped. Returns one result per spec, in order.
    Failed replications (a ``MultiscreenError``) are counted and reported
    per spec, not fatal; the first other exception is raised. ``threads``
    bounds the forked processes that run them (``forked_map``, which forks
    at most one per usable CPU and none off Linux), with the same results
    and the same exception at any count."""
    specs = tuple(specs)
    if not specs:
        raise InputError("specs must not be empty")
    if _integer("threads", threads) < 1:
        raise InputError(f"threads must be at least 1, got {threads}")
    rules = tuple(spec._rule(setting) for spec in specs)
    per_rep = list(forked_map(lambda rep: _replicate(setting, rep, rules),
                              range(setting.B), threads))
    return [spec._reduce(setting, outcomes)
            for spec, outcomes in zip(specs, zip(*per_rep))]
