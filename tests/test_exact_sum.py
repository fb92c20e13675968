"""The exact column-sum kernel and the block statistics built on it.

The kernel is pinned to ``math.fsum`` column by column, and every block
statistic to a per-column ``math.fsum`` reference written out here.
"""

import hashlib
import math
from itertools import permutations

import numpy as np
import pytest

import multiscreen.multi_pc as multi_pc
import multiscreen.screening as screening
import multiscreen.stats_core as stats_core
from conftest import make_multistudy
from multiscreen import (DegenerateColumnError, MultiStudy, ScreeningConfig,
                         SimSetting, SingularDesignError, Study,
                         compute_correlation_matrix, compute_t_matrix,
                         gen_instance, multi_pc_run, residualize)
from multiscreen.multi_pc import _conditional_stats
from multiscreen.screening import _CHUNK
from multiscreen.stats_core import (_ROW_CHUNK, _cross_products, _exact_colsum,
                                    _t_from_products, center_column)


def fsum_columns(a):
    return np.array([math.fsum(a[:, j].tolist()) for j in range(a.shape[1])])


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def assert_matches_fsum(a):
    assert_bits_equal(_exact_colsum(a), fsum_columns(a))


class TestExactColsum:
    def test_random_scales(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n, m = int(rng.integers(1, 200)), int(rng.integers(1, 20))
            a = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-300, 300, m)
            assert_matches_fsum(a)

    def test_row_blocks_scaled_by_1e25(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n, m = int(rng.integers(2, 150)), int(rng.integers(1, 20))
            a = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-30, 30)
            lo = int(rng.integers(0, n))
            a[lo:lo + int(rng.integers(1, n))] *= 1e25
            assert_matches_fsum(a)

    def test_integer_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = np.round(rng.standard_normal((int(rng.integers(2, 60)), 6))
                         * 2.0 ** rng.integers(0, 60, 6))
            assert_matches_fsum(a)

    @pytest.mark.parametrize("col", [
        [1.0, 2.0 ** -53],
        [1.0, 2.0 ** -53, 2.0 ** -200],
        [1.0, 2.0 ** -53, -(2.0 ** -200)],
        [1.0 + 2.0 ** -52, 2.0 ** -53],
        [2.0 ** 53, -0.5, -(2.0 ** -54)],
        [2.0 ** 53, 1.0, 2.0 ** -100],
        [2.0 ** 53 + 10.0, 1.0, 2.0 ** -100],
        [2.0 ** 53 - 4.0, 0.5, 2.0 ** -54],
        [1e100, 1.0, -1e100, 1e-100, 1e50, -1.0, -1e50],
        [1.7976931348623157e308 / 2 ** 10, 1.0, -1e-300],
    ])
    def test_half_ulp_ties(self, col):
        a = np.array(col)[:, None]
        assert_matches_fsum(a)
        assert_matches_fsum(a[::-1])

    def test_subnormals(self):
        rng = np.random.default_rng(4)
        tiny = np.nextafter(0.0, 1.0)
        a = rng.integers(-2 ** 52, 2 ** 52, size=(50, 8)).astype(float) * tiny
        a[:, 0] *= 2.0 ** -40
        a[:, 1] = tiny
        a[::2, 2] = 1.0
        assert_matches_fsum(a)

    def test_zero_columns_give_positive_zero(self):
        a = np.array([[0.0, -0.0, 1.0], [-0.0, -0.0, -1.0], [0.0, -0.0, 0.0]])
        got = _exact_colsum(a)
        assert [math.copysign(1.0, v) for v in got] == [1.0, 1.0, 1.0]
        assert_matches_fsum(a)

    @pytest.mark.parametrize("n", [1, 2, _ROW_CHUNK, _ROW_CHUNK + 1, 9000])
    def test_row_counts(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, 3)) * np.array([1.0, 1e-20, 1e200])
        a[::7, 0] *= 1e25
        assert_matches_fsum(a)

    def test_row_permutations(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((300, 10)) * 10.0 ** rng.uniform(-20, 20, 10)
        want = _exact_colsum(a)
        for _ in range(10):
            assert_bits_equal(_exact_colsum(a[rng.permutation(300)]), want)

    def test_near_overflow_columns_follow_fsum(self):
        with pytest.raises(OverflowError):
            math.fsum([1e308, 1e308, -1e308])
        with pytest.raises(OverflowError):
            _exact_colsum(np.array([[1e308, 1.0], [1e308, 2.0], [-1e308, 3.0]]))
        a = np.array([[1e308, 1.0], [-1e308, 2.0], [1e308, 3.0]])
        assert_matches_fsum(a)
        assert _exact_colsum(np.array([[np.inf], [1.0]]))[0] == math.inf

    def test_empty_blocks(self):
        assert _exact_colsum(np.empty((0, 3))).tolist() == [0.0, 0.0, 0.0]
        assert _exact_colsum(np.empty((4, 0))).shape == (0,)


# Per-column references: the statistics as sums of one column each.

def ref_center(col):
    n = col.shape[0]
    centered = col - math.fsum(col.tolist()) / n
    return centered, math.fsum((centered * centered).tolist()) / n


def ref_t(cx, cy, var_x, var_y, label):
    n = cx.shape[0]
    prods = cx * cy
    sigma = math.fsum(prods.tolist()) / n
    dev = prods - sigma
    theta = math.fsum((dev * dev).tolist()) / n
    floor = 1e-12 * var_x * var_y + 1e-300
    if theta < floor:
        raise DegenerateColumnError(
            f"column {label!r} yields a degenerate self-normalized statistic "
            f"(theta_hat={theta:.3e} below floor {floor:.3e})")
    return math.sqrt(n) * sigma / math.sqrt(theta), sigma, theta


def ref_t_matrix(data):
    out = np.empty((data.p, data.k))
    for ki, study in enumerate(data.studies):
        cy, var_y = ref_center(study.y)
        for j in range(data.p):
            cx, var_x = ref_center(study.x[:, j])
            label = f"{data.feature_names[j]} (study {study.id!r})"
            out[j, ki] = ref_t(cx, cy, var_x, var_y, label)[0]
    return out


def ref_correlation_matrix(data):
    out = np.empty((data.p, data.k))
    for ki, study in enumerate(data.studies):
        cy, var_y = ref_center(study.y)
        for j in range(data.p):
            cx, var_x = ref_center(study.x[:, j])
            if var_x <= 0.0:
                raise DegenerateColumnError(
                    f"feature {data.feature_names[j]!r} has zero variance "
                    f"in study {study.id!r}")
            cov = math.fsum((cx * cy).tolist()) / study.n
            out[j, ki] = cov / math.sqrt(var_x * var_y)
    return out


def ref_conditional(study, features, cond):
    resid = residualize(study.x, cond, np.column_stack([study.x[:, features],
                                                        study.y]))
    cy, var_y = ref_center(resid[:, -1])
    stats = []
    for i, j in enumerate(features):
        cx, var_x = ref_center(resid[:, i])
        stats.append(ref_t(cx, cy, var_x, var_y, j))
    return tuple(np.array(s) for s in zip(*stats))


class TestBlockStatistics:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matrices_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        p = 2 * _CHUNK + 44
        data, _ = make_multistudy(rng, n=40, p=p, k=3, unequal_n=True)
        assert_bits_equal(compute_t_matrix(data), ref_t_matrix(data))
        assert_bits_equal(compute_correlation_matrix(data),
                          ref_correlation_matrix(data))

    def test_conditional_stats_match_reference(self):
        # Two studies of 50 rows share one pass; studies of 40, 40 and 55
        # rows make one pass over the first two and one over the third.
        rng = np.random.default_rng(7)
        equal_n = make_multistudy(rng, n=50, p=12, k=2, s0=3)[0].studies
        unequal_n = []
        for ki, n in enumerate((40, 40, 55)):
            x = rng.normal(size=(n, 12))
            unequal_n.append(Study(id=f"s{ki + 1}", x=x,
                                   y=x[:, :3].sum(axis=1) + rng.normal(size=n)))
        for studies in (equal_n, unequal_n):
            for cond in [(0,), (2, 5), (1, 4, 9)]:
                features = [j for j in range(12) if j not in cond]
                got = _conditional_stats(studies, features, cond)
                for ki, study in enumerate(studies):
                    want = ref_conditional(study, features, cond)
                    for g, w in zip(got, want):
                        assert_bits_equal(g[:, ki], w)

    def test_first_degenerate_column_in_study_major_order(self):
        rng = np.random.default_rng(8)
        data, _ = make_multistudy(rng, n=30, p=_CHUNK + 20, k=2)
        studies = []
        for study, j in zip(data.studies, (40, 7)):
            x = study.x.copy()
            x[:, j] = 7.0
            studies.append(Study(id=study.id, x=x, y=study.y))
        bad = MultiStudy(studies=tuple(studies),
                         feature_names=data.feature_names)
        messages = {}
        for block, ref in ((compute_t_matrix, ref_t_matrix),
                           (compute_correlation_matrix,
                            ref_correlation_matrix)):
            with pytest.raises(DegenerateColumnError) as want:
                ref(bad)
            with pytest.raises(DegenerateColumnError) as got:
                block(bad)
            assert str(got.value) == str(want.value)
            messages[block] = str(got.value)
        assert messages[compute_t_matrix] == (
            "column \"g41 (study 's1')\" yields a degenerate self-normalized "
            "statistic (theta_hat=0.000e+00 below floor 1.000e-300)")
        assert messages[compute_correlation_matrix] == (
            "feature 'g41' has zero variance in study 's1'")


def test_t_matrix_makes_no_per_column_sums(monkeypatch):
    data = gen_instance(SimSetting.preset(1, seed=20240811), 0)[0]
    kernel, fsum = stats_core._exact_colsum, math.fsum
    calls = {"kernel": 0, "column_fsum": 0}

    def counted_kernel(a):
        calls["kernel"] += 1
        return kernel(a)

    def counted_fsum(values):
        values = list(values)
        calls["column_fsum"] += len(values) >= min(s.n for s in data.studies)
        return fsum(values)

    monkeypatch.setattr(stats_core, "_exact_colsum", counted_kernel)
    monkeypatch.setattr(math, "fsum", counted_fsum)
    compute_t_matrix(data)
    chunks = math.ceil(data.p / _CHUNK)
    # Two sums to center the response and four per chunk of features.
    assert calls == {"kernel": data.k * (2 + 4 * chunks), "column_fsum": 0}


# The statistics of one conditioning set in all studies at once, against
# the per-study pass they replaced.

def per_study_stats(study, features, cond):
    # multi_pc._conditional_stats as it was when it scored one study per
    # call, verbatim.
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


def per_study_t_matrix(studies, tested, cond):
    # The stage loop's T matrix of one set from per-study calls, verbatim.
    return np.column_stack([per_study_stats(study, tested, cond)[0]
                            for study in studies])


@pytest.fixture(scope="module")
def bench_fixture():
    # The benchmark's manifest instance: setting 2, seed 20240811, rep 0.
    return gen_instance(SimSetting.preset(2, seed=20240811), 0)[0]


@pytest.mark.parametrize("alpha1, alpha2", [
    (1e-4, 0.05), (1e-3, 0.01), (1e-2, 0.15), (1e-4, 1e-3)])
def test_stage_two_t_matrices_keep_their_bits(bench_fixture, monkeypatch,
                                              alpha1, alpha2):
    calls = []

    def recorded(studies, features, cond):
        stats = _conditional_stats(studies, features, cond)
        calls.append((studies, list(features), cond, stats[0]))
        return stats

    monkeypatch.setattr(multi_pc, "_conditional_stats", recorded)
    state = multi_pc_run(bench_fixture, ScreeningConfig(alpha1, alpha2),
                         max_order=2)
    assert state.stage == 2 and calls
    got, want = hashlib.sha256(), hashlib.sha256()
    for studies, tested, cond, t_mat in calls:
        got.update(np.ascontiguousarray(t_mat).tobytes())
        want.update(per_study_t_matrix(studies, tested, cond).tobytes())
    assert got.hexdigest() == want.hexdigest()


def test_stage_two_makes_four_sums_per_set(bench_fixture, monkeypatch):
    # One exact-sum pass per set serves every study: two sums to center,
    # one for sigma_hat and one for theta_hat. Stage 1's statistic matrix
    # and the two-step rule of each set make the other calls.
    kernel, two_step = stats_core._exact_colsum, screening._two_step
    calls = {"kernel": 0, "two_step": 0, "sets": 0, "solves": 0}

    def counted_kernel(a):
        calls["kernel"] += 1
        return kernel(a)

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(stats_core, "_exact_colsum", counted_kernel)
    monkeypatch.setattr(screening, "_exact_colsum", counted_kernel)
    monkeypatch.setattr(multi_pc, "_two_step", counted("two_step", two_step))
    monkeypatch.setattr(multi_pc, "_conditional_stats",
                        counted("sets", _conditional_stats))
    monkeypatch.setattr(multi_pc, "residualize",
                        counted("solves", residualize))
    multi_pc_run(bench_fixture, ScreeningConfig(1e-4, 0.05), max_order=2)
    stage1 = calls["kernel"] - calls["two_step"] - 4 * calls["sets"]
    assert calls["sets"] == 94 and calls["two_step"] == 95
    assert stage1 == bench_fixture.k * (2 + 4 * math.ceil(1000 / _CHUNK))
    assert calls["kernel"] <= 650
    assert calls["solves"] == 5 * 94


def planted_studies(faults, sizes=(40, 40, 40, 48)):
    # Studies with features 0..5; ``faults`` maps a study index to the fault
    # planted there for the conditioning set (0, 1).
    rng = np.random.default_rng(13)
    studies = []
    for ki, n in enumerate(sizes):
        x = rng.normal(size=(n, 6))
        y = x[:, 2] + rng.normal(size=n)
        kind = faults.get(ki)
        if kind == "singular":
            x[:, 1] = 2.0 * x[:, 0]
        elif kind == "span":
            x[:, 4] = x[:, 0] - x[:, 1]
        elif kind == "statistic":
            # Rows of a 4 x 4 Hadamard matrix: feature 3 equals the response
            # and both are orthogonal to the intercept and the set, so their
            # cross-products are constant.
            x[:, 0] = np.tile([1.0, 1.0, -1.0, -1.0], n // 4)
            x[:, 1] = np.tile([1.0, -1.0, -1.0, 1.0], n // 4)
            x[:, 3] = y = np.tile([1.0, -1.0, 1.0, -1.0], n // 4)
        studies.append(Study(id=f"s{ki + 1}", x=x, y=y))
    return studies


@pytest.mark.parametrize("where", [(1, 2), (2, 3)])
@pytest.mark.parametrize("kinds", list(permutations(
    ("singular", "span", "statistic"), 2)))
def test_first_failing_study_raises_its_first_fault(kinds, where):
    studies = planted_studies(dict(zip(where, kinds)))
    features, cond = [2, 3, 4, 5], (0, 1)
    expected = {"singular": (SingularDesignError, "rank deficient"),
                "span": (DegenerateColumnError, "lies in the span"),
                "statistic": (DegenerateColumnError, "degenerate self")}
    kind, match = expected[kinds[0]]
    with pytest.raises(kind, match=match) as want:
        per_study_t_matrix(studies, features, cond)
    with pytest.raises(kind, match=match) as got:
        _conditional_stats(studies, features, cond)
    assert str(got.value) == str(want.value)
