"""The exact column-sum kernel and the block statistics built on it.

The kernel is pinned to ``math.fsum`` column by column, and every block
statistic to a per-column ``math.fsum`` reference written out here.
"""

import math

import numpy as np
import pytest

import multiscreen.stats_core as stats_core
from conftest import make_multistudy
from multiscreen import (DegenerateColumnError, MultiStudy, SimSetting, Study,
                         compute_correlation_matrix, compute_t_matrix,
                         gen_instance, residualize)
from multiscreen.multi_pc import _conditional_stats
from multiscreen.screening import _CHUNK
from multiscreen.stats_core import _ROW_CHUNK, _exact_colsum


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
        rng = np.random.default_rng(7)
        data, _ = make_multistudy(rng, n=50, p=12, k=2, s0=3)
        for study in data.studies:
            for cond in [(0,), (2, 5), (1, 4, 9)]:
                features = [j for j in range(data.p) if j not in cond]
                got = _conditional_stats(study, features, cond)
                for g, w in zip(got, ref_conditional(study, features, cond)):
                    assert_bits_equal(g, w)

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
