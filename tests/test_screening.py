"""Screening rules: the two-step procedure, the one-step baseline, and the
minimum-correlation ranking."""

import math
import re
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_multistudy
from multiscreen import (DegenerateColumnError, InputError, MultiStudy,
                         ScreeningConfig, Study, TStat, chi2_cdf,
                         chi2_quantile, compute_t_matrix, default_top_d,
                         group_lasso_fit, min_sis_rank, normal_cdf,
                         normal_quantile, one_step_sis, residualize,
                         self_normalized_t, theoretical_alpha1,
                         top_d_selection, tsa_sis, tsa_sis_from_stats)
from multiscreen.screening import (_CHUNK, _chi2_thresholds, _levels,
                                   _screen, _stat_matrices, _step1_mask,
                                   _step1_threshold, _two_step,
                                   compute_correlation_matrix, tsa_kept_mask)
from multiscreen.simulate import LevelGrid, MethodSpec, SimSetting, gen_instance
from multiscreen.stats_core import _exact_colsum, center_column

# |T| statistics of the three-feature toy instance, features x studies: a
# strong signal, a weak signal, and a noise feature across five studies.
TOY_T = np.array([
    [3.71, 3.16, 3.46, 3.63, 3.24],
    [3.70, 2.71, 2.65, 2.68, 1.94],
    [0.42, 0.54, 0.56, 0.12, 0.69],
])


def _l_hats(res):
    """Each feature's l_hat, read off the step-1 mask as a tuple of study
    positions."""
    return [tuple(np.flatnonzero(row).tolist()) for row in res.l_hat]


class TestToyGolden:
    def test_step1_sets(self):
        res = tsa_sis_from_stats(TOY_T, alpha2=0.05, threshold=3.09)
        assert _l_hats(res) == [(), (1, 2, 3, 4), (0, 1, 2, 3, 4)]
        assert res.kappa_hat.tolist() == [0, 4, 5]

    def test_step2_decisions(self):
        res = tsa_sis_from_stats(TOY_T, alpha2=0.05, threshold=3.09)
        l_stat, chi2 = res.l_stat, res.chi2_threshold
        assert 0 in res.kept and math.isnan(l_stat[0])
        assert l_stat[1] == pytest.approx(25.31, abs=0.01)
        assert chi2[1] == pytest.approx(9.4877, abs=1e-3)
        assert 1 in res.kept
        assert l_stat[2] == pytest.approx(1.27, abs=0.01)
        assert chi2[2] == pytest.approx(11.0705, abs=1e-3)
        assert 2 not in res.kept
        assert res.kept == (0, 1)
        assert res.dropped == (2,)

    def test_one_step_on_toy_keeps_only_strong(self):
        res = tsa_sis_from_stats(TOY_T, alpha2=0.05, threshold=3.09)
        assert np.flatnonzero(res.kappa_hat == 0).tolist() == [0]


class TestStep1:
    def test_threshold_boundary_is_inclusive(self):
        t = np.array([[2.0, -2.0, 1.99, 2.01]])
        res = tsa_sis_from_stats(t, alpha2=0.05, threshold=2.0)
        assert _l_hats(res)[0] == (0, 1, 2)

    def test_near_one_alpha1_empties_l_hat(self):
        t = np.array([[0.5, -0.2, 1.4]])
        res = tsa_sis_from_stats(t, alpha2=0.05, alpha1=1.0 - 1e-12)
        # The threshold collapses toward zero, so every nonzero statistic
        # individually rejects.
        assert _l_hats(res)[0] == ()
        assert res.kappa_hat[0] == 0

    def test_no_feature_removed(self, rng):
        data, _ = make_multistudy(rng)
        res = one_step_sis(data, alpha1=0.01)
        assert res.t_stats.shape == res.l_hat.shape == (data.p, data.k)
        assert res.kappa_hat.shape == res.l_stat.shape \
            == res.chi2_threshold.shape == (data.p,)
        assert sorted(res.kept + res.dropped) == list(range(data.p))

    def test_t_stats_match_self_normalized(self, rng):
        data, _ = make_multistudy(rng, n=25, p=5, k=2)
        t_mat = compute_t_matrix(data)
        for ki, study in enumerate(data.studies):
            for j in range(data.p):
                expect = self_normalized_t(study.x[:, j], study.y).value
                assert t_mat[j, ki] == expect  # bit-identical shared path

    def test_degenerate_column_names_feature(self, rng):
        data, _ = make_multistudy(rng, n=20, p=4, k=2)
        x = data.studies[1].x.copy()
        x[:, 2] = 7.0
        bad = MultiStudy(
            studies=(data.studies[0],
                     Study(id="s2", x=x, y=data.studies[1].y)),
            feature_names=data.feature_names)
        with pytest.raises(DegenerateColumnError, match="g3"):
            one_step_sis(bad, alpha1=0.01)


class TestStep2:
    def test_kappa_zero_always_kept(self):
        t = np.array([[9.0, 8.0]])
        for alpha2 in (1e-6, 0.5, 1.0 - 1e-6):
            res = tsa_sis_from_stats(t, alpha2=alpha2, threshold=3.0)
            assert res.kept == (0,)

    def test_exact_threshold_drops(self):
        # One study in l_hat; pick T so the aggregate equals the chi-square
        # threshold exactly: the tie goes to the dropped side.
        thr = chi2_quantile(0.95, 1)
        t = np.array([[math.sqrt(thr)]])
        res = tsa_sis_from_stats(t, alpha2=0.05, threshold=10.0)
        assert res.l_stat[0] == pytest.approx(res.chi2_threshold[0], abs=1e-12)
        assert res.kept == ()

    def test_stricter_alpha1_can_rescue_a_feature(self):
        # A feature that four studies reject individually hangs on the one
        # borderline study left in l_hat, which must clear chi-square(1)
        # alone; a stricter step 1 pools a second study and keeps it.
        t = np.array([[3.62, 2.91, 4.13, 4.48, 4.52]])
        loose = tsa_sis_from_stats(t, alpha2=1e-3, alpha1=1e-3)
        assert _l_hats(loose) == [(1,)]
        assert loose.l_stat[0] == pytest.approx(8.468, abs=1e-3)
        assert loose.chi2_threshold[0] == pytest.approx(10.828, abs=1e-3)
        assert loose.kept == ()
        strict = tsa_sis_from_stats(t, alpha2=1e-3, alpha1=1e-4)
        assert _l_hats(strict) == [(0, 1)]
        assert strict.l_stat[0] == pytest.approx(21.573, abs=1e-3)
        assert strict.chi2_threshold[0] == pytest.approx(13.816, abs=1e-3)
        assert strict.kept == (0,)

    def test_records_fully_populated(self, rng):
        data, _ = make_multistudy(rng)
        res = tsa_sis(data, ScreeningConfig(alpha1=0.05, alpha2=0.1))
        for j, (t_stats, l_hat, kappa_hat, l_stat, chi2) in enumerate(zip(
                res.t_stats, _l_hats(res), res.kappa_hat, res.l_stat,
                res.chi2_threshold)):
            expected_l = tuple(
                k for k in range(data.k)
                if abs(t_stats[k]) <= normal_quantile(1.0 - 0.05 / 2.0))
            assert l_hat == expected_l
            assert kappa_hat == len(l_hat)
            if kappa_hat == 0:
                assert math.isnan(l_stat) and math.isnan(chi2)
                assert j in res.kept
            else:
                assert l_stat == pytest.approx(
                    math.fsum(float(t_stats[k]) ** 2 for k in l_hat))
                assert (j in res.kept) == (l_stat > chi2)


class TestTsaSis:
    def test_partition(self, rng):
        data, _ = make_multistudy(rng)
        res = tsa_sis(data, ScreeningConfig())
        assert sorted(res.kept + res.dropped) == list(range(data.p))
        assert set(res.kept).isdisjoint(res.dropped)

    def test_single_study_reduces_to_marginal_rule(self, rng):
        data, _ = make_multistudy(rng, k=1, n=40, p=10)
        alpha1, alpha2 = 0.01, 0.05
        res = tsa_sis(data, ScreeningConfig(alpha1, alpha2))
        thr1 = normal_quantile(1.0 - alpha1 / 2.0)
        thr2 = chi2_quantile(1.0 - alpha2, 1)
        t = compute_t_matrix(data)[:, 0]
        expected = [j for j in range(data.p)
                    if abs(t[j]) > thr1 or t[j] ** 2 > thr2]
        assert list(res.kept) == expected

    def test_alpha2_monotonicity(self, rng):
        data, _ = make_multistudy(rng, n=25, p=20, k=3, signal=0.3, s0=5)
        base = None
        for alpha2 in (0.01, 0.05, 0.2, 0.5):
            kept = set(tsa_sis(data, ScreeningConfig(0.01, alpha2)).kept)
            if base is not None:
                assert base <= kept
            base = kept

    def test_containment_of_one_step(self, rng):
        for _ in range(100):
            n = int(rng.integers(10, 40))
            p = int(rng.integers(2, 12))
            k = int(rng.integers(1, 5))
            data, _ = make_multistudy(rng, n=n, p=p, k=k,
                                      signal=float(rng.uniform(0, 1)))
            alpha1 = float(rng.uniform(0.001, 0.2))
            alpha2 = float(rng.uniform(0.001, 0.5))
            one = one_step_sis(data, alpha1)
            two = tsa_sis(data, ScreeningConfig(alpha1, alpha2))
            assert set(one.kept) <= set(two.kept)

    def test_affine_invariance_of_decisions(self, rng):
        for _ in range(100):
            data, _ = make_multistudy(rng, n=20, p=6,
                                      k=int(rng.integers(1, 4)),
                                      signal=float(rng.uniform(0, 1.2)))
            config = ScreeningConfig(0.05, 0.1)
            base = tsa_sis(data, config)
            studies = []
            for s in data.studies:
                a = float(rng.uniform(0.2, 4.0)) * (-1.0 if rng.random() < 0.5 else 1.0)
                c = float(rng.uniform(0.2, 4.0)) * (-1.0 if rng.random() < 0.5 else 1.0)
                b, d = rng.uniform(-5.0, 5.0, size=2)
                studies.append(Study(id=s.id, x=a * s.x + b, y=c * s.y + d))
            moved = MultiStudy(studies=tuple(studies),
                               feature_names=data.feature_names)
            res = tsa_sis(moved, config)
            assert res.kept == base.kept
            assert res.dropped == base.dropped
            base_rank = [j for j, _ in min_sis_rank(data)]
            moved_rank = [j for j, _ in min_sis_rank(moved)]
            assert base_rank == moved_rank

    def test_deterministic_bitwise(self, rng):
        data, _ = make_multistudy(rng)
        a = tsa_sis(data, ScreeningConfig())
        b = tsa_sis(data, ScreeningConfig())
        assert a.kept == b.kept
        assert np.array_equal(a.t_stats, b.t_stats)
        assert np.array_equal(a.l_stat, b.l_stat, equal_nan=True)

    def test_unequal_sample_sizes_supported(self, rng):
        data, _ = make_multistudy(rng, unequal_n=True)
        res = tsa_sis(data, ScreeningConfig())
        assert len(res.kappa_hat) == data.p

    def test_result_holds_its_own_statistic_matrix(self):
        # A write to the caller's matrix after the screen moves no column
        # of the result, t_stats included.
        t = np.array([[0.5, 2.0], [3.0, 4.0], [0.1, 5.0]])
        res = tsa_sis_from_stats(t, alpha2=0.05, alpha1=0.01)
        columns = ("t_stats", "l_hat", "kappa_hat", "l_stat",
                   "chi2_threshold")
        before = {name: getattr(res, name).tobytes() for name in columns}
        t[:] = 0.0
        assert {name: getattr(res, name).tobytes()
                for name in columns} == before

    def test_result_memory_at_p_1e5(self, rng):
        # The result holds (p,) and (p, K) arrays and the two index tuples,
        # no object per feature: about 10.9 MB at p = 10^5, K = 5, its own
        # copy of the statistic matrix included, where one frozen record
        # per feature held 43 MB.
        t = rng.normal(scale=2.0, size=(100_000, 5))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = tsa_sis_from_stats(t, alpha2=0.05, alpha1=1e-4)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert 0 < len(res.kept) < len(t)
        assert held <= 12 * 10**6, f"result holds {held / 1e6:.1f} MB"

    def test_kept_mask_matches_records(self, rng):
        for _ in range(25):
            data, _ = make_multistudy(rng, n=20, p=10, k=3,
                                      signal=float(rng.uniform(0, 1)))
            alpha1, alpha2 = 0.01, 0.05
            res = tsa_sis(data, ScreeningConfig(alpha1, alpha2))
            mask = tsa_kept_mask(compute_t_matrix(data),
                                 normal_quantile(1.0 - alpha1 / 2.0), alpha2)
            assert tuple(np.nonzero(mask)[0]) == res.kept
        # The exact l_stat of this row equals the chi-square(3) threshold
        # 7.814727903251181, so both paths drop it; a plain floating-point
        # sum rounds it to ...182 and would keep it.
        tie = np.array([[0.7104563186629204, 0.589707879099864,
                         2.6386027249001796]])
        res = tsa_sis_from_stats(tie, alpha2=0.05, threshold=3.0)
        assert res.l_stat[0] == res.chi2_threshold[0]
        assert res.kept == ()
        assert not tsa_kept_mask(tie, 3.0, 0.05)[0]


class TestOneStep:
    def test_all_above_threshold_all_kept(self):
        t = np.full((4, 3), 9.0)
        res = tsa_sis_from_stats(t, alpha2=0.05, threshold=3.0)
        assert (res.kappa_hat == 0).all()
        assert res.kept == (0, 1, 2, 3)

    def test_records_step1_only(self, rng):
        data, _ = make_multistudy(rng)
        res = one_step_sis(data, 0.01)
        assert res.method == "onestep"
        assert np.isnan(res.l_stat).all()
        assert np.isnan(res.chi2_threshold).all()
        assert res.kept == tuple(np.flatnonzero(res.kappa_hat == 0).tolist())


class TestMinSis:
    def test_top_p_keeps_everything(self, rng):
        data, _ = make_multistudy(rng)
        ranking = min_sis_rank(data)
        kept, dropped = top_d_selection(ranking, data.p, data.p)
        assert kept == tuple(range(data.p))
        assert dropped == ()

    def test_single_study_matches_classical_order(self, rng):
        data, _ = make_multistudy(rng, k=1, n=50, p=12, signal=0.6, s0=3)
        from multiscreen import compute_correlation_matrix
        rho = np.abs(compute_correlation_matrix(data)[:, 0])
        expected = sorted(range(data.p), key=lambda j: (-rho[j], j))
        assert [j for j, _ in min_sis_rank(data)] == expected

    def test_scores_are_study_minimum(self, rng):
        data, _ = make_multistudy(rng, n=25, p=6, k=4)
        from multiscreen import compute_correlation_matrix
        rho = np.abs(compute_correlation_matrix(data))
        for j, score in min_sis_rank(data):
            assert score == pytest.approx(rho[j].min(), abs=1e-14)

    def test_tie_break_ascending_index(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 2))
        x[:, 1] = -x[:, 0]  # identical |correlation|, distinct columns
        y = rng.normal(size=30)
        data = MultiStudy(studies=(Study(id="s1", x=x, y=y),),
                          feature_names=("a", "b"))
        ranking = min_sis_rank(data)
        assert [j for j, _ in ranking] == [0, 1]

    def test_default_d_formula(self):
        assert default_top_d(165) == math.floor(165 / math.log(165))
        assert default_top_d(275) == math.floor(275 / math.log(275)) == 48
        assert default_top_d(3) == 2

    def test_degenerate_column_raises(self, rng):
        data, _ = make_multistudy(rng, n=20, p=3, k=1)
        x = data.studies[0].x.copy()
        x[:, 1] = 0.0
        bad = MultiStudy(studies=(Study(id="s1", x=x, y=data.studies[0].y),),
                         feature_names=data.feature_names)
        with pytest.raises(DegenerateColumnError):
            min_sis_rank(bad)


# A small fitting instance and design for the argument checks below.
_SMALL_DATA = make_multistudy(np.random.default_rng(5), n=12, p=3, k=2)[0]
_X4 = np.array([[1.0, 2.0], [3.0, 1.0], [0.0, 5.0], [2.0, 2.0]])


def _level_of_threshold(v):
    return tsa_sis_from_stats([[1.0]], alpha2=0.05, threshold=v).config.alpha1


class TestValidation:
    def test_config_bounds(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(InputError):
                ScreeningConfig(alpha1=bad)
            with pytest.raises(InputError):
                ScreeningConfig(alpha2=bad)

    def test_study_shape_checks(self):
        with pytest.raises(InputError):
            Study(id="s", x=np.zeros((2, 3)), y=np.zeros(2))
        with pytest.raises(InputError):
            Study(id="s", x=np.zeros((5, 3)), y=np.zeros(4))
        with pytest.raises(InputError):
            Study(id="s", x=np.full((5, 3), np.nan), y=np.zeros(5))

    @pytest.mark.parametrize("column, finite", [
        ([1e308, 1e308, 0.0], True),  # the sum overflows, the entries do not
        ([-1e308, -1e308, 5e-324], True),
        ([1.0, np.nan, 2.0], False),
        ([1.0, np.inf, 2.0], False),
        ([-np.inf, 1.0, 2.0], False),
        ([np.inf, -np.inf, 2.0], False),  # the sum is NaN
    ])
    def test_study_finiteness_by_column(self, column, finite):
        x = np.column_stack([np.arange(3.0), column, np.ones(3)])
        if finite:
            assert Study(id="s", x=x, y=np.zeros(3)).p == 3
        else:
            with pytest.raises(InputError, match="finite"):
                Study(id="s", x=x, y=np.zeros(3))

    def test_multistudy_alignment(self, rng):
        s1 = Study(id="a", x=rng.normal(size=(10, 3)), y=rng.normal(size=10))
        s2 = Study(id="b", x=rng.normal(size=(10, 4)), y=rng.normal(size=10))
        with pytest.raises(InputError):
            MultiStudy(studies=(s1, s2), feature_names=("f1", "f2", "f3"))
        with pytest.raises(InputError):
            MultiStudy(studies=(), feature_names=("f1",))

    def test_step2_alpha_bounds(self):
        with pytest.raises(InputError, match="alpha2 must lie strictly"):
            tsa_sis_from_stats(np.array([[1.0]]), alpha2=0.0, alpha1=0.05)

    def test_nan_statistic_rejected(self):
        # |NaN| <= thr is False, so a NaN study would count as rejecting
        # and an all-NaN row would be kept outright.
        for t in (np.array([[np.nan, np.nan, np.nan]]),
                  np.array([[1.0, 2.0], [0.5, np.nan]])):
            with pytest.raises(InputError, match="NaN"):
                tsa_sis_from_stats(t, alpha2=0.05, threshold=3.0)

    def test_zero_study_columns_rejected(self):
        # With no studies every l_hat is empty, so every feature would be
        # kept outright.
        with pytest.raises(InputError, match="study column"):
            tsa_sis_from_stats(np.empty((3, 0)), alpha2=0.05, alpha1=0.01)

    def test_alpha1_and_threshold_exclusive(self):
        t = np.array([[1.0, 4.0]])
        with pytest.raises(InputError, match="exactly one"):
            tsa_sis_from_stats(t, alpha2=0.05, alpha1=0.01, threshold=5.0)
        with pytest.raises(InputError, match="exactly one"):
            tsa_sis_from_stats(t, alpha2=0.05)

    @pytest.mark.parametrize("threshold", [0.0, 1e-17])
    def test_threshold_whose_level_rounds_to_one_rejected(self, threshold):
        # erfc(threshold / sqrt 2) == 1.0: the error names the threshold
        # given, not a level of 1.0 the caller never gave.
        with pytest.raises(InputError, match=f"threshold {threshold!r} is too small"):
            tsa_sis_from_stats([[1.0, 0.0]], alpha2=0.05, threshold=threshold)

    def test_non_scalar_alpha1_rejected(self, rng):
        data, _ = make_multistudy(rng, n=20, p=4, k=2)
        with pytest.raises(InputError, match="alpha1"):
            tsa_sis_from_stats(np.array([[1.0, 4.0]]), alpha2=0.05,
                               alpha1=np.array([0.01, 0.02]))
        with pytest.raises(InputError, match="alpha1"):
            one_step_sis(data, alpha1=[0.01])

    @pytest.mark.parametrize("value", [
        None, "0.01", "abc", b"0.01", 0.01j, object(), np.array("0.01"),
        True, np.True_, 10 ** 400],
        ids=["none", "numeric_str", "str", "bytes", "complex", "object",
             "str_array", "bool", "numpy_bool", "int_beyond_float"])
    @pytest.mark.parametrize("make, name", [
        (lambda v: ScreeningConfig(alpha1=v), "alpha1"),
        (lambda v: ScreeningConfig(alpha2=v), "alpha2"),
        (lambda v: tsa_sis_from_stats([[1.0]], alpha2=v, alpha1=0.01), "alpha2"),
        (lambda v: tsa_sis_from_stats([[1.0]], alpha2=0.05, alpha1=v), "alpha1"),
        (lambda v: tsa_sis_from_stats([[1.0]], alpha2=0.05, threshold=v),
         "threshold"),
        (lambda v: MethodSpec(alpha2=v), "alpha2"),
        (lambda v: LevelGrid([v], [0.05]), "alpha1"),
        (lambda v: tsa_kept_mask([[1.0]], 3.0, v), "alpha2"),
        (lambda v: tsa_kept_mask([[1.0]], v, 0.05), "threshold"),
        (lambda v: chi2_cdf(v, 3), "x"),
        (lambda v: chi2_quantile(v, 3), "p"),
        (normal_cdf, "z"),
        (normal_quantile, "p"),
        (lambda v: theoretical_alpha1(1000, v), "L"),
        (lambda v: theoretical_alpha1(1000, 1.0, v), "b"),
        (lambda v: SimSetting(beta_low=v, beta_high=1.0), "beta_low"),
        (lambda v: SimSetting(noise_sd=v), "noise_sd"),
        (lambda v: SimSetting(r_pool=(0.2, v)), "every r in r_pool"),
        (lambda v: group_lasso_fit(_SMALL_DATA, (0, 1), v), "lambda"),
        (lambda v: TStat(value=0.0, sigma_hat=0.0, theta_hat=v, n=5),
         "theta_hat"),
    ], ids=["config_alpha1", "config_alpha2", "stats_alpha2", "stats_alpha1",
            "stats_threshold", "spec_alpha2", "grid_alpha1", "mask_alpha2",
            "mask_threshold", "chi2_cdf_x", "chi2_quantile_p", "normal_cdf_z",
            "normal_quantile_p", "alpha1_L", "alpha1_b", "sim_beta_low",
            "sim_noise_sd", "sim_r_pool", "lasso_lambda", "tstat_theta"])
    def test_level_that_is_not_a_real_number_rejected(self, make, name, value):
        # The message names the argument as a word ("x", not the x of a
        # longer name).
        with pytest.raises(InputError, match=rf"\b{re.escape(name)}\b"):
            make(value)

    @pytest.mark.parametrize("convert", [
        lambda a: np.asarray(a).astype(str),
        lambda a: np.asarray(a).astype(bytes),
        lambda a: np.asarray(a) + 0j,
        lambda a: np.asarray(a).astype(object),
    ], ids=["str", "bytes", "complex", "object"])
    @pytest.mark.parametrize("make, good, name", [
        (lambda a: Study("s", a, np.arange(4.0)), _X4, "study 's': x"),
        (lambda a: Study("s", _X4, a), np.arange(4.0), "study 's': y"),
        (lambda a: tsa_sis_from_stats(a, alpha2=0.05, alpha1=0.01),
         [[0.5, 2.0]], "statistic matrix"),
        (lambda a: tsa_kept_mask(a, 3.0, 0.05), [[0.5, 2.0]],
         "statistic matrix"),
        (lambda a: self_normalized_t(a, [1.0, 2.0, 4.0]), [1.0, 3.0, 2.0],
         "x_col"),
        (lambda a: self_normalized_t([1.0, 3.0, 2.0], a), [1.0, 2.0, 4.0],
         "y"),
        (lambda a: residualize(a, (0,), np.arange(4.0)), _X4, "x"),
        (lambda a: residualize(_X4, (0,), a), np.arange(4.0), "target"),
        (lambda a: group_lasso_fit(_SMALL_DATA, (0, 1), 1.0, beta0=a),
         np.zeros((2, 2)), "beta0"),
        (normal_cdf, [0.25, 0.5], "z"),
        (normal_quantile, [0.25, 0.5], "p"),
    ], ids=["study_x", "study_y", "stats_matrix", "mask_matrix", "t_x_col",
            "t_y", "resid_x", "resid_target", "lasso_beta0", "normal_cdf_z",
            "normal_quantile_p"])
    def test_array_that_is_not_real_rejected(self, make, good, name, convert):
        make(good)
        with pytest.raises(InputError,
                           match=f"^{re.escape(name)} must hold real numbers"):
            make(convert(good))

    @pytest.mark.parametrize("f, v", [
        (lambda v: chi2_cdf(v, 3), 2.0),
        (lambda v: chi2_quantile(v, 3), 0.25),
        (normal_cdf, 0.5),
        (normal_quantile, 0.25),
        (lambda v: theoretical_alpha1(1000, v), 1.5),
        (lambda v: theoretical_alpha1(1000, 1.0, v), 2.0),
        (lambda v: SimSetting(beta_low=v, beta_high=1.0).beta_low, 0.25),
        (_level_of_threshold, 3.0),
    ], ids=["chi2_cdf_x", "chi2_quantile_p", "normal_cdf_z",
            "normal_quantile_p", "alpha1_L", "alpha1_b", "sim_beta_low",
            "threshold"])
    def test_numpy_reals_give_the_bits_of_the_float(self, f, v):
        expect = f(v)
        kinds = [np.float32, np.float64, np.array]
        if v == int(v):
            kinds.append(lambda v: np.int64(int(v)))
        for kind in kinds:
            got = f(kind(v))
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(expect).tobytes()

    def test_bool_and_integer_data_build_a_study(self):
        x = np.array([[True, False], [False, False], [True, True]])
        study = Study("s", x, np.array([1, 2, 4]))
        assert study.x.tobytes() == x.astype(float).tobytes()
        assert study.y.tobytes() == np.array([1.0, 2.0, 4.0]).tobytes()
        # A float64 array is taken as it is, without a copy.
        xf = x.astype(float)
        assert Study("s", xf, study.y).x is xf

    @pytest.mark.parametrize("name, value", [
        ("alpha2", 0.0), ("alpha2", 1.0), ("alpha2", -0.1), ("alpha2", 2.0),
        ("alpha2", True), ("threshold", -1.0), ("threshold", math.inf),
        ("threshold", math.nan)])
    def test_kept_mask_level_out_of_range_rejected(self, name, value):
        # The kept mask checks its levels as the screening result does.
        levels = {"threshold": 3.0, "alpha2": 0.05, name: value}
        with pytest.raises(InputError, match=f"^{name} must"):
            tsa_kept_mask([[1.0]], **levels)
        with pytest.raises(InputError, match=f"^{name} must"):
            tsa_sis_from_stats([[1.0]], **levels)

    def test_real_levels_of_any_numeric_type_accepted(self):
        for v in (0.01, np.float64(0.01), np.float32(0.25), np.array(0.01),
                  Fraction(1, 100)):
            assert ScreeningConfig(alpha1=v).alpha1 == float(v)
        assert tsa_sis_from_stats([[1.0]], alpha2=0.05, threshold=np.int64(3)) \
            .config.alpha1 == math.erfc(3 / math.sqrt(2))


# ---------------------------------------------------------------------------
# The one-pass statistic matrices against the two passes they replaced,
# kept verbatim (with the block walk and statistic kernel they called) as
# the reference.
# ---------------------------------------------------------------------------

def _centered_blocks(data):
    for ki, study in enumerate(data.studies):
        cy, var_y = center_column(study.y[:, None])
        if var_y[0] <= 0.0:
            raise DegenerateColumnError(
                f"response in study {study.id!r} has zero variance")
        for j0 in range(0, data.p, _CHUNK):
            cx, var_x = center_column(study.x[:, j0:j0 + _CHUNK])
            yield ki, study, j0, cx, var_x, cy, var_y


def _reference_t_from_centered(cx, cy, var_x, var_y, label=None):
    n = cx.shape[0]
    prods = cx * cy
    sigma = _exact_colsum(prods) / n
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


def _reference_t_matrix(data):
    out = np.empty((data.p, data.k))
    for ki, study, j0, cx, var_x, cy, var_y in _centered_blocks(data):
        out[j0:j0 + cx.shape[1], ki] = _reference_t_from_centered(
            cx, cy, var_x, var_y, label=lambda i: (
                f"{data.feature_names[j0 + i]} (study {study.id!r})"))[0]
    return out


def _reference_correlation_matrix(data):
    out = np.empty((data.p, data.k))
    for ki, study, j0, cx, var_x, cy, var_y in _centered_blocks(data):
        flat = np.flatnonzero(var_x <= 0.0)
        if flat.size:
            raise DegenerateColumnError(
                f"feature {data.feature_names[j0 + flat[0]]!r} has zero "
                f"variance in study {study.id!r}")
        cov = _exact_colsum(cx * cy) / study.n
        out[j0:j0 + cx.shape[1], ki] = cov / np.sqrt(var_x * var_y)
    return out


_REFERENCES = {"t": _reference_t_matrix, "corr": _reference_correlation_matrix}
_PUBLIC = {"t": compute_t_matrix, "corr": compute_correlation_matrix}


def _outcome(fn, data):
    """The matrix's int64 bits, or the message of the error it raised."""
    try:
        return fn(data).view(np.int64).tolist()
    except DegenerateColumnError as exc:
        return str(exc)


def _assert_matches_reference(data):
    want = {name: _outcome(ref, data) for name, ref in _REFERENCES.items()}
    for names in (("t",), ("corr",), ("t", "corr")):
        got = _stat_matrices(data, names)
        assert set(got) == set(names)
        for name in names:
            mat = got[name]
            assert (str(mat) if isinstance(mat, DegenerateColumnError)
                    else mat.view(np.int64).tolist()) == want[name]
    for name, public in _PUBLIC.items():
        assert _outcome(public, data) == want[name]
    return want


def _crafted(rng, faults):
    """Three studies of 30 x (_CHUNK + 20) with ``faults`` applied: a list
    of (study, kind, column) where kind is "response" (a constant
    response), "constant" (a constant column) or "alternating" (response
    and column both +1, -1, ...: the products are constant, the variances
    are not)."""
    data, _ = make_multistudy(rng, n=30, p=_CHUNK + 20, k=3)
    studies = [[s.x.copy(), s.y.copy()] for s in data.studies]
    for k, kind, j in faults:
        x, y = studies[k]
        if kind == "response":
            y[:] = 2.5
        elif kind == "constant":
            x[:, j] = 7.0
        else:
            y[:] = np.resize([1.0, -1.0], y.size)
            x[:, j] = y
    return MultiStudy(studies=tuple(
        Study(id=s.id, x=x, y=y) for s, (x, y) in zip(data.studies, studies)),
        feature_names=data.feature_names)


class TestStatMatrices:
    @pytest.mark.parametrize("setting_id", [1, 2, 3, 4])
    def test_simulated_instances(self, setting_id):
        data, _, _ = gen_instance(SimSetting.preset(setting_id, seed=5), 0)
        want = _assert_matches_reference(data)
        assert all(isinstance(w, list) for w in want.values())

    @pytest.mark.parametrize("faults, t_error, corr_error", [
        ([(1, "response", None)], "response in study 's2'",
         "response in study 's2'"),
        ([(0, "constant", 40)], "column \"g41 (study 's1')\"",
         "feature 'g41' has zero variance in study 's1'"),
        ([(1, "alternating", 5)], "column \"g6 (study 's2')\"", None),
        ([(0, "alternating", 5), (2, "constant", _CHUNK + 3)],
         "column \"g6 (study 's1')\"",
         f"feature 'g{_CHUNK + 4}' has zero variance in study 's3'"),
        ([(0, "alternating", 5), (1, "response", None)],
         "column \"g6 (study 's1')\"", "response in study 's2'"),
    ])
    def test_crafted_failures(self, rng, faults, t_error, corr_error):
        want = _assert_matches_reference(_crafted(rng, faults))
        for name, error in (("t", t_error), ("corr", corr_error)):
            if error is None:
                assert isinstance(want[name], list)
            else:
                assert want[name].startswith(error)


# ---------------------------------------------------------------------------
# The screening-result builder against the step-1 / step-2 layer it
# replaced, kept verbatim (with the threshold resolution it called) as the
# reference.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _reference_Step1Output:
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


def _reference_resolve_threshold(alpha1, threshold):
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


def _reference_step1_from_stats(t_mat, alpha1=None, threshold=None):
    """First screening step from an injected (p, K) statistic matrix.

    A study lands in a feature's l_hat when |T| <= threshold (ties go in).
    """
    t_mat = np.asarray(t_mat, dtype=float)
    if t_mat.ndim != 2:
        raise InputError("statistic matrix must be 2-d (features x studies)")
    alpha1, thr = _reference_resolve_threshold(alpha1, threshold)
    entries = []
    for row, in_l in zip(t_mat, _step1_mask(t_mat, thr)):
        l_hat = tuple(int(k) for k in np.nonzero(in_l)[0])
        entries.append((l_hat, len(l_hat), row))
    return _reference_Step1Output(entries=tuple(entries), alpha1=alpha1,
                                  threshold=thr)


def _reference_step2_aggregate(step1_output, alpha2):
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
    return _reference_result(step1_output, keep, config, "tsa", l_stat,
                             thresholds)


@dataclass(frozen=True)
class _reference_Record:
    """Per-feature screening evidence, one object per feature: ``l_hat``
    holds 0-based study positions; ``l_stat`` and ``chi2_threshold`` are
    None when no aggregate test ran."""

    feature: int
    t_stats: np.ndarray
    l_hat: tuple[int, ...]
    kappa_hat: int
    l_stat: float | None
    chi2_threshold: float | None
    kept: bool


@dataclass(frozen=True)
class _reference_Result:
    kept: tuple[int, ...]
    dropped: tuple[int, ...]
    records: tuple[_reference_Record, ...]
    config: ScreeningConfig
    method: str


def _reference_result(step1, keep, config, method, l_stat=None,
                      chi2_table=None):
    """Records and kept/dropped sets from step-1 evidence and a keep mask;
    the aggregate fields are set where kappa_hat > 0 and l_stat is given."""
    records = tuple(_reference_Record(
        feature=j, t_stats=t_row, l_hat=l_hat, kappa_hat=kappa,
        l_stat=float(l_stat[j]) if kappa and l_stat is not None else None,
        chi2_threshold=chi2_table[kappa] if kappa and l_stat is not None
        else None, kept=bool(keep[j]))
        for j, (l_hat, kappa, t_row) in enumerate(step1))
    return _reference_Result(kept=tuple(int(j) for j in np.nonzero(keep)[0]),
                             dropped=tuple(int(j) for j in np.nonzero(~keep)[0]),
                             records=records, config=config, method=method)


def _reference_one_step(t_mat, alpha1=None, threshold=None):
    step1 = _reference_step1_from_stats(t_mat, alpha1=alpha1,
                                        threshold=threshold)
    keep = np.array([kappa == 0 for _, kappa, _ in step1], dtype=bool)
    config = ScreeningConfig(alpha1=step1.alpha1, alpha2=0.05)
    return _reference_result(step1, keep, config, "onestep")


def _one_step(t_mat, alpha1=None, threshold=None):
    """The builder's one-step result on a given matrix, with the levels
    ``one_step_sis`` gives it."""
    return _screen(np.asarray(t_mat, dtype=float),
                   *_levels(alpha1, 0.05, threshold), "onestep")


def _typed(v):
    """A value with its Python type, elementwise through tuples; arrays by
    dtype, shape and bytes."""
    if isinstance(v, np.ndarray):
        return (np.ndarray, v.dtype.str, v.shape, v.tobytes())
    if isinstance(v, tuple):
        return (tuple, tuple(_typed(x) for x in v))
    return (type(v), v)


def _fields(res):
    """Every field of a result, each per-feature column included, typed."""
    return (_typed(res.kept), _typed(res.dropped), res.method,
            _typed(res.config.alpha1), _typed(res.config.alpha2),
            [_typed(getattr(res, f)) for f in (
                "t_stats", "l_hat", "kappa_hat", "l_stat", "chi2_threshold")])


def _reference_fields(ref, k):
    """The reference's fields typed as :func:`_fields` types a result's,
    its K-study records stacked into columns: l_hat as a mask, an absent
    aggregate as NaN."""
    recs, p = ref.records, len(ref.records)

    def value(v):
        return math.nan if v is None else v

    return (_typed(ref.kept), _typed(ref.dropped), ref.method,
            _typed(ref.config.alpha1), _typed(ref.config.alpha2), [
                _typed(np.array([r.t_stats for r in recs],
                                dtype=float).reshape(p, k)),
                _typed(np.array([[i in r.l_hat for i in range(k)]
                                 for r in recs], dtype=bool).reshape(p, k)),
                _typed(np.array([r.kappa_hat for r in recs], dtype=int)),
                _typed(np.array([value(r.l_stat) for r in recs], dtype=float)),
                _typed(np.array([value(r.chi2_threshold) for r in recs],
                                dtype=float))])


def _random_stats(rng, thr):
    """A (p, K) matrix mixing noise, strong rows (kappa_hat = 0), null rows
    (kappa_hat = K), cells exactly at +-thr and infinite cells."""
    p, k = int(rng.integers(1, 40)), int(rng.integers(1, 7))
    t = rng.normal(scale=float(rng.uniform(0.5, 4.0)), size=(p, k))
    t[rng.random(p) < 0.15] = thr + rng.uniform(0.1, 5.0, size=k)
    t[rng.random(p) < 0.15] = rng.uniform(-thr, thr, size=k)
    ties = rng.random((p, k)) < 0.1
    t[ties] = thr * rng.choice([-1.0, 1.0], size=int(ties.sum()))
    t[rng.random((p, k)) < 0.02] = np.inf
    return t


class TestBuilderMatchesReference:
    def test_random_threshold_entry(self, rng):
        ks = set()
        for _ in range(200):
            thr = float(rng.uniform(0.5, 4.0))
            alpha2 = float(rng.uniform(1e-3, 0.5))
            t = _random_stats(rng, thr)
            k = t.shape[1]
            want = _reference_step2_aggregate(
                _reference_step1_from_stats(t, threshold=thr), alpha2)
            got = tsa_sis_from_stats(t, alpha2=alpha2, threshold=thr)
            assert _fields(got) == _reference_fields(want, k)
            assert _fields(_one_step(t, threshold=thr)) \
                == _reference_fields(_reference_one_step(t, threshold=thr), k)
            ks.add(k)
        assert ks == set(range(1, 7))

    def test_random_alpha1_entry(self, rng):
        kappas, ks = set(), set()
        for _ in range(200):
            alpha1 = float(rng.uniform(1e-4, 0.2))
            alpha2 = float(rng.uniform(1e-3, 0.5))
            t = _random_stats(rng, _step1_threshold(alpha1))
            k = t.shape[1]
            want = _reference_step2_aggregate(
                _reference_step1_from_stats(t, alpha1=alpha1), alpha2)
            got = tsa_sis_from_stats(t, alpha2=alpha2, alpha1=alpha1)
            assert _fields(got) == _reference_fields(want, k)
            assert _fields(_one_step(t, alpha1=alpha1)) \
                == _reference_fields(_reference_one_step(t, alpha1=alpha1), k)
            kappas |= set(zip((got.kappa_hat == 0).tolist(),
                              (got.kappa_hat == k).tolist()))
            ks.add(k)
        assert kappas >= {(True, False), (False, True)}
        assert ks == set(range(1, 7))

    def test_no_features(self):
        for k in (1, 5):
            t = np.empty((0, k))
            want = _reference_step2_aggregate(
                _reference_step1_from_stats(t, alpha1=0.01), 0.05)
            got = tsa_sis_from_stats(t, alpha2=0.05, alpha1=0.01)
            assert _fields(got) == _reference_fields(want, k)
            assert got.t_stats.shape == (0, k)
            assert _fields(_one_step(t, alpha1=0.01)) \
                == _reference_fields(_reference_one_step(t, alpha1=0.01), k)

    def test_chi2_tie_row(self):
        tie = np.array([[0.7104563186629204, 0.589707879099864,
                         2.6386027249001796]])
        want = _reference_step2_aggregate(
            _reference_step1_from_stats(tie, threshold=3.0), 0.05)
        got = tsa_sis_from_stats(tie, alpha2=0.05, threshold=3.0)
        assert _fields(got) == _reference_fields(want, 3)
        assert got.l_stat[0] == 7.814727903251181
        assert got.kept == ()
        assert _fields(_one_step(tie, threshold=3.0)) \
            == _reference_fields(_reference_one_step(tie, threshold=3.0), 3)

    def test_data_entry_points(self, rng):
        for _ in range(20):
            data, _ = make_multistudy(rng, n=20, p=12,
                                      k=int(rng.integers(1, 5)),
                                      signal=float(rng.uniform(0, 1)))
            alpha1 = float(rng.uniform(1e-3, 0.2))
            alpha2 = float(rng.uniform(1e-3, 0.5))
            t = compute_t_matrix(data)
            want = _reference_step2_aggregate(
                _reference_step1_from_stats(t, alpha1=alpha1), alpha2)
            got = tsa_sis(data, ScreeningConfig(alpha1, alpha2))
            assert _fields(got) == _reference_fields(want, data.k)
            assert _fields(one_step_sis(data, alpha1)) \
                == _reference_fields(_reference_one_step(t, alpha1), data.k)
