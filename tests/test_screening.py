"""Screening rules: the two-step procedure, the one-step baseline, and the
minimum-correlation ranking."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_multistudy
from multiscreen import (DegenerateColumnError, InputError, MultiStudy,
                         ScreeningConfig, Study, chi2_quantile,
                         compute_t_matrix, default_top_d, min_sis_rank,
                         normal_quantile, one_step_sis, self_normalized_t,
                         top_d_selection, tsa_sis, tsa_sis_from_stats)
from multiscreen.screening import (_CHUNK, FeatureScreenRecord,
                                   ScreeningResult, _chi2_thresholds,
                                   _stat_matrices, _step1_mask,
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


class TestToyGolden:
    def test_step1_sets(self):
        res = tsa_sis_from_stats(TOY_T, alpha2=0.05, threshold=3.09)
        l_hats = [rec.l_hat for rec in res.records]
        kappas = [rec.kappa_hat for rec in res.records]
        assert l_hats == [(), (1, 2, 3, 4), (0, 1, 2, 3, 4)]
        assert kappas == [0, 4, 5]

    def test_step2_decisions(self):
        res = tsa_sis_from_stats(TOY_T, alpha2=0.05, threshold=3.09)
        strong, weak, noise = res.records
        assert strong.kept and strong.l_stat is None
        assert weak.l_stat == pytest.approx(25.31, abs=0.01)
        assert weak.chi2_threshold == pytest.approx(9.4877, abs=1e-3)
        assert weak.kept
        assert noise.l_stat == pytest.approx(1.27, abs=0.01)
        assert noise.chi2_threshold == pytest.approx(11.0705, abs=1e-3)
        assert not noise.kept
        assert res.kept == (0, 1)
        assert res.dropped == (2,)

    def test_one_step_on_toy_keeps_only_strong(self):
        res = tsa_sis_from_stats(TOY_T, alpha2=0.05, threshold=3.09)
        kept = [rec.feature for rec in res.records if rec.kappa_hat == 0]
        assert kept == [0]


class TestStep1:
    def test_threshold_boundary_is_inclusive(self):
        t = np.array([[2.0, -2.0, 1.99, 2.01]])
        res = tsa_sis_from_stats(t, alpha2=0.05, threshold=2.0)
        assert res.records[0].l_hat == (0, 1, 2)

    def test_near_one_alpha1_empties_l_hat(self):
        t = np.array([[0.5, -0.2, 1.4]])
        rec = tsa_sis_from_stats(t, alpha2=0.05, alpha1=1.0 - 1e-12).records[0]
        # The threshold collapses toward zero, so every nonzero statistic
        # individually rejects.
        assert rec.l_hat == ()
        assert rec.kappa_hat == 0

    def test_no_feature_removed(self, rng):
        data, _ = make_multistudy(rng)
        res = one_step_sis(data, alpha1=0.01)
        assert [rec.feature for rec in res.records] == list(range(data.p))

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
            assert res.records[0].kept

    def test_exact_threshold_drops(self):
        # One study in l_hat; pick T so the aggregate equals the chi-square
        # threshold exactly: the tie goes to the dropped side.
        thr = chi2_quantile(0.95, 1)
        t = np.array([[math.sqrt(thr)]])
        res = tsa_sis_from_stats(t, alpha2=0.05, threshold=10.0)
        rec = res.records[0]
        assert rec.l_stat == pytest.approx(rec.chi2_threshold, abs=1e-12)
        assert not rec.kept

    def test_stricter_alpha1_can_rescue_a_feature(self):
        # A feature that four studies reject individually hangs on the one
        # borderline study left in l_hat, which must clear chi-square(1)
        # alone; a stricter step 1 pools a second study and keeps it.
        t = np.array([[3.62, 2.91, 4.13, 4.48, 4.52]])
        loose = tsa_sis_from_stats(t, alpha2=1e-3, alpha1=1e-3).records[0]
        assert loose.l_hat == (1,)
        assert loose.l_stat == pytest.approx(8.468, abs=1e-3)
        assert loose.chi2_threshold == pytest.approx(10.828, abs=1e-3)
        assert not loose.kept
        strict = tsa_sis_from_stats(t, alpha2=1e-3, alpha1=1e-4).records[0]
        assert strict.l_hat == (0, 1)
        assert strict.l_stat == pytest.approx(21.573, abs=1e-3)
        assert strict.chi2_threshold == pytest.approx(13.816, abs=1e-3)
        assert strict.kept

    def test_records_fully_populated(self, rng):
        data, _ = make_multistudy(rng)
        res = tsa_sis(data, ScreeningConfig(alpha1=0.05, alpha2=0.1))
        for rec in res.records:
            expected_l = tuple(
                k for k in range(data.k)
                if abs(rec.t_stats[k]) <= normal_quantile(1.0 - 0.05 / 2.0))
            assert rec.l_hat == expected_l
            assert rec.kappa_hat == len(rec.l_hat)
            if rec.kappa_hat == 0:
                assert rec.l_stat is None and rec.chi2_threshold is None
                assert rec.kept
            else:
                assert rec.l_stat == pytest.approx(
                    math.fsum(float(rec.t_stats[k]) ** 2 for k in rec.l_hat))
                assert rec.kept == (rec.l_stat > rec.chi2_threshold)


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
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.t_stats, rb.t_stats)
            assert (ra.l_stat is None and rb.l_stat is None) \
                or ra.l_stat == rb.l_stat

    def test_unequal_sample_sizes_supported(self, rng):
        data, _ = make_multistudy(rng, unequal_n=True)
        res = tsa_sis(data, ScreeningConfig())
        assert len(res.records) == data.p

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
        assert res.records[0].l_stat == res.records[0].chi2_threshold
        assert res.kept == ()
        assert not tsa_kept_mask(tie, 3.0, 0.05)[0]


class TestOneStep:
    def test_all_above_threshold_all_kept(self):
        t = np.full((4, 3), 9.0)
        res = tsa_sis_from_stats(t, alpha2=0.05, threshold=3.0)
        assert all(rec.kappa_hat == 0 for rec in res.records)
        assert res.kept == (0, 1, 2, 3)

    def test_records_step1_only(self, rng):
        data, _ = make_multistudy(rng)
        res = one_step_sis(data, 0.01)
        assert res.method == "onestep"
        for rec in res.records:
            assert rec.l_stat is None
            assert rec.chi2_threshold is None
            assert rec.kept == (rec.kappa_hat == 0)


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
        None, "0.01", "abc", b"0.01", 0.01j, object(), np.array("0.01")],
        ids=["none", "numeric_str", "str", "bytes", "complex", "object",
             "str_array"])
    @pytest.mark.parametrize("make, name", [
        (lambda v: ScreeningConfig(alpha1=v), "alpha1"),
        (lambda v: ScreeningConfig(alpha2=v), "alpha2"),
        (lambda v: tsa_sis_from_stats([[1.0]], alpha2=v, alpha1=0.01), "alpha2"),
        (lambda v: tsa_sis_from_stats([[1.0]], alpha2=0.05, alpha1=v), "alpha1"),
        (lambda v: tsa_sis_from_stats([[1.0]], alpha2=0.05, threshold=v),
         "threshold"),
        (lambda v: MethodSpec(alpha2=v), "alpha2"),
        (lambda v: LevelGrid([v], [0.05]), "alpha1"),
    ], ids=["config_alpha1", "config_alpha2", "stats_alpha2", "stats_alpha1",
            "stats_threshold", "spec_alpha2", "grid_alpha1"])
    def test_level_that_is_not_a_real_number_rejected(self, make, name, value):
        with pytest.raises(InputError, match=name):
            make(value)

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


def _reference_result(step1, keep, config, method, l_stat=None,
                      chi2_table=None):
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


def _reference_one_step(t_mat, alpha1):
    step1 = _reference_step1_from_stats(t_mat, alpha1=alpha1)
    keep = np.array([kappa == 0 for _, kappa, _ in step1], dtype=bool)
    config = ScreeningConfig(alpha1=step1.alpha1, alpha2=0.05)
    return _reference_result(step1, keep, config, "onestep")


def _typed(v):
    """A value with its Python type, elementwise through tuples; arrays by
    dtype, shape and bytes."""
    if isinstance(v, np.ndarray):
        return (np.ndarray, v.dtype.str, v.shape, v.tobytes())
    if isinstance(v, tuple):
        return (tuple, tuple(_typed(x) for x in v))
    return (type(v), v)


def _fields(res):
    """Every field of a result and of each of its records, typed."""
    return (_typed(res.kept), _typed(res.dropped), res.method,
            _typed(res.config.alpha1), _typed(res.config.alpha2),
            [tuple(_typed(getattr(rec, f)) for f in (
                "feature", "t_stats", "l_hat", "kappa_hat", "l_stat",
                "chi2_threshold", "kept")) for rec in res.records])


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
        for _ in range(200):
            thr = float(rng.uniform(0.5, 4.0))
            alpha2 = float(rng.uniform(1e-3, 0.5))
            t = _random_stats(rng, thr)
            want = _reference_step2_aggregate(
                _reference_step1_from_stats(t, threshold=thr), alpha2)
            got = tsa_sis_from_stats(t, alpha2=alpha2, threshold=thr)
            assert _fields(got) == _fields(want)

    def test_random_alpha1_entry(self, rng):
        kappas = set()
        for _ in range(200):
            alpha1 = float(rng.uniform(1e-4, 0.2))
            alpha2 = float(rng.uniform(1e-3, 0.5))
            t = _random_stats(rng, _step1_threshold(alpha1))
            want = _reference_step2_aggregate(
                _reference_step1_from_stats(t, alpha1=alpha1), alpha2)
            got = tsa_sis_from_stats(t, alpha2=alpha2, alpha1=alpha1)
            assert _fields(got) == _fields(want)
            kappas |= {(rec.kappa_hat == 0, rec.kappa_hat == t.shape[1])
                       for rec in got.records}
        assert kappas >= {(True, False), (False, True)}

    def test_no_features(self):
        for k in (1, 5):
            t = np.empty((0, k))
            want = _reference_step2_aggregate(
                _reference_step1_from_stats(t, alpha1=0.01), 0.05)
            got = tsa_sis_from_stats(t, alpha2=0.05, alpha1=0.01)
            assert _fields(got) == _fields(want)
            assert got.records == ()

    def test_chi2_tie_row(self):
        tie = np.array([[0.7104563186629204, 0.589707879099864,
                         2.6386027249001796]])
        want = _reference_step2_aggregate(
            _reference_step1_from_stats(tie, threshold=3.0), 0.05)
        got = tsa_sis_from_stats(tie, alpha2=0.05, threshold=3.0)
        assert _fields(got) == _fields(want)
        assert got.records[0].l_stat == 7.814727903251181
        assert got.kept == ()

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
            assert _fields(got) == _fields(want)
            assert _fields(one_step_sis(data, alpha1)) \
                == _fields(_reference_one_step(t, alpha1))
