"""Residualization, conditional statistics, and the staged selection loop."""

import math
from itertools import combinations

import numpy as np
import pytest

from conftest import make_multistudy
from multiscreen import (BudgetExceededError, DegenerateColumnError,
                         InputError, ScreeningConfig,
                         SingularDesignError, Study, chi2_quantile,
                         multi_pc_run, normal_quantile, partial_t,
                         residualize, self_normalized_t, tsa_sis)
from multiscreen.multi_pc import StopReason


class TestResidualize:
    def test_empty_set_centers(self, rng):
        x = rng.normal(size=(12, 4))
        t = rng.normal(size=12)
        r = residualize(x, (), t)
        assert np.allclose(r, t - t.mean(), atol=1e-12)

    def test_exact_fit_gives_zero(self, rng):
        x = rng.normal(size=(15, 3))
        t = 2.0 + 3.0 * x[:, 1] - 0.5 * x[:, 2]
        r = residualize(x, (1, 2), t)
        assert np.max(np.abs(r)) < 1e-10 * np.max(np.abs(t))

    def test_hand_solved_normal_equations(self):
        # n=5 with one conditioning column: slope and intercept from the
        # closed-form simple-regression solution.
        xs = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        target = np.array([2.0, 1.0, 4.0, 3.0, 7.0])
        x = np.column_stack([np.ones(5), xs, np.ones(5)])  # col 1 conditions
        sxx = ((xs - xs.mean()) ** 2).sum()
        sxy = ((xs - xs.mean()) * (target - target.mean())).sum()
        slope = sxy / sxx
        intercept = target.mean() - slope * xs.mean()
        expected = target - (intercept + slope * xs)
        r = residualize(x, (1,), target)
        assert np.max(np.abs(r - expected)) < 1e-10

    def test_orthogonality(self, rng):
        x = rng.normal(size=(40, 6))
        t = rng.normal(size=40)
        cond = (0, 2, 5)
        r = residualize(x, cond, t)
        scale = np.linalg.norm(t)
        assert abs(r.sum()) < 1e-8 * scale
        for c in cond:
            assert abs(r @ x[:, c]) < 1e-8 * scale * np.linalg.norm(x[:, c])
        # A matrix target: each column is residualized as if on its own.
        targets = rng.normal(size=(40, 3))
        r = residualize(x, cond, targets)
        assert r.shape == targets.shape
        for col, target in zip(r.T, targets.T):
            scale = np.linalg.norm(target)
            assert abs(col.sum()) < 1e-8 * scale
            for c in cond:
                assert abs(col @ x[:, c]) < (
                    1e-8 * scale * np.linalg.norm(x[:, c]))
            single = residualize(x, cond, target)
            assert np.linalg.norm(col - single) <= 1e-12 * np.linalg.norm(col)

    def test_rank_deficient_raises(self, rng):
        x = rng.normal(size=(20, 3))
        x[:, 2] = 2.0 * x[:, 0]
        with pytest.raises(SingularDesignError, match=r"\(0, 2\)"):
            residualize(x, (0, 2), rng.normal(size=20))

    def test_size_guard(self, rng):
        x = rng.normal(size=(6, 5))
        with pytest.raises(InputError):
            residualize(x, (0, 1, 2, 3), rng.normal(size=6))
        with pytest.raises(InputError):
            residualize(x, (0,), rng.normal(size=(6, 2, 2)))


class TestPartialT:
    def test_empty_set_is_marginal_bitwise(self, rng):
        data, _ = make_multistudy(rng, n=30, p=5, k=2)
        for study in data.studies:
            for j in range(data.p):
                marginal = self_normalized_t(study.x[:, j], study.y)
                conditional = partial_t(study, j, ())
                assert conditional.value == marginal.value
                assert conditional.sigma_hat == marginal.sigma_hat
                assert conditional.theta_hat == marginal.theta_hat

    def test_response_in_span_degenerate(self, rng):
        x = rng.normal(size=(30, 4))
        y = 1.5 * x[:, 0] - 2.0 * x[:, 1] + 3.0
        study = Study(id="s", x=x, y=y)
        with pytest.raises(DegenerateColumnError):
            partial_t(study, 2, (0, 1))

    def test_sign_matches_population_partial_correlation(self, rng):
        # Jointly Gaussian (x1, x2, x3, y) with a known covariance; the
        # population partial correlation given a set S comes from the
        # inverse of the corresponding covariance block.
        n = 50
        beta = np.array([1.0, -1.2, 0.0])
        cov_x = np.array([[1.0, 0.5, 0.2],
                          [0.5, 1.0, 0.5],
                          [0.2, 0.5, 1.0]])
        sigma_eps = 0.6
        cov = np.empty((4, 4))
        cov[:3, :3] = cov_x
        cov[:3, 3] = cov_x @ beta
        cov[3, :3] = cov_x @ beta
        cov[3, 3] = beta @ cov_x @ beta + sigma_eps ** 2

        def pop_partial(j, S):
            idx = [j, 3, *S]
            omega = np.linalg.inv(cov[np.ix_(idx, idx)])
            return -omega[0, 1] / math.sqrt(omega[0, 0] * omega[1, 1])

        chol = np.linalg.cholesky(cov)
        for trial in range(10):
            z = rng.normal(size=(n, 4)) @ chol.T
            study = Study(id="s", x=z[:, :3], y=z[:, 3])
            for j, S in ((0, (1,)), (1, (0,)), (0, (1, 2)), (1, (0, 2))):
                rho = pop_partial(j, S)
                assert abs(rho) > 0.3  # sign is identifiable at this n
                t = partial_t(study, j, S)
                assert math.copysign(1.0, t.value) == math.copysign(1.0, rho)

    def test_conditioning_on_self_rejected(self, rng):
        data, _ = make_multistudy(rng)
        with pytest.raises(InputError):
            partial_t(data.studies[0], 2, (2,))


def reference_stage(data, active, order, alpha1, alpha2, reverse=False):
    """Order-independent reference: full conjunction over conditioning sets,
    optionally enumerated backwards, no early exit."""
    thr1 = normal_quantile(1.0 - alpha1 / 2.0)
    chi2_thr = {df: chi2_quantile(1.0 - alpha2, df)
                for df in range(1, data.k + 1)}
    survivors = []
    for j in active:
        sets = list(combinations([q for q in active if q != j], order))
        if reverse:
            sets = sets[::-1]
        verdicts = []
        for cond in sets:
            t_vals = [partial_t(study, j, cond).value
                      for study in data.studies]
            in_l = [t for t in t_vals if abs(t) <= thr1]
            if not in_l:
                verdicts.append(True)
            else:
                verdicts.append(math.fsum(t * t for t in in_l)
                                > chi2_thr[len(in_l)])
        if all(verdicts):
            survivors.append(j)
    return survivors


class TestMultiPcRun:
    def test_order_zero_equals_marginal_screen(self, rng):
        data, _ = make_multistudy(rng, n=40, p=10, k=3, signal=0.5, s0=3)
        config = ScreeningConfig(0.01, 0.05)
        state = multi_pc_run(data, config, max_order=1)
        assert state.stage == 1
        assert state.active_sets[0] == tsa_sis(data, config).kept

    def test_tiny_stage1_reaches_immediately(self, rng):
        data, _ = make_multistudy(rng, n=30, p=6, k=3, signal=0.0, s0=1)
        config = ScreeningConfig(0.5, 1e-6)  # drop essentially everything
        state = multi_pc_run(data, config, max_order=4)
        assert len(state.active) <= 1
        assert state.stage == 1
        assert state.stopped_reason is StopReason.REACHED_MREACH

    def test_nesting_and_stage_agreement(self, rng):
        for trial in range(10):
            data, _ = make_multistudy(rng, n=35, p=9, k=2,
                                      signal=float(rng.uniform(0.2, 0.9)),
                                      s0=3)
            state = multi_pc_run(data, ScreeningConfig(0.05, 0.1), max_order=3)
            for later, earlier in zip(state.active_sets[1:], state.active_sets):
                assert set(later) <= set(earlier)
            assert state.stage == len(state.active_sets)

    def test_stage2_matches_reference_both_orders(self, rng):
        for trial in range(5):
            data, _ = make_multistudy(rng, n=30, p=7, k=2,
                                      signal=float(rng.uniform(0.3, 0.8)),
                                      s0=2)
            config = ScreeningConfig(0.05, 0.1)
            state = multi_pc_run(data, config, max_order=2)
            if len(state.active_sets) < 2:
                continue
            active1 = list(state.active_sets[0])
            forward = reference_stage(data, active1, 1, 0.05, 0.1)
            backward = reference_stage(data, active1, 1, 0.05, 0.1,
                                       reverse=True)
            assert forward == backward
            assert list(state.active_sets[1]) == forward

    def test_budget_guard(self, rng):
        data, _ = make_multistudy(rng, n=40, p=10, k=3, signal=1.0, s0=6)
        config = ScreeningConfig(0.001, 0.05)
        stage1 = tsa_sis(data, config).kept
        assert len(stage1) >= 4
        with pytest.raises(BudgetExceededError):
            multi_pc_run(data, config, max_order=2, budget=3)

    def test_budget_counts_the_pairs_tested(self, monkeypatch):
        # A feature leaves a stage at its first failing set, so a stage
        # tests fewer pairs than its worst case |A| * C(|A| - 1, order).
        # A budget equal to the tested count runs; one below it raises.
        import multiscreen.multi_pc as multi_pc
        data, _ = make_multistudy(np.random.default_rng(2), n=40, p=12, k=3,
                                  signal=1.0, s0=2)
        config = ScreeningConfig(0.2, 0.5)
        active = len(tsa_sis(data, config).kept)
        tested = []
        stats = multi_pc._conditional_stats

        def counted(studies, features, cond):
            tested.append(len(features))
            return stats(studies, features, cond)

        monkeypatch.setattr(multi_pc, "_conditional_stats", counted)
        state = multi_pc_run(data, config, max_order=2)
        pairs = sum(tested)
        assert state.stage == 2 and pairs < active * (active - 1)
        assert multi_pc_run(data, config, max_order=2, budget=pairs) == state
        with pytest.raises(BudgetExceededError,
                           match=f"^stage 2 .* budget of {pairs - 1}$"):
            multi_pc_run(data, config, max_order=2, budget=pairs - 1)

    def test_one_solve_per_set_and_study(self, rng, monkeypatch):
        # Stage 2 conditions on each stage-1 feature once per study; every
        # feature tested on that set shares the one least-squares solve.
        import multiscreen.multi_pc as multi_pc
        data, _ = make_multistudy(rng, n=40, p=10, k=3, signal=1.0, s0=6)
        config = ScreeningConfig(0.001, 0.05)
        m1 = len(tsa_sis(data, config).kept)
        assert m1 >= 4
        calls = []

        def counted(x, cond, target):
            calls.append(cond)
            return residualize(x, cond, target)

        monkeypatch.setattr(multi_pc, "residualize", counted)
        state = multi_pc_run(data, config, max_order=2)
        assert state.stage == 2
        assert len(calls) <= data.k * m1

    def test_feature_in_span_of_set_raises(self, rng):
        data, _ = make_multistudy(rng, n=40, p=6, k=3, signal=1.0, s0=2)
        for study in data.studies:
            study.x[:, 1] = study.x[:, 0]
        config = ScreeningConfig(0.001, 0.05)
        assert tsa_sis(data, config).kept == (0, 1)
        # Which copy is reported depends on the order the sets are walked.
        with pytest.raises(DegenerateColumnError, match="lies in the span"):
            multi_pc_run(data, config, max_order=2)

    def test_mreach_stops_at_two(self, rng):
        data, _ = make_multistudy(rng, n=60, p=8, k=3, signal=1.2, s0=2)
        state = multi_pc_run(data, ScreeningConfig(0.001, 0.05), max_order=5)
        if state.stage >= 2:
            assert len(state.active_sets[1]) <= 2
            assert state.stopped_reason is StopReason.REACHED_MREACH

    def test_fixpoint_reason(self, rng):
        # Strong independent signals survive every stage unchanged, so the
        # loop should halt on set stability before exhausting max_order.
        data, _ = make_multistudy(rng, n=80, p=8, k=3, signal=1.5, s0=5)
        state = multi_pc_run(data, ScreeningConfig(0.001, 0.05), max_order=4)
        if (state.stopped_reason is StopReason.FIXPOINT):
            assert state.active_sets[-1] == state.active_sets[-2]
            assert len(state.active) > state.stage

    def test_max_order_validation(self, rng):
        data, _ = make_multistudy(rng)
        with pytest.raises(InputError):
            multi_pc_run(data, ScreeningConfig(), max_order=0)
