"""Group-penalized second stage: solver correctness against an independent
proximal-gradient oracle, KKT conditions, penalty tuning, and the refit."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_multistudy
from multiscreen import (DegenerateColumnError, InputError, MultiStudy,
                         ScreeningConfig, SelectionError, SimSetting,
                         SingularDesignError, Study, gen_instance,
                         group_lasso_fit, lambda_max, ols_refit,
                         select_lambda, tsa_sis, tsa_sis_group_lasso)
import multiscreen.group_select as group_select
import multiscreen.screening as screening
from multiscreen.group_select import (_gradient, _group_norm, _kkt_residual,
                                      _newton_direction, _standardize)


def standardize(data, active):
    """Test-local standardization: centered y, unit 1/n-variance columns."""
    xs, cys = [], []
    for study in data.studies:
        sub = study.x[:, list(active)]
        cx = sub - sub.mean(axis=0)
        sd = np.sqrt((cx * cx).mean(axis=0))
        xs.append(cx / sd)
        cys.append(study.y - study.y.mean())
    return xs, cys


def objective(xs, cys, beta_std, lam):
    loss = sum(float(np.sum((cys[k] - xs[k] @ beta_std[:, k]) ** 2))
               for k in range(len(xs)))
    penalty = lam * float(np.linalg.norm(beta_std, axis=1).sum())
    return loss + penalty


def kkt_residual(xs, cys, beta_std, lam):
    worst = 0.0
    for j in range(beta_std.shape[0]):
        g = np.array([-2.0 * float(xs[k][:, j] @ (cys[k] - xs[k] @ beta_std[:, k]))
                      for k in range(len(xs))])
        bj = beta_std[j]
        nb = float(np.linalg.norm(bj))
        if nb == 0.0:
            worst = max(worst, max(0.0, float(np.linalg.norm(g)) - lam))
        else:
            worst = max(worst, float(np.max(np.abs(g + lam * bj / nb))))
    return worst


def ista_oracle(xs, cys, lam, b0, iters=40000, tol=1e-14):
    """Full-gradient proximal descent, independent of the package solver."""
    k_count = len(xs)
    lips = 2.0 * max(float(np.linalg.eigvalsh(x.T @ x).max()) for x in xs)
    b = b0.copy()
    for _ in range(iters):
        grad = np.column_stack([-2.0 * xs[k].T @ (cys[k] - xs[k] @ b[:, k])
                                for k in range(k_count)])
        v = b - grad / lips
        norms = np.linalg.norm(v, axis=1)
        shrink = np.maximum(0.0, 1.0 - (lam / lips) / np.maximum(norms, 1e-300))
        b_new = v * shrink[:, None]
        if np.max(np.abs(b_new - b)) < tol:
            b = b_new
            break
        b = b_new
    return b


def test_group_norm_matches_scalar_squares():
    # The array form squares and sums the same values as iterating numpy
    # scalars into math.fsum.
    rng = np.random.default_rng(9)
    for _ in range(2000):
        z = rng.standard_normal(int(rng.integers(1, 12))) \
            * 10.0 ** rng.uniform(-150, 150)
        assert _group_norm(z) == math.sqrt(math.fsum(v * v for v in z))


class TestGroupLassoFit:
    def test_lambda_zero_matches_per_study_ols(self, rng):
        data, _ = make_multistudy(rng, n=50, p=6, k=2, signal=0.7, s0=2)
        active = tuple(range(6))
        fit = group_lasso_fit(data, active, 0.0)
        assert fit.converged
        # Unpenalized, the objective is quadratic on the full support: one
        # Newton step after the first sweep reaches the least-squares fit,
        # and the next sweep confirms it.
        assert fit.iterations <= 3
        for k, study in enumerate(data.studies):
            design = np.column_stack([np.ones(study.n), study.x[:, active]])
            coef, *_ = np.linalg.lstsq(design, study.y, rcond=None)
            assert fit.intercepts[k] == pytest.approx(coef[0], abs=1e-6)
            assert np.allclose(fit.beta[:, k], coef[1:], atol=1e-6)
        assert set(fit.selected) == set(active)

    @pytest.mark.parametrize("design", ["duplicated_column", "p_above_n"])
    @pytest.mark.parametrize("fraction", [0.3, 0.05, 0.01])
    def test_degenerate_active_sets(self, rng, design, fraction):
        # Singular or nearly singular Newton systems: a column repeated
        # verbatim (the optimum is not unique, so the selected set is not
        # checked), and more features than rows.
        if design == "duplicated_column":
            base, _ = make_multistudy(rng, n=40, p=6, k=3, signal=0.6, s0=2)
            studies = tuple(Study(id=s.id, x=np.column_stack([s.x, s.x[:, 0]]),
                                  y=s.y) for s in base.studies)
            data = MultiStudy(studies=studies,
                              feature_names=base.feature_names + ("g1_copy",))
        else:
            data, _ = make_multistudy(rng, n=20, p=30, k=2, signal=0.8, s0=3)
        active = tuple(range(data.p))
        lam = fraction * lambda_max(data, active)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = group_lasso_fit(data, active, lam)
        assert fit.converged
        assert fit.kkt_residual <= 1e-6
        trace = fit.objective_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        xs, cys = standardize(data, active)
        oracle = ista_oracle(xs, cys, lam, np.zeros_like(fit.beta_std))
        assert objective(xs, cys, fit.beta_std, lam) \
            == pytest.approx(objective(xs, cys, oracle, lam), abs=1e-6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_warm_start_is_input_error(self, bad):
        data, _ = make_multistudy(np.random.default_rng(1), n=30, p=4, k=2)
        active = (0, 1, 2, 3)
        beta0 = np.zeros((4, 2))
        beta0[1, 0] = bad
        with pytest.raises(InputError):
            group_lasso_fit(data, active, 0.5 * lambda_max(data, active),
                            beta0=beta0)

    def test_kkt_residual_propagates_nan(self):
        # A NaN among the zero groups only, then a NaN with no zero group
        # at all: neither may give way to the finite side or its 0.0 floor.
        gram = np.eye(2)[None]
        for c, beta in (([[math.nan], [1.0]], [[0.0], [0.5]]),
                        ([[1.0], [1.0]], [[0.5], [math.nan]])):
            assert math.isnan(_kkt_residual(gram, np.array(c),
                                            np.array(beta), 1.0))

    def test_at_lambda_max_all_zero(self, rng):
        cases = [make_multistudy(rng, n=30, p=5, k=int(rng.integers(1, 4)),
                                 signal=float(rng.uniform(0, 0.8)))[0]
                 for _ in range(10)]
        # At this instance's lambda_max the group norm rounds differently
        # when the squares are taken with x ** 2 instead of x * x.
        boundary = np.random.default_rng(7)
        for _ in range(249):
            data, _ = make_multistudy(boundary, n=12, p=1, k=3, signal=0.5,
                                      s0=1)
        cases.append(data)
        for data in cases:
            active = tuple(range(data.p))
            lmax = lambda_max(data, active)
            for lam in (lmax, 1.3 * lmax):
                fit = group_lasso_fit(data, active, lam)
                assert np.all(fit.beta == 0.0)
                assert fit.selected == ()

    def test_lambda_max_formula(self, rng):
        data, _ = make_multistudy(rng, n=40, p=4, k=3)
        active = (0, 1, 2, 3)
        xs, cys = standardize(data, active)
        norms = []
        for j in range(4):
            z = [2.0 * float(xs[k][:, j] @ cys[k]) for k in range(3)]
            norms.append(math.sqrt(sum(v * v for v in z)))
        assert lambda_max(data, active) == pytest.approx(max(norms), rel=1e-12)

    def test_kkt_and_monotonicity_random_instances(self, rng):
        for trial in range(50):
            k = int(rng.integers(1, 4))
            p = int(rng.integers(2, 7))
            data, _ = make_multistudy(rng, n=int(rng.integers(20, 50)), p=p,
                                      k=k, signal=float(rng.uniform(0, 1)),
                                      unequal_n=bool(rng.random() < 0.3))
            active = tuple(range(p))
            lmax = lambda_max(data, active)
            lam = float(rng.uniform(0.0, 1.1)) * lmax
            fit = group_lasso_fit(data, active, lam)
            assert fit.converged
            assert fit.kkt_residual <= 1e-6
            xs, cys = standardize(data, active)
            reference = kkt_residual(xs, cys, fit.beta_std, lam)
            assert reference <= 1e-6
            # The solver's Gram-form gradients differ from these residual
            # ones by rounding only, well under 1e-15 * lambda_max.
            assert fit.kkt_residual == pytest.approx(reference,
                                                     abs=1e-12 * lmax)
            trace = fit.objective_trace
            for a, b in zip(trace, trace[1:]):
                assert b <= a + 1e-12

    def test_objective_matches_ista_oracle(self, rng):
        # Convexity makes the optimal objective unique, so an independent
        # solver from many starts must land on the same value.
        data, _ = make_multistudy(rng, n=50, p=5, k=2, signal=0.5, s0=2)
        active = tuple(range(5))
        lam = 0.4 * lambda_max(data, active)
        fit = group_lasso_fit(data, active, lam)
        xs, cys = standardize(data, active)
        ours = objective(xs, cys, fit.beta_std, lam)
        best = math.inf
        for start in range(10):
            b0 = rng.normal(scale=2.0, size=(5, 2)) if start else np.zeros((5, 2))
            b = ista_oracle(xs, cys, lam, b0)
            best = min(best, objective(xs, cys, b, lam))
        assert ours == pytest.approx(best, abs=1e-6)

    def test_group_structure_no_partial_zeroing(self, rng):
        hits = 0
        for _ in range(20):
            data, _ = make_multistudy(rng, n=40, p=6, k=3,
                                      signal=float(rng.uniform(0.2, 0.8)))
            active = tuple(range(6))
            lam = 0.5 * lambda_max(data, active)
            fit = group_lasso_fit(data, active, lam)
            for j in range(6):
                row = fit.beta_std[j]
                if np.linalg.norm(row) > 0.0:
                    assert np.all(row != 0.0)
                    hits += 1
                else:
                    assert np.all(row == 0.0)
        assert hits > 0

    def test_warm_start_speeds_up_neighbor(self, rng):
        data, _ = make_multistudy(rng, n=50, p=8, k=2, signal=0.6, s0=3)
        active = tuple(range(8))
        lmax = lambda_max(data, active)
        first = group_lasso_fit(data, active, 0.5 * lmax)
        cold = group_lasso_fit(data, active, 0.4 * lmax)
        warm = group_lasso_fit(data, active, 0.4 * lmax, beta0=first.beta_std)
        assert warm.converged
        assert warm.iterations <= cold.iterations
        assert objective(* standardize(data, active), warm.beta_std, 0.4 * lmax) \
            == pytest.approx(objective(*standardize(data, active),
                                       cold.beta_std, 0.4 * lmax), abs=1e-6)

    def test_unequal_sample_sizes(self, rng):
        data, _ = make_multistudy(rng, n=30, p=4, k=3, unequal_n=True)
        fit = group_lasso_fit(data, (0, 1, 2, 3), 1.0)
        assert fit.converged
        assert fit.kkt_residual <= 1e-6

    def test_input_guards(self, rng):
        data, _ = make_multistudy(rng)
        with pytest.raises(InputError):
            group_lasso_fit(data, (), 1.0)
        with pytest.raises(InputError):
            group_lasso_fit(data, (0, 99), 1.0)
        with pytest.raises(InputError):
            group_lasso_fit(data, (0,), -1.0)

    def test_constant_column_degenerate(self, rng):
        data, _ = make_multistudy(rng, n=20, p=3, k=1)
        x = data.studies[0].x.copy()
        x[:, 0] = 5.0
        bad = MultiStudy(studies=(Study(id="s1", x=x, y=data.studies[0].y),),
                         feature_names=data.feature_names)
        with pytest.raises(DegenerateColumnError):
            group_lasso_fit(bad, (0, 1), 1.0)


def _reference_newton_direction(gram, c, beta_std, lam):
    """The dense Newton solve the solver used before the per-study Woodbury
    form, verbatim: one (aK) x (aK) system with the unknowns ordered
    (group, study)."""
    norms = np.sqrt((beta_std * beta_std).sum(axis=1))
    act = np.nonzero(norms > 0.0)[0]
    if not act.size:
        return None
    b, norms = beta_std[act], norms[act]
    a, K = b.shape
    unit = b / norms[:, None]
    grad = _gradient(gram[:, act, :], c[act], beta_std) + lam * unit
    # Unknowns ordered (group, study): study k couples the active groups
    # through 2 G_k[A, A]; group j couples its studies through the penalty
    # curvature lam / |b_j| (I - u_j u_j').
    hess = np.zeros((a, K, a, K))
    ks, ja = np.arange(K), np.arange(a)
    hess[:, ks, :, ks] = 2.0 * gram[:, act[:, None], act]
    hess[ja, :, ja, :] += (lam / norms)[:, None, None] \
        * (np.eye(K) - unit[:, :, None] * unit[:, None, :])
    try:
        d = np.linalg.solve(hess.reshape(a * K, a * K), -grad.ravel())
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(d)):
        return None
    return act, d.reshape(a, K)


class TestNewtonDirection:
    """The batched Woodbury direction against the dense solve."""

    @staticmethod
    def instance(rng, n_k, p, duplicate=False):
        studies = []
        for k, n in enumerate(n_k):
            x = rng.normal(size=(n, p))
            if duplicate:
                x[:, 3] = x[:, 1]
            y = x[:, :3] @ np.array([0.8, -0.5, 0.3]) + rng.normal(size=n)
            studies.append(Study(id=f"s{k}", x=x, y=y))
        data = MultiStudy(studies=tuple(studies),
                          feature_names=tuple(f"g{j}" for j in range(p)))
        std = _standardize(data, tuple(range(p)))
        beta = rng.normal(size=(p, len(n_k)))
        beta[rng.permutation(p)[: p // 3]] = 0.0
        if duplicate:
            beta[[1, 3]] = rng.normal(size=(2, len(n_k)))
        return std[-2], std[-1], beta

    @pytest.mark.parametrize("n_k, p, duplicate, lam_scale", [
        ((40, 40, 40), 8, False, 0.3),     # equal n_k
        ((25, 60, 33, 41), 10, False, 0.1),  # unequal n_k
        ((30, 45), 9, True, 0.2),          # a duplicated column
        ((12, 15, 9), 24, False, 0.05),    # m > n_k in every study
        ((12, 15, 9), 24, False, 3.0),     # heavy penalty curvature
        ((35, 50, 42), 7, False, 0.0),     # no penalty: H = M
    ])
    def test_matches_dense_solve(self, rng, n_k, p, duplicate, lam_scale):
        for _ in range(5):
            gram, c, beta = self.instance(rng, n_k, p, duplicate)
            lam = lam_scale * max(_group_norm(2.0 * cj) for cj in c)
            got = _newton_direction(gram, c, beta, lam)
            want = _reference_newton_direction(gram, c, beta, lam)
            assert got is not None and want is not None
            assert np.array_equal(got[0], want[0])
            err = np.linalg.norm(got[1] - want[1])
            assert err <= 1e-10 * np.linalg.norm(want[1])

    def test_singular_at_lambda_zero(self, rng):
        gram, c, beta = self.instance(rng, (30, 45), 9, duplicate=True)
        assert _reference_newton_direction(gram, c, beta, 0.0) is None
        assert _newton_direction(gram, c, beta, 0.0) is None

    def test_all_zero_has_no_direction(self, rng):
        gram, c, _ = self.instance(rng, (30, 45), 6)
        assert _newton_direction(gram, c, np.zeros((6, 2)), 1.0) is None


class TestSelectLambda:
    def test_grid_size_two_returns_endpoint(self, rng):
        data, _ = make_multistudy(rng, n=40, p=4, k=2, signal=0.6)
        active = (0, 1, 2, 3)
        lmax = lambda_max(data, active)
        lam, diag, _ = select_lambda(data, active, method="bic", grid_size=2)
        assert len(diag) == 2
        assert lam in (pytest.approx(lmax), pytest.approx(lmax * 1e-3))

    def test_bic_formula_in_diagnostics(self, rng):
        data, _ = make_multistudy(rng, n=30, p=3, k=2, signal=0.5)
        _, diag, _ = select_lambda(data, (0, 1, 2), method="bic", grid_size=5)
        n_total = sum(s.n for s in data.studies)
        for cell in diag:
            expected = n_total * math.log(cell["rss"] / n_total) \
                + data.k * cell["n_selected"] * math.log(n_total)
            assert cell["bic"] == pytest.approx(expected, rel=1e-12)
            assert cell["converged"] and cell["kkt_residual"] <= 1e-6
            assert 1 <= cell["iterations"] <= 10000

    def test_pure_noise_selects_near_lambda_max(self, rng):
        near_max = 0
        reps = 20
        for rep in range(reps):
            data, _ = make_multistudy(rng, n=40, p=5, k=3, signal=0.0)
            active = (0, 1, 2, 3, 4)
            lmax = lambda_max(data, active)
            lam, diag, _ = select_lambda(data, active, method="bic", grid_size=25)
            n_sel = next(c["n_selected"] for c in diag
                         if c["lambda"] == pytest.approx(lam))
            if lam >= 0.5 * lmax or n_sel <= 1:
                near_max += 1
        assert near_max >= int(0.9 * reps)

    def test_strong_signal_selects_truth(self, rng):
        covered = 0
        reps = 10
        for rep in range(reps):
            data, active_true = make_multistudy(rng, n=60, p=8, k=3,
                                                signal=1.0, s0=3)
            model = tsa_sis_group_lasso(data, ScreeningConfig(0.001, 0.05),
                                        method="bic", grid_size=25)
            if set(active_true) <= set(model.selected):
                covered += 1
        assert covered >= int(0.9 * reps)

    def test_warm_path_converges_without_stall(self):
        # This path's fit at 0.42 * lambda_max used to stall at max_iter
        # with its KKT residual just above tolerance.
        rng = np.random.default_rng(20240811)
        for _ in range(4):
            data, _ = make_multistudy(rng, n=60, p=8, k=3, signal=1.0, s0=3)
        kept = tsa_sis(data, ScreeningConfig(0.001, 0.05)).kept
        _, diag, _ = select_lambda(data, kept, method="bic", grid_size=25)
        assert all(cell["converged"] for cell in diag)
        assert diag[3]["lambda"] == pytest.approx(
            0.4217 * lambda_max(data, kept), rel=1e-4)
        assert diag[3]["iterations"] <= 100

    def test_setting2_path_sweep_count(self):
        # A 50-point BIC path on a setting-2 instance (38 screened
        # features): the Newton step on the nonzero groups keeps every fit
        # to a few sweeps (1 247 in total with block steps alone).
        data, _, _ = gen_instance(SimSetting.preset(2, seed=20240811, p=300), 0)
        kept = tsa_sis(data, ScreeningConfig(1e-4, 0.05)).kept
        assert len(kept) == 38
        lam, diag, fit = select_lambda(data, kept, method="bic", grid_size=50)
        assert all(cell["converged"] for cell in diag)
        assert sum(cell["iterations"] for cell in diag) <= 400
        assert lam == pytest.approx(40.01253448152968, rel=1e-12)
        assert fit.selected == (0, 33, 66, 100, 133, 166, 199, 231, 233, 266,
                                286, 299)

    def test_bic_path_ends_at_first_saturated_fit(self, rng):
        # With p > n the path reaches K * n_selected >= N (here N = 20) in
        # its 20 points: the table ends at that fit, and each row is the
        # one the full path gives at its penalty.
        data, _ = make_multistudy(rng, n=10, p=12, k=2, signal=0.8, s0=3)
        active, n_total = tuple(range(12)), 20
        lam, diag, fit = select_lambda(data, active, method="bic",
                                       grid_size=20)
        saturated = [data.k * row["n_selected"] >= n_total for row in diag]
        assert 2 < len(diag) < 20
        assert saturated[-1] and not any(saturated[:-1])
        lmax = lambda_max(data, active)
        grid = np.geomspace(lmax, lmax * 1e-3, 20)
        full = list(group_select._path(data, active,
                                       _standardize(data, active), grid))
        assert len(full) == 20
        for row, f in zip(diag, full):
            rss = group_select._fit_rss(data, f)
            df = data.k * len(f.selected)
            bic = n_total * math.log(rss / n_total) + df * math.log(n_total)
            assert row == {
                "lambda": f.lambda_, "bic": bic, "rss": rss,
                "n_selected": len(f.selected), "converged": f.converged,
                "iterations": f.iterations, "kkt_residual": f.kkt_residual}
        best = [row["lambda"] for row in diag].index(lam)
        assert fit.beta_std.tobytes() == full[best].beta_std.tobytes()

    def test_cv_runs_and_is_deterministic(self, rng):
        data, _ = make_multistudy(rng, n=40, p=5, k=2, signal=0.7, s0=2)
        lam1, diag1, _ = select_lambda(data, (0, 1, 2, 3, 4), method="cv",
                                       grid_size=8)
        lam2, diag2, _ = select_lambda(data, (0, 1, 2, 3, 4), method="cv",
                                       grid_size=8)
        assert lam1 == lam2
        assert diag1 == diag2
        assert all(math.isfinite(c["cv_mse"]) for c in diag1)
        for cell in diag1:
            assert cell["converged"] and cell["kkt_residual"] <= 1e-6
            assert 1 <= cell["iterations"] <= 10000

    def test_orthogonal_response_is_selection_error(self, rng):
        x = rng.normal(size=(20, 3))
        data = MultiStudy(studies=(Study(id="s1", x=x, y=np.full(20, 2.0)),),
                          feature_names=("a", "b", "c"))
        with pytest.raises((SelectionError, DegenerateColumnError)):
            select_lambda(data, (0, 1, 2), method="bic", grid_size=3)

    def test_method_validation(self, rng):
        data, _ = make_multistudy(rng)
        with pytest.raises(InputError):
            select_lambda(data, (0,), method="aic")
        with pytest.raises(InputError):
            select_lambda(data, (0,), grid_size=1)


@pytest.fixture(scope="module")
def bench_data():
    """The benchmark's manifest instance: setting 2, seed 20240811, rep 0."""
    return gen_instance(SimSetting.preset(2, seed=20240811), 0)[0]


class TestPipeline:
    @pytest.mark.parametrize("alpha1, alpha2", [
        (1e-4, 1e-3), (1e-4, 0.05), (1e-3, 0.01), (1e-2, 0.15), (1e-3, 0.15)])
    def test_screened_set_is_tsa_sis_kept(self, bench_data, monkeypatch,
                                          alpha1, alpha2):
        # Only the screen is compared, so the penalty search is stubbed.
        handed = []

        def no_search(data, active, method, grid_size):
            handed.append(tuple(int(j) for j in active))
            return 1.0, [], SimpleNamespace(features=handed[-1], selected=())

        monkeypatch.setattr(group_select, "select_lambda", no_search)
        config = ScreeningConfig(alpha1, alpha2)
        model = tsa_sis_group_lasso(bench_data, config)
        kept = tsa_sis(bench_data, config).kept
        assert kept and handed == [kept]
        assert model.screened == kept and not model.empty_screen

    def test_select_builds_no_screen_records(self, rng, monkeypatch):
        data, _ = make_multistudy(rng, n=50, p=10, k=2, signal=0.6, s0=3)
        config = ScreeningConfig(0.01, 0.05)
        kept = tsa_sis(data, config).kept

        def records(*args):
            raise AssertionError("per-feature screening records were built")

        monkeypatch.setattr(screening, "_screen", records)
        model = tsa_sis_group_lasso(data, config, grid_size=8)
        assert model.screened == kept
        assert model.fit is not None and model.fit.features == kept

    def test_empty_screen_marker(self, rng):
        data, _ = make_multistudy(rng, n=40, p=8, k=3, signal=0.0)
        model = tsa_sis_group_lasso(data, ScreeningConfig(1e-6, 1e-6))
        assert model.empty_screen
        assert model.screened == ()
        assert model.selected == ()
        assert model.fit is None
        assert model.lambda_ is None

    def test_bic_reuses_path_fit(self, rng, monkeypatch):
        # The fit at the chosen penalty is the path's own: one fit per grid
        # point and no cold refit. The path calls the private fit on its
        # one standardization, so that is what is counted.
        data, _ = make_multistudy(rng, n=50, p=10, k=2, signal=0.6, s0=3)
        fits, snapshots = [], []
        fit = group_select._fit

        def counted(*args, **kwargs):
            fits.append(fit(*args, **kwargs))
            snapshots.append(fits[-1].beta_std.copy())
            return fits[-1]

        monkeypatch.setattr(group_select, "_fit", counted)
        model = tsa_sis_group_lasso(data, ScreeningConfig(0.01, 0.05),
                                    method="bic", grid_size=12)
        assert model.screened
        assert len(fits) == 12
        # Warm starts are copies: no later fit overwrote an earlier one.
        for f, snap in zip(fits, snapshots):
            assert f.beta_std.tobytes() == snap.tobytes()
        path_fit = next(f for f in fits if f.lambda_ == model.lambda_)
        assert model.fit.beta_std.tobytes() == path_fit.beta_std.tobytes()

    @pytest.mark.parametrize("method, calls", [("bic", 1), ("cv", 6)])
    def test_one_standardization_per_path(self, rng, monkeypatch, method,
                                          calls):
        # BIC: one full-data standardization for lambda_max and the whole
        # path. CV: one per fold path plus the full-data one, which also
        # serves the final fit.
        data, _ = make_multistudy(rng, n=50, p=10, k=2, signal=0.6, s0=3)
        count = []
        standardize = group_select._standardize

        def counted(*args):
            count.append(1)
            return standardize(*args)

        monkeypatch.setattr(group_select, "_standardize", counted)
        select_lambda(data, (0, 1, 2, 5), method=method, grid_size=12)
        assert len(count) == calls

    def test_cv_fit_is_full_data_fit(self, rng):
        data, _ = make_multistudy(rng, n=50, p=10, k=2, signal=0.6, s0=3)
        model = tsa_sis_group_lasso(data, ScreeningConfig(0.01, 0.05),
                                    method="cv", grid_size=8)
        assert model.screened and model.tune_method == "cv"
        assert model.fit.converged
        assert model.lambda_ in [row["lambda"] for row in model.diagnostics]
        refit = group_lasso_fit(data, model.screened, model.lambda_)
        assert model.fit.beta_std.tobytes() == refit.beta_std.tobytes()
        assert model.selected == refit.selected

    def test_selected_subset_of_screened(self, rng):
        data, _ = make_multistudy(rng, n=50, p=10, k=2, signal=0.6, s0=3)
        model = tsa_sis_group_lasso(data, ScreeningConfig(0.01, 0.05),
                                    grid_size=15)
        assert set(model.selected) <= set(model.screened)
        assert model.fit is not None and model.fit.converged


class TestOlsRefit:
    def test_empty_selection(self, rng):
        data, _ = make_multistudy(rng, n=25, p=4, k=2)
        for fit, study in zip(ols_refit(data, ()), data.studies):
            assert fit.adj_r2 == 0.0
            assert fit.r2 == 0.0
            assert fit.intercept == pytest.approx(study.y.mean(), abs=1e-12)
            assert fit.coef.size == 0

    def test_exact_interpolation(self, rng):
        x = rng.normal(size=(30, 4))
        beta = np.array([1.0, -2.0, 0.5, 0.0])
        studies = (Study(id="s1", x=x, y=x @ beta + 3.0),)
        data = MultiStudy(studies=studies, feature_names=("a", "b", "c", "d"))
        fit = ols_refit(data, (0, 1, 2, 3))[0]
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(fit.coef, beta, atol=1e-8)
        assert fit.intercept == pytest.approx(3.0, abs=1e-8)

    def test_simple_regression_closed_form(self, rng):
        n = 20
        x = rng.normal(size=(n, 1))
        y = 1.5 + 0.8 * x[:, 0] + rng.normal(scale=0.4, size=n)
        data = MultiStudy(studies=(Study(id="s1", x=x, y=y),),
                          feature_names=("a",))
        fit = ols_refit(data, (0,))[0]
        xc = x[:, 0] - x[:, 0].mean()
        yc = y - y.mean()
        slope = float(xc @ yc) / float(xc @ xc)
        intercept = y.mean() - slope * x[:, 0].mean()
        resid = y - intercept - slope * x[:, 0]
        sigma2 = float(resid @ resid) / (n - 2)
        slope_se = math.sqrt(sigma2 / float(xc @ xc))
        r2 = 1.0 - float(resid @ resid) / float(yc @ yc)
        adj = 1.0 - (1.0 - r2) * (n - 1) / (n - 2)
        assert fit.coef[0] == pytest.approx(slope, rel=1e-10)
        assert fit.coef_se[0] == pytest.approx(slope_se, rel=1e-8)
        assert fit.intercept == pytest.approx(intercept, rel=1e-10)
        assert fit.r2 == pytest.approx(r2, rel=1e-10)
        assert fit.adj_r2 == pytest.approx(adj, rel=1e-10)

    def test_rank_deficiency(self, rng):
        x = rng.normal(size=(25, 3))
        x[:, 2] = x[:, 0] - x[:, 1]
        data = MultiStudy(studies=(Study(id="s1", x=x, y=rng.normal(size=25)),),
                          feature_names=("a", "b", "c"))
        with pytest.raises(SingularDesignError):
            ols_refit(data, (0, 1, 2))

    def test_too_many_features(self, rng):
        data, _ = make_multistudy(rng, n=5, p=6, k=1)
        with pytest.raises(InputError):
            ols_refit(data, (0, 1, 2, 3, 4))
