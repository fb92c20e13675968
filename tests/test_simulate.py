"""Seeded generation, metric identities, the replication entry point and
its three specs (screener summary, level grid, ROC curve)."""

import hashlib
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_no_child_left, count_forks, use_cpus
import multiscreen
import multiscreen.simulate as simulate
from multiscreen import (DegenerateColumnError, InputError, LevelGrid,
                         MethodSpec, MultiscreenError, RocGrid,
                         ScreeningConfig, SimSetting, Study,
                         compute_correlation_matrix, compute_t_matrix,
                         default_top_d, even_spaced_active, evaluate,
                         gen_instance, min_sis_rank, one_step_sis, replicate,
                         top_d_selection, tsa_sis)
from multiscreen.screening import _stat_columns, _stat_matrices
from multiscreen.simulate import (_mean_se, _rep_rng, _standard_normal,
                                  _uniform_open, default_d_grid)
from multiscreen.stats_core import normal_quantile


def small_setting(**overrides):
    params = dict(n=40, p=20, K=3, s0=3, beta_low=0.6, beta_high=0.9,
                  B=4, seed=11)
    params.update(overrides)
    return SimSetting(**params)


class TestSetting:
    def test_presets(self):
        s1 = SimSetting.preset(1)
        assert (s1.beta_low, s1.beta_high, s1.heterogeneous) == (0.1, 0.3, False)
        s4 = SimSetting.preset(4, B=10)
        assert (s4.beta_low, s4.beta_high, s4.heterogeneous) == (0.7, 1.0, True)
        assert s4.B == 10
        with pytest.raises(InputError):
            SimSetting.preset(5)

    def test_validation(self):
        with pytest.raises(InputError):
            SimSetting(s0=0)
        with pytest.raises(InputError):
            SimSetting(r_pool=(0.0, 1.0))
        with pytest.raises(InputError):
            SimSetting(noise_sd=0.0)
        with pytest.raises(InputError):
            SimSetting(seed=-1)
        # Unchecked, each of these fails every replication inside Study
        # with "entries must be finite".
        for field, value in [("noise_sd", math.inf), ("hetero_sd", math.nan),
                             ("beta_high", math.inf), ("beta_low", -math.inf),
                             ("noise_sd", "0.5"), ("beta_low", None),
                             ("beta_low", True), ("hetero_sd", 0.5j)]:
            with pytest.raises(InputError,
                               match=f"^{field} must be a finite real"):
                SimSetting(**{field: value})
        assert SimSetting(beta_low=0, beta_high=np.float32(1.0)) \
            == SimSetting(beta_low=0.0, beta_high=1.0)
        # A flag is a bool: unchecked, "no" would draw heterogeneous
        # coefficients, since the draw tests truthiness.
        for field, value in [("heterogeneous", "no"), ("heterogeneous", 0),
                             ("fix_r", 1), ("fix_r", None)]:
            with pytest.raises(InputError,
                               match=f"^{field} must be a bool, got {value!r}$"):
                SimSetting(**{field: value})
        flags = SimSetting(heterogeneous=np.True_, fix_r=np.False_)
        assert flags == SimSetting(heterogeneous=True, fix_r=False)
        assert type(flags.heterogeneous) is type(flags.fix_r) is bool

    COUNTS = dict(n=40, p=20, K=3, s0=3, B=4, seed=11)

    @pytest.mark.parametrize("value", [3.5, 3.0, True],
                             ids=["fraction", "float", "bool"])
    @pytest.mark.parametrize("field", list(COUNTS))
    def test_non_integer_count_rejected(self, field, value):
        # Unchecked, a float count fails deep inside gen_instance with a
        # TypeError, and a float d is truncated.
        with pytest.raises(InputError,
                           match=f"^{field} must be an integer, got {value!r}$"):
            SimSetting(**{**self.COUNTS, field: value})

    def test_numpy_integer_counts_accepted(self):
        setting = SimSetting(**{name: np.int64(v)
                                for name, v in self.COUNTS.items()})
        assert setting == SimSetting(**self.COUNTS)
        assert all(type(getattr(setting, name)) is int for name in self.COUNTS)


class TestActiveIndices:
    def test_benchmark_positions(self):
        active = even_spaced_active(1000, 10)
        assert [j + 1 for j in active] == [1, 112, 223, 334, 445, 556, 667,
                                           778, 889, 1000]

    def test_endpoints_and_dedup(self):
        assert even_spaced_active(7, 1) == (0,)
        assert even_spaced_active(5, 5) == (0, 1, 2, 3, 4)
        assert even_spaced_active(3, 2) == (0, 2)


class TestGenInstance:
    def test_homogeneous_betas_equal_across_studies(self):
        setting = small_setting(heterogeneous=False)
        _, active, beta = gen_instance(setting, 0)
        for j in active:
            assert len(set(beta[j])) == 1
            assert setting.beta_low <= beta[j, 0] <= setting.beta_high
        off = np.delete(beta, list(active), axis=0)
        assert np.all(off == 0.0)

    def test_heterogeneous_betas_differ(self):
        setting = small_setting(heterogeneous=True)
        _, active, beta = gen_instance(setting, 0)
        spread = [np.ptp(beta[j]) for j in active]
        assert max(spread) > 0.0

    def test_deterministic_per_rep(self):
        setting = small_setting()
        a1, act1, b1 = gen_instance(setting, 3)
        a2, act2, b2 = gen_instance(setting, 3)
        assert act1 == act2
        assert np.array_equal(b1, b2)
        for s1, s2 in zip(a1.studies, a2.studies):
            assert np.array_equal(s1.x, s2.x)
            assert np.array_equal(s1.y, s2.y)
        a3, _, _ = gen_instance(setting, 4)
        assert not np.array_equal(a1.studies[0].x, a3.studies[0].x)

    def test_fix_r_freezes_design_correlation(self):
        setting = small_setting(fix_r=True, p=500, n=200, B=2)
        corr = []
        for rep in range(2):
            data, _, _ = gen_instance(setting, rep)
            x = data.studies[0].x
            corr.append(np.corrcoef(x[:, 0], x[:, 1])[0, 1])
        # Same r in both replications: adjacent-column correlations agree
        # up to sampling noise of two independent draws.
        assert abs(corr[0] - corr[1]) < 0.3

    def test_identity_covariance_at_r_zero(self):
        setting = SimSetting(n=1000, p=20, K=1, s0=2, r_pool=(0.0,),
                             beta_low=0.5, beta_high=0.5, B=1, seed=5)
        data, _, _ = gen_instance(setting, 0)
        x = data.studies[0].x
        sample = np.cov(x, rowvar=False)
        off = sample - np.diag(np.diag(sample))
        assert np.max(np.abs(off)) < 0.15  # 3.5 / sqrt(n) bound

    def test_ar1_population_covariance(self):
        r = 0.6
        setting = SimSetting(n=4000, p=8, K=1, s0=2, r_pool=(r,),
                             beta_low=0.5, beta_high=0.5, B=1, seed=6)
        data, _, _ = gen_instance(setting, 0)
        x = data.studies[0].x
        sample = np.cov(x, rowvar=False)
        target = r ** np.abs(np.subtract.outer(np.arange(8), np.arange(8)))
        assert np.max(np.abs(sample - target)) < 4.0 / math.sqrt(4000)

    def test_ar1_recursion_oracle(self):
        # r = 0 leaves the normals z as drawn; the same seed at r = 0.6 draws
        # the same z, which the recursion then combines column by column in
        # Python floats.
        base = dict(n=5, p=7, K=2, s0=2, fix_r=True, B=1, seed=21)
        z_data = gen_instance(SimSetting(r_pool=(0.0,), **base), 0)[0]
        x_data = gen_instance(SimSetting(r_pool=(0.6,), **base), 0)[0]
        r, c = 0.6, math.sqrt(1.0 - 0.6 * 0.6)
        for z_study, x_study in zip(z_data.studies, x_data.studies):
            for i, z in enumerate(z_study.x.tolist()):
                want = [z[0]]
                for z_j in z[1:]:
                    want.append(c * z_j + r * want[-1])
                got = x_study.x[i]
                assert np.array_equal(got.view(np.int64),
                                      np.array(want).view(np.int64))

    def test_normals_follow_inverse_cdf_route(self):
        # Marginals of the design should be standard normal; a coarse
        # moment check guards the generator wiring.
        setting = SimSetting(n=2000, p=4, K=1, s0=1, r_pool=(0.0,),
                             beta_low=0.5, beta_high=0.5, B=1, seed=7)
        data, _, _ = gen_instance(setting, 0)
        x = data.studies[0].x.ravel()
        assert abs(x.mean()) < 0.05
        assert abs(x.std() - 1.0) < 0.05
        assert np.all(np.isfinite(x))


def _sha256(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def _reference_ar1(z, r):
    """The design as gen_instance built it column by column, kept verbatim
    as the reference for its row-wise recursion."""
    n, p = z.shape
    x = np.empty((n, p))
    x[:, 0] = z[:, 0]
    if p > 1:
        c = math.sqrt(1.0 - r * r)
        for j in range(1, p):
            x[:, j] = r * x[:, j - 1] + c * z[:, j]
    return x


class _StubGenerator:
    """Stands in for np.random.Generator: random() returns k / 2^53 for
    fixed 53-bit draws k."""

    def __init__(self, draws):
        self.draws = np.array(draws, dtype=np.uint64)

    def random(self, size):
        assert size == len(self.draws)
        return self.draws * 2.0 ** -53


def _flat_state(state):
    """A bit generator's state as nested tuples of plain values."""
    if isinstance(state, dict):
        return tuple((k, _flat_state(v)) for k, v in sorted(state.items()))
    return tuple(state.tolist()) if isinstance(state, np.ndarray) else state


def _integer_grid_uniform(rng, size):
    """The open uniform as first written: (2k + 1) / 2^54 from k drawn by
    ``integers(0, 2^53)``, rounded, and clamped below 1."""
    u = rng.integers(0, 1 << 53, size=size, dtype=np.uint64) * 2.0
    u += 1.0
    u *= 2.0 ** -54
    return np.minimum(u, 1.0 - 2.0 ** -53, out=u)


class TestSimulatedBits:
    """Pins on the simulated bits, so a change that moves them fails here
    and not only in the benchmark's output digests. The digests hold for a
    given numpy build and SIMD dispatch: np.exp and np.log return other
    bits with numpy's AVX-512 kernels disabled."""

    # sha256 of every study's x (then every study's y), in study order.
    GOLDEN = {
        1: ("530b8f95f477343381b16528ae50ff27ed8383b27dd5a96bf7e652f939d10da5",
            "6e4d910f2891018388eaf2399634e3ce3ed719914695f1921168546784fddd7a"),
        2: ("530b8f95f477343381b16528ae50ff27ed8383b27dd5a96bf7e652f939d10da5",
            "5994d8f54fa2ec7a3eaa22864d9b701ccfe1e70181a6c0ead25a95c5b839c113"),
    }

    @pytest.mark.parametrize("setting_id", [1, 2])
    def test_gen_instance_digests(self, setting_id):
        setting = SimSetting.preset(setting_id, seed=20240811)
        data, _, _ = gen_instance(setting, 0)
        x_digest, y_digest = self.GOLDEN[setting_id]
        assert _sha256(s.x for s in data.studies) == x_digest
        assert _sha256(s.y for s in data.studies) == y_digest

    # sha256 of replication 0's T matrix, then its correlation matrix, both
    # (p, K) and unrounded.
    MATRIX_GOLDEN = {
        1: "eddf1d0d77e532f5030f996e34795f316bac7e34f81085fe478d14edefd8fcd8",
        2: "ea622a11bd919c951a05f4145352364044bc3190f79ac7db8d06e263b970aa5a",
    }

    @pytest.mark.parametrize("setting_id", [1, 2])
    def test_streamed_matrix_digests(self, setting_id):
        # The replication pass fills the matrices study by study; they must
        # hash as the public functions do on the whole instance.
        setting = SimSetting.preset(setting_id, seed=20240811)
        matrices, _ = simulate._streamed_matrices(setting, 0, ("t", "corr"))
        data = gen_instance(setting, 0)[0]
        assert _sha256([matrices["t"], matrices["corr"]]) \
            == _sha256([compute_t_matrix(data), compute_correlation_matrix(data)]) \
            == self.MATRIX_GOLDEN[setting_id]

    def test_normal_quantile_digest(self):
        u = _uniform_open(_rep_rng(20240811, 0), 100_000)
        assert _sha256([normal_quantile(u)]) == (
            "d8b013e1a25b20d80e4f20b073b4be787625b98542509e51a3e4ba5bad42fc27")

    @pytest.mark.parametrize("r", [0.0, 0.2, 0.4, 0.6])
    @pytest.mark.parametrize("p", [1, 2, 1000])
    def test_ar1_matches_column_reference(self, r, p):
        setting = SimSetting(n=100, p=p, K=1, s0=1, r_pool=(r,), seed=3)
        data, _, _ = gen_instance(setting, 0)
        # Replay gen_instance's draw order: the base coefficient, the
        # study's r, then the design normals.
        rng = _rep_rng(setting.seed, 0)
        _uniform_open(rng, 1)
        _uniform_open(rng, 1)
        z = _standard_normal(rng, (setting.n, p))
        x = data.studies[0].x
        assert x.flags.c_contiguous
        assert np.array_equal(x.view(np.int64),
                              _reference_ar1(z, r).view(np.int64))

    def test_ar1_at_zero_r_with_signed_zero_draws(self, monkeypatch):
        # At r = 0 the recursion only adds 0.0 * col_{j-1}, which is skipped
        # when no draw is zero; a -0.0 after a positive entry still becomes
        # +0.0 (and stays -0.0 after a negative one, or in column 0).
        n, p = 6, 5
        drawn = []

        def with_zeros(rng, size):
            z = _standard_normal(rng, size)
            if size == n * p:   # the design, drawn in one row-major block
                z = z.reshape(n, p)
                z[0, 1:3] = 1.5, -0.0
                z[1, 2:4] = -1.0, 0.0
                z[2, 0] = -0.0
                z[3, 0:2] = 2.0, -0.0
                z[4, 1:3] = -1.0, -0.0
                drawn.append(z.copy())
            return z.reshape(size)

        monkeypatch.setattr(simulate, "_standard_normal", with_zeros)
        setting = SimSetting(n=n, p=p, K=1, s0=1, r_pool=(0.0,), seed=3)
        x = gen_instance(setting, 0)[0].studies[0].x
        want = _reference_ar1(drawn[0], 0.0)
        zeros = ([0, 1, 2, 3, 4], [2, 3, 0, 1, 2])
        assert not want[zeros].any()
        assert np.signbit(want[zeros]).tolist() == [
            False, False, True, False, True]
        assert np.array_equal(x.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n, p", [
        (50, 1),                        # every row in one block
        (20, simulate._DRAW_LANES + 1),  # rows split over two blocks
        (30, 1000),                     # 12-row blocks, a 6-row last stage
    ])
    def test_blocked_design_draw_equals_one_draw(self, n, p):
        # At r = 0 with no zero draw, x is the design normals themselves.
        setting = SimSetting(n=n, p=p, K=2, s0=1, r_pool=(0.0,), seed=4)
        data, _, _ = gen_instance(setting, 0)
        rng = _rep_rng(setting.seed, 0)
        _uniform_open(rng, 1)
        for study in data.studies:
            _uniform_open(rng, 1)
            z = _standard_normal(rng, (n, p))
            assert np.array_equal(study.x.view(np.int64), z.view(np.int64))
            _standard_normal(rng, n)

    @pytest.mark.parametrize("seed", [0, 1, 7, 20240811, 2 ** 40 + 3])
    def test_uniform_open_matches_integer_grid(self, seed):
        # random() keeps the same top 53 bits of one 64-bit output per
        # value as integers(0, 2^53): same bits, same generator state.
        rng, ref = _rep_rng(seed, 0), _rep_rng(seed, 0)
        for size in (1, 7, 12_288, 1, 7):
            got = _uniform_open(rng, size)
            want = _integer_grid_uniform(ref, size)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert _flat_state(rng.bit_generator.state) \
            == _flat_state(ref.bit_generator.state)

    def test_uniform_open_top_of_grid(self):
        k = [0, 2 ** 52 - 1, 2 ** 52, 2 ** 53 - 2, 2 ** 53 - 1]
        u = _uniform_open(_StubGenerator(k), len(k))
        assert np.all(np.isfinite(u))
        assert np.all((u > 0.0) & (u < 1.0))
        # (2k + 1) / 2^54 as rounded before the top draw was clamped.
        unclamped = (2.0 * np.array(k[:-1], dtype=float) + 1.0) * 2.0 ** -54
        assert np.array_equal(u[:-1], unclamped)
        assert u[-1] == 1.0 - 2.0 ** -53
        assert np.all(np.isfinite(normal_quantile(u)))


class TestEvaluate:
    def test_perfect(self):
        m = evaluate({1, 5}, {1, 5}, 10)
        assert (m.sensitivity, m.specificity, m.fp, m.fn) == (1.0, 1.0, 0, 0)

    def test_empty_kept(self):
        m = evaluate(set(), {1, 5}, 10)
        assert (m.sensitivity, m.specificity, m.fp, m.fn) == (0.0, 1.0, 0, 2)

    def test_keep_everything(self):
        m = evaluate(set(range(10)), {1, 5}, 10)
        assert (m.sensitivity, m.specificity, m.fp, m.fn) == (1.0, 0.0, 8, 0)

    def test_identities(self, rng):
        p, s0 = 30, 6
        truth = set(range(s0))
        for _ in range(25):
            kept = {int(j) for j in rng.choice(p, size=rng.integers(0, p),
                                               replace=False)}
            m = evaluate(kept, truth, p)
            assert m.sensitivity * s0 + m.fn == pytest.approx(s0)
            assert m.specificity * (p - s0) + m.fp == pytest.approx(p - s0)

    def test_bounds_checked(self):
        with pytest.raises(InputError):
            evaluate({11}, {1}, 10)
        with pytest.raises(InputError):
            evaluate({1}, set(), 10)
        with pytest.raises(InputError, match="^kept index must be an integer"):
            evaluate([1.5], {1}, 10)
        with pytest.raises(InputError, match="^kept set has repeated indices"):
            evaluate([2, 2], {1}, 10)
        with pytest.raises(InputError, match=r"^truth index out of range"):
            evaluate([], {-1}, 10)


class TestRunReplications:
    def test_deterministic_aggregate(self):
        setting = small_setting()
        a = replicate(setting, [MethodSpec()])
        b = replicate(setting, [MethodSpec()])
        assert a == b

    def test_standard_error_squares_exactly(self):
        # x ** 2 goes through libm pow, which (glibc 2.36) misrounds a square
        # of these deviations; the standard error must square exactly.
        v = [0.9771884089134876, 0.9909711011774934, 0.4156490514794686]
        mean = math.fsum(v) / 3
        exact = math.fsum(float(Fraction(x - mean) ** 2) for x in v)
        means, ses = _mean_se([[x, -x] for x in v], 2)
        assert means.tolist() == [mean, -mean]
        assert ses.tolist() == [math.sqrt(exact / 2 / 3)] * 2
        # One replication has no standard error; none has no mean either.
        means, ses = _mean_se([v], 3)
        assert means.tolist() == v
        assert np.isnan(ses).all() and ses.shape == (3,)
        means, ses = _mean_se([], 3)
        assert np.isnan(means).all() and means.shape == (3,)
        assert np.isnan(ses).all() and ses.shape == (3,)
        # Each column equals the fsum loop over its values.
        rows = np.random.default_rng(0).normal(size=(7, 5)) * [1, 1e-9, 1e9,
                                                                1, 3]
        means, ses = _mean_se(rows.tolist(), 5)
        for col, m, se in zip(rows.T.tolist(), means, ses):
            mean = math.fsum(col) / 7
            var = math.fsum((x - mean) * (x - mean) for x in col) / 6
            assert (m, se) == (mean, math.sqrt(var / 7))

    def test_strong_signals_found(self):
        setting = small_setting(B=6)
        (summary,) = replicate(setting, [MethodSpec(alpha1=1e-3)])
        assert summary.n_failed == 0
        assert summary.mean_sensitivity > 0.8
        assert summary.mean_specificity > 0.7
        assert len(summary.per_rep) == 6

    @pytest.mark.parametrize("threads", [2, 4, 8])
    def test_parallel_equals_sequential(self, threads, monkeypatch):
        # On 8 usable CPUs, B = 6 splits unevenly over 4 processes, and 8
        # is capped at 6.
        use_cpus(monkeypatch, 8)
        setting = small_setting(B=6)
        seq = replicate(setting, [MethodSpec(), RocGrid()], threads=1)
        par = replicate(setting, [MethodSpec(), RocGrid()], threads=threads)
        assert seq == par

    @pytest.mark.parametrize("cpus, threads, children",
                             [(2, 64, 2), (None, 4, 0)],
                             ids=["two-cpus", "no-affinity"])
    def test_threads_capped_at_usable_cpus(self, monkeypatch, cpus, threads,
                                           children):
        # A count above the usable CPUs forks one child per CPU; without
        # os.sched_getaffinity (anything but Linux) it forks none.
        specs = [MethodSpec(), RocGrid()]
        seq = replicate(small_setting(B=8), specs, threads=1)
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            use_cpus(monkeypatch, cpus)
        forks = count_forks(monkeypatch)
        assert replicate(small_setting(B=8), specs, threads=threads) == seq
        assert len(forks) == children
        assert_no_child_left()

    def test_parallel_failure_raises_the_serial_error(self, monkeypatch):
        # An exception that is not a MultiscreenError is no failed
        # replication: it is raised, the same with processes as without.
        streamed = simulate._streamed_matrices

        def breaks_rep_3(setting, rep, names):
            if rep == 3:
                raise ZeroDivisionError(f"rep {rep} divided by zero")
            return streamed(setting, rep, names)

        monkeypatch.setattr(simulate, "_streamed_matrices", breaks_rep_3)
        raised = []
        for threads in (1, 2):
            with pytest.raises(Exception) as exc:
                replicate(small_setting(B=6), [MethodSpec()], threads=threads)
            raised.append((exc.type, str(exc.value)))
        assert raised == [(ZeroDivisionError, "rep 3 divided by zero")] * 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_onestep_and_minsis_methods(self):
        setting = small_setting(B=3)
        one, ms = replicate(setting, [MethodSpec(name="onestep", alpha1=0.01),
                                      MethodSpec(name="minsis", d=3)])
        assert one.n_failed == 0
        assert ms.n_failed == 0
        # keeping exactly d features bounds the error counts
        for m in ms.per_rep:
            assert m.fp + (setting.s0 - m.fn) == 3

    def test_harness_matches_screeners(self):
        # The harness's rules are private kernels; each must score the kept
        # set of the library screener it stands for.
        setting = small_setting(B=1)
        data, active, _ = gen_instance(setting, 0)
        tsa, one, ms = replicate(setting, [
            MethodSpec(alpha1=0.01, alpha2=0.05),
            MethodSpec(name="onestep", alpha1=0.01),
            MethodSpec(name="minsis", d=3)])
        p = setting.p
        assert tsa.per_rep[0] == evaluate(
            tsa_sis(data, ScreeningConfig(0.01, 0.05)).kept, active, p)
        assert one.per_rep[0] == evaluate(one_step_sis(data, 0.01).kept,
                                          active, p)
        kept, _ = top_d_selection(min_sis_rank(data), 3, p)
        assert ms.per_rep[0] == evaluate(kept, active, p)


class TestRoc:
    def test_endpoints(self):
        setting = small_setting(B=3)
        (curve,) = replicate(setting, [RocGrid(d_grid=(0, setting.p))])
        assert curve.points[0].sensitivity == 0.0
        assert curve.points[0].one_minus_specificity == 0.0
        assert curve.points[-1].sensitivity == 1.0
        assert curve.points[-1].one_minus_specificity == 1.0

    def test_monotone_in_d(self):
        setting = small_setting(B=4)
        (curve,) = replicate(setting, [RocGrid()])
        sens = [pt.sensitivity for pt in curve.points]
        fpr = [pt.one_minus_specificity for pt in curve.points]
        assert all(b >= a - 1e-12 for a, b in zip(sens, sens[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(fpr, fpr[1:]))

    def test_default_grid_size(self):
        grid = default_d_grid(1000)
        assert len(grid) <= 201
        assert grid[0] == 0 and grid[-1] == 1000
        assert default_d_grid(50) == tuple(range(51))

    def test_parallel_equals_sequential(self):
        setting = small_setting(B=4)
        assert replicate(setting, [RocGrid()], threads=2) \
            == replicate(setting, [RocGrid()])

    def test_d_outside_range(self):
        setting = small_setting(B=1)
        for d_grid in ([0, setting.p + 1], [-1]):
            with pytest.raises(InputError):
                replicate(setting, [RocGrid(d_grid)])


class TestSensitivityGrid:
    def test_shape_and_determinism(self):
        setting = small_setting(B=3)
        (g1,) = replicate(setting, [LevelGrid([0.01, 0.001], [0.05, 0.01])])
        (g2,) = replicate(setting, [LevelGrid([0.01, 0.001], [0.05, 0.01])])
        assert g1.mean_sensitivity.shape == (2, 2)
        assert np.array_equal(g1.mean_sensitivity, g2.mean_sensitivity)
        assert np.array_equal(g1.mean_specificity, g2.mean_specificity)

    def test_single_column(self):
        setting = small_setting(B=2)
        (grid,) = replicate(setting, [LevelGrid([0.01], [0.05])])
        assert grid.mean_sensitivity.shape == (1, 1)

    def test_matches_dedicated_runner(self):
        setting = small_setting(B=3)
        grid, summary = replicate(setting, [
            LevelGrid([0.01], [0.05]), MethodSpec(alpha1=0.01, alpha2=0.05)])
        assert grid.mean_sensitivity[0, 0] == summary.mean_sensitivity
        assert grid.mean_specificity[0, 0] == summary.mean_specificity

    def test_alpha2_direction(self):
        # Raising alpha2 lowers the aggregate threshold: sensitivity cannot
        # fall and specificity cannot rise (checked as means with slack).
        setting = small_setting(B=6, beta_low=0.2, beta_high=0.5)
        (grid,) = replicate(setting, [LevelGrid([0.001], [0.01, 0.05, 0.15])])
        sens = grid.mean_sensitivity[0]
        spec = grid.mean_specificity[0]
        assert sens[0] <= sens[1] + 1e-12 <= sens[2] + 2e-12
        assert spec[0] >= spec[1] - 1e-12 >= spec[2] - 2e-12

    def test_parallel_equals_sequential(self):
        setting = small_setting(B=4)
        (g1,) = replicate(setting, [LevelGrid([0.01], [0.05])], threads=2)
        (g2,) = replicate(setting, [LevelGrid([0.01], [0.05])], threads=1)
        assert np.array_equal(g1.mean_sensitivity, g2.mean_sensitivity)
        assert np.array_equal(g1.se_specificity, g2.se_specificity)

    def test_equality(self):
        levels = [LevelGrid([0.01, 0.001], [0.05])]
        setting = SimSetting.preset(1, p=60, B=2, seed=3)
        assert replicate(setting, levels) == replicate(setting, levels)
        other = SimSetting.preset(1, p=60, B=2, seed=4)
        assert replicate(setting, levels) != replicate(other, levels)
        (single,) = replicate(small_setting(B=1), levels)
        assert np.isnan(single.se_sensitivity).all()
        assert single == single

    def test_validation(self):
        with pytest.raises(InputError):
            LevelGrid([], [0.05])
        with pytest.raises(InputError):
            LevelGrid([0.01], [1.5])

    @pytest.mark.parametrize("make", [
        lambda: MethodSpec(alpha1=[0.01]),
        lambda: MethodSpec(alpha1=np.array([0.01, 0.02])),
        lambda: LevelGrid([np.array([0.1, 0.2])], [0.05]),
    ], ids=["spec_list", "spec_array", "grid_array"])
    def test_non_scalar_level_rejected(self, make):
        with pytest.raises(InputError, match="alpha1 must lie strictly inside"):
            make()


class TestReplicate:
    @pytest.mark.parametrize("value", [2.5, 2.0, True],
                             ids=["fraction", "float", "bool"])
    @pytest.mark.parametrize("name, make", [
        ("d", lambda d: MethodSpec("minsis", d=d)),
        ("d", lambda d: RocGrid(d_grid=(1, d))),
        ("threads", lambda threads: replicate(small_setting(B=1),
                                              [MethodSpec()], threads)),
        ("rep", lambda rep: gen_instance(small_setting(), rep)),
        ("d", lambda d: top_d_selection([(0, 1.0), (1, 0.5), (2, 0.1)], d,
                                        3)),
        ("n", default_top_d),
        ("s0", lambda s0: even_spaced_active(10, s0)),
        ("p", lambda p: evaluate([1], [1], p)),
        ("setting", SimSetting.preset),
    ], ids=["method_d", "roc_d_grid", "threads", "rep", "top_d", "default_d",
            "active_s0", "evaluate_p", "preset"])
    def test_non_integer_count_rejected(self, name, make, value):
        with pytest.raises(InputError,
                           match=f"^{name} must be an integer, got {value!r}$"):
            make(value)

    def test_numpy_integer_counts_accepted(self):
        setting = small_setting(B=2)
        assert replicate(setting, [MethodSpec("minsis", d=np.int64(2)),
                                   RocGrid(d_grid=(np.int64(1), 3))],
                         threads=np.int64(1)) \
            == replicate(setting, [MethodSpec("minsis", d=2),
                                   RocGrid(d_grid=(1, 3))])

    @pytest.mark.parametrize("threads", [0, -4])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(InputError, match=f"got {threads}"):
            replicate(small_setting(B=1), [MethodSpec()], threads=threads)

    def test_one_pass_over_instances(self, monkeypatch):
        # Every spec kind in one pass: each replication generates its
        # instance once and makes one pass over each study's centered
        # columns for both statistic matrices.
        draws, passes = [], []

        def counted_draw(setting, rep, **kwargs):
            draws.append(rep)
            return gen_instance(setting, rep, **kwargs)

        def counted_pass(out, k, study, feature):
            passes.append((k, sorted(out)))
            return _stat_columns(out, k, study, feature)

        monkeypatch.setattr(simulate, "gen_instance", counted_draw)
        monkeypatch.setattr(simulate, "_stat_columns", counted_pass)
        setting = small_setting(B=3)
        replicate(setting, [MethodSpec(), LevelGrid([0.01, 0.001], [0.05]),
                            RocGrid()])
        assert draws == list(range(setting.B))
        assert passes == [(k, ["corr", "t"]) for _ in range(setting.B)
                          for k in range(setting.K)]

    def test_failure_reported_by_every_spec(self, monkeypatch):
        def flaky(setting, rep, **kwargs):
            if rep == 1:
                raise DegenerateColumnError("column 'x3' is constant")
            return gen_instance(setting, rep, **kwargs)

        monkeypatch.setattr(simulate, "gen_instance", flaky)
        setting = small_setting(B=3)
        summary, grid, curve = replicate(
            setting, [MethodSpec(), LevelGrid([0.01], [0.05]), RocGrid()],
            threads=1)
        for result in (summary, grid, curve):
            assert result.failures == ("rep 1: column 'x3' is constant",)
            assert result.n_failed == 1
        assert len(summary.per_rep) == 2

    def test_degenerate_statistic_fails_only_its_readers(self, monkeypatch):
        # In rep 1 the response and x3 of the first study are +1, -1, ...:
        # their products are constant, so T fails there while every
        # correlation exists and the ranking screener still runs.
        def alternating(setting, rep, *, on_study):
            def altered(k, study):
                if rep == 1 and k == 0:
                    study = Study(study.id, *_alternating(study.x, study.y, 2))
                on_study(k, study)
            return gen_instance(setting, rep, on_study=altered)

        monkeypatch.setattr(simulate, "gen_instance", alternating)
        setting = small_setting(B=3)
        summary, curve = replicate(setting, [MethodSpec(), RocGrid()])
        assert summary.n_failed == 1
        assert summary.failures[0].startswith(
            "rep 1: column \"x3 (study 'study1')\" yields a degenerate")
        assert curve.n_failed == 0
        assert curve == replicate(setting, [RocGrid()])[0]

    def test_empty_specs(self):
        with pytest.raises(InputError):
            replicate(small_setting(B=1), [])


def _alternating(x, y, j):
    """Copies of (x, y) with the response and column j both +1, -1, ...:
    their products are constant, so T is degenerate there; the correlation
    is not."""
    y = np.resize([1.0, -1.0], y.size)
    x = x.copy()
    x[:, j] = y
    return x, y


def _eager_replicate(setting, specs):
    """The replication pass as it ran before studies were streamed, kept as
    the reference: the whole instance from gen_instance, its matrices from
    _stat_matrices, then every rule, and the specs' own reductions."""
    rules = tuple(spec._rule(setting) for spec in specs)
    per_rep = []
    for rep in range(setting.B):
        try:
            data, active, _ = gen_instance(setting, rep)
        except MultiscreenError as exc:
            per_rep.append([("err", f"rep {rep}: {exc}")] * len(rules))
            continue
        matrices = _stat_matrices(data, {rule.matrix for rule in rules})
        outcomes = []
        for rule in rules:
            mat = matrices[rule.matrix]
            if isinstance(mat, Exception):
                outcomes.append(("err", f"rep {rep}: {mat}"))
                continue
            try:
                outcomes.append(("ok", rule(mat, active)))
            except MultiscreenError as exc:
                outcomes.append(("err", f"rep {rep}: {exc}"))
        per_rep.append(outcomes)
    return [spec._reduce(setting, outcomes)
            for spec, outcomes in zip(specs, zip(*per_rep))]


class TestStreamedReplication:
    @pytest.mark.parametrize("setting_id", [1, 2, 3, 4])
    def test_equals_eager_reference(self, setting_id, monkeypatch):
        # Rep 1's first study has a degenerate T column; rep 2 fails while
        # its second study is drawn, after the first one was screened.
        draw = simulate._draw_studies

        def faulty(setting, rep, active):
            for k, (x, y, betas) in enumerate(draw(setting, rep, active)):
                if rep == 2 and k == 1:
                    raise InputError("study 2 could not be drawn")
                if rep == 1 and k == 0:
                    x, y = _alternating(x, y, 4)
                yield x, y, betas

        monkeypatch.setattr(simulate, "_draw_studies", faulty)
        setting = SimSetting.preset(setting_id, p=300, B=4, seed=5)
        specs = [MethodSpec(), MethodSpec(name="onestep", alpha1=1e-3),
                 MethodSpec(name="minsis"), MethodSpec(name="minsis", d=7),
                 LevelGrid([1e-2, 1e-4], [0.05, 0.01]), RocGrid()]
        streamed = replicate(setting, specs)
        assert streamed == _eager_replicate(setting, specs)
        tsa, *_, grid, curve = streamed
        assert tsa.failures == (
            tsa.failures[0], "rep 2: study 2 could not be drawn")
        assert tsa.failures[0].startswith("rep 1: column \"x5 (study 'study1')\"")
        assert grid.n_failed == 2
        assert curve.failures == ("rep 2: study 2 could not be drawn",)


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak from /proc/self/status")
def test_replication_holds_one_study_at_a_time():
    # Setting 1 at p = 2e4: one study's x is 16 MB, the whole instance
    # 80 MB. The child reads its own high-water mark, VmHWM, so neither the
    # test process that spawned it nor the other subprocesses of a test run
    # count: its ru_maxrss would start from the RSS of the test process.
    script = textwrap.dedent("""
        from multiscreen import MethodSpec, RocGrid, SimSetting, replicate
        replicate(SimSetting.preset(1, p=20_000, B=1, seed=20240811),
                  [MethodSpec(), RocGrid()])
        with open("/proc/self/status") as fh:
            print(next(line.split()[1] for line in fh
                       if line.startswith("VmHWM:")))
    """)
    src = str(Path(multiscreen.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stdout.split()[-1]) / 1024
    assert peak_mb <= 100, f"replicate peaked at {peak_mb:.1f} MB"
