import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mcmimo.montecarlo as mc
from mcmimo import ChannelState, SystemParams, power_terms
from mcmimo.montecarlo import complex_normal, empirical_power_decomposition

from oracles import (despread_pilots, estimate_for_cell, full_tensor_batches, mmse_estimate,
                     mrc_outputs, sample_channels, unchunked_batches)


def small_state(rho_p=2.0, rho_u=1.5, L=2, K=2, M=16, seed=0):
    rng = np.random.default_rng(seed)
    beta = rng.uniform(0.1, 1.0, size=(L, K, L))
    params = SystemParams(L=L, K=K, M=float(M), rho_u=rho_u, rho_p=rho_p)
    return ChannelState.from_beta(beta, params)


def _never_drawn(*args, **kwargs):
    raise AssertionError("sampled a run that should have been refused")


class TestSampling:
    def test_complex_normal_shape_and_variance(self):
        z = complex_normal(np.random.default_rng(30), (4000, 3), var=2.0)
        assert z.shape == (4000, 3) and z.dtype == np.complex128
        assert z.real.var() == pytest.approx(1.0, rel=0.05)
        assert z.imag.var() == pytest.approx(1.0, rel=0.05)
        assert abs(np.mean(z.real * z.imag)) < 0.05

    def test_deterministic_under_fixed_seed(self):
        state = small_state()
        a = sample_channels(state.beta, 16, np.random.default_rng(99), count=8)
        b = sample_channels(state.beta, 16, np.random.default_rng(99), count=8)
        np.testing.assert_array_equal(a, b)
        c = sample_channels(state.beta, 16, np.random.default_rng(100), count=8)
        assert not np.allclose(a, c)

    def test_channel_power_matches_gain(self):
        state = small_state()
        g = sample_channels(state.beta, 64, np.random.default_rng(1), count=400)
        emp = (np.abs(g) ** 2).mean(axis=(0, 4))
        n = 400 * 64
        se = state.beta / math.sqrt(n)  # |g|^2 per antenna is Exp(beta): sd = beta
        assert np.all(np.abs(emp - state.beta) < 4.0 * se)

    def test_component_variance_split(self):
        state = small_state()
        g = sample_channels(state.beta, 64, np.random.default_rng(2), count=200)
        h00 = g[:, 0, 0, 0, :] / math.sqrt(state.beta[0, 0, 0])
        assert h00.real.var() == pytest.approx(0.5, abs=0.02)
        assert h00.imag.var() == pytest.approx(0.5, abs=0.02)

    def test_vanishing_pilot_snr_leaves_noise(self):
        state = small_state()
        g = sample_channels(state.beta, 32, np.random.default_rng(3), count=500)
        r = despread_pilots(g, 1e-12, np.random.default_rng(4))
        emp = (np.abs(r) ** 2).mean()
        assert emp == pytest.approx(1.0, rel=0.02)

    def test_single_cell_unit_gain_observation_variance(self):
        params = SystemParams(L=1, K=1, M=64, rho_u=1.0, rho_p=3.0)
        state = ChannelState.from_beta(np.ones((1, 1, 1)), params)
        g = sample_channels(state.beta, 64, np.random.default_rng(5), count=600)
        r = despread_pilots(g, 3.0, np.random.default_rng(6))
        emp = (np.abs(r) ** 2).mean()
        assert emp == pytest.approx(4.0, rel=0.03)  # rho_p * beta + 1


class TestEstimation:
    def test_estimate_variance_matches_stats(self):
        state = small_state()
        rng = np.random.default_rng(7)
        g = sample_channels(state.beta, 16, rng, count=2000)
        r = despread_pilots(g, state.params.rho_p, rng)
        g_hat = mmse_estimate(r, state.stats)
        for j in range(state.L):
            for k in range(state.K):
                emp = (np.abs(g_hat[:, j, k, :]) ** 2).mean()
                want = state.stats.est_var[j, k]
                se = want / math.sqrt(2000 * 16)
                assert abs(emp - want) < 3.5 * se

    def test_error_uncorrelated_with_estimate(self):
        state = small_state()
        rng = np.random.default_rng(8)
        g = sample_channels(state.beta, 16, rng, count=4000)
        r = despread_pilots(g, state.params.rho_p, rng)
        g_hat = mmse_estimate(r, state.stats)
        err = g[:, 0, 0, 0, :] - g_hat[:, 0, 0, :]
        num = (g_hat[:, 0, 0, :].conj() * err).mean()
        scale = math.sqrt(state.stats.est_var[0, 0] * state.stats.err_var[0, 0])
        assert abs(num) / scale < 4.0 / math.sqrt(4000 * 16)

    def test_cross_estimate_is_exact_rescaling(self):
        state = small_state()
        rng = np.random.default_rng(9)
        g = sample_channels(state.beta, 8, rng, count=4)
        r = despread_pilots(g, state.params.rho_p, rng)
        g_hat = mmse_estimate(r, state.stats)
        scaled = estimate_for_cell(g_hat, state.beta, 0, 1, 1)
        expected = (state.beta[0, 1, 1] / state.beta[0, 1, 0]) * g_hat[:, 0, 1, :]
        np.testing.assert_array_equal(scaled, expected)


class TestMrc:
    def test_zero_uplink_power_leaves_noise_projection(self):
        state = small_state()
        rng = np.random.default_rng(10)
        g = sample_channels(state.beta, 16, rng, count=6)
        r = despread_pilots(g, state.params.rho_p, rng)
        g_hat = mmse_estimate(r, state.stats)
        x = complex_normal(rng, (6, state.L, state.K))
        noise = complex_normal(rng, (6, state.L, 16))
        out = mrc_outputs(g, g_hat, x, rho_u=0.0, noise=noise)
        want = np.einsum("tjim,tjm->tji", g_hat.conj(), noise)
        np.testing.assert_allclose(out, want, rtol=1e-12)

    def test_noise_required(self):
        state = small_state()
        rng = np.random.default_rng(11)
        g = sample_channels(state.beta, 8, rng, count=2)
        g_hat = mmse_estimate(despread_pilots(g, 2.0, rng), state.stats)
        x = complex_normal(rng, (2, state.L, state.K))
        with pytest.raises(ValueError, match="noise"):
            mrc_outputs(g, g_hat, x, rho_u=1.0)

    def test_hardening_towards_deterministic_limit(self):
        # noise-free single user: the combiner output over M approaches the
        # mean-channel value, with median deviation shrinking as M grows
        params_base = dict(L=1, K=1, rho_u=2.0, rho_p=4.0)
        beta = np.ones((1, 1, 1))
        medians = []
        for m in (64, 256, 1024):
            params = SystemParams(M=float(m), **params_base)
            state = ChannelState.from_beta(beta, params)
            rng = np.random.default_rng(12)
            g = sample_channels(beta, m, rng, count=150)
            r = despread_pilots(g, params.rho_p, rng)
            g_hat = mmse_estimate(r, state.stats)
            x = complex_normal(rng, (150, 1, 1))
            out = mrc_outputs(g, g_hat, x, params.rho_u,
                              noise=np.zeros((150, 1, m), dtype=complex))
            alpha = state.stats.alpha[0, 0, 0]
            limit = math.sqrt(params.rho_u * params.rho_p) * alpha * x[:, 0, 0]
            rel = np.abs(out[:, 0, 0] / m - limit) / np.abs(limit)
            medians.append(np.median(rel))
        assert medians[0] > medians[1] > medians[2]

    def test_output_variance_matches_power_split(self):
        state = small_state()
        rng = np.random.default_rng(13)
        count = 4000
        g = sample_channels(state.beta, 16, rng, count=count)
        r = despread_pilots(g, state.params.rho_p, rng)
        g_hat = mmse_estimate(r, state.stats)
        x = complex_normal(rng, (count, state.L, state.K))
        out = mrc_outputs(g, g_hat, x, state.params.rho_u, rng=rng)
        pw = power_terms(state, 0, 0, range(state.L))
        total = pw.desired + pw.total_noise
        emp = (np.abs(out[:, 0, 0]) ** 2).mean()
        assert emp == pytest.approx(total, rel=0.15)


class TestEmpiricalDecomposition:
    def test_matches_analytic_formulas(self):
        state = small_state(M=32)
        emp = empirical_power_decomposition(state, 0, 0, {0, 1}, trials=6000, seed=21)
        ana = power_terms(state, 0, 0, {0, 1})
        for e, a in zip(emp.as_tuple(), ana.as_tuple()):
            assert e == pytest.approx(a, rel=0.12)

    def test_empty_decoded_set(self):
        state = small_state(M=8)
        emp = empirical_power_decomposition(state, 0, 0, set(), trials=1000, seed=22)
        assert emp.desired == 0.0
        assert emp.noise > 0.0

    def test_deterministic_and_worker_invariant(self):
        state = small_state(M=8)
        a = empirical_power_decomposition(state, 0, 0, {0}, trials=1500, seed=5)
        b = empirical_power_decomposition(state, 0, 0, {0}, trials=1500, seed=5,
                                          workers=2)
        assert a == b
        c = empirical_power_decomposition(state, 0, 0, {0}, trials=1500, seed=6)
        assert a != c

    def test_too_few_trials_rejected(self):
        state = small_state(M=8)
        with pytest.raises(ValueError, match="trials"):
            empirical_power_decomposition(state, 0, 0, {0}, trials=200, seed=1)

    @pytest.mark.parametrize("workers", [0, -3, True, 2.5, "2", np.int64(0)])
    def test_workers_must_be_a_positive_integer(self, workers, monkeypatch):
        monkeypatch.setattr(mc, "complex_normal", _never_drawn)
        with pytest.raises(ValueError, match="workers must be a positive integer"):
            empirical_power_decomposition(small_state(M=64), 0, 0, {0}, trials=1000,
                                          seed=1, workers=workers)

    @pytest.mark.parametrize("trials", [2000.0, "2000", True, None])
    def test_non_integer_trials_rejected(self, trials, monkeypatch):
        monkeypatch.setattr(mc, "complex_normal", _never_drawn)
        with pytest.raises(ValueError, match="trials must be an integer"):
            empirical_power_decomposition(small_state(M=8), 0, 0, {0}, trials=trials,
                                          seed=1)

    @pytest.mark.parametrize("seed", [None, -1, 1.0, "1", True, [1, 2]])
    def test_seed_must_be_a_nonnegative_integer(self, seed, monkeypatch):
        # None would draw fresh OS entropy, so repeated calls would differ
        monkeypatch.setattr(mc, "complex_normal", _never_drawn)
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            empirical_power_decomposition(small_state(M=8), 0, 0, {0}, trials=2000,
                                          seed=seed)

    def test_numpy_integer_trials_and_seed_accepted(self):
        state = small_state(M=8)
        a = empirical_power_decomposition(state, 0, 0, {0}, trials=np.int64(1500),
                                          seed=np.uint32(5), workers=np.int64(1))
        assert a == empirical_power_decomposition(state, 0, 0, {0}, trials=1500, seed=5)

    def test_too_many_trials_rejected(self, monkeypatch):
        # rejected before the batch plan, whose list and seed streams would
        # grow with the trial count
        def fail(*args, **kwargs):
            raise AssertionError("planned or sampled an over-long run")

        monkeypatch.setattr(mc, "complex_normal", fail)
        monkeypatch.setattr(mc, "_batch_counts", fail)
        state = small_state(M=8)
        with pytest.raises(ValueError, match=f"at most {mc.MAX_TRIALS} trials"):
            empirical_power_decomposition(state, 0, 0, {0}, trials=10 ** 12, seed=1)
        with pytest.raises(ValueError, match="trials"):
            empirical_power_decomposition(state, 0, 0, {0}, trials=mc.MAX_TRIALS + 1,
                                          seed=1)

    @pytest.mark.parametrize("m", [400000.0, 1e308])
    def test_trial_over_budget_rejected_before_allocation(self, monkeypatch, m):
        # one trial at (L, K) = (2, 2) and M > 349,524 samples more than the
        # budget; refused before the batch plan or any buffer exists
        def fail(*args, **kwargs):
            raise AssertionError("planned or sampled an over-budget trial")

        monkeypatch.setattr(mc, "complex_normal", fail)
        monkeypatch.setattr(mc, "_batch_counts", fail)
        state = small_state(M=m)
        message = re.escape(f"at most M=349524 antennas (one trial within "
                            f"{mc._BATCH_BYTES} bytes), got M={m:g}")

        def refused():
            with pytest.raises(ValueError, match=message):
                empirical_power_decomposition(state, 0, 0, {0}, trials=1000, seed=1)

        assert traced_peak(refused) < 1 << 20

    def test_antenna_limit_is_the_last_m_within_budget(self):
        for K, L in ((1, 1), (2, 2), (4, 3)):
            top = mc._max_antennas(K, L)
            assert mc._bytes_per_trial(K, L, top) <= mc._BATCH_BYTES
            assert mc._bytes_per_trial(K, L, top + 1) > mc._BATCH_BYTES
        assert mc._max_antennas(2, 2) == 349524

    @pytest.mark.parametrize("omega", [{0, 5}, [True], [0.0], [1.5]])
    def test_bad_omega_rejected_before_sampling(self, omega, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("sampled with a bad decoded set")

        monkeypatch.setattr(mc, "complex_normal", fail)
        state = small_state(M=8)
        with pytest.raises(ValueError, match="omega"):
            empirical_power_decomposition(state, 0, 0, omega, trials=1000, seed=1)

    def test_overflowing_terms_rejected_before_sampling(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("sampled an overflowing state")

        monkeypatch.setattr(mc, "complex_normal", fail)
        state = small_state(rho_u=1e308, K=1, M=100)
        with pytest.raises(ValueError, match="power terms overflow"):
            empirical_power_decomposition(state, 0, 0, [0, 1], trials=1000, seed=1)

    def test_out_of_range_indices_rejected(self):
        state = small_state(L=3, K=2, M=8)
        for j, i in ((-1, 0), (3, 0), (0, -1), (0, 2)):
            with pytest.raises(ValueError, match="out of range"):
                empirical_power_decomposition(state, j, i, {0}, trials=1000, seed=1)

    @pytest.mark.parametrize("m", [64.9, 0.5])
    def test_non_integer_antenna_count_rejected(self, m):
        state = small_state(M=m)
        with pytest.raises(ValueError, match=f"M={m}"):
            empirical_power_decomposition(state, 0, 0, {0}, trials=1000, seed=1)

    def test_last_bs_and_pilot_match_full_tensor_oracle(self):
        # j = L - 1, i = K - 1 and a strict subset omega: indexing slips that
        # the (0, 0) cases cannot show
        state = small_state(L=3, K=2, M=32, seed=3)
        j, i, omega = 2, 1, [0, 2]
        trials, seed = 6000, 23
        ana = power_terms(state, j, i, omega)
        emp = empirical_power_decomposition(state, j, i, omega, trials=trials, seed=seed)
        counts = mc._batch_counts(trials, state.K, state.L, 32)
        seeds = np.random.SeedSequence(seed).spawn(len(counts))
        ref = mc._decompose(full_tensor_batches(state, j, i, seeds, counts), state, i, omega)
        for e, r, a in zip(emp.as_tuple(), ref.as_tuple(), ana.as_tuple()):
            assert e == pytest.approx(a, rel=0.12)
            assert r == pytest.approx(a, rel=0.12)

    def test_samples_only_bs_j_links(self, monkeypatch):
        drawn = []

        def counting(rng, shape, var=1.0, **kwargs):
            drawn.append(math.prod(shape))
            return complex_normal(rng, shape, var, **kwargs)

        monkeypatch.setattr(mc, "complex_normal", counting)
        L, K, M, trials = 3, 2, 8, 1000
        empirical_power_decomposition(small_state(L=L, K=K, M=M), 1, 1, {1},
                                      trials=trials, seed=4)
        assert sum(drawn) == trials * (K * L * M + 2 * M + L * K)


class TestBatchBudget:
    # 256 trials at this shape would sample about 3x the budget
    L, K, M = 2, 2, 4096

    def test_benchmark_shapes_keep_full_batches(self):
        # the largest K * L * M the tests and the benchmark use
        assert mc._batch_counts(2000, 2, 2, 1024) == [256] * 7 + [208]
        assert mc._batch_counts(1000, 1, 1, 8) == [256] * 3 + [232]

    def test_large_m_batches_stay_under_budget(self):
        per_trial = 16 * (self.K * self.L * self.M + 2 * self.M + self.L * self.K)
        assert 256 * per_trial > 2 * mc._BATCH_BYTES
        counts = mc._batch_counts(1000, self.K, self.L, self.M)
        assert max(counts) * per_trial <= mc._BATCH_BYTES
        state = small_state(L=self.L, K=self.K, M=self.M)
        peak = traced_peak(lambda: empirical_power_decomposition(state, 0, 0, {0, 1},
                                                                 trials=1000, seed=31))
        assert peak < 1.25 * mc._BATCH_BYTES

    def test_large_m_worker_invariant(self):
        state = small_state(L=self.L, K=self.K, M=self.M)
        a = empirical_power_decomposition(state, 1, 0, {1}, trials=1000, seed=32)
        b = empirical_power_decomposition(state, 1, 0, {1}, trials=1000, seed=32,
                                          workers=2)
        assert a == b


def lanes_at(workers, trials, L, K, M):
    counts = mc._batch_counts(trials, K, L, M)
    return mc._lanes(workers, counts, mc._lane_bytes(counts[0], K, L, M))


def traced_peak(fn) -> int:
    """Peak bytes that ``fn()`` allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def within(seconds, fn):
    """``fn()`` on a thread joined with a timeout: its result, or its
    exception re-raised here."""
    box = {}

    def target():
        try:
            box["result"] = fn()
        except BaseException as exc:  # handed to the test thread below
            box["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["result"]


class TestLanes:
    def test_lane_holds_channels_reference_and_scratch(self):
        # 256 x (2 x 1024 channel + 1024 reference) entries and a 16-trial
        # noise scratch; the symbols live in the caller's result arrays
        assert mc._lane_shapes(256, 1, 2, 1024) == ((256, 1, 2, 1024), (256, 1024),
                                                    (16, 1024))
        assert mc._lane_bytes(256, 1, 2, 1024) == 12_845_056
        # small M draws a whole batch's noise at once; huge M one trial at a time
        assert mc._lane_shapes(256, 2, 2, 64)[2] == (256, 64)
        assert mc._lane_shapes(34, 1, 1, 20000)[2] == (1, 20000)

    def test_budget_forces_one_lane(self, monkeypatch):
        # one 256-trial lane at (L, K, M) = (2, 2, 1024) holds 21.2 MB, over
        # half the budget
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert lanes_at(None, 2000, 2, 2, 1024) == 1
        # a (2, 1, 1024) lane holds 12.85 MB: two fit, three do not
        assert lanes_at(None, 2000, 2, 1, 1024) == 2

    def test_lanes_capped_by_cpus_workers_and_budget(self, monkeypatch):
        # a (2, 4, 256) lane is 9.7 MB: three fit in the budget
        assert lanes_at(None, 2000, 2, 4, 256) == min(os.cpu_count() or 1, 3)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert lanes_at(None, 2000, 2, 4, 256) == 3
        assert lanes_at(2, 2000, 2, 4, 256) == 2
        assert lanes_at(None, 1000, 1, 1, 8) == 4  # one lane per batch

    def test_never_below_one_lane(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        # one trial alone exceeds the budget; only the batch plan is built
        assert mc._bytes_per_trial(2, 2, 10 ** 6) > mc._BATCH_BYTES
        assert lanes_at(None, 1000, 2, 2, 10 ** 6) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert lanes_at(None, 2000, 2, 4, 256) == 1

    @pytest.mark.parametrize("L, K, M, trials", [
        (2, 2, 8, 1001),     # 256-trial batches and a 233-trial last batch
        (3, 2, 64, 2000),    # a 208-trial last batch, up to four lanes
        (2, 2, 1024, 1100),  # the budget forces one lane
        (2, 1, 1024, 1100),  # two lanes on two or more CPUs, 16-trial noise chunks
    ])
    def test_results_do_not_depend_on_lanes(self, monkeypatch, L, K, M, trials):
        state = small_state(L=L, K=K, M=M, seed=7)
        runs = set()
        for cpus in (1, 2, 4):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            for workers in (None, 1, 2, 3):
                runs.add(repr(empirical_power_decomposition(state, L - 1, K - 1, {0},
                                                            trials=trials, seed=41,
                                                            workers=workers)))
        assert len(runs) == 1

    def test_more_lanes_than_cores_with_fast_switching(self, monkeypatch):
        # 16 batches on 8 lanes, switching threads every microsecond: a batch
        # written to the wrong rows, or lost, changes the result
        state = small_state(M=8, seed=9)
        ref = repr(empirical_power_decomposition(state, 1, 0, {0, 1}, trials=4000, seed=12,
                                                 workers=1))
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert lanes_at(None, 4000, 2, 2, 8) == 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = within(120, lambda: empirical_power_decomposition(
                state, 1, 0, {0, 1}, trials=4000, seed=12))
        finally:
            sys.setswitchinterval(interval)
        assert repr(got) == ref

    @pytest.mark.parametrize("L, K, M, cpus, lanes", [
        (2, 2, 512, 4, 3),   # a 10.7 MB lane: three fit and four do not
        (2, 1, 1024, 2, 2),  # a 12.85 MB lane: two fit
    ])
    def test_lanes_stay_under_budget(self, monkeypatch, L, K, M, cpus, lanes):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert lanes_at(None, 2000, L, K, M) == lanes
        state = small_state(L=L, K=K, M=M)
        peak = traced_peak(lambda: empirical_power_decomposition(state, 0, 0, {0, 1},
                                                                 trials=2000, seed=33))
        assert peak < 1.25 * mc._BATCH_BYTES

    @pytest.mark.parametrize("L, K, M, trials", [
        (1, 1, 1024, 1001),   # 256-trial batches and a 233-trial last batch, 16-trial chunks
        (2, 2, 4096, 1000),   # 85-trial batches and a 65-trial last batch, 4-trial chunks
        (1, 1, 20000, 1000),  # one trial per chunk
    ])
    def test_chunked_noise_matches_unchunked_batches(self, monkeypatch, L, K, M, trials):
        counts = mc._batch_counts(trials, K, L, M)
        rows = mc._lane_shapes(counts[0], K, L, M)[2][0]
        assert rows < counts[0] and (rows == 1 or counts[-1] % rows)  # a ragged last chunk
        state = small_state(L=L, K=K, M=M, seed=8)
        j, i, omega, seed = L - 1, K - 1, [0], 43
        seeds = np.random.SeedSequence(seed).spawn(len(counts))
        ref = repr(mc._decompose(unchunked_batches(state, j, i, seeds, counts), state, i,
                                 omega))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for workers in (None, 1):
            assert repr(empirical_power_decomposition(state, j, i, omega, trials=trials,
                                                      seed=seed, workers=workers)) == ref

    def test_lane_zero_runs_on_the_caller_and_lowest_error_wins(self):
        seen = {}
        barrier = threading.Barrier(3, timeout=60)

        def fn(t):
            seen[t] = threading.current_thread()
            barrier.wait()  # every lane is running before any fails
            if t:
                raise ValueError(f"lane {t}")

        def call():
            seen["caller"] = threading.current_thread()
            mc._run_lanes(fn, 3)

        with pytest.raises(ValueError, match="lane 1"):
            within(120, call)
        assert seen[0] is seen["caller"]
        assert len({id(seen[t]) for t in range(3)}) == 3
        assert not seen[1].is_alive() and not seen[2].is_alive()

    def test_lane_error_reaches_caller(self, monkeypatch):
        class Boom(Exception):
            pass

        real = mc._one_batch

        def failing(state, j, i, seed, *args):
            if seed.spawn_key[-1] == 1:  # batch 1: the second lane's first
                raise Boom("batch 1")
            real(state, j, i, seed, *args)

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(mc, "_one_batch", failing)
        state = small_state(M=8)
        for workers in (None, 2, 1):
            with pytest.raises(Boom, match="batch 1"):
                within(120, lambda: empirical_power_decomposition(
                    state, 0, 0, {0}, trials=2000, seed=5, workers=workers))


def lanes_for(workers, tasks):
    """Lanes for ``tasks`` one-trial batches on lanes of one byte each: the
    budget never binds, so only ``workers``, the batch count and the CPUs
    do."""
    return mc._lanes(workers, [1] * tasks, 1)


class TestLaneCap:
    def test_huge_request_is_capped_by_cpus(self):
        assert lanes_for(10 ** 6, 10 ** 6) == (os.cpu_count() or 1)

    def test_never_more_workers_than_tasks(self):
        assert lanes_for(10 ** 6, 1) == 1
        assert lanes_for(10 ** 6, 2) == min(2, os.cpu_count() or 1)

    def test_serial_request_stays_serial(self):
        assert lanes_for(1, 10 ** 6) == 1

    def test_no_cap_means_tasks_and_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert lanes_for(None, 10 ** 6) == 4
        assert lanes_for(None, 3) == 3

    def test_unknown_cpu_count_means_one(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert lanes_for(10 ** 6, 10 ** 6) == 1


class TestLazyPool:
    @pytest.mark.parametrize("argv", [
        ["-c", "import mcmimo"],
        ["-m", "mcmimo.cli", "symrate", "--preset", "two-cell-scenario-a", "--scheme", "tin"],
        ["-m", "mcmimo.cli", "montecarlo", "--cells", "2", "--users", "1", "--m", "8",
         "--trials", "1000", "--workers", "1"],
        # several lanes, on plain threads
        ["-m", "mcmimo.cli", "montecarlo", "--cells", "2", "--users", "1", "--m", "8",
         "--trials", "1000", "--workers", "2"],
    ])
    def test_runs_without_a_pool_import_no_pool_machinery(self, argv):
        # -X importtime lists every module the interpreter imports on stderr
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-X", "importtime", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "mcmimo.montecarlo" in imported
        assert "concurrent.futures" not in imported
        assert "multiprocessing" not in imported
