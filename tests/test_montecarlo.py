import dataclasses
import functools
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcmimo.montecarlo as mc
from mcmimo import ChannelState, SystemParams, power_terms
from mcmimo.network import two_cell_layout
from mcmimo.montecarlo import complex_normal, empirical_power_decomposition

import oracles
from oracles import (despread_pilots, estimate_for_cell, fading_states, full_tensor_batches,
                     mmse_estimate, mrc_outputs, per_trial_batches, sample_channels,
                     sampler_scalars)


def small_state(rho_p=2.0, rho_u=1.5, L=2, K=2, M=16, seed=0):
    rng = np.random.default_rng(seed)
    beta = rng.uniform(0.1, 1.0, size=(L, K, L))
    params = SystemParams(L=L, K=K, M=float(M), rho_u=rho_u, rho_p=rho_p)
    return ChannelState.from_beta(beta, params)


def _never_drawn(*args, **kwargs):
    raise AssertionError("sampled a run that should have been refused")


def traced_peak(fn) -> int:
    """Peak bytes that ``fn()`` allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def count_draws(monkeypatch) -> dict:
    """Counts, by kind, of the variates that later runs draw; a generator
    method the sampler has no business calling raises."""
    drawn = {"gamma": 0, "exponential": 0, "normal": 0}

    def counting(rng, shape, **kwargs):
        drawn["normal"] += math.prod(shape)
        return complex_normal(rng.rng, shape, **kwargs)

    class CountingRng:
        def __init__(self, rng):
            self.rng = rng

        def standard_gamma(self, shape, out):
            drawn["gamma"] += out.size
            return self.rng.standard_gamma(shape, out=out)

        def standard_exponential(self, out):
            drawn["exponential"] += out.size
            return self.rng.standard_exponential(out=out)

    real_rng = np.random.default_rng
    monkeypatch.setattr(mc, "complex_normal", counting)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: CountingRng(real_rng(seed)))
    return drawn


def _read_only(shape) -> np.ndarray:
    out = np.empty(shape, np.complex128)
    out.setflags(write=False)
    return out


# ``out`` arrays that complex_normal(rng, (4, 3), out=...) must refuse
BAD_OUTS = {
    "transposed shape": lambda: np.empty((3, 4), np.complex128),
    "complex64": lambda: np.empty((4, 3), np.complex64),
    "float pairs": lambda: np.empty((4, 3, 2)),
    "Fortran order": lambda: np.empty((4, 3), np.complex128, order="F"),
    "strided": lambda: np.empty((4, 6), np.complex128)[:, ::2],
    "read-only": lambda: _read_only((4, 3)),
    "nested list": lambda: [[0j] * 3] * 4,
}


class TestSampling:
    def test_complex_normal_shape_and_variance(self):
        z = complex_normal(np.random.default_rng(30), (4000, 3))
        assert z.shape == (4000, 3) and z.dtype == np.complex128
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.05)
        assert z.real.var() == pytest.approx(0.5, rel=0.05)
        assert z.imag.var() == pytest.approx(0.5, rel=0.05)
        assert abs(np.mean(z.real * z.imag)) < 0.05

    @pytest.mark.parametrize("kind", sorted(BAD_OUTS))
    def test_complex_normal_refuses_a_bad_out_before_drawing(self, kind):
        rng = np.random.default_rng(31)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=re.escape(
                "out must be a writable C-contiguous complex128 array of shape (4, 3)")):
            complex_normal(rng, (4, 3), out=BAD_OUTS[kind]())
        assert rng.bit_generator.state == before

    def test_complex_normal_fills_a_good_out(self):
        out = np.empty((4, 3), np.complex128)
        assert complex_normal(np.random.default_rng(32), [4, 3], out=out) is out
        np.testing.assert_array_equal(out, complex_normal(np.random.default_rng(32), (4, 3)))

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

    def test_deterministic_under_fixed_seed(self):
        state = small_state(M=8)
        a = empirical_power_decomposition(state, 0, 0, {0}, trials=1500, seed=5)
        assert a == empirical_power_decomposition(state, 0, 0, {0}, trials=1500, seed=5)
        c = empirical_power_decomposition(state, 0, 0, {0}, trials=1500, seed=6)
        assert a != c

    def test_too_few_trials_rejected(self):
        state = small_state(M=8)
        with pytest.raises(ValueError, match="trials"):
            empirical_power_decomposition(state, 0, 0, {0}, trials=200, seed=1)

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
                                          seed=np.uint32(5))
        assert a == empirical_power_decomposition(state, 0, 0, {0}, trials=1500, seed=5)

    def test_too_many_trials_rejected(self, monkeypatch):
        # rejected before a batch is allocated
        def fail(*args, **kwargs):
            raise AssertionError("allocated or sampled an over-long run")

        monkeypatch.setattr(mc, "complex_normal", fail)
        monkeypatch.setattr(mc, "_sample", fail)
        state = small_state(M=8)
        with pytest.raises(ValueError, match=f"at most {mc.MAX_TRIALS} trials"):
            empirical_power_decomposition(state, 0, 0, {0}, trials=10 ** 12, seed=1)
        with pytest.raises(ValueError, match="trials"):
            empirical_power_decomposition(state, 0, 0, {0}, trials=mc.MAX_TRIALS + 1,
                                          seed=1)

    @pytest.mark.parametrize("m", [1e308])
    def test_trial_over_budget_rejected_before_allocation(self, monkeypatch, m):
        # an antenna count above MAX_ANTENNAS (here one whose analytic terms
        # would also overflow) is refused before a batch or any draw exists
        monkeypatch.setattr(mc, "complex_normal", _never_drawn)
        monkeypatch.setattr(mc, "_sample", _never_drawn)
        state = small_state(M=m)

        def refused():
            with pytest.raises(ValueError, match=re.escape(f"1 <= M <= 2**53, got M={m!r}")):
                empirical_power_decomposition(state, 0, 0, {0}, trials=1000, seed=1)

        assert traced_peak(refused) < 1 << 20

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

    def test_antenna_limit_is_the_last_count_float64_holds_exactly(self, monkeypatch):
        # 2^53 + 1 is no float64, so 2^53 + 2 is the first count above the limit
        assert mc.MAX_ANTENNAS == 2 ** 53
        assert float(2 ** 53 + 1) == 2 ** 53
        monkeypatch.setattr(mc, "complex_normal", _never_drawn)
        state = small_state(M=2 ** 53 + 2)
        with pytest.raises(ValueError, match=re.escape(
                "Monte Carlo needs an integer antenna count 1 <= M <= 2**53, "
                "got M=9007199254740994.0")):
            empirical_power_decomposition(state, 0, 0, {0}, trials=1000, seed=1)

    def test_last_bs_and_pilot_match_full_tensor_oracle(self):
        # j = L - 1, i = K - 1 and a strict subset omega: indexing slips that
        # the (0, 0) cases cannot show
        state = small_state(L=3, K=2, M=32, seed=3)
        j, i, omega = 2, 1, [0, 2]
        trials, seed = 6000, 23
        ana = power_terms(state, j, i, omega)
        emp = empirical_power_decomposition(state, j, i, omega, trials=trials, seed=seed)
        counts = [256] * 23 + [112]
        seeds = np.random.SeedSequence(seed).spawn(len(counts))
        ref = oracles.decompose(full_tensor_batches(state, j, i, seeds, counts), state, omega)
        for e, r, a in zip(emp.as_tuple(), ref.as_tuple(), ana.as_tuple()):
            assert e == pytest.approx(a, rel=0.12)
            assert r == pytest.approx(a, rel=0.12)

    @pytest.mark.parametrize("M", [1, 2, 4, 8, 1024, 10 ** 7])
    def test_samples_only_bs_j_links(self, monkeypatch, M):
        # a trial draws one gamma variate and L normals for the own inner
        # products, one noise projection, (K - 1) L exponentials for the
        # other-user term's variance and then that term's normal, whatever M
        # is, below L + 1 too; slot i's symbols are averaged out, not drawn
        L, K, trials = 3, 2, 1000
        state = small_state(L=L, K=K, M=M)
        drawn = count_draws(monkeypatch)
        empirical_power_decomposition(state, 1, 1, {1}, trials=trials, seed=4)
        assert drawn == {"gamma": trials, "exponential": trials * (K - 1) * L,
                         "normal": trials * (L + 2)}

    def test_one_user_draws_no_exponential_and_no_other_user_power(self, monkeypatch):
        # and no normal for the other-user term, which is zero
        L, trials = 3, 1000
        state = small_state(L=L, K=1, M=64)
        drawn = count_draws(monkeypatch)
        emp = empirical_power_decomposition(state, 1, 0, {1}, trials=trials, seed=4)
        assert drawn == {"gamma": trials, "exponential": 0, "normal": trials * (L + 1)}
        assert emp.other_users == 0.0

    @pytest.mark.parametrize("M, seed", [(4e4, 81), (1e7, 82)])
    def test_paper_scale_antenna_counts(self, M, seed):
        # far beyond what M-vectors could reach: the criterion-08 network at
        # and above the paper's thresholds, at criterion 08's tolerance
        params = SystemParams(L=2, K=2, M=M, rho_u=30.0, rho_p=120.0)
        state = ChannelState.from_layout(two_cell_layout(400.0, 800.0, users_per_cell=2),
                                         params)
        emp = empirical_power_decomposition(state, 0, 0, (0, 1), trials=10000, seed=seed)
        for e, a in zip(emp.as_tuple(), power_terms(state, 0, 0, (0, 1)).as_tuple()):
            assert e == pytest.approx(a, rel=0.05)

    def test_antenna_limit_itself_is_sampled(self):
        # the criterion-08 network at M = MAX_ANTENNAS; over seeds, the
        # est_error term spreads by 2 % at 10,000 trials, so 10 % is five
        # standard deviations
        params = SystemParams(L=2, K=2, M=float(mc.MAX_ANTENNAS), rho_u=30.0, rho_p=120.0)
        state = ChannelState.from_layout(two_cell_layout(400.0, 800.0, users_per_cell=2),
                                         params)
        emp = empirical_power_decomposition(state, 0, 0, (0, 1), trials=10000, seed=83)
        for e, a in zip(emp.as_tuple(), power_terms(state, 0, 0, (0, 1)).as_tuple()):
            assert e == pytest.approx(a, rel=0.1)

    def test_memory_does_not_grow_with_the_trial_count(self, monkeypatch):
        # a 256 KiB batch budget makes 2,000 trials at (L, K) = (3, 2) a
        # full batch of 1,057 trials and one of 943; 200,000 trials run 190
        # in the same buffer.  The slack covers CPython's free lists, which tracemalloc
        # counts: numpy's gamma draw leaves a 56-byte block on one per call.
        monkeypatch.setattr(mc, "_BATCH_BYTES", 1 << 18)
        assert mc._batch_size(3, 2) == 1057
        state = small_state(L=3, K=2, M=64)

        def peak(trials):
            return traced_peak(lambda: empirical_power_decomposition(
                state, 2, 1, {0, 2}, trials=trials, seed=36))

        assert peak(200_000) <= peak(2000) + (16 << 10)

    @pytest.mark.parametrize("L, K, M, trials", [
        (3, 2, 64, 200_000),  # 48 batches of up to 4,228 trials
        (2, 512, 8, 1000),    # batches of 127 trials, 1,022 exponentials each
        (24, 1, 1, 2000),     # two batches of 834 trials, one of 332
        (1, 1, 1, 16_384),    # two batches of 6,898 trials, one of 2,588
    ])
    def test_memory_is_one_buffer_within_the_cap(self, L, K, M, trials):
        # one buffer within _BATCH_BYTES holds a batch's draws, its planes
        # and the fold's rows, and nothing besides grows with the batch:
        # the peaks read 1.04-1.13 x _BATCH_BYTES
        state = small_state(L=L, K=K, M=M)
        peak = traced_peak(lambda: empirical_power_decomposition(
            state, L - 1, K - 1, {0}, trials=trials, seed=37))
        assert peak < 1.25 * mc._BATCH_BYTES

    def test_shifted_sums_are_exact_where_unshifted_ones_are_not(self):
        # at M = 2**53 the own inner products' mean is about 1e8 times their
        # spread, so the fold's sums of squares, unshifted, cancel to
        # rounding noise; shifted by the first batch's mean they do not, and
        # they agree with two passes over the record
        params = SystemParams(L=2, K=1, M=float(mc.MAX_ANTENNAS), rho_u=30.0, rho_p=120.0)
        state = ChannelState.from_layout(two_cell_layout(400.0, 800.0, users_per_cell=1),
                                         params)
        got = mc._decompose(*mc._sample(state, 0, 0, 400, 38), 400, state, [0])
        scalars = sampler_scalars(state, 0, 0, 400, 38)
        want = oracles.exact_est_error(scalars, state)
        assert got.est_error == pytest.approx(want, rel=4e-15)
        assert oracles.decompose(scalars, state, [0]).est_error == pytest.approx(want, rel=4e-15)
        zero = np.zeros((2, 2))
        unshifted = sum(mc._moments(own, other, noise, zero, scratch)
                        for own, other, noise, scratch in mc._batches(state, 0, 0, 400, 38))
        assert abs(mc._decompose(zero, unshifted, 400, state, [0]).est_error - want) > want


class TestFoldAgainstTwoPasses:
    """The running sums against ``oracles.decompose``, two passes of numpy
    means and variances over the batches' concatenated scalars, on random
    fading tensors and on batches of 1 to 64 trials."""

    @settings(max_examples=60)
    @given(fading_states(max_cells=4), st.data())
    def test_streaming_terms_equal_two_passes(self, case, data):
        state, i = case
        L, K = state.L, state.K
        M = data.draw(st.sampled_from([1, 2, L + 1, 64, 10 ** 7, 2 ** 53]), label="M")
        state = state.with_m(float(M))
        j = data.draw(st.integers(0, L - 1), label="j")
        omega = sorted(data.draw(st.sets(st.integers(0, L - 1)), label="omega"))
        trials = data.draw(st.integers(2, 200), label="trials")
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        per_batch = data.draw(st.integers(1, 64), label="per_batch")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mc, "_BATCH_BYTES", per_batch * 8 * (mc._scratch(L, K) + 2 * L + 5))
            assert mc._batch_size(L, K) == per_batch

            def streamed(seed=seed):
                return mc._decompose(*mc._sample(state, j, i, trials, seed), trials, state,
                                     omega)

            got = streamed()
            scalars = sampler_scalars(state, j, i, trials, seed)
            # only (state, seed, trials) matter: not the global stream, not
            # another run in between, not the state object
            global_stream = np.random.get_state()
            try:
                np.random.seed(seed % 1000)
                other = streamed(seed + 1)
                state = ChannelState.from_beta(state.beta.copy(), state.params)
                assert streamed() == got
            finally:
                np.random.set_state(global_stream)
        assert other != got
        want = oracles.decompose(scalars, state, omega)
        for name, g, w in zip(("desired", "est_error", "other_users", "noise"),
                              got.as_tuple(), want.as_tuple()):
            assert g >= 0.0
            assert g == pytest.approx(w, rel=1e-12, abs=0.0), name
        assert got.est_error == pytest.approx(oracles.exact_est_error(scalars, state),
                                              rel=1e-12, abs=0.0)


class TestBatchArithmetic:
    """The sampler's batches, pinned bit for bit to ``oracles.per_trial_batches``:
    the same draws, with every sum taken per trial in index order.  A slip in
    the weights' layout or in a sum's order shows here, where the KS tests
    see only laws."""

    @staticmethod
    def assert_pinned(state, j, i, trials, seed):
        got = sampler_scalars(state, j, i, trials, seed)
        want = per_trial_batches(state, j, i, trials, seed)
        for field in dataclasses.fields(got):
            name = field.name
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("L", range(1, 7))
    def test_matches_per_trial_reference(self, L):
        # from M = 1 through M < L + 1 to M far above it
        for K in (1, 2, 3):
            for M in (1, 2, 3, 4, 8, 64, 1e7):
                state = small_state(L=L, K=K, M=M, seed=L)
                self.assert_pinned(state, L - 1, K - 1, trials=5, seed=10 * L + K)

    def test_one_trial_final_batch(self):
        # 835 trials in batches of 834: the last batch holds one trial
        assert mc._batch_size(24, 1) == 834
        self.assert_pinned(small_state(L=24, K=1, M=64), 5, 0, trials=835, seed=35)

    def test_many_users_bound_the_batch(self):
        # a trial's buffer holds 2 L + 5 plane floats and
        # max(4 L + 8, (K - 1) L) scratch floats: 248 bytes at (L, K) =
        # (3, 4), 200 at (2, 4), 32,824 at (2, 2048)
        assert mc._batch_size(3, 4) == 4228
        assert mc._batch_size(2, 4) == 5242
        assert mc._batch_size(2, 2048) == 31
        self.assert_pinned(small_state(L=2, K=4, M=8), 1, 2, trials=5243, seed=39)

    @pytest.mark.parametrize("L, K, size", [
        (2, 2, 5242),     # the two-cell golden and the benchmark's curve
        (3, 2, 4228),     # the three-cell golden and the KS tests
        (2, 1, 5242),     # the one-user golden
        (3, 1, 4228),
        (3, 4, 4228),     # the one-antenna golden: 6,000 trials in two batches
    ])
    def test_buffer_bounds_the_batch(self, L, K, size):
        # the partition, and so every result, depends on (L, K) alone: a
        # benchmark op's 2,000 trials and each golden but the one-antenna
        # one are a single batch
        assert mc._batch_size(L, K) == size == (1 << 20) // (
            8 * (max(4 * L + 8, (K - 1) * L) + 2 * L + 5))


class TestRotation:
    """``montecarlo._rotation``: a real orthogonal matrix, to a few ulps,
    whose first column is s / ||s||."""

    @pytest.mark.parametrize("s", [
        np.random.default_rng(40).uniform(0.1, 3.0, size=6).tolist(),
        [1e-3, 1e6, 1.0, 2.0],      # one dominant entry
        [1e-12, 0.5, 2.0, 1.0],     # a tiny first entry
        [7.0],
    ], ids=["random", "dominant", "tiny-first", "one"])
    def test_orthogonal_with_first_column_along_s(self, s):
        U = np.array(mc._rotation(s))
        eps = np.finfo(float).eps
        assert np.abs(U.T @ U - np.eye(len(s))).max() <= 4 * eps
        u = np.array(s) / math.sqrt(math.fsum(x * x for x in s))
        np.testing.assert_allclose(U[:, 0], u, rtol=2 * eps, atol=0.0)


# SHA-256 of the sampler's batch planes, and of the terms read off their
# sums, at L = 2, 3, 5 and M = 4, 64, 1024
_BATCH_DIGEST = """
import hashlib
import numpy as np
import mcmimo.montecarlo as mc
from mcmimo import ChannelState, SystemParams
digest = hashlib.sha256()
for L in (2, 3, 5):
    for M in (4, 64, 1024):
        beta = np.random.default_rng(L).uniform(0.1, 1.0, size=(L, 2, L))
        params = SystemParams(L=L, K=2, M=float(M), rho_u=1.5, rho_p=2.0)
        state = ChannelState.from_beta(beta, params)
        for planes in mc._batches(state, L - 1, 1, 2000, 7):
            for a in planes[:3]:
                digest.update(a.tobytes())
        terms = mc.empirical_power_decomposition(state, L - 1, 1, range(L), 2000, 7)
        digest.update(np.array(terms.as_tuple()).tobytes())
print(digest.hexdigest())
"""

# numpy's x86-64 baseline with no AVX, so no fused multiply-add
SSE_FEATURES = "SSE SSE2 SSE3 SSSE3 SSE41 POPCNT SSE42"


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the feature names are x86 ones")
def test_batch_bytes_do_not_depend_on_fused_multiply_add():
    # numpy's complex multiply fuses a multiply and an add where it may use
    # FMA and rounds twice where it may not; the sampler forms its complex
    # products from float multiplies and adds, so both give the same
    # bytes.  The variable acts only on the child processes.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    env.pop("NPY_ENABLE_CPU_FEATURES", None)
    digests = []
    for extra in ({}, {"NPY_ENABLE_CPU_FEATURES": SSE_FEATURES}):
        proc = subprocess.run([sys.executable, "-c", _BATCH_DIGEST], capture_output=True,
                              text=True, env={**env, **extra}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """The two-sample Kolmogorov-Smirnov statistic sqrt(nm / (n + m)) D."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    gap = np.abs(np.searchsorted(a, both, side="right") / len(a)
                 - np.searchsorted(b, both, side="right") / len(b)).max()
    return math.sqrt(len(a) * len(b) / (len(a) + len(b))) * gap


LAWS = ("own real", "own magnitude", "other real", "other magnitude", "own x own",
        "own x other magnitude", "noise real", "noise magnitude")


@functools.lru_cache(maxsize=None)
def law_samples(M: int, seed: int):
    """Each law's samples from the sampler and from the M-vector oracle at
    the last BS and pilot of a three-cell, two-user state."""
    state = small_state(L=3, K=2, M=M, seed=3)
    j, i, trials = 2, 1, 20000
    drawn = sampler_scalars(state, j, i, trials, seed)
    counts = [2000] * (trials // 2000)
    ref = full_tensor_batches(state, j, i, np.random.SeedSequence(seed + 100).spawn(len(counts)),
                              counts)

    def laws(stats):
        own = stats.own
        return {
            "own real": own[:, 2].real,
            "own magnitude": np.abs(own[:, 0]),
            "other real": stats.other.real,
            "other magnitude": np.abs(stats.other),
            "own x own": (own[:, 0] * own[:, 2].conj()).real,
            # O scales with ||g_hat||, as the own inner products do
            "own x other magnitude": np.abs(own[:, 1]) * np.abs(stats.other),
            "noise real": stats.noise.real,
            "noise magnitude": np.abs(stats.noise),
        }

    return laws(drawn), laws(ref)


class TestAgainstVectorSampler:
    """The drawn scalars follow the law of the M-vector simulation.

    Two-sample KS tests against ``oracles.full_tensor_batches`` at the last
    BS and pilot, one per law and antenna count: M = 1, M < L + 1,
    M = L + 1 and M > L + 1.  Each rejects when sqrt(nm / (n + m)) D exceeds
    1.95 (a 0.1 % level for one test).
    """

    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("M, seed", [(1, 54), (2, 51), (3, 55), (4, 52), (8, 53)])
    def test_scalar_laws_match(self, M, seed, law):
        got, want = law_samples(M, seed)
        assert ks_statistic(got[law], want[law]) <= 1.95
