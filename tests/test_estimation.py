import math

import numpy as np
import pytest

from mcmimo import ChannelState, SystemParams, estimation, mmse_coeffs, preset_scenario

from oracles import random_state


def make_params(L, K, rho_p, rho_u=1.0):
    return SystemParams(L=L, K=K, M=10.0, rho_u=rho_u, rho_p=rho_p)


class TestMmseCoeffs:
    def test_unit_single_cell(self):
        beta = np.ones((1, 1, 1))
        stats = mmse_coeffs(beta, make_params(1, 1, rho_p=1.0))
        assert stats.alpha[0, 0, 0] == pytest.approx(0.5, rel=1e-15)
        assert stats.est_var[0, 0] == pytest.approx(0.5, rel=1e-15)
        assert stats.err_var[0, 0] == pytest.approx(0.5, rel=1e-15)

    def test_two_cell_hand_evaluation(self):
        beta = np.array([[[1.0, 0.25]], [[0.25, 1.0]]])
        rho_p = 120.0
        stats = mmse_coeffs(beta, make_params(2, 1, rho_p=rho_p))
        expected_own = math.sqrt(rho_p) * 1.0 / (1.0 + rho_p * 1.25)
        expected_cross = math.sqrt(rho_p) * 0.25 / (1.0 + rho_p * 1.25)
        assert stats.alpha[0, 0, 0] == pytest.approx(expected_own, rel=1e-14)
        assert stats.alpha[0, 0, 1] == pytest.approx(expected_cross, rel=1e-14)
        assert stats.est_var[0, 0] == pytest.approx(
            math.sqrt(rho_p) * expected_own, rel=1e-14)

    def test_orthogonal_variance_split(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            state = random_state(rng)
            own = np.array([[state.beta[j, k, j] for k in range(state.K)]
                            for j in range(state.L)])
            np.testing.assert_allclose(
                state.stats.est_var + state.stats.err_var, own, rtol=1e-13)

    def test_cross_coefficient_proportionality(self):
        # alpha[j,k,l] * beta[j,k,j] == alpha[j,k,j] * beta[j,k,l]
        rng = np.random.default_rng(12)
        for _ in range(25):
            state = random_state(rng)
            a, b = state.stats.alpha, state.beta
            own_a = state.stats.alpha_own
            for j in range(state.L):
                for k in range(state.K):
                    np.testing.assert_allclose(
                        a[j, k, :] * b[j, k, j], own_a[j, k] * b[j, k, :], rtol=1e-12)

    def test_shrinkage_sums_below_unity(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            state = random_state(rng)
            sp = math.sqrt(state.params.rho_p)
            shrink = sp * state.stats.alpha.sum(axis=2)
            assert np.all(shrink > 0.0)
            assert np.all(shrink < 1.0)
            own = sp * state.stats.alpha_own
            assert np.all(own > 0.0) and np.all(own < 1.0)

    def test_estimate_variance_grows_with_pilot_snr(self):
        beta = np.array([[[1.0, 0.3]], [[0.3, 1.0]]])
        variances = []
        for rho_p in (0.1, 1.0, 10.0, 100.0, 1e4):
            stats = mmse_coeffs(beta, make_params(2, 1, rho_p=rho_p))
            variances.append(stats.est_var[0, 0])
        assert all(b > a for a, b in zip(variances, variances[1:]))
        assert variances[-1] < 1.0  # approaches beta_own from below


class TestChannelState:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            ChannelState.from_beta(np.ones((2, 1, 3)), make_params(2, 1, rho_p=1.0))

    def test_from_beta_checks_before_forming_statistics(self, monkeypatch):
        # a mis-shaped or non-finite tensor is refused before mmse_coeffs
        # runs, with the message the constructor gives
        params = make_params(2, 1, rho_p=1.0)
        stats = mmse_coeffs(np.ones((2, 1, 2)), params)

        def fail(*args):
            raise AssertionError("formed MMSE statistics of an unchecked beta")

        monkeypatch.setattr(estimation, "mmse_coeffs", fail)
        nan = np.ones((2, 1, 2))
        nan[1, 0, 0] = np.nan
        for beta in (np.ones((300, 1, 300)), np.ones(3), nan):
            with pytest.raises(ValueError) as want:
                ChannelState(params=params, beta=beta, stats=stats)
            with pytest.raises(ValueError) as got:
                ChannelState.from_beta(beta, params)
            assert str(got.value) == str(want.value)
        assert str(got.value) == "beta entries must be finite and strictly positive"
        with pytest.raises(ValueError, match=r"^beta must have shape \(2, 1, 2\), "
                                             r"got \(300, 1, 300\)$"):
            ChannelState.from_beta(np.ones((300, 1, 300)), params)

    def test_each_state_checks_its_fading_once(self, monkeypatch):
        # from_beta and from_layout check beta in one pass; so does a direct
        # construction
        check, calls = estimation.check_fading, []

        def spy(beta):
            calls.append(beta.shape)
            return check(beta)

        monkeypatch.setattr(estimation, "check_fading", spy)
        params = make_params(2, 1, rho_p=1.0)
        state = ChannelState.from_beta(np.ones((2, 1, 2)), params)
        assert calls == [(2, 1, 2)]
        ChannelState(params=params, beta=state.beta, stats=state.stats)
        assert calls == [(2, 1, 2)] * 2
        scenario = preset_scenario("three-cell-theta")
        calls.clear()
        ChannelState.from_layout(scenario.layout(), scenario.params)
        assert calls == [(3, scenario.params.K, 3)]

    def test_positivity_validation(self):
        beta = np.ones((2, 1, 2))
        beta[0, 0, 1] = 0.0
        with pytest.raises(ValueError, match="positive"):
            ChannelState.from_beta(beta, make_params(2, 1, rho_p=1.0))

    def test_with_m_keeps_stats(self):
        rng = np.random.default_rng(14)
        state = random_state(rng, L=3, K=2)
        bumped = state.with_m(state.params.M * 4)
        assert bumped.params.M == state.params.M * 4
        np.testing.assert_array_equal(bumped.stats.alpha, state.stats.alpha)

