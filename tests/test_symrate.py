import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcmimo import (PRESET_NAMES, SCHEMES, ChannelState, SystemParams, capacity,
                    low_sinr_decode_set, max_symmetric_rate, mu_coefficient,
                    network_symmetric_rate, preset_scenario, sd_region, snd_region,
                    ssnd_region, sweep, symmetric_rates, tin_rate, tin_rate_asymptotic,
                    tin_region, two_cell_layout, two_cell_ordering_check)
from mcmimo.bounds import coherent_powers, noise_floors, state_powers
from mcmimo import symrate
from mcmimo.symrate import bs_symmetric_rate, stacked_rates

from oracles import (Polytope, brute_force_sd, brute_force_snd, brute_force_ssnd, cells,
                     diagonal_rate_bisection, direct_bound, exhaustive_snd, fading_states,
                     mask_of, polytope_symmetric_rate, random_state, region_of,
                     restricted_average_argmin, ring_state)


def low_sinr_state(rng, L, K=1):
    """Instance with mu * s_L well below 1e-3: tiny M and weak gains."""
    beta = 10.0 ** rng.uniform(-4.0, -2.0, size=(L, K, L))
    for j in range(L):
        for k in range(K):
            beta[j, k, j] = beta[j, k].max() * rng.uniform(1.5, 3.0)
    params = SystemParams(L=L, K=K, M=1.0, rho_u=0.05, rho_p=0.05)
    return ChannelState.from_beta(beta, params)


class TestMaxSymmetricPolytope:
    """The array rate of a one-part region against the oracle's loop over
    the same constraints."""

    def test_pair_bound_binds(self):
        cons = ((0b01, 1.0), (0b10, 1.0), (0b11, 1.5))
        rate, subset = max_symmetric_rate(region_of(2, [cons]))
        assert rate == pytest.approx(0.75, rel=1e-15)
        assert subset == 0b11
        assert polytope_symmetric_rate(Polytope(2, cons)) == (rate, subset)

    def test_singleton_binds(self):
        poly = Polytope(2, ((0b10, 1.0), (0b11, 3.0), (0b01, 1.0)))
        rate, subset = max_symmetric_rate(region_of(2, [poly.constraints]))
        assert rate == pytest.approx(1.0, rel=1e-15)
        assert subset == 0b01  # cardinality then bitmask tie-break
        assert polytope_symmetric_rate(poly) == (rate, subset)

    def test_empty_polytope_rejected(self):
        with pytest.raises(ValueError, match="constraint"):
            region_of(2, [()])
        with pytest.raises(ValueError, match="constraint"):
            polytope_symmetric_rate(Polytope(2, ()))

    def test_matches_diagonal_bisection_on_random_polytopes(self):
        rng = np.random.default_rng(51)
        for _ in range(60):
            L = int(rng.integers(1, 7))
            n_cons = int(rng.integers(1, 2 ** L))
            masks = rng.choice(np.arange(1, 2 ** L), size=n_cons, replace=False)
            cons = tuple((int(m), float(rng.uniform(0.1, 5.0))) for m in masks)
            poly = Polytope(L, cons)
            rate, _ = max_symmetric_rate(region_of(L, [poly.constraints]))
            oracle = diagonal_rate_bisection(poly, L, hi=10.0)
            assert rate == pytest.approx(oracle, rel=1e-6)


class TestFastPaths:
    def test_sd_matches_brute_force(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            state = random_state(rng)
            j = int(rng.integers(state.L))
            i = int(rng.integers(state.K))
            fast = bs_symmetric_rate(state, "sd", j, i)
            slow, slow_subset = brute_force_sd(state, j, i)
            assert fast.rate == pytest.approx(slow, rel=1e-12)
            assert fast.theta == slow_subset

    def test_ssnd_matches_brute_force(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            state = random_state(rng)
            j = int(rng.integers(state.L))
            i = int(rng.integers(state.K))
            fast = bs_symmetric_rate(state, "ssnd", j, i)
            slow, slow_subset = brute_force_ssnd(state, j, i)
            assert fast.rate == pytest.approx(slow, rel=1e-12)
            assert fast.theta == slow_subset
            assert fast.theta >> j & 1

    def test_fast_paths_match_region_polytopes(self):
        rng = np.random.default_rng(54)
        for _ in range(50):
            state = random_state(rng, L=int(rng.integers(1, 6)))
            j = int(rng.integers(state.L))
            sd_fast = bs_symmetric_rate(state, "sd", j, 0).rate
            sd_poly, _ = max_symmetric_rate(sd_region(state, j, 0).parts[0])
            assert sd_fast == pytest.approx(sd_poly, rel=1e-12)
            ssnd_fast = bs_symmetric_rate(state, "ssnd", j, 0).rate
            ssnd_poly, _ = max_symmetric_rate(ssnd_region(state, j, 0).parts[0])
            assert ssnd_fast == pytest.approx(ssnd_poly, rel=1e-12)

    def test_single_cell_rates(self):
        rng = np.random.default_rng(55)
        state = random_state(rng, L=1, K=2)
        mu = mu_coefficient(state, 0, 0)
        expected = capacity(mu * state.beta[0, 0, 0] ** 2)
        entry = bs_symmetric_rate(state, "sd", 0, 0)
        assert entry.rate == pytest.approx(expected, rel=1e-12)
        assert entry.theta == 0b1

    def test_low_sinr_sd_limited_by_weakest_user(self):
        rng = np.random.default_rng(56)
        for _ in range(30):
            state = low_sinr_state(rng, L=int(rng.integers(2, 7)))
            mu = mu_coefficient(state, 0, 0)
            s_full = (state.beta[0, 0, :] ** 2).sum()
            assert mu * s_full < 1e-2
            subset = bs_symmetric_rate(state, "sd", 0, 0).theta
            weakest = int(np.argmin(state.beta[0, 0, :]))
            assert subset == 1 << weakest

    def test_ssnd_never_below_sd(self):
        rng = np.random.default_rng(57)
        for _ in range(200):
            state = random_state(rng)
            j = int(rng.integers(state.L))
            assert (bs_symmetric_rate(state, "ssnd", j, 0).rate
                    >= bs_symmetric_rate(state, "sd", j, 0).rate)

    def test_symmetric_two_cell_pair_value(self):
        layout = two_cell_layout(400.0, 800.0, users_per_cell=4)
        params = SystemParams(L=2, K=4, M=1e5, rho_u=30.0, rho_p=120.0)
        state = ChannelState.from_layout(layout, params)
        mu = mu_coefficient(state, 0, 0)
        b_own, b_cross = state.beta[0, 0, 0], state.beta[0, 0, 1]
        expected_pair = 0.5 * capacity(mu * (b_own ** 2 + b_cross ** 2))
        entry = bs_symmetric_rate(state, "ssnd", 0, 0)
        assert entry.rate == pytest.approx(expected_pair, rel=1e-12)
        assert entry.theta == 0b11


class TestLowSinrDecodeSet:
    def test_hand_trace_skips_strong_interferer(self):
        # entries: own 1.0, others 0.01, 0.02, 0.9; the greedy average rises
        # before 0.9 joins
        beta = np.array([[[1.0, 0.1, math.sqrt(0.02), math.sqrt(0.9)]]])
        beta = np.tile(beta, (4, 1, 1))  # only row j=0 matters below
        beta[0, 0] = np.sqrt([1.0, 0.01, 0.02, 0.9])
        params = SystemParams(L=4, K=1, M=1.0, rho_u=0.01, rho_p=0.01)
        state = ChannelState.from_beta(beta, params)
        assert low_sinr_decode_set(state, 0, 0) == 0b0111

    def test_two_cells_always_both(self):
        rng = np.random.default_rng(58)
        for _ in range(20):
            state = random_state(rng, L=2)
            j = int(rng.integers(2))
            assert low_sinr_decode_set(state, j, 0) == 0b11

    def test_single_cell(self):
        rng = np.random.default_rng(59)
        state = random_state(rng, L=1)
        assert low_sinr_decode_set(state, 0, 0) == 0b1

    def test_matches_exhaustive_restricted_argmin(self):
        rng = np.random.default_rng(60)
        for _ in range(100):
            state = low_sinr_state(rng, L=int(rng.integers(2, 8)))
            j = int(rng.integers(state.L))
            mu = mu_coefficient(state, j, 0)
            assert mu * (state.beta[j, 0, :] ** 2).sum() < 1e-3
            got = low_sinr_decode_set(state, j, 0)
            want = restricted_average_argmin(state.beta[j, 0, :] ** 2, j)
            assert got == want


class TestSndMaxSymmetric:
    def test_two_cell_union_of_tin_and_pair(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            state = random_state(rng, L=2)
            j = int(rng.integers(2))
            snd = bs_symmetric_rate(state, "snd", j, 0)
            expected = max(tin_rate(state, j, 0), bs_symmetric_rate(state, "ssnd", j, 0).rate)
            assert snd.rate == pytest.approx(expected, rel=1e-14)
            assert snd.theta & ~snd.omega == 0 and snd.omega >> j & 1

    def test_never_below_tin_or_ssnd(self):
        # cross-implementation comparisons tolerate summation-order ulps
        rng = np.random.default_rng(62)
        for _ in range(100):
            state = random_state(rng, L=int(rng.integers(2, 6)))
            j = int(rng.integers(state.L))
            rate = bs_symmetric_rate(state, "snd", j, 0).rate
            assert rate >= tin_rate(state, j, 0) * (1.0 - 1e-12)
            assert rate >= bs_symmetric_rate(state, "ssnd", j, 0).rate * (1.0 - 1e-12)

    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(63)
        for _ in range(60):
            state = random_state(rng, L=int(rng.integers(1, 6)))
            j = int(rng.integers(state.L))
            rate = bs_symmetric_rate(state, "snd", j, 0).rate
            assert rate == pytest.approx(brute_force_snd(state, j, 0), rel=1e-12)

    def test_matches_union_region_diagonal_bisection(self):
        rng = np.random.default_rng(64)
        for _ in range(25):
            state = random_state(rng, L=int(rng.integers(2, 5)))
            j = int(rng.integers(state.L))
            rate = bs_symmetric_rate(state, "snd", j, 0).rate
            region = snd_region(state, j, 0)
            oracle = diagonal_rate_bisection(region, state.L, hi=max(rate, 1.0))
            assert rate == pytest.approx(oracle, rel=1e-6)

    def test_three_cell_strictly_best_window(self):
        # inside the window the non-unique schemes strictly beat TIN and SD
        state = preset_scenario("three-cell-theta").state().with_m(2e5)
        rates = {s: network_symmetric_rate(state, s).network_rate
                 for s in ("tin", "sd", "ssnd", "snd")}
        assert rates["snd"] > rates["tin"]
        assert rates["snd"] > rates["sd"]
        assert rates["snd"] == pytest.approx(rates["ssnd"], rel=1e-12)

    def test_three_cell_asymmetric_angle_snd_beats_everything(self):
        # off-axis middle users: the union's extra faces pay off and SND is
        # strictly better than TIN, SD and S-SND at once
        scenario = preset_scenario("three-cell-theta").with_axis("theta", 30.0)
        state = scenario.with_axis("M", 1e3).state()
        rates = {s: network_symmetric_rate(state, s).network_rate
                 for s in ("tin", "sd", "ssnd", "snd")}
        assert rates["snd"] > rates["ssnd"] > rates["tin"] > rates["sd"]

    def test_large_ring_needs_no_cell_cap(self):
        # the solver is polynomial in L: a 24-cell ring is solved outright
        state = ring_state(np.random.default_rng(65), L=24)
        reports = {s: network_symmetric_rate(state, s) for s in SCHEMES}
        for j in range(state.L):
            r = {s: reports[s].per_bs[j].rate for s in SCHEMES}
            assert r["sd"] <= r["ssnd"] * (1 + 1e-12)
            assert r["ssnd"] <= r["snd"] * (1 + 1e-12)
            assert r["tin"] <= r["snd"] * (1 + 1e-12)


def snd_witness(state, j, i):
    """The SND solution at BS j in the oracle's ``(rate, omega, theta)`` order."""
    entry = bs_symmetric_rate(state, "snd", j, i)
    return entry.rate, entry.omega, entry.theta


class TestSndAgainstExhaustive:
    @settings(max_examples=150)
    @given(fading_states())
    def test_equals_exhaustive_enumeration(self, case):
        state, i = case
        for j in range(state.L):
            assert snd_witness(state, j, i) == exhaustive_snd(state, j, i)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_equal_exhaustive_enumeration(self, name):
        for value in (0.0, 30.0, 90.0) if name == "three-cell-theta" else (None,):
            scenario = preset_scenario(name)
            if value is not None:
                scenario = scenario.with_axis("theta", value)
            for m in (1e3, 1e5, 1e7):
                state = scenario.with_axis("M", m).state()
                for j in range(state.L):
                    for i in range(state.K):
                        assert snd_witness(state, j, i) == exhaustive_snd(state, j, i)

    def test_rings_equal_exhaustive_enumeration(self):
        rng = np.random.default_rng(69)
        for L in (2, 4, 6, 8):
            state = ring_state(rng, L=L, M=float(10 ** rng.uniform(2, 6)))
            for j in range(L):
                for i in range(state.K):
                    assert snd_witness(state, j, i) == exhaustive_snd(state, j, i)


def stack_of(cases):
    """Coherent powers (G, L, L) and noise floors (G, L) of (state, pilot)
    pairs with a common L."""
    coh = np.stack([coherent_powers(s.params.M, s.params, s.beta, s.stats.alpha, i)
                    for s, i in cases])
    floor = np.stack([noise_floors(s.beta, s.params.rho_u) for s, _ in cases])
    return coh, floor


def assert_rows_match_oracles(stacked, cases):
    """Row g of a stacked solve equals the single-state solvers on case g, to
    the bit, and the exhaustive SND enumeration; every witness pair
    reproduces its rate."""
    for a in stacked:
        assert a.shape == (len(SCHEMES), len(cases), cases[0][0].L)
    for g, (state, i) in enumerate(cases):
        for k, scheme in enumerate(SCHEMES):
            rates, thetas, omegas = (a[k, g].tolist() for a in stacked)
            report = network_symmetric_rate(state, scheme, i)
            assert [(e.rate, e.theta, e.omega) for e in report.per_bs] == \
                list(zip(rates, thetas, omegas))
            for j in range(state.L):
                again = direct_bound(state, j, i, cells(thetas[j]), cells(omegas[j]))
                assert rates[j] == pytest.approx(again / thetas[j].bit_count(), rel=1e-12)
                if scheme == "snd":
                    assert (rates[j], omegas[j], thetas[j]) == exhaustive_snd(state, j, i)


class TestStackedKernel:
    @settings(max_examples=60)
    @given(st.integers(1, 6).flatmap(
        lambda L: st.lists(fading_states(L, L), min_size=1, max_size=4)))
    def test_rows_equal_single_state_solves_and_oracles(self, cases):
        coh, floor = stack_of(cases)
        assert_rows_match_oracles(stacked_rates(coh, floor), cases)

    def test_m_grid_with_coherent_power_ties_at_some_points(self):
        # cells 1 and 2 differ by one ulp of fading: rounding ties their
        # coherent powers at about half of the antenna counts, and there the
        # stable order ranks cell 1 first, elsewhere cell 2 (the weaker)
        b = 0.03
        row = [1.0, np.nextafter(b, 1.0), b]
        beta = np.array([[np.roll(row, j)] for j in range(3)])
        state = ChannelState.from_beta(beta, SystemParams(L=3, K=1, M=1e3, rho_u=30.0,
                                                          rho_p=120.0))
        grid = np.geomspace(1e2, 1e6, 41)
        cases = [(state.with_m(float(m)), 0) for m in grid]
        coh, floor = stack_of(cases)
        ties = int((coh[:, 0, 1] == coh[:, 0, 2]).sum())
        assert 0 < ties < len(grid)
        assert_rows_match_oracles(stacked_rates(coh, floor), cases)

    def test_chunks_of_rows_change_no_bit(self, monkeypatch):
        rng = np.random.default_rng(73)
        cases = [(ring_state(rng, L=5, M=float(10 ** rng.uniform(2, 6))), 1) for _ in range(3)]
        coh, floor = stack_of(cases)
        whole = stacked_rates(coh, floor)
        monkeypatch.setattr(symrate, "STACK_BYTES", 1)  # one row per chunk
        rowwise = stacked_rates(coh, floor)
        assert len(whole) == len(rowwise) == 3
        for a, b in zip(whole, rowwise):
            assert a.shape == b.shape == (len(SCHEMES), 3, 5)
            assert a.tolist() == b.tolist()

    def test_one_large_network_stays_under_budget(self, monkeypatch):
        # unchunked, the SND arrays of a 40-cell network hold about 4 MB
        budget = 1 << 20
        monkeypatch.setattr(symrate, "STACK_BYTES", budget)
        state = ring_state(np.random.default_rng(74), L=40)
        tracemalloc.start()
        try:
            report = network_symmetric_rate(state, "snd")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * budget
        monkeypatch.undo()
        assert network_symmetric_rate(state, "snd") == report

    @pytest.mark.parametrize("L, G, budget", [
        (3, 4000, 2 << 20), (8, 200, 2 << 20),
        (3, 37_000, 2 << 20),  # about 40 chunks
        (64, 1, 4 << 20), (160, 1, 16 << 20)])
    def test_chunks_fill_the_budget(self, monkeypatch, L, G, budget):
        # a chunk is sized by the measured bytes per entry and counts its
        # rows' O(L) arrays, so the working set (the peak beyond the returned
        # arrays) comes close to the budget without passing it, however
        # small L and however long the stack
        monkeypatch.setattr(symrate, "STACK_BYTES", budget)
        coh, floor = (np.repeat(a, G, axis=0) for a in
                      stack_of([(ring_state(np.random.default_rng(76), L=L, K=1), 0)]))
        for solve in (stacked_rates, symrate.stacked_rates_only):
            tracemalloc.start()
            try:
                out = solve(coh, floor)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            returned = sum(a.nbytes for a in (out if isinstance(out, tuple) else (out,)))
            assert 0.7 * budget < peak - returned <= budget

    @pytest.mark.parametrize("coh_shape, floor_shape", [
        ((2, 3, 3), (3, 2)),  # the floors transposed
        ((2, 3, 3), (6,)),  # the floors flat
        ((2, 3, 4), (2, 3)),  # the rows not square
        ((6, 3), (2, 3)),  # the powers flat
    ])
    def test_refuses_mismatched_shapes(self, coh_shape, floor_shape):
        coh, floor = np.ones(coh_shape), np.ones(floor_shape)
        for solve in (stacked_rates, symrate.stacked_rates_only):
            with pytest.raises(ValueError, match=r"\(G, L, L\).*\(G, L\)"):
                solve(coh, floor)

    @pytest.mark.parametrize("L", [1, 3, 64])
    def test_empty_stack(self, L):
        coh, floor = np.empty((0, L, L)), np.empty((0, L))
        rate, theta, omega = stacked_rates(coh, floor)
        assert rate.shape == theta.shape == omega.shape == (len(SCHEMES), 0, L)
        assert rate.dtype == np.float64
        assert theta.dtype == omega.dtype == symrate._bits(L).dtype
        rates = symrate.stacked_rates_only(coh, floor)
        assert rates.shape == (len(SCHEMES), 0, L) and rates.dtype == np.float64


# the ring sizes of the rates-only checks: the small Ls, one past the
# int64 masks' last L (63), and two larger ones
_SPLIT_CELLS = [*range(2, 14), 24, 64, 65]


@st.composite
def ring_stacks(draw):
    """Coherent powers and floors of one to three rings with a common L."""
    L = draw(st.sampled_from(_SPLIT_CELLS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    G = draw(st.integers(1, 3 if L <= 24 else 1))
    return stack_of([(ring_state(rng, L=L, M=float(10 ** rng.uniform(2, 6))),
                      int(rng.integers(2))) for _ in range(G)])


@st.composite
def tie_stacks(draw):
    """Networks whose cells tie exactly: every BS hears each other cell at
    one of three common gains, at one to four antenna counts."""
    L = draw(st.integers(1, 13))
    levels = draw(st.lists(st.sampled_from([1e-3, 1e-2, 0.1]), min_size=L, max_size=L))
    beta = np.array([[levels]] * L)
    np.fill_diagonal(beta[:, 0, :], 1.0)
    antennas = draw(st.lists(st.sampled_from(np.geomspace(1e2, 1e7, 13).tolist()),
                             min_size=1, max_size=4))
    state = ChannelState.from_beta(beta, SystemParams(L=L, K=1, M=antennas[0],
                                                      rho_u=30.0, rho_p=120.0))
    return stack_of([(state.with_m(m), 0) for m in antennas])


@st.composite
def random_stacks(draw):
    """Coherent powers and floors of one to three random networks of L <= 12
    cells; a third of them draw every power from three levels, so that
    cells tie exactly."""
    L = draw(st.integers(1, 12))
    G = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.integers(0, 2)) == 0:
        coh = rng.choice([1e2, 3e3, 1e5], size=(G, L, L))
    else:
        coh = rng.lognormal(6.0, 3.0, (G, L, L))
    return coh, rng.uniform(1.0, 1e3, (G, L))


class TestRatesOnly:
    """``stacked_rates_only`` is ``stacked_rates``' rate array, solved by the
    same kernel without forming the witness masks."""

    @settings(max_examples=60)
    @given(stack=st.one_of(ring_stacks(), tie_stacks()),
           rows_per_chunk=st.sampled_from([None, 1, 2, 5]))
    def test_equals_stacked_rates_bit_for_bit(self, stack, rows_per_chunk):
        coh, floor = stack
        G, L = coh.shape[:2]
        with pytest.MonkeyPatch.context() as patch:
            if rows_per_chunk is not None:  # split the stack into chunks
                patch.setattr(symrate, "STACK_BYTES", 64 * (L + 1) * L * rows_per_chunk)
            rates = symrate.stacked_rates_only(coh, floor)
            full = stacked_rates(coh, floor)
        assert rates.shape == full[0].shape == (len(SCHEMES), G, L)
        assert rates.tobytes() == full[0].tobytes()

    def test_forms_no_masks(self, monkeypatch):
        def fail(member, order):
            raise AssertionError("formed witness masks")

        monkeypatch.setattr(symrate, "_masks", fail)
        coh, floor = stack_of([(ring_state(np.random.default_rng(75), L=4), 0)])
        assert symrate.stacked_rates_only(coh, floor).shape == (len(SCHEMES), 1, 4)
        with pytest.raises(AssertionError, match="witness masks"):
            stacked_rates(coh, floor)

    @pytest.mark.parametrize("preset, axis, grid", [
        ("two-cell-scenario-a", "M", np.geomspace(1e3, 1e7, 25)),
        ("two-cell-scenario-b", "radius_x", np.linspace(130.0, 238.0, 25)),
        ("three-cell-theta", "theta", np.linspace(0.0, 172.0, 25))])
    def test_sweeps_form_no_masks(self, monkeypatch, preset, axis, grid):
        # a sweep reads rates only, so the mask step never runs
        def fail(member):
            raise AssertionError("formed witness masks")

        monkeypatch.setattr(symrate, "_masks", fail)
        result = sweep(preset_scenario(preset), axis, grid)
        assert len(result.rows) == len(grid)
        assert result.thresholds


class TestNetworkReport:
    def test_symmetric_layout_gives_equal_rates(self):
        state = preset_scenario("two-cell-scenario-a").state()
        for scheme in ("tin", "sd", "ssnd", "snd"):
            report = network_symmetric_rate(state, scheme)
            assert report.per_bs[0].rate == pytest.approx(report.per_bs[1].rate, rel=1e-13)
            assert report.network_rate == min(e.rate for e in report.per_bs)
            assert report.network_argmin == 0

    def test_witness_sets_reproduce_rates(self):
        rng = np.random.default_rng(66)
        for _ in range(40):
            state = random_state(rng, L=int(rng.integers(2, 6)))
            for scheme in ("tin", "sd", "ssnd", "snd"):
                report = network_symmetric_rate(state, scheme)
                for entry in report.per_bs:
                    again = direct_bound(state, entry.bs, 0, cells(entry.theta),
                                         cells(entry.omega)) / entry.theta.bit_count()
                    assert entry.rate == pytest.approx(again, rel=1e-12)

    def test_scheme_ordering_everywhere(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            state = random_state(rng, L=int(rng.integers(1, 6)))
            reports = {s: network_symmetric_rate(state, s) for s in
                       ("tin", "sd", "ssnd", "snd")}
            for j in range(state.L):
                r = {s: reports[s].per_bs[j].rate for s in reports}
                assert r["sd"] <= r["ssnd"] * (1 + 1e-12)
                assert r["ssnd"] <= r["snd"] * (1 + 1e-12)
                assert r["tin"] <= r["snd"] * (1 + 1e-12)

    def test_rates_increase_with_antennas(self):
        state = preset_scenario("two-cell-scenario-a").state()
        for scheme in ("sd", "ssnd", "snd"):
            rates = [network_symmetric_rate(state.with_m(m), scheme).network_rate
                     for m in (1e3, 1e4, 1e5, 1e6)]
            assert all(b > a for a, b in zip(rates, rates[1:]))
        tins = [network_symmetric_rate(state.with_m(m), "tin").network_rate
                for m in (1e3, 1e4, 1e5, 1e6)]
        assert all(b > a for a, b in zip(tins, tins[1:]))
        from mcmimo import tin_rate_asymptotic
        assert tins[-1] < tin_rate_asymptotic(state, 0, 0)

    def test_unknown_scheme_rejected(self):
        rng = np.random.default_rng(68)
        state = random_state(rng, L=2)
        with pytest.raises(ValueError, match="scheme"):
            network_symmetric_rate(state, "mrc")


def fresh(state):
    """The same channel state with an empty memo."""
    return ChannelState(params=state.params, beta=state.beta, stats=state.stats)


class TestRatesMemo:
    """A state solves its four schemes once per pilot; every per-scheme,
    per-BS and two-cell reader is a view of that solve."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []

        def counted(*args, _f=symrate.stacked_rates):
            calls.append(args)
            return _f(*args)

        monkeypatch.setattr(symrate, "stacked_rates", counted)
        return calls

    def test_one_solve_per_state_and_pilot(self, solves):
        state = preset_scenario("two-cell-scenario-a").state()
        for pilot in (1, 2):
            for scheme in SCHEMES:
                network_symmetric_rate(state, scheme, pilot)
            for j in range(state.L):
                for scheme in SCHEMES:
                    bs_symmetric_rate(state, scheme, j, pilot)
                tin_rate(state, j, pilot)
                tin_region(state, j, pilot)
                two_cell_ordering_check(state, j, pilot)
            assert len(solves) == pilot
        assert symmetric_rates(state, 1) is symmetric_rates(state, 1)
        assert len(solves) == 2

    def test_views_read_the_reports(self):
        state = ring_state(np.random.default_rng(80), L=5, K=2)
        reports = symmetric_rates(state, 1)
        assert tuple(reports) == SCHEMES
        for scheme in SCHEMES:
            assert network_symmetric_rate(state, scheme, 1) is reports[scheme]
            for j in range(state.L):
                assert bs_symmetric_rate(state, scheme, j, 1) is reports[scheme].per_bs[j]
        with pytest.raises(TypeError):
            reports["tin"] = reports["sd"]

    def test_with_m_starts_empty(self, solves):
        state = ring_state(np.random.default_rng(81), L=4)
        parent = symmetric_rates(state)
        child = state.with_m(2.0 * state.params.M)
        assert child._powers == {}
        reports = symmetric_rates(child)
        assert len(solves) == 2
        assert repr(reports) == repr(symmetric_rates(fresh(child)))
        assert all(reports[s].network_rate > parent[s].network_rate for s in SCHEMES)

    def test_overflow_stores_nothing_and_raises_on_every_call(self, solves):
        state = preset_scenario("two-cell-scenario-a").state().with_m(1e308)
        calls = [lambda: symmetric_rates(state, 0),
                 lambda: network_symmetric_rate(state, "snd", 0),
                 lambda: bs_symmetric_rate(state, "sd", 1, 0),
                 lambda: tin_rate(state, 0, 0)]
        for _ in range(2):
            for call in calls:
                with pytest.raises(ValueError, match="overflows"):
                    call()
        assert state._powers == {}
        assert solves == []

    def test_unknown_scheme_rejected_before_solving(self, solves):
        state = ring_state(np.random.default_rng(82), L=3)
        for call in (lambda: network_symmetric_rate(state, "mrc"),
                     lambda: bs_symmetric_rate(state, "mrc", 0, 0)):
            with pytest.raises(ValueError, match="unknown scheme 'mrc'"):
                call()
        assert state._powers == {}
        assert solves == []

    def test_threads_on_one_state_read_the_serial_reports(self):
        state = ring_state(np.random.default_rng(83), L=12, K=3)

        def reads(state):
            return [repr(network_symmetric_rate(state, scheme, i))
                    for i in range(state.K) for scheme in SCHEMES]

        want = reads(fresh(state))
        start = threading.Barrier(4)
        got = [None] * 4

        def work(t):
            start.wait(timeout=30)
            got[t] = reads(state)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [want] * 4
        assert reads(state) == want


@st.composite
def rings(draw, max_cells=64):
    """A ring state with 2..max_cells cells, 1..3 users per cell and M in
    1e2..1e6, and a pilot slot."""
    L = draw(st.integers(2, max_cells))
    K = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    state = ring_state(rng, L, K, M=10.0 ** draw(st.floats(2.0, 6.0)))
    return state, draw(st.integers(0, K - 1))


def networks(max_cells=64):
    """A ring with up to max_cells cells, or a state of 1..8 cells from a
    random fading tensor (:func:`~oracles.fading_states`), and a pilot slot."""
    return st.one_of(rings(max_cells), fading_states())


def reordered_rate_tol(K, L):
    """Relative distance that rounding alone allows between two states' rates
    when the model is equal but the sums run in another order: the floor's
    K L terms, the MMSE denominator's L terms and each subset sum's at most
    L.  A sum of n positive terms is within (n - 1) u of exact, u = eps / 2,
    and a rate keeps at most the relative error of its SINR x, since
    x / ((1 + x) log1p(x)) <= 1; the few divisions and products add 10 u.
    Both states err, so the bound counts eps per term."""
    return ((K + 2) * L + 10) * np.finfo(float).eps


def per_bs(state, i):
    return {s: report.per_bs for s, report in symmetric_rates(state, i).items()}


# K = 1 rings past the strategies' 64 cells, each with its pilot slot
_LARGE_RINGS = [(ring_state(np.random.default_rng(seed), L, K=1), 0)
                for L, seed in [(128, 92), (128, 93), (256, 94)]]


def large_ring_examples(test):
    """``test`` with one explicit example per ring of ``_LARGE_RINGS``."""
    for case in _LARGE_RINGS:
        test = example(case)(test)
    return test


class TestOracleFreeProperties:
    """Properties of the model that hold at any L, where the exhaustive
    oracles stop at L <= 8."""

    @settings(max_examples=40)
    @given(networks(), st.data())
    def test_relabelling_moves_rates_with_their_bs(self, case, data):
        state, i = case
        L = state.L
        perm = data.draw(st.permutations(range(L)))  # new cell a is old cell perm[a]
        moved = ChannelState.from_beta(state.beta[perm][:, :, perm], state.params)
        old, new = per_bs(state, i), per_bs(moved, i)
        coh = moved.params.M * moved.beta[:, i, :] * moved.stats.alpha[:, i, :]
        tol = reordered_rate_tol(state.K, L)
        for scheme in SCHEMES:
            for a in range(L):
                before, after = old[scheme][perm[a]], new[scheme][a]
                assert math.isclose(after.rate, before.rate, rel_tol=tol, abs_tol=0.0)
                if len(set(coh[a].tolist())) == L:
                    for mask in ("theta", "omega"):
                        mapped = mask_of(perm[b] for b in cells(getattr(after, mask)))
                        assert mapped == getattr(before, mask)

    @settings(max_examples=300)
    @given(random_stacks(), st.data())
    def test_relabelling_cells_permutes_rates_bit_for_bit(self, stack, data):
        # every sum adds its powers weakest first, so a rate depends on the
        # powers alone, not on which labels the cells carry, ties included
        coh, floor = stack
        L = coh.shape[1]
        perm = np.array(data.draw(st.permutations(range(L))), dtype=np.intp)
        moved = symrate.stacked_rates_only(coh[:, perm][:, :, perm], floor[:, perm])
        assert moved.tobytes() == symrate.stacked_rates_only(coh, floor)[:, :, perm].tobytes()

    @pytest.mark.parametrize("case", _LARGE_RINGS, ids=["L128-a", "L128-b", "L256"])
    def test_relabelling_large_rings_permutes_rates_bit_for_bit(self, case):
        state, i = case
        coh, floor = state_powers(state, i)
        perm = np.random.default_rng(state.L).permutation(state.L)
        moved = symrate.stacked_rates_only(coh[perm][:, perm][None], floor[perm][None])
        rates = symrate.stacked_rates_only(coh[None], floor[None])
        assert moved.tobytes() == rates[:, :, perm].tobytes()

    @settings(max_examples=25)
    @given(networks(max_cells=8), st.data())
    def test_relabelling_maps_region_columns(self, case, data):
        # every region holds all its (omega, theta) pairs, ties or not, so
        # the columns map exactly; only the bounds' sums reorder
        state, i = case
        L = state.L
        perm = data.draw(st.permutations(range(L)))  # new cell a is old cell perm[a]
        moved = ChannelState.from_beta(state.beta[perm][:, :, perm], state.params)
        tol = reordered_rate_tol(state.K, L)

        def constraints(region, relabel=False):
            """(omega, theta) of every constraint as one key, and its
            bound, both sorted by key."""
            omega = np.repeat(region.omega, np.diff(region.offsets))
            theta = region.theta
            if relabel:
                omega, theta = (sum((m >> b & 1) << perm[b] for b in range(L))
                                for m in (omega, theta))
            key = omega << L | theta
            order = np.argsort(key)
            return key[order], region.bound[order]

        for build in (tin_region, sd_region, ssnd_region, snd_region):
            for a in range(L):
                want_key, want = constraints(build(state, perm[a], i))
                got_key, got = constraints(build(moved, a, i), relabel=True)
                assert np.array_equal(got_key, want_key)
                assert np.all(np.abs(got - want) <= tol * np.maximum(got, want))

    @settings(max_examples=30)
    @given(networks())
    @example((ring_state(np.random.default_rng(90), 64, K=1), 0))  # masks past int64
    @large_ring_examples
    def test_rates_do_not_fall_as_m_or_rho_u_grows(self, case):
        state, i = case
        p = state.params
        old = per_bs(state, i)
        for grown in (state.with_m(1.5 * p.M),
                      ChannelState.from_beta(state.beta, replace(p, rho_u=1.5 * p.rho_u))):
            new = per_bs(grown, i)
            for scheme in SCHEMES:
                for before, after in zip(old[scheme], new[scheme]):
                    assert after.rate >= before.rate

    @settings(max_examples=60, deadline=None)
    @given(fading_states())
    def test_rates_are_finite_and_rise_with_m_up_to_1e300(self, case):
        # on a log grid from M = 1 to 1e300, or up to the M whose coherent
        # powers overflow and are refused.  Where a rate has reached its
        # limit (TIN's, say) the sums' roundings may take a few ulps off it:
        # up to 5 on 900 random tensors
        state, i = case
        last = None
        for M in 10.0 ** np.arange(0, 301, 5):
            try:
                reports = symmetric_rates(state.with_m(float(M)), i)
            except ValueError as err:
                assert "overflows" in str(err)
                break
            rates = [[bs.rate for bs in reports[scheme].per_bs] for scheme in SCHEMES]
            assert all(math.isfinite(r) for row in rates for r in row)
            if last is not None:
                for row, last_row in zip(rates, last):
                    for r, before in zip(row, last_row):
                        assert r >= before - 8 * math.ulp(before), M
            last = rates

    @settings(max_examples=30)
    @given(networks(max_cells=63))
    @example((ring_state(np.random.default_rng(91), 63, K=1), 0))
    @large_ring_examples
    def test_negligible_extra_cell_leaves_tin_and_snd(self, case):
        state, i = case
        L, K = state.L, state.K
        beta = np.full((L + 1, K, L + 1), 1e-30)
        beta[:L, :, :L] = state.beta
        beta[L, :, L] = state.beta[0, :, 0]
        p = state.params
        grown = ChannelState.from_beta(beta, replace(p, L=L + 1))
        old, new = per_bs(state, i), per_bs(grown, i)
        # the tiny gains move no sum beyond rounding, but they shift where
        # the floor's and MMSE denominator's terms fall, so the sums reorder
        tol = reordered_rate_tol(K, L + 1)
        for scheme in ("tin", "snd"):
            for before, after in zip(old[scheme], new[scheme]):
                assert math.isclose(after.rate, before.rate, rel_tol=tol, abs_tol=0.0)
        # SD must decode the new user, which the old BSs barely receive
        for before, after in zip(old["sd"], new["sd"]):
            assert after.rate < 1e-9 * before.rate

    @settings(max_examples=40)
    @given(st.integers(2, 12), st.integers(0, 2 ** 32 - 1), st.integers(0, 1))
    def test_large_m_tin_is_bounded_and_ssnd_grows_as_log_m_over_l(self, L, seed, i):
        # the paper's large-M claims at M = 1e40: TIN sits at its limit
        # C(beta_jj^2 / sum_{l != j} beta_jl^2), and S-SND binds at the set
        # of every cell, so its rate grows as log2(M) / L, 2 bits per 4^L
        state = ring_state(np.random.default_rng(seed), L, M=1e40)
        rates, grown = per_bs(state, i), per_bs(state.with_m(4.0 ** L * 1e40), i)
        for j in range(L):
            assert abs(rates["tin"][j].rate - tin_rate_asymptotic(state, j, i)) <= 1e-14
            assert abs(grown["ssnd"][j].rate - rates["ssnd"][j].rate - 2.0) <= 1e-13

    @settings(max_examples=60)
    @given(fading_states(min_cells=2))
    def test_large_m_tin_is_its_limit_on_random_tensors(self, case):
        # the TIN half of the test above on random fading tensors, to a few
        # ulps of the rate; S-SND's slope is left to the rings, as on
        # random tensors it starts at an M that depends on the power ratios
        state, i = case
        state = state.with_m(1e40)
        for j, bs in enumerate(per_bs(state, i)["tin"]):
            assert abs(bs.rate - tin_rate_asymptotic(state, j, i)) <= 4 * math.ulp(bs.rate)


def test_snd_rejects_negative_bs_index():
    state = random_state(np.random.default_rng(70), L=2, K=2)
    with pytest.raises(ValueError, match="out of range"):
        bs_symmetric_rate(state, "snd", -1, 0)


@pytest.mark.parametrize("j, i", [(-1, 0), (3, 0), (0, -1), (0, 2)])
def test_solvers_reject_out_of_range_indices(j, i):
    state = random_state(np.random.default_rng(71), L=3, K=2)
    solvers = [tin_rate, low_sinr_decode_set] + [
        lambda state, j, i, scheme=scheme: bs_symmetric_rate(state, scheme, j, i)
        for scheme in SCHEMES]
    for solver in solvers:
        with pytest.raises(ValueError, match="out of range"):
            solver(state, j, i)


def test_indices_must_be_integers():
    # numpy reads True as a mask and refuses 1.0 with its own message; a
    # one-cell network's size-1 axis would even take True as a new axis
    state = preset_scenario("two-cell-scenario-a").state()
    one_cell = random_state(np.random.default_rng(72), L=1, K=1)
    calls = [
        (lambda: tin_rate(state, True, 0), "BS index must be an integer, got True"),
        (lambda: bs_symmetric_rate(state, "snd", True, 0),
         "BS index must be an integer, got True"),
        (lambda: sd_region(state, True, 0), "BS index must be an integer, got True"),
        (lambda: tin_rate(state, 1.0, 0), "BS index must be an integer, got 1.0"),
        (lambda: tin_rate(state, 0, True), "pilot index must be an integer, got True"),
        (lambda: tin_rate(one_cell, True, 0), "BS index must be an integer, got True"),
    ]
    for call, message in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
    j, i = np.int64(1), np.int64(0)
    assert tin_rate(state, j, i) == tin_rate(state, 1, 0)
    assert bs_symmetric_rate(state, "snd", j, i) == bs_symmetric_rate(state, "snd", 1, 0)
    assert np.array_equal(sd_region(state, j, i).bound, sd_region(state, 1, 0).bound)
