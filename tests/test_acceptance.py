"""Acceptance criteria for the whole package, one test per criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
live).  Tolerances and runtime budgets are fixed here and not configurable.
"""

import time

import numpy as np
import pytest

from mcmimo import (ChannelState, SystemParams, max_symmetric_rate,
                    mu_coefficient, network_symmetric_rate, power_terms,
                    preset_scenario, sweep, tin_rate,
                    tin_rate_asymptotic, two_cell_layout)
from mcmimo.montecarlo import empirical_power_decomposition
from mcmimo.symrate import bs_symmetric_rate, low_sinr_decode_set

from oracles import (Polytope, brute_force_sd, brute_force_ssnd, diagonal_rate_bisection,
                     direct_bound, random_state, region_of, restricted_average_argmin)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def crossing(result, name: str, before: str, after: str):
    hits = [c for c in result.thresholds
            if c.name == name and c.before == before and c.after == after]
    assert len(hits) == 1, f"expected one {name} {before}->{after} crossing, got {hits}"
    return hits[0].value


def test_criterion_01_two_cell_antenna_threshold():
    start = time.perf_counter()
    scenario = preset_scenario("two-cell-scenario-a")
    result = sweep(scenario, "M", np.geomspace(1e4, 1e5, 5))
    m_star = crossing(result, "case", "case_i", "case_ii")
    elapsed = time.perf_counter() - start
    ok = 3.6e4 <= m_star <= 4.4e4 and elapsed < 1.0
    report(1, ok, f"M* = {m_star:.0f} in [3.6e4, 4.4e4], {elapsed:.2f}s < 1s")


def test_criterion_02_two_cell_radius_threshold():
    start = time.perf_counter()
    scenario = preset_scenario("two-cell-scenario-b")
    result = sweep(scenario, "radius_x", np.linspace(200.0, 250.0, 6))
    x_star = crossing(result, "case", "case_i", "case_ii")
    elapsed = time.perf_counter() - start
    ok = 230.0 <= x_star <= 236.0 and elapsed < 1.0
    report(2, ok, f"x* = {x_star:.1f} m in [230, 236], {elapsed:.2f}s < 1s")


def test_criterion_03_three_cell_windows():
    start = time.perf_counter()
    scenario = preset_scenario("three-cell-theta")
    result = sweep(scenario, "M", np.geomspace(1e4, 1e6, 9))
    opens = crossing(result, "tin-snd", "=", "<")      # SND leaves TIN
    closes = crossing(result, "sd-ssnd", "<", "=")     # SD catches S-SND
    sd_tin = crossing(result, "tin-sd", ">", "<")      # SD overtakes TIN
    elapsed = time.perf_counter() - start
    ok = (abs(opens - 1.1e5) <= 0.1 * 1.1e5 and
          abs(closes - 5e5) <= 0.1 * 5e5 and
          abs(sd_tin - 1.85e5) <= 0.1 * 1.85e5 and
          elapsed < 5.0)
    report(3, ok, f"window [{opens:.3g}, {closes:.3g}] vs [1.1e5, 5e5] +-10%, "
                  f"SD>TIN at {sd_tin:.3g} vs 1.85e5 +-10%, {elapsed:.2f}s < 5s")


def test_criterion_04_fast_paths_equal_exhaustive_enumeration():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(1000):
        state = random_state(rng, L=int(rng.integers(1, 9)), K=int(rng.integers(1, 5)))
        j = int(rng.integers(state.L))
        i = int(rng.integers(state.K))
        fast_sd = bs_symmetric_rate(state, "sd", j, i).rate
        slow_sd, _ = brute_force_sd(state, j, i)
        fast_ss = bs_symmetric_rate(state, "ssnd", j, i).rate
        slow_ss, _ = brute_force_ssnd(state, j, i)
        worst = max(worst, abs(fast_sd - slow_sd) / slow_sd,
                    abs(fast_ss - slow_ss) / slow_ss)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 10.0
    report(4, ok, f"worst relative gap {worst:.2e} < 1e-12 over 1000 instances, "
                  f"{elapsed:.2f}s < 10s")


def test_criterion_05_scheme_ordering_everywhere():
    rng = np.random.default_rng(105)
    slack = 1.0 - 1e-12  # inequalities across differing float paths
    exact_checked = 0
    for _ in range(1000):
        state = random_state(rng, L=int(rng.integers(1, 7)))
        for j in range(state.L):
            r_tin = tin_rate(state, j, 0)
            r_sd, r_ssnd, r_snd = (bs_symmetric_rate(state, s, j, 0).rate
                                   for s in ("sd", "ssnd", "snd"))
            assert r_sd >= 0 and r_tin >= 0
            assert r_sd <= r_ssnd / slack
            assert r_ssnd <= r_snd / slack
            assert r_tin <= r_snd / slack
            if state.L == 2:
                assert r_snd == max(r_tin, r_ssnd)  # union identity, exact
                exact_checked += 1
    report(5, True, f"orderings held at every BS of 1000 instances; "
                    f"{exact_checked} exact two-cell union identities")


def test_criterion_06_high_snr_schemes_collapse_to_equal_split():
    state = preset_scenario("two-cell-scenario-a").state().with_m(1e9)
    equal_split = direct_bound(state, 0, 0, {0, 1}, {0, 1}) / 2.0
    rates = {s: network_symmetric_rate(state, s).network_rate
             for s in ("tin", "sd", "ssnd", "snd")}
    gaps = {s: abs(rates[s] - equal_split) / rates[s] for s in ("sd", "ssnd", "snd")}
    ok = all(g < 1e-2 for g in gaps.values()) and rates["tin"] < rates["sd"]
    report(6, ok, f"max relative gap to sum-rate/L: {max(gaps.values()):.2e} < 1e-2, "
                  f"TIN {rates['tin']:.2f} < SD {rates['sd']:.2f}")


def test_criterion_07_tin_rate_reaches_its_asymptote():
    state = preset_scenario("two-cell-scenario-a").state().with_m(1e9)
    finite = tin_rate(state, 0, 0)
    limit = tin_rate_asymptotic(state, 0, 0)
    gap = abs(finite - limit) / limit
    ok = gap < 0.01
    report(7, ok, f"TIN at M=1e9: {finite:.6f} vs asymptote {limit:.6f}, "
                  f"relative gap {gap:.2e} < 1e-2")


def test_criterion_08_monte_carlo_matches_analytic_decomposition():
    start = time.perf_counter()
    params = SystemParams(L=2, K=2, M=64.0, rho_u=30.0, rho_p=120.0)
    layout = two_cell_layout(400.0, 800.0, users_per_cell=2)
    state = ChannelState.from_layout(layout, params)
    omega = (0, 1)

    emp64 = empirical_power_decomposition(state, 0, 0, omega, trials=10000, seed=8)
    ana64 = power_terms(state, 0, 0, omega)
    rels = [abs(e - a) / a for e, a in zip(emp64.as_tuple(), ana64.as_tuple())]

    state128 = state.with_m(128.0)
    emp128 = empirical_power_decomposition(state128, 0, 0, omega, trials=10000, seed=9)
    ratios = [e128 / e64 for e128, e64 in zip(emp128.as_tuple(), emp64.as_tuple())]
    elapsed = time.perf_counter() - start

    ok = (all(r < 0.05 for r in rels) and
          abs(ratios[0] - 4.0) <= 0.4 and
          all(abs(r - 2.0) <= 0.2 for r in ratios[1:]) and
          elapsed < 30.0)
    report(8, ok, f"worst term error {max(rels):.3f} < 0.05, doubling ratios "
                  f"{[f'{r:.2f}' for r in ratios]} vs [4,2,2,2] +-10%, "
                  f"{elapsed:.1f}s < 30s")


def test_criterion_09_polytope_rate_matches_diagonal_bisection():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(100):
        L = int(rng.integers(1, 7))
        n_cons = int(rng.integers(1, 2 ** L))
        masks = rng.choice(np.arange(1, 2 ** L), size=n_cons, replace=False)
        cons = tuple((int(m), float(rng.uniform(0.05, 8.0))) for m in masks)
        poly = Polytope(L, cons)
        rate, _ = max_symmetric_rate(region_of(L, [poly.constraints]))
        oracle = diagonal_rate_bisection(poly, L, hi=16.0)
        worst = max(worst, abs(rate - oracle) / max(oracle, 1e-30))
    ok = worst < 1e-6
    report(9, ok, f"worst relative gap to membership bisection {worst:.2e} < 1e-6 "
                  f"over 100 random polytopes")


def test_criterion_10_low_snr_structure():
    rng = np.random.default_rng(110)
    checked = 0
    for _ in range(300):
        L = int(rng.integers(2, 8))
        beta = 10.0 ** rng.uniform(-4.0, -2.0, size=(L, 1, L))
        for j in range(L):
            beta[j, 0, j] = beta[j, 0].max() * rng.uniform(1.5, 3.0)
        params = SystemParams(L=L, K=1, M=1.0, rho_u=0.05, rho_p=0.05)
        state = ChannelState.from_beta(beta, params)
        j = int(rng.integers(L))
        b2 = state.beta[j, 0, :] ** 2
        if mu_coefficient(state, j, 0) * b2.sum() >= 1e-3:
            continue
        assert len(set(b2)) == L, "constructed gains must be distinct"
        assert b2[j] > b2.min()
        r_sd = bs_symmetric_rate(state, "sd", j, 0).rate
        r_ssnd = bs_symmetric_rate(state, "ssnd", j, 0).rate
        assert r_ssnd > r_sd, "non-unique decoding must win strictly at low SINR"
        greedy = low_sinr_decode_set(state, j, 0)
        exhaustive = restricted_average_argmin(b2, j)
        assert greedy == exhaustive
        checked += 1
    ok = checked >= 250
    report(10, ok, f"{checked} low-SINR instances: S-SND > SD strictly and the "
                   f"greedy decoded set equals the exhaustive restricted argmin")
