import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmimo import (SCHEMES, classify_two_cell, network_symmetric_rate, preset_scenario,
                    scenarios, sweep, two_cell_ordering_check)
from mcmimo.scenarios import MAX_GRID_POINTS, REL_TOL, Scenario
from mcmimo import (CellLayout, ChannelState, SystemParams, build_fading, three_cell_layout,
                    two_cell_layout)
from mcmimo.network import fading_stack, layout_stack

from oracles import (case_threshold_m, direct_bound, ring_layout, ring_params, scalar_layouts,
                     sequential_sweep, tree_schedule_calls)


class TestPresets:
    def test_scenario_a_parameters(self):
        sc = preset_scenario("two-cell-scenario-a")
        p = sc.params
        assert (p.L, p.K) == (2, 4)
        assert (p.rho_u, p.rho_p) == (30.0, 120.0)
        assert (p.alpha_pl, p.d0) == (2.0, 100.0)
        layout = sc.layout()
        assert np.linalg.norm(layout.bs[1] - layout.bs[0]) == pytest.approx(800.0)
        own = np.linalg.norm(layout.users[0, 0] - layout.bs[0])
        cross = np.linalg.norm(layout.users[0, 0] - layout.bs[1])
        assert own == pytest.approx(400.0)
        assert cross == pytest.approx(1200.0)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            preset_scenario("five-cell")

    def test_axis_replacement(self):
        sc = preset_scenario("two-cell-scenario-b")
        assert sc.with_axis("M", 123.0).params.M == 123.0
        moved = sc.with_axis("radius_x", 210.0)
        assert dict(moved.layout_args)["x"] == 210.0
        with pytest.raises(ValueError, match="theta"):
            sc.with_axis("theta", 45.0)
        with pytest.raises(ValueError, match="axis"):
            sc.with_axis("K", 3.0)

    def test_explicit_scenario_supports_only_antenna_axis(self):
        base = preset_scenario("two-cell-scenario-a")
        explicit = Scenario.from_layout(base.layout(), base.params)
        assert explicit.with_axis("M", 55.0).params.M == 55.0
        with pytest.raises(ValueError, match="canonical"):
            explicit.with_axis("radius_x", 300.0)
        np.testing.assert_allclose(explicit.state().beta, base.state().beta)


class TestClassification:
    def test_case_transition_with_antennas(self):
        sc = preset_scenario("two-cell-scenario-a")
        assert classify_two_cell(sc.with_axis("M", 1e4).state()).label == "case_i"
        assert classify_two_cell(sc.with_axis("M", 1e5).state()).label == "case_ii"

    def test_both_bss_agree_in_symmetric_layout(self):
        state = preset_scenario("two-cell-scenario-a").state()
        assert classify_two_cell(state, 0).label == classify_two_cell(state, 1).label

    def test_requires_two_cells(self):
        state = preset_scenario("three-cell-theta").state()
        with pytest.raises(ValueError, match="L=2"):
            classify_two_cell(state)

    def test_reversed_association_rejected(self):
        # cross user received far more strongly than the own user
        beta = np.array([[[0.01, 0.9]], [[0.9, 0.01]]])
        params = SystemParams(L=2, K=1, M=1e4, rho_u=30.0, rho_p=120.0)
        state = ChannelState.from_beta(beta, params)
        with pytest.raises(ValueError, match="nearest-BS"):
            classify_two_cell(state)


class TestOrderingCheck:
    def test_case_i_ordering(self):
        state = preset_scenario("two-cell-scenario-a").with_axis("M", 1e4).state()
        chk = two_cell_ordering_check(state)
        assert chk.case == "case_i"
        assert chk.passed
        r = chk.rates
        assert r["sd"] < r["ssnd"] < r["snd"]
        assert r["snd"] == pytest.approx(r["tin"], rel=1e-14)

    def test_every_grid_point_of_antenna_sweep_passes(self):
        sc = preset_scenario("two-cell-scenario-a")
        for m in np.geomspace(1e3, 1e7, 9):
            chk = two_cell_ordering_check(sc.with_axis("M", m).state())
            assert chk.passed, f"ordering check failed at M={m:g}: {chk}"

    @pytest.mark.parametrize("preset", ["two-cell-scenario-a", "two-cell-scenario-b"])
    def test_rates_equal_single_scheme_solves(self, preset):
        # one stacked call for all four schemes gives each scheme's own rate
        sc = preset_scenario(preset)
        for m in np.geomspace(1e2, 1e7, 16):
            state = sc.with_axis("M", m).state()
            for j in range(2):
                got = two_cell_ordering_check(state, j).rates
                want = {s: network_symmetric_rate(state, s).per_bs[j].rate for s in SCHEMES}
                assert {s: r.hex() for s, r in got.items()} == \
                    {s: r.hex() for s, r in want.items()}

    def test_case_ii_ordering_and_half_sum_value(self):
        state = preset_scenario("two-cell-scenario-a").with_axis("M", 1e5).state()
        chk = two_cell_ordering_check(state)
        assert chk.case == "case_ii"
        assert chk.passed
        half_sum = 0.5 * direct_bound(state, 0, 0, {0, 1}, {0, 1})
        for scheme in ("sd", "ssnd", "snd"):
            assert chk.rates[scheme] == pytest.approx(half_sum, rel=1e-12)
        assert chk.rates["tin"] <= chk.rates["sd"]


class TestSweep:
    def test_case_crossover_location(self):
        sc = preset_scenario("two-cell-scenario-a")
        grid = np.geomspace(1e3, 1e6, 13)
        result = sweep(sc, "M", grid)
        cases = [c for c in result.thresholds if c.name == "case"]
        assert len(cases) == 1
        assert cases[0].before == "case_i" and cases[0].after == "case_ii"
        assert 3.6e4 <= cases[0].value <= 4.4e4

    def test_monotone_case_labels(self):
        sc = preset_scenario("two-cell-scenario-a")
        result = sweep(sc, "M", np.geomspace(1e3, 1e7, 30))
        labels = [row.case for row in result.rows]
        assert labels == sorted(labels)  # case_i before case_ii, one switch

    def test_radius_crossover_scenario_b(self):
        sc = preset_scenario("two-cell-scenario-b")
        result = sweep(sc, "radius_x", np.linspace(200.0, 250.0, 11))
        cases = [c for c in result.thresholds if c.name == "case"]
        assert len(cases) == 1
        assert 230.0 <= cases[0].value <= 236.0

    def test_theta_symmetry(self):
        sc = preset_scenario("three-cell-theta").with_axis("M", 1e3)
        for theta in (40.0, 75.0, 130.0):
            a = sc.with_axis("theta", theta).state()
            b = sc.with_axis("theta", 360.0 - theta).state()
            for scheme in ("tin", "sd", "ssnd", "snd"):
                ra = network_symmetric_rate(a, scheme).network_rate
                rb = network_symmetric_rate(b, scheme).network_rate
                assert ra == pytest.approx(rb, rel=1e-13)

    def test_theta_sweep_three_regimes(self):
        # at 1e3 antennas the non-unique gain vanishes only in an interior
        # angle window around 90 degrees
        sc = preset_scenario("three-cell-theta").with_axis("M", 1e3)
        grid = np.linspace(0.0, 180.0, 19)
        result = sweep(sc, "theta", grid)
        gaps = np.array([row.rates["snd"] - row.rates["tin"] for row in result.rows])
        strict = gaps > 1e-9
        # pattern: strict, ..., strict, flat, ..., flat, strict, ..., strict
        first_flat = int(np.argmin(strict))
        last_flat = len(strict) - 1 - int(np.argmin(strict[::-1]))
        assert 0 < first_flat <= last_flat < len(strict) - 1
        assert not strict[first_flat:last_flat + 1].any()
        assert strict[:first_flat].all() and strict[last_flat + 1:].all()

    def test_rows_carry_all_rates(self):
        sc = preset_scenario("two-cell-scenario-a")
        result = sweep(sc, "M", [1e3, 1e4])
        assert len(result.rows) == 2
        for row in result.rows:
            assert set(row.rates) == {"tin", "sd", "ssnd", "snd"}
            assert row.case in ("case_i", "case_ii")

    def test_bad_grid_rejected(self):
        sc = preset_scenario("two-cell-scenario-a")
        with pytest.raises(ValueError, match="axis"):
            sweep(sc, "Q", [1.0, 2.0])
        with pytest.raises(ValueError, match="nonempty"):
            sweep(sc, "M", [])
        with pytest.raises(ValueError, match="increasing"):
            sweep(sc, "M", [2.0, 1.0])

    def test_grid_point_limit(self, monkeypatch):
        # an endless grid is cut at MAX_GRID_POINTS + 1 values and rejected
        # before anything is evaluated
        def fail(*args):
            raise AssertionError("evaluated an over-long grid")

        monkeypatch.setattr(scenarios, "_stack_powers", fail)
        sc = preset_scenario("two-cell-scenario-a")
        with pytest.raises(ValueError, match=f"more than {MAX_GRID_POINTS} points"):
            sweep(sc, "M", itertools.count(1.0))
        with pytest.raises(ValueError, match=f"more than {MAX_GRID_POINTS} points"):
            sweep(sc, "M", range(1, MAX_GRID_POINTS + 2))

    def test_non_positive_antenna_count_rejected(self):
        # an M sweep builds one state, so the per-value check stays its own
        sc = preset_scenario("two-cell-scenario-a")
        with pytest.raises(ValueError, match="M must be positive, got 0.0"):
            sweep(sc, "M", [0.0, 1e3])

    def test_non_finite_antenna_count_rejected(self):
        # an infinite M gave nan rates and thresholds at inf
        sc = preset_scenario("two-cell-scenario-a")
        with pytest.raises(ValueError, match="grid entry must be finite, got inf"):
            sweep(sc, "M", [1e3, np.inf])
        with pytest.raises(ValueError, match="M must be finite, got inf"):
            sc.with_axis("M", np.inf)

    @pytest.mark.parametrize("preset, axis", [
        ("two-cell-scenario-a", "M"), ("two-cell-scenario-b", "radius_x"),
        ("three-cell-theta", "theta")])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_grid_entry_rejected_before_evaluation(self, monkeypatch, preset,
                                                              axis, value):
        # a NaN passed the increasing check and each axis then refused it
        # with its own message ("M must be positive, got nan", ...)
        def fail(*args):
            raise AssertionError("evaluated a grid with a non-finite entry")

        monkeypatch.setattr(scenarios, "_stack_powers", fail)
        grid = [1.0, 2.0, value] if value > 0 else [value, 1.0, 2.0]
        with pytest.raises(ValueError) as exc:
            sweep(preset_scenario(preset), axis, grid)
        assert str(exc.value) == f"grid entry must be finite, got {float(value)!r}"


M_GRID = np.geomspace(1e3, 1e7, 25)  # the CLI grid 1e3:1e7:25:log


class TestCaseThresholdOracle:
    @pytest.mark.parametrize("preset, radius", [
        ("two-cell-scenario-a", 360.0), ("two-cell-scenario-a", 400.0),
        ("two-cell-scenario-a", 440.0), ("two-cell-scenario-b", 205.0),
        ("two-cell-scenario-b", 225.0), ("two-cell-scenario-b", 245.0)])
    def test_thresholds_in_the_case_bracket_match_closed_form(self, preset, radius):
        sc = preset_scenario(preset).with_axis("radius_x", radius)
        m_star = case_threshold_m(sc.state(), 0, 0)
        result = sweep(sc, "M", M_GRID)
        (case,) = [c for c in result.thresholds if c.name == "case"]
        k = int(np.searchsorted(M_GRID, case.value))
        in_bracket = [c for c in result.thresholds if M_GRID[k - 1] < c.value < M_GRID[k]]
        assert len(in_bracket) > 1  # the scheme orderings flip with the case
        for c in in_bracket:
            assert c.rel_tol == REL_TOL
            assert abs(c.value - m_star) <= REL_TOL * m_star, c


class TestSweepEvaluations:
    @pytest.fixture
    def evaluated(self, monkeypatch):
        """Axis values handed to the stacked state builder."""
        values = []
        stack_powers = scenarios._stack_powers

        def counted(scenario, axis, chunk, pilot, base):
            values.extend(chunk)
            return stack_powers(scenario, axis, chunk, pilot, base)

        monkeypatch.setattr(scenarios, "_stack_powers", counted)
        return values

    @pytest.fixture
    def stacks(self, monkeypatch):
        """The number of axis values of every stacked evaluation."""
        sizes = []
        evaluate = scenarios._evaluate

        def counted(scenario, axis, values, pilot, base):
            sizes.append(len(values))
            return evaluate(scenario, axis, values, pilot, base)

        monkeypatch.setattr(scenarios, "_evaluate", counted)
        return sizes

    @pytest.fixture
    def states(self, monkeypatch):
        """Antenna counts of every channel state built by ``from_layout``."""
        built = []
        from_layout = ChannelState.from_layout.__func__

        def counted(cls, layout, params):
            built.append(params.M)
            return from_layout(cls, layout, params)

        monkeypatch.setattr(ChannelState, "from_layout", classmethod(counted))
        return built

    @pytest.mark.parametrize("preset, axis, grid", [
        ("two-cell-scenario-a", "M", M_GRID),
        ("two-cell-scenario-b", "radius_x", np.linspace(200.0, 250.0, 11)),
        ("three-cell-theta", "theta", np.linspace(0.0, 180.0, 19))])
    def test_no_axis_value_built_twice(self, evaluated, preset, axis, grid):
        result = sweep(preset_scenario(preset), axis, grid)
        assert result.thresholds
        assert len(evaluated) > len(grid)
        assert len(set(evaluated)) == len(evaluated)

    def test_antenna_sweep_refines_the_shared_bracket_once(self, evaluated, stacks,
                                                            states):
        # 25 grid points, then the one bracket where all seven indicators
        # flip: one call holds its 4-level tree (15 <= 25 values) and the
        # predicted bisection path of each indicator, and resolves all seven
        # over their 9 levels.  The tree alone took [25, 15, 15, 1] and 56
        # values; refining each indicator on its own built 88 values.  Every
        # value shares the one channel state of the scenario.
        result = sweep(preset_scenario("two-cell-scenario-a"), "M", M_GRID)
        assert len(result.thresholds) == 7
        assert stacks == [25, 28]
        assert len(evaluated) == 53
        assert len(states) == 1

    @pytest.mark.parametrize("preset, axis, grid", [
        ("two-cell-scenario-a", "M", M_GRID),
        ("two-cell-scenario-a", "M", [1e3, 2e3, 3e4, 5e4, 6e4, 1e7]),
        ("two-cell-scenario-b", "radius_x", np.linspace(200.0, 250.0, 11)),
        ("two-cell-scenario-b", "radius_x", [150.0, 231.0, 236.0, 249.0]),
        ("three-cell-theta", "theta", np.linspace(0.0, 180.0, 19)),
        ("three-cell-theta", "theta", [0.0, 20.0, 30.0, 100.0, 170.0])])
    def test_refinement_calls_stack_the_tree_and_one_path_per_bracket(self, stacks, preset,
                                                                      axis, grid):
        # a call holds trees of at most len(grid) nodes together and one
        # predicted path per open bracket, of at most `depth` midpoints
        result = sweep(preset_scenario(preset), axis, grid)
        assert result.thresholds
        assert stacks[0] == len(grid)
        assert len(stacks) > 1
        depth = max(_bisection_depth(lo, hi) for lo, hi in zip(grid, grid[1:]))
        assert max(stacks[1:]) <= len(grid) + len(result.thresholds) * depth

    @pytest.mark.parametrize("preset, axis, grid, want", [
        ("two-cell-scenario-a", "M", [1e4, 1e5], [2, 30, 11]),
        ("two-cell-scenario-b", "radius_x", [200.0, 250.0], [2, 21, 1])])
    def test_two_point_grid_follows_the_predicted_paths(self, stacks, preset, axis, grid,
                                                        want):
        # 1 * (2^d - 1) <= 2 only for d = 1, so the tree alone takes one
        # midpoint per call, `levels` calls for the case bracket; the
        # predicted paths of the seven brackets resolve them in two calls
        result = sweep(preset_scenario(preset), axis, grid)
        (case,) = [c for c in result.thresholds if c.name == "case"]
        lo, hi = grid
        levels = 0
        while hi - lo > REL_TOL * max(abs(lo), abs(hi)):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if case.value > mid else (lo, mid)
            levels += 1
        assert levels > 2
        assert stacks == want


def _bisection_depth(lo: float, hi: float) -> int:
    """The most bisection steps from [lo, hi], 0 <= lo, to REL_TOL relative
    width: those of the path that keeps the lower half, where the upper end
    is least."""
    depth = 0
    while hi - lo > REL_TOL * max(abs(lo), abs(hi)):
        hi = 0.5 * (lo + hi)
        depth += 1
    return depth


class TestStackBudget:
    def test_large_antenna_sweep_stays_under_budget(self):
        # a 12-cell ring at MAX_GRID_POINTS antenna counts: one value holds
        # about 150 kB of kernel arrays, so the whole grid would hold 1.5 GB
        L = 12
        sc = Scenario.from_layout(ring_layout(np.random.default_rng(12), L), ring_params(L))
        grid = np.geomspace(1e2, 1e7, MAX_GRID_POINTS).tolist()
        tracemalloc.start()
        try:
            result = sweep(sc, "M", grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.rows) == MAX_GRID_POINTS
        assert peak < 1.25 * scenarios.STACK_BYTES

    def test_chunks_change_no_bit(self, monkeypatch):
        sc = preset_scenario("three-cell-theta")
        grid = np.linspace(0.0, 180.0, 19)
        whole = sweep(sc, "theta", grid)
        monkeypatch.setattr(scenarios, "STACK_BYTES", 1)
        assert sweep(sc, "theta", grid) == whole


def _sweep_grid(values, size):
    """``size`` distinct ``values`` in increasing order: a non-uniform grid."""
    return st.lists(values, min_size=size, max_size=size, unique=True).map(sorted).filter(
        lambda grid: all(b > a for a, b in zip(grid, grid[1:])))


_ANTENNAS = st.floats(3.0, 7.0).map(lambda e: 10.0 ** e)

# (preset, swept axis, grid values, the moves that perturb the preset)
_PERTURBED = [
    ("two-cell-scenario-a", "M", _ANTENNAS, [("radius_x", st.floats(300.0, 460.0))]),
    ("two-cell-scenario-b", "M", _ANTENNAS, [("radius_x", st.floats(180.0, 250.0))]),
    ("three-cell-theta", "M", _ANTENNAS, [("theta", st.floats(60.0, 120.0))]),
    ("two-cell-scenario-a", "radius_x", st.floats(100.0, 420.0),
     [("M", st.floats(4.5, 5.5).map(lambda e: 10.0 ** e))]),
    ("two-cell-scenario-b", "radius_x", st.floats(120.0, 250.0),
     [("M", st.floats(4.5, 5.2).map(lambda e: 10.0 ** e))]),
    ("three-cell-theta", "theta", st.floats(0.0, 180.0),
     [("M", st.floats(3.5, 4.5).map(lambda e: 10.0 ** e))]),
]


@st.composite
def perturbed_sweeps(draw):
    preset, axis, values, moves = draw(st.sampled_from(_PERTURBED))
    scenario = preset_scenario(preset)
    for move_axis, value in moves:
        scenario = scenario.with_axis(move_axis, draw(value))
    size = draw(st.sampled_from([2, 3, 5, 8]))
    return scenario, axis, draw(_sweep_grid(values, size))


class TestSweepOracle:
    @settings(max_examples=40)
    @given(perturbed_sweeps())
    def test_sweep_equals_sequential_bisection(self, case):
        scenario, axis, grid = case
        result = sweep(scenario, axis, grid)
        rows, thresholds = sequential_sweep(scenario, axis, grid)
        assert repr(result.rows) == repr(rows)
        assert repr(result.thresholds) == repr(thresholds)

    @settings(max_examples=25)
    @given(perturbed_sweeps())
    def test_no_more_calls_than_the_tree_schedule(self, case):
        # a bracket advances at least as far per call as with its tree alone
        scenario, axis, grid = case
        calls = []
        evaluate = scenarios._evaluate

        def counted(*args):
            calls.append(len(args[2]))
            return evaluate(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scenarios, "_evaluate", counted)
            sweep(scenario, axis, grid)
        assert len(calls) <= tree_schedule_calls(scenario, axis, grid)

    def test_flip_out_of_equality_in_a_bracket_from_zero(self):
        # ssnd-snd is "=" at theta 0 and "<" at 270, so its zero is
        # extrapolated from the strict end and the value beyond it, which
        # are positive while the bracket's end 0 has no logarithm
        scenario = preset_scenario("three-cell-theta").with_axis("radius_x", 200.0)
        scenario = scenario.with_axis("M", 1e7)
        result = sweep(scenario, "theta", [0.0, 270.0])
        rows, thresholds = sequential_sweep(scenario, "theta", [0.0, 270.0])
        assert ("ssnd-snd", "=", "<") in [(c.name, c.before, c.after) for c in thresholds]
        assert repr(result.rows) == repr(rows)
        assert repr(result.thresholds) == repr(thresholds)

    @pytest.mark.parametrize("preset, axis, grid", [
        ("two-cell-scenario-a", "M", [1e4, 1e5]),
        ("two-cell-scenario-b", "radius_x", [200.0, 250.0]),
        ("three-cell-theta", "theta", [40.0, 70.0]),
        ("two-cell-scenario-a", "M", M_GRID.tolist())])
    def test_presets(self, preset, axis, grid):
        scenario = preset_scenario(preset)
        result = sweep(scenario, axis, grid)
        rows, thresholds = sequential_sweep(scenario, axis, grid)
        assert thresholds
        assert repr(result.rows) == repr(rows)
        assert repr(result.thresholds) == repr(thresholds)


def _hex(array) -> list[str]:
    return [v.hex() for v in np.asarray(array).ravel().tolist()]


_LENGTHS = st.floats(1.0, 1e4)
_ANGLES = st.floats(0.0, 360.0)


# the recipe arguments of each layout kind
_RECIPE_ARGS = {"two_cell": ("x", "spacing", "user_angle_deg"),
                "three_cell": ("x", "spacing", "theta_deg", "outer_angle_deg")}
# numbers that fail a recipe check somewhere, or reach a corner of one
_EDGES = st.sampled_from([0.0, -0.0, -1.0, 360.0, 361.0, -1e-300, math.nan, math.inf,
                          -math.inf, 1e308])


class TestLayoutStack:
    """Array-built layouts equal the scalar recipes of ``oracles``, built
    one layout at a time with Python floats, byte for byte; and an
    invalid stack fails with the error of its first failing recipe."""

    @settings(max_examples=60)
    @given(kind=st.sampled_from(["two_cell", "three_cell", "three_cell_default_spacing"]),
           axis=st.sampled_from(["radius_x", "theta"]), K=st.integers(1, 3),
           spacing=_LENGTHS, angle=_ANGLES, x=_LENGTHS, theta=_ANGLES,
           data=st.data())
    def test_rows_equal_single_layouts(self, kind, axis, K, spacing, angle, x, theta, data):
        if kind == "two_cell":
            axis = "radius_x"
            recipe = dict(x=x, spacing=spacing, user_angle_deg=angle)
            single = two_cell_layout
        else:
            recipe = dict(x=x, theta_deg=theta, outer_angle_deg=angle)
            if kind == "three_cell":
                recipe["spacing"] = spacing
            single = three_cell_layout
        key = {"radius_x": "x", "theta": "theta_deg"}[axis]
        grid = data.draw(st.lists(_LENGTHS if axis == "radius_x" else _ANGLES,
                                    min_size=1, max_size=6))
        params = SystemParams(L=2 if kind == "two_cell" else 3, K=K, M=1e4,
                              rho_u=30.0, rho_p=120.0)
        scenario = Scenario(params=params, layout_kind=kind.replace("_default_spacing", ""),
                            layout_args=tuple(sorted(recipe.items())))
        bs, users = scenario.positions(axis, grid)
        want_bs, want_users = scalar_layouts(scenario.layout_kind, K,
                                             [{**recipe, key: v} for v in grid])
        assert _hex(bs) == _hex(want_bs)
        assert _hex(users) == _hex(want_users)
        # the G = 1 views build the same points from numbers
        for v, b, u in zip(grid, want_bs, want_users):
            layout = single(**{**recipe, key: v}, users_per_cell=K)
            assert (_hex(layout.bs), _hex(layout.users)) == (_hex(b), _hex(u))
        if kind == "three_cell_default_spacing" and axis == "radius_x":
            # the spacing moves with the radius
            assert _hex(bs[:, 1, 0]) == _hex([2.0 * v for v in grid])
        layouts = [CellLayout(b, u) for b, u in zip(want_bs, want_users)]
        try:
            per_value = [build_fading(layout, params) for layout in layouts]
        except ValueError as exc:  # a user drawn onto a BS
            with pytest.raises(ValueError, match=str(exc)):
                fading_stack(bs, users, params)
        else:
            assert _hex(fading_stack(bs, users, params)) == _hex(per_value)

    @settings(max_examples=300)
    @given(kind=st.sampled_from(sorted(_RECIPE_ARGS)), K=st.integers(1, 3),
           default_spacing=st.booleans(), data=st.data())
    def test_first_failure_equals_scalar_recipes(self, kind, K, default_spacing, data):
        # any recipe argument may move, and any value may be invalid
        values = st.one_of(st.floats(-50.0, 1e4), _EDGES)
        names = _RECIPE_ARGS[kind]
        recipe = {name: data.draw(values, label=name) for name in names}
        if kind == "three_cell" and default_spacing:
            del recipe["spacing"]
        key = data.draw(st.sampled_from(sorted(recipe)), label="moving")
        grid = data.draw(st.lists(values, min_size=1, max_size=6), label="grid")
        recipes = [{**recipe, key: v} for v in grid]
        try:
            want_bs, want_users = scalar_layouts(kind, K, recipes)
        except ValueError as exc:
            with pytest.raises(ValueError) as stacked:
                layout_stack(kind, K, **{**recipe, key: np.array(grid)})
            assert str(stacked.value) == str(exc)
        else:
            bs, users = layout_stack(kind, K, **{**recipe, key: np.array(grid)})
            assert _hex(bs) == _hex(want_bs)
            assert _hex(users) == _hex(want_users)
        # one recipe of numbers takes the same checks and points
        try:
            want_bs, want_users = scalar_layouts(kind, K, recipes[:1])
        except ValueError as exc:
            with pytest.raises(ValueError) as single:
                layout_stack(kind, K, **recipes[0])
            assert str(single.value) == str(exc)
        else:
            bs, users = layout_stack(kind, K, **recipes[0])
            assert (_hex(bs), _hex(users)) == (_hex(want_bs), _hex(want_users))

    @pytest.mark.parametrize("kind, recipe, moving, message", [
        # the second recipe fails its first check, the first its last one
        ("three_cell", dict(x=100.0, spacing=300.0, outer_angle_deg=180.0),
         dict(theta_deg=[400.0, 90.0]), "'theta_deg' must be in [0, 360], got 400.0"),
        ("two_cell", dict(spacing=300.0, user_angle_deg=math.inf), dict(x=[100.0, -1.0]),
         "math domain error"),
        ("two_cell", dict(x=100.0, user_angle_deg=0.0), dict(spacing=[5.0, 0.0, -1.0]),
         "BS spacing 'spacing' must be positive, got 0.0"),
        ("three_cell", dict(theta_deg=90.0), dict(x=[5.0, -1.0, math.nan]),
         "cell radius 'x' must be positive, got -1.0"),
        # two moving arguments: the later check fails the earlier recipe
        ("two_cell", dict(user_angle_deg=0.0), dict(x=[5.0, 5.0, -1.0], spacing=[5.0, -1.0, 5.0]),
         "BS spacing 'spacing' must be positive, got -1.0"),
    ])
    def test_first_failing_recipe_is_named(self, kind, recipe, moving, message):
        recipes = [{**recipe, **dict(zip(moving, values))} for values in zip(*moving.values())]
        with pytest.raises(ValueError) as scalar:
            scalar_layouts(kind, 1, recipes)
        with pytest.raises(ValueError) as stacked:
            layout_stack(kind, 1, **recipe, **{k: np.array(v) for k, v in moving.items()})
        assert str(stacked.value) == str(scalar.value) == message

    def test_overflowing_points_are_silent_as_python_floats_are(self):
        # the default spacing 2 x and the third BS at 2 spacing overflow to
        # inf, silently, as with Python floats
        recipe = dict(theta_deg=30.0)
        grid = [1e300, 1e308]
        bs, users = layout_stack("three_cell", 2, **recipe, x=np.array(grid))
        want_bs, want_users = scalar_layouts("three_cell", 2,
                                             [{**recipe, "x": v} for v in grid])
        assert math.isinf(bs[1, 2, 0])
        assert (_hex(bs), _hex(users)) == (_hex(want_bs), _hex(want_users))

    @pytest.mark.parametrize("scenario, axis, grid, message", [
        (preset_scenario("two-cell-scenario-b"), "radius_x", [-5.0, 100.0],
         "cell radius 'x' must be positive, got -5.0"),
        (preset_scenario("three-cell-theta"), "radius_x", [0.0, 100.0],
         "cell radius 'x' must be positive, got 0.0"),
        (preset_scenario("three-cell-theta"), "theta", [90.0, 361.0],
         "'theta_deg' must be in [0, 360], got 361.0"),
        (preset_scenario("two-cell-scenario-a"), "theta", [10.0, 20.0],
         "axis 'theta' requires the three-cell layout"),
        (Scenario.from_layout(preset_scenario("two-cell-scenario-a").layout(),
                              preset_scenario("two-cell-scenario-a").params),
         "radius_x", [100.0, 200.0],
         "axis 'radius_x' requires a canonical (two/three cell) layout"),
        (Scenario(params=preset_scenario("two-cell-scenario-b").params,
                  layout_kind="two_cell",
                  layout_args=(("spacing", 500.0), ("user_angle_deg", 0.0), ("x", 100.0))),
         "radius_x", [100.0, 500.0],
         "a user is co-located with a BS; distances must be positive"),
        (replace(preset_scenario("two-cell-scenario-b"),
                 params=replace(preset_scenario("two-cell-scenario-b").params,
                                alpha_pl=200.0)),
         "radius_x", [100.0, 1e4],  # the own gain (100 / 1e4)^200 underflows to 0
         "beta entries must be finite and strictly positive"),
    ])
    def test_per_value_errors_reach_sweep(self, scenario, axis, grid, message):
        with pytest.raises(ValueError) as per_value:
            for v in grid:
                scenario.with_axis(axis, v).state()
        with pytest.raises(ValueError) as stacked:
            sweep(scenario, axis, grid)
        assert str(stacked.value) == str(per_value.value) == message
