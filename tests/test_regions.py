import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmimo import (SCHEMES, ChannelState, RegionFamily, SystemParams, bs_symmetric_rate,
                    capacity, max_symmetric_rate, preset_scenario, regions, sd_region,
                    snd_region, ssnd_region, symrate, tin_rate, tin_region)
from mcmimo.bounds import noise_floor, state_powers

from oracles import (Polytope, cells, direct_bound, fading_states, polytope_symmetric_rate,
                     random_state, region_of, ring_state, snd_member_three_cell,
                     snd_member_two_cell, subset_sum, subset_sum_table)

BUILDERS = {"tin": tin_region, "sd": sd_region, "ssnd": ssnd_region, "snd": snd_region}


def rate_and_theta(state, scheme, j, i):
    """The per-BS solver's rate and binding mask, as max_symmetric_rate gives them."""
    entry = bs_symmetric_rate(state, scheme, j, i)
    return entry.rate, entry.theta


class TestConstruction:
    def test_sd_constraint_counts(self):
        rng = np.random.default_rng(31)
        for L in (1, 2, 3, 4):
            state = random_state(rng, L=L)
            region = sd_region(state, 0, 0)
            assert len(region.parts[0].constraints) == 2 ** L - 1

    def test_ssnd_constraint_counts(self):
        rng = np.random.default_rng(32)
        for L in (2, 3, 4):
            state = random_state(rng, L=L)
            region = ssnd_region(state, 0, 0)
            assert len(region.parts[0].constraints) == 2 ** (L - 1)
            for mask, _ in region.parts[0].constraints:
                assert mask & 1

    def test_snd_part_counts(self):
        rng = np.random.default_rng(33)
        state = random_state(rng, L=3)
        region = snd_region(state, 1, 0)
        assert len(region.parts) == 4
        assert all(om & 0b10 for om in region.omega.tolist())
        # the part for decoded set omega constrains exactly its subsets
        for om, part in zip(region.omega.tolist(), region.parts):
            assert len(part.constraints) == 2 ** om.bit_count() - 1
            assert all(mask & ~om == 0 for mask, _ in part.constraints)

    def test_two_cell_sd_bounds_match_direct_evaluation(self):
        rng = np.random.default_rng(34)
        state = random_state(rng, L=2)
        region = sd_region(state, 0, 0)
        bounds = dict(region.parts[0].constraints)
        for theta in (0b01, 0b10, 0b11):
            assert bounds[theta] == pytest.approx(
                direct_bound(state, 0, 0, cells(theta), {0, 1}), rel=1e-15)

    def test_singleton_below_full_set_bound(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            state = random_state(rng, L=4)
            bounds = dict(sd_region(state, 0, 0).parts[0].constraints)
            full_bound = bounds[0b1111]
            for l in range(4):
                assert bounds[1 << l] < full_bound

    def test_ssnd_constraints_are_an_sd_subset(self):
        rng = np.random.default_rng(36)
        state = random_state(rng, L=3)
        sd = dict(sd_region(state, 0, 0).parts[0].constraints)
        ssnd = dict(ssnd_region(state, 0, 0).parts[0].constraints)
        assert set(ssnd) < set(sd)
        for subset, bound in ssnd.items():
            assert bound == sd[subset]

    def test_builders_reject_bad_indices(self):
        state = random_state(np.random.default_rng(41), L=3, K=2)
        for builder in (tin_region, sd_region, ssnd_region, snd_region):
            for j, i in ((3, 0), (-1, 0), (0, 2), (0, -1)):
                with pytest.raises(ValueError, match="out of range"):
                    builder(state, j, i)

    def test_snd_size_limit(self, monkeypatch):
        # MAX_CONSTRAINTS bounds the exact count, 2 * 3^(L-1) - 2^(L-1) for SND
        rng = np.random.default_rng(37)
        state = random_state(rng, L=5)
        count = 2 * 3 ** 4 - 2 ** 4
        monkeypatch.setattr(regions, "MAX_CONSTRAINTS", count - 1)
        with pytest.raises(ValueError, match="limit"):
            snd_region(state, 0, 0)
        monkeypatch.setattr(regions, "MAX_CONSTRAINTS", count)
        assert len(snd_region(state, 0, 0).theta) == count

    @pytest.mark.parametrize("builder, count", [(sd_region, 2 ** 5 - 1),
                                                (ssnd_region, 2 ** 4)])
    def test_sd_and_ssnd_size_limits(self, builder, count, monkeypatch):
        state = random_state(np.random.default_rng(38), L=5)
        monkeypatch.setattr(regions, "MAX_CONSTRAINTS", count - 1)
        with pytest.raises(ValueError, match="limit"):
            builder(state, 0, 0)
        monkeypatch.setattr(regions, "MAX_CONSTRAINTS", count)
        assert len(builder(state, 0, 0).theta) == count

    @pytest.mark.parametrize("builder, L", [(sd_region, 21), (ssnd_region, 22),
                                            (snd_region, 13)])
    def test_over_limit_rejected_before_allocating(self, builder, L, monkeypatch):
        state = random_state(np.random.default_rng(L), L=L, K=1)

        def fail(*args, **kwargs):
            raise AssertionError("allocated an over-limit region")

        for name in ("arange", "zeros", "empty"):
            monkeypatch.setattr(np, name, fail)
        with pytest.raises(ValueError, match=f"at L={L} .* above the limit of {1 << 20}"):
            builder(state, 0, 0)

    def test_snd_memory_peak(self):
        # the tuple-of-Polytopes SND region of this ring peaked at 52.5 MiB
        state = ring_state(np.random.default_rng(12), 12, K=2, M=3e4)
        tracemalloc.start()
        try:
            region = snd_region(state, 0, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(region.theta) == 2 * 3 ** 11 - 2 ** 11
        assert peak <= 52.5 * 2 ** 20


class TestSubsetSumTable:
    """Every builder reads its bounds off one table of weakest-first subset
    sums, as the solvers sum their sets, so the scheme identities hold to
    the exact float."""

    def test_table_is_subset_sum_to_the_bit(self):
        rng = np.random.default_rng(48)
        for L in range(0, 13):
            for scale in (1.0, 1e-3, 1e6):
                coh = scale * rng.uniform(0.0, 1.0, L) ** 3
                want = [subset_sum(coh.tolist(), mask) for mask in range(1 << L)]
                assert regions._mask_sums(coh, np.arange(1 << L)).tolist() == want
        for L in range(1, 9):
            state = random_state(rng, L=L, K=2)
            want = subset_sum_table(state_powers(state, 1)[0][L - 1]).tolist()
            assert regions._sums(state, L - 1, 1).tolist() == want

    def test_full_snd_part_is_the_sd_polytope(self):
        rng = np.random.default_rng(39)
        for _ in range(100):
            state = random_state(rng, L=int(rng.integers(1, 7)))
            j = int(rng.integers(state.L))
            snd = snd_region(state, j, 0)
            full = snd.omega.tolist().index((1 << state.L) - 1)
            assert snd.parts[full].constraints == sd_region(state, j, 0).constraints
            assert tin_region(state, j, 0).constraints == snd.parts[0].constraints  # {j}

    def test_polytope_rates_equal_the_fast_solvers(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            state = random_state(rng, L=int(rng.integers(1, 8)))
            j = int(rng.integers(state.L))
            assert max_symmetric_rate(sd_region(state, j, 0)) == \
                rate_and_theta(state, "sd", j, 0)
            assert max_symmetric_rate(ssnd_region(state, j, 0)) == \
                rate_and_theta(state, "ssnd", j, 0)

    @settings(max_examples=60)
    @given(fading_states(), st.data())
    def test_bounds_equal_direct_evaluation(self, case, data):
        state, i = case
        snd_bs = data.draw(st.integers(0, state.L - 1))  # the SND union is large
        for j in range(state.L):
            regions = [tin_region(state, j, i), sd_region(state, j, i),
                       ssnd_region(state, j, i)]
            if j == snd_bs:
                regions.append(snd_region(state, j, i))
            for region in regions:
                for omega, part in zip(region.omega.tolist(), region.parts):
                    for theta, bound in part.constraints:
                        want = direct_bound(state, j, i, cells(theta), cells(omega))
                        assert bound == pytest.approx(want, rel=1e-14, abs=0.0)
            assert max_symmetric_rate(regions[0]) == (tin_rate(state, j, i), 1 << j)
            for region in regions:
                rate, theta = max_symmetric_rate(region)
                want_rate, want_theta = rate_and_theta(state, region.kind, j, i)
                assert rate == want_rate
                if region.kind != "snd":  # SND's omega ties may bind another theta
                    assert theta == want_theta


def two_pass_bounds(region, state, j, i):
    """The bounds of a region's columns with a fresh array per step: the
    spread N(omega^c), plus the floor, the divide, log1p and the scaling."""
    sums = subset_sum_table(state_powers(state, i)[0][j])
    noise = np.repeat(sums[((1 << state.L) - 1) ^ region.omega], np.diff(region.offsets))
    return np.log1p(sums[region.theta] / (noise + noise_floor(state, j))) / math.log(2.0)


class TestBoundArrays:
    """An SD, S-SND or SND build holds two arrays of one float per
    constraint, the theta sums and the denominators that become ``bound``,
    with the bits of the two-pass formula."""

    def test_snd_build_holds_two_arrays(self):
        state = ring_state(np.random.default_rng(13), 10)
        count = 2 * 3 ** 9 - 2 ** 9
        snd_region(state, 0, 0)  # the cached columns and the state's sums table
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            region = snd_region(state, 0, 0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(region.bound) == count
        # the two arrays, plus per-part sums and counts (2^9 parts) and headers
        assert peak <= 2 * 8 * count + 32 * 2 ** 10

    @pytest.mark.parametrize("L", range(2, 13))
    def test_ring_bounds_are_the_two_pass_bounds(self, L):
        state = ring_state(np.random.default_rng(100 + L), L, K=2, M=3e4)
        for j in range(L):
            for i in range(state.K):
                for build in (sd_region, ssnd_region, snd_region):
                    region = build(state, j, i)
                    want = two_pass_bounds(region, state, j, i)
                    assert region.bound.tobytes() == want.tobytes()

    @settings(max_examples=60)
    @given(fading_states())
    def test_tie_stack_bounds_are_the_two_pass_bounds(self, case):
        state, i = case
        for j in range(state.L):
            for build in (sd_region, ssnd_region, snd_region):
                region = build(state, j, i)
                assert region.bound.tobytes() == two_pass_bounds(region, state, j, i).tobytes()


class TestTinRegion:
    """The TIN region is one bound, C(N({j}) / (N(others) + F)), formed from
    the state's powers: the kernel's TIN row to the bit, with the kernel's
    errors, and no solve of the other BSs."""

    @pytest.mark.parametrize("L", [*range(2, 14), 24, 64, 65, 96])
    def test_bound_is_the_tin_rate_to_the_bit(self, L):
        state = ring_state(np.random.default_rng(L), L, M=3e4)
        for j in range(L):
            for i in range(state.K):
                region = tin_region(state, j, i)
                assert region.theta.dtype == (np.int64 if L < 64 else object)
                assert region.theta.tolist() == region.omega.tolist() == [1 << j]
                want = bs_symmetric_rate(state, "tin", j, i).rate
                assert float(region.bound[0]) == want
                assert tin_rate(state, j, i) == want
                # from L = 64 on, np.bitwise_count runs its object loop
                assert max_symmetric_rate(region) == (want, 1 << j)

    @settings(max_examples=60)
    @given(fading_states(max_cells=10))
    def test_bound_is_the_tin_rate_on_tie_stacks(self, case):
        state, i = case
        for j in range(state.L):
            want = bs_symmetric_rate(state, "tin", j, i).rate
            assert float(tin_region(state, j, i).bound[0]) == want
            assert tin_rate(state, j, i) == want

    def test_large_ring_never_runs_the_kernel(self, monkeypatch):
        def fail(*args):
            raise AssertionError("tin_region solved the network")

        monkeypatch.setattr(symrate, "_solve_rows", fail)
        L = 512
        state = ring_state(np.random.default_rng(5), L, K=1, M=3e4)
        coh = state_powers(state, 0)[0]
        for j in (0, 7, 300, L - 1):
            others = ((1 << L) - 1) ^ 1 << j
            want = capacity(coh[j, j] / (subset_sum(coh[j], others) + noise_floor(state, j)))
            region = tin_region(state, j, 0)
            assert region.theta.tolist() == [1 << j]
            assert region.bound.tolist() == [want]
            assert tin_rate(state, j, 0) == want

    def test_errors_are_the_tin_rate_errors(self):
        state = random_state(np.random.default_rng(6), L=3, K=2)
        big_coh = preset_scenario("two-cell-scenario-a").state().with_m(1e308)
        # rho_u overflows the noise floor but not the coherent powers
        big_floor = ChannelState.from_beta(
            np.ones((2, 1, 2)), SystemParams(L=2, K=1, M=1.0, rho_u=1e308, rho_p=0.01))
        cases = [(state, j, i) for j, i in ((3, 0), (-1, 0), (0, 2), (0, -1), (3, 2),
                                            (True, 0), (0, 1.0))]
        messages = []
        for case in cases + [(big_coh, 0, 0), (big_floor, 1, 0)]:
            with pytest.raises(ValueError) as want:
                bs_symmetric_rate(case[0], "tin", *case[1:])
            with pytest.raises(ValueError) as got:
                tin_region(*case)
            with pytest.raises(ValueError) as wrapped:
                tin_rate(*case)
            assert str(got.value) == str(wrapped.value) == str(want.value)
            messages.append(str(got.value))
        assert messages[4] == "BS index 3 out of range for L=3"
        assert messages[-2].startswith("coherent power")
        assert messages[-1].startswith("noise floor")


class TestPolytopeChecks:
    """A tuple and a list of (mask, bound) pairs get the same checks."""

    @staticmethod
    def tuple_and_list(masks, bounds):
        pairs = list(zip(masks, bounds))
        return tuple(pairs), pairs

    def test_unsorted_input_is_sorted_alike(self):
        for cons in self.tuple_and_list([7, 4, 1, 6, 2], [5.0, 1.0, 2.0, 4.0, 3.0]):
            poly = Polytope(3, cons)
            assert [m for m, _ in poly.constraints] == [1, 2, 4, 6, 7]
            assert [b for _, b in poly.constraints] == [2.0, 3.0, 1.0, 4.0, 5.0]

    @pytest.mark.parametrize("masks, bounds, match", [
        ([1, 2, 1], [1.0, 1.0, 1.0], "duplicate"),
        ([1, 2], [1.0, -1.0], "nonnegative"),
        ([3, 3, 1], [1.0, 1.0, -1.0], "duplicate"),
        ([0, 1], [1.0, 1.0], "nonempty"),
    ])
    def test_same_errors(self, masks, bounds, match):
        for cons in self.tuple_and_list(masks, bounds):
            with pytest.raises(ValueError, match=match):
                Polytope(2, cons)

    def test_out_of_range_mask(self):
        for mask in (4, -1):
            with pytest.raises(ValueError, match="out of range"):
                Polytope(2, ((mask, 1.0),))

    def test_malformed_constraint_raises_alike(self):
        for cons in (((1, 1.0, 2.0),), ((1, 1.0), (2, 1.0, 2.0)), (1.0,)):
            with pytest.raises(ValueError, match="pair"):
                Polytope(2, cons)

    def test_cell_sets_are_not_masks(self):
        with pytest.raises(TypeError, match="int bitmasks"):
            Polytope(2, ((frozenset({0}), 1.0),))

    def test_nan_bound_accepted_alike(self):
        for cons in self.tuple_and_list([3, 1], [float("nan"), 1.0]):
            assert [m for m, _ in Polytope(2, cons).constraints] == [1, 3]


class TestMembership:
    def test_origin_inside_everything(self):
        rng = np.random.default_rng(38)
        state = random_state(rng, L=3)
        origin = np.zeros(3)
        for builder in (tin_region, sd_region, ssnd_region, snd_region):
            assert builder(state, 0, 0).contains(origin)

    def test_point_above_all_singletons_outside(self):
        rng = np.random.default_rng(39)
        state = random_state(rng, L=3)
        region = sd_region(state, 0, 0)
        bounds = dict(region.parts[0].constraints)
        top = max(bounds.values())
        assert not region.contains(np.full(3, top + 1.0))
        snd = snd_region(state, 0, 0)
        assert not snd.contains(np.full(3, 100 * top + 1.0))

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(40)
        state = random_state(rng, L=3)
        with pytest.raises(ValueError, match="length"):
            sd_region(state, 0, 0).contains(np.zeros(2))

    def test_negative_point_rejected(self):
        rng = np.random.default_rng(41)
        state = random_state(rng, L=2)
        for builder in (tin_region, sd_region, ssnd_region, snd_region):
            region = builder(state, 0, 0)
            for point in ([-0.1, 0.0], [math.nan, 0.0], [math.nan, math.nan]):
                for contains in (region.contains, region.parts[0].contains):
                    with pytest.raises(ValueError, match="nonnegative"):
                        contains(np.array(point))
            assert not region.contains([math.inf, 0.0])
            assert not region.parts[0].contains([math.inf, 0.0])

    def test_tin_point_inside_snd(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            state = random_state(rng)
            j = int(rng.integers(state.L))
            point = np.zeros(state.L)
            point[j] = tin_rate(state, j, 0)
            assert snd_region(state, j, 0).contains(point)

    def test_containment_chain_on_random_points(self):
        rng = np.random.default_rng(43)
        checked = 0
        for _ in range(25):
            state = random_state(rng, L=int(rng.integers(2, 5)))
            j = int(rng.integers(state.L))
            sd = sd_region(state, j, 0)
            ssnd = ssnd_region(state, j, 0)
            snd = snd_region(state, j, 0)
            tin = tin_region(state, j, 0)
            top = max(b for _, b in sd.parts[0].constraints) * 1.5
            pts = rng.uniform(0.0, top, size=(400, state.L))
            for pt in pts:
                in_sd = sd.contains(pt)
                in_ssnd = ssnd.contains(pt)
                in_snd = snd.contains(pt)
                in_tin = tin.contains(pt)
                if in_sd:
                    assert in_ssnd
                if in_ssnd:
                    assert in_snd
                if in_tin:
                    assert in_snd
                checked += 1
        assert checked >= 10000

    def test_downward_closure(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            state = random_state(rng, L=3)
            region = snd_region(state, 0, 0)
            top = max(b for _, b in region.parts[-1].constraints) * 1.2
            members = [p for p in rng.uniform(0.0, top, size=(300, 3))
                       if region.contains(p)]
            assert members
            for pt in members[:50]:
                shrunk = pt * rng.uniform(0.0, 1.0, size=3)
                assert region.contains(shrunk)


class TestSndUnionAgainstExplicitConditions:
    def test_two_cell_grid(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            state = random_state(rng, L=2)
            j = int(rng.integers(2))
            region = snd_region(state, j, 0)
            top = max(b for _, b in sd_region(state, j, 0).parts[0].constraints)
            axis = np.linspace(0.0, 1.3 * top, 25)
            for r1 in axis:
                for r2 in axis:
                    pt = np.array([r1, r2])
                    assert region.contains(pt) == snd_member_two_cell(state, j, 0, pt)

    def test_three_cell_grid(self):
        rng = np.random.default_rng(46)
        for _ in range(4):
            state = random_state(rng, L=3)
            j = int(rng.integers(3))
            region = snd_region(state, j, 0)
            top = max(b for _, b in sd_region(state, j, 0).parts[0].constraints)
            axis = np.linspace(0.0, 1.3 * top, 13)
            for r1 in axis:
                for r2 in axis:
                    for r3 in axis:
                        pt = np.array([r1, r2, r3])
                        assert region.contains(pt) == \
                            snd_member_three_cell(state, j, 0, pt)

    def test_two_cell_union_identity(self):
        # two cells: the union region is exactly (S-SND region) or (TIN region)
        rng = np.random.default_rng(47)
        for _ in range(10):
            state = random_state(rng, L=2)
            j = int(rng.integers(2))
            snd = snd_region(state, j, 0)
            ssnd = ssnd_region(state, j, 0)
            tin = tin_region(state, j, 0)
            top = max(b for _, b in snd.parts[-1].constraints) * 1.3
            for pt in rng.uniform(0.0, top, size=(500, 2)):
                assert snd.contains(pt) == (
                    ssnd.contains(pt) or tin.contains(pt))


class TestColumns:
    """The columns against direct evaluation, the ``parts`` views and the
    symmetric rate against the oracle's validated polytopes, and column
    membership against the parts."""

    @settings(max_examples=40)
    @given(fading_states(), st.data())
    def test_columns_parts_and_membership(self, case, data):
        state, i = case
        j = data.draw(st.integers(0, state.L - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        for builder in (tin_region, sd_region, ssnd_region, snd_region):
            region = builder(state, j, i)
            ends = region.offsets.tolist()
            assert ends[0] == 0 and ends[-1] == len(region.theta) == len(region.bound)
            rebuilt = []
            for omega, a, b in zip(region.omega.tolist(), ends, ends[1:]):
                pairs = list(zip(region.theta[a:b].tolist(), region.bound[a:b].tolist()))
                for theta, bound in pairs:
                    want = direct_bound(state, j, i, cells(theta), cells(omega))
                    assert bound == pytest.approx(want, rel=1e-14, abs=0.0)
                rebuilt.append(Polytope(state.L, tuple(pairs)))
                assert rebuilt[-1].constraints == tuple(pairs)  # already in order
            assert [part.constraints for part in region.parts] == \
                [poly.constraints for poly in rebuilt]
            assert region.constraints == sum((poly.constraints for poly in rebuilt), ())

            rate, theta = max_symmetric_rate(region)
            assert (rate, theta) == max(map(polytope_symmetric_rate, rebuilt),
                                        key=itemgetter(0))
            points = list(rng.uniform(0.0, 1.5 * region.bound.max(), (20, state.L)))
            points += [np.full(state.L, r) for r in
                       (rate, np.nextafter(rate, 0.0), np.nextafter(rate, np.inf))]
            # unequal rates scaled onto a constraint, where the order of the
            # additions decides the last bit
            for c in rng.integers(len(region.theta), size=5).tolist():
                point = rng.uniform(0.5, 1.0, state.L)
                point *= region.bound[c] / subset_sum(point.tolist(), int(region.theta[c]))
                points += [point, np.nextafter(point, 0.0), np.nextafter(point, np.inf)]
            for point in points:
                assert region.contains(point) == \
                    any(part.contains(point) for part in region.parts)


@st.composite
def tied_parts(draw):
    """A dimension and parts of distinct (mask, bound) rows in (cardinality,
    mask) order.  Most bounds are a few levels times |mask|, so bound /
    |mask| ties exactly within and across parts; dimensions of 60 and up
    reach object-dtype masks."""
    dim = draw(st.one_of(st.integers(1, 6), st.integers(60, 70)))
    level = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5]), st.floats(0.0, 10.0))
    parts = []
    for _ in range(draw(st.integers(1, 5))):
        masks = draw(st.sets(st.integers(1, (1 << dim) - 1), min_size=1, max_size=12))
        masks = sorted(masks, key=lambda mask: (mask.bit_count(), mask))
        parts.append(tuple((mask, draw(level) * mask.bit_count()) for mask in masks))
    return dim, parts


class TestMaxSymmetricRate:
    """The array rate of a region is the solver's rate to the bit, and the
    oracle's loop over validated polytopes in both rate and theta."""

    @pytest.mark.parametrize("L", range(1, 13))
    def test_ring_rates_are_the_solver_rates(self, L):
        for M in (1e2, 3e4, 1e7):
            state = ring_state(np.random.default_rng(200 + L), L, K=2, M=M)
            for j in range(L):
                for i in range(state.K):
                    for scheme in SCHEMES:
                        rate, theta = max_symmetric_rate(BUILDERS[scheme](state, j, i))
                        want_rate, want_theta = rate_and_theta(state, scheme, j, i)
                        assert rate == want_rate
                        if scheme != "snd":
                            assert theta == want_theta

    @settings(max_examples=200)
    @given(tied_parts())
    def test_equals_the_polytope_loop_on_tied_columns(self, case):
        dim, parts = case
        region = region_of(dim, parts)
        polys = [Polytope(dim, part) for part in parts]
        per_part = [polytope_symmetric_rate(poly) for poly in polys]
        assert [max_symmetric_rate(part) for part in region.parts] == per_part
        assert max_symmetric_rate(region) == max(per_part, key=itemgetter(0))
        assert [part.constraints for part in region.parts] == [p.constraints for p in polys]


def malformed(omega, offsets, theta, bound):
    """A two-cell SND region of these columns; a tuple goes in as a Python
    list, not as an array."""
    columns = [list(c) if isinstance(c, tuple) else np.array(c, dtype=dtype)
               for c, dtype in zip((omega, offsets, theta, bound), (None, None, None, float))]
    return RegionFamily("snd", 2, *columns)


@pytest.mark.parametrize("omega, offsets, theta, bound, match", [
    ([1, 3], [1, 2, 3], [1, 1, 3], [0.5, 0.5, 0.5], "run from 0"),
    ([1, 3], [0, 1, 2], [1, 1, 3], [0.5, 0.5, 0.5], "run from 0"),
    ([1, 3], [0, 1, 4], [1, 1, 3], [0.5, 0.5, 0.5], "run from 0"),
    ([1, 3, 3], [0, 1, 1, 2], [1, 1], [0.5, 0.5], "increase strictly"),  # an empty part
    ([1, 3, 3], [0, 2, 1, 3], [1, 1, 3], [0.5, 0.5, 0.5], "increase strictly"),
    ([1, 3], [0, 1, 3], [1, 1, 3], [0.5, 0.5], "one entry per theta"),
    ([1, 3], [0, 1, 3], [1, 1, 3], [0.5, 0.5, 0.5, 0.5], "one entry per theta"),
    ((1, 3), (0, 1, 2), (1, 1), (0.5, 0.5), "omega must be a numpy array, got list"),
    ([1, 3], [0, 1, 2], [1, 1], (0.5, 0.5), "bound must be a numpy array, got list"),
])
def test_malformed_columns_rejected(omega, offsets, theta, bound, match):
    with pytest.raises(ValueError, match=match):
        malformed(omega, offsets, theta, bound)
    # the same columns once well formed
    n = len(theta)
    region = malformed(list(omega[:2]), [0, 1, n], list(theta), [0.5] * n)
    assert len(region.parts) == 2 and region.contains([0.25, 0.25])


def column_digest(region):
    """Each column's dtype, shape, bytes and repr."""
    return [(c.dtype.str, c.shape, c.tobytes(), repr(c))
            for c in (region.omega, region.offsets, region.theta, region.bound)]


@pytest.fixture
def cold_cache():
    regions._columns.cache_clear()
    yield regions._columns
    regions._columns.cache_clear()


class TestColumnCache:
    """The index columns of each (scheme, L, BS) are built once and shared;
    a region built from the cache equals one built cold."""

    @settings(max_examples=25)
    @given(st.integers(1, 8), st.integers(1, 3), st.floats(1.0, 6.0),
           st.integers(0, 2 ** 32 - 1))
    def test_warm_equals_cold(self, L, K, log_m, seed):
        state = ring_state(np.random.default_rng(seed), L, K=K, M=10.0 ** log_m)
        for builder in (sd_region, ssnd_region, snd_region):
            for j in range(L):
                for i in range(K):
                    regions._columns.cache_clear()
                    cold = builder(state, j, i)
                    assert regions._columns.cache_info().misses == 1
                    warm = builder(state, j, i)
                    assert regions._columns.cache_info().hits == 1
                    assert column_digest(warm) == column_digest(cold)

    def test_lru_eviction_within_budget(self, cold_cache, monkeypatch):
        budget = 100
        monkeypatch.setattr(regions, "MAX_CONSTRAINTS", budget)
        rng = np.random.default_rng(61)
        states = {L: random_state(rng, L=L, K=1) for L in range(1, 5)}
        sizes = {"sd": lambda L: 2 ** L - 1, "ssnd": lambda L: 2 ** (L - 1),
                 "snd": lambda L: 2 * 3 ** (L - 1) - 2 ** (L - 1)}
        builders = {"sd": sd_region, "ssnd": ssnd_region, "snd": snd_region}
        model, hits, misses = {}, 0, 0  # key -> size, least recently used first
        for _ in range(400):
            kind = ("sd", "ssnd", "snd")[rng.integers(3)]
            L = int(rng.integers(1, 5))
            j = int(rng.integers(L))
            key = (kind, L) if kind == "sd" else (kind, L, j)
            if key in model:
                hits += 1
                model[key] = model.pop(key)
            else:
                misses += 1
                model[key] = sizes[kind](L)
                while sum(model.values()) > budget:
                    del model[next(iter(model))]
            region = builders[kind](states[L], j, 0)
            assert len(region.theta) == sizes[kind](L)
            assert list(cold_cache._entries) == list(model)
            info = cold_cache.cache_info()
            assert info == (hits, misses, len(model), sum(model.values()))
            assert info.constraints <= budget
        assert hits > 100 and misses > 100  # the sequence both hits and evicts

    def test_columns_are_shared_and_read_only(self, cold_cache):
        rng = np.random.default_rng(62)
        a, b = random_state(rng, L=4), random_state(rng, L=4)
        for builder in (sd_region, ssnd_region, snd_region):
            ra, rb = builder(a, 1, 0), builder(b, 1, 0)
            for name in ("omega", "offsets", "theta"):
                column = getattr(ra, name)
                assert column is getattr(rb, name)
                assert not column.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = 0
                with pytest.raises(ValueError, match="WRITEABLE"):
                    column.flags.writeable = True
            assert not np.shares_memory(ra.bound, rb.bound)
        assert cold_cache.cache_info().misses == 3

    def test_sd_keeps_one_entry_per_l(self, cold_cache):
        rng = np.random.default_rng(63)
        for L in (3, 5):
            state = random_state(rng, L=L, K=2)
            for j in range(L):
                for i in range(2):
                    sd_region(state, j, i)
        assert cold_cache.cache_info() == (2 * 3 - 1 + 2 * 5 - 1, 2, 2, 7 + 31)
        assert list(cold_cache._entries) == [("sd", 3), ("sd", 5)]

    def test_threads_share_one_cache(self, cold_cache):
        state = random_state(np.random.default_rng(64), L=6, K=1)
        keys = [(builder, j) for builder in (sd_region, ssnd_region, snd_region)
                for j in range(6)] * 4
        serial = [column_digest(builder(state, j, 0)) for builder, j in keys]
        cold_cache.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                threaded = list(pool.map(
                    lambda key: column_digest(key[0](state, key[1], 0)), keys, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
        info = cold_cache.cache_info()
        assert info.hits + info.misses == len(keys)  # no lost counter update
        assert info.entries == 1 + 6 + 6
        assert info.constraints == 63 + 6 * 32 + 6 * (2 * 3 ** 5 - 2 ** 5)
