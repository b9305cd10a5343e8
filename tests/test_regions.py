import numpy as np
import pytest

from mcmimo import (Polytope, max_symmetric_rate, membership, rate_bound_sets,
                    sd_max_symmetric, sd_region, snd_region, ssnd_max_symmetric,
                    ssnd_region, tin_rate, tin_region)
from mcmimo.regions import _subset_table

from oracles import random_state, snd_member_three_cell, snd_member_two_cell


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
            for subset, _ in region.parts[0].constraints:
                assert 0 in subset

    def test_snd_part_counts(self):
        rng = np.random.default_rng(33)
        state = random_state(rng, L=3)
        region = snd_region(state, 1, 0)
        assert len(region.parts) == 4
        assert all(1 in om for om in region.omegas)
        # the part for decoded set omega constrains exactly its subsets
        for om, part in zip(region.omegas, region.parts):
            assert len(part.constraints) == 2 ** len(om) - 1
            assert all(subset <= om for subset, _ in part.constraints)

    def test_two_cell_sd_bounds_match_direct_evaluation(self):
        rng = np.random.default_rng(34)
        state = random_state(rng, L=2)
        region = sd_region(state, 0, 0)
        bounds = dict(region.parts[0].constraints)
        full = frozenset({0, 1})
        for theta in ({0}, {1}, {0, 1}):
            assert bounds[frozenset(theta)] == pytest.approx(
                rate_bound_sets(state, 0, 0, theta, full), rel=1e-15)

    def test_singleton_below_full_set_bound(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            state = random_state(rng, L=4)
            bounds = dict(sd_region(state, 0, 0).parts[0].constraints)
            full_bound = bounds[frozenset(range(4))]
            for l in range(4):
                assert bounds[frozenset({l})] < full_bound

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
        for builder in (sd_region, ssnd_region, snd_region):
            with pytest.raises(ValueError, match="out of range"):
                builder(state, 3, 0)
            with pytest.raises(ValueError, match="out of range"):
                builder(state, 0, 2)

    def test_snd_size_limit(self):
        rng = np.random.default_rng(37)
        state = random_state(rng, L=5)
        with pytest.raises(ValueError, match="limit"):
            snd_region(state, 0, 0, max_cells=4)


class TestSubsetSumTable:
    """The region builders share one subset-sum table, so the scheme
    identities hold to the exact float."""

    def test_full_snd_part_is_the_sd_polytope(self):
        rng = np.random.default_rng(39)
        for _ in range(100):
            state = random_state(rng, L=int(rng.integers(1, 7)))
            j = int(rng.integers(state.L))
            snd = snd_region(state, j, 0)
            full = snd.omegas.index(frozenset(range(state.L)))
            assert snd.parts[full] == sd_region(state, j, 0).parts[0]

    def test_polytope_rates_equal_the_fast_solvers(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            state = random_state(rng, L=int(rng.integers(1, 8)))
            j = int(rng.integers(state.L))
            assert max_symmetric_rate(sd_region(state, j, 0).parts[0]) == \
                sd_max_symmetric(state, j, 0)
            assert max_symmetric_rate(ssnd_region(state, j, 0).parts[0]) == \
                ssnd_max_symmetric(state, j, 0)


    def test_only_small_tables_are_kept(self):
        assert _subset_table(3) is _subset_table(3)
        assert _subset_table(13) is not _subset_table(13)


class TestPolytopeChecks:
    """Table-built and hand-built constraints get the same checks."""

    @staticmethod
    def table_and_fresh(L, masks, bounds):
        sets = _subset_table(L).sets
        table = tuple((sets[m], b) for m, b in zip(masks, bounds))
        fresh = tuple((frozenset(set(sets[m])), b) for m, b in zip(masks, bounds))
        return table, fresh

    def test_unsorted_input_is_sorted_alike(self):
        table, fresh = self.table_and_fresh(3, [7, 4, 1, 6, 2], [5.0, 1.0, 2.0, 4.0, 3.0])
        assert Polytope(3, table) == Polytope(3, fresh)
        assert [b for _, b in Polytope(3, table).constraints] == [2.0, 3.0, 1.0, 4.0, 5.0]

    @pytest.mark.parametrize("masks, bounds, match", [
        ([1, 2, 1], [1.0, 1.0, 1.0], "duplicate"),
        ([1, 2], [1.0, -1.0], "nonnegative"),
        ([3, 3, 1], [1.0, 1.0, -1.0], "duplicate"),
        ([0, 1], [1.0, 1.0], "nonempty"),
    ])
    def test_same_errors(self, masks, bounds, match):
        for cons in self.table_and_fresh(2, masks, bounds):
            with pytest.raises(ValueError, match=match):
                Polytope(2, cons)

    def test_out_of_range_table_set(self):
        sets = _subset_table(3).sets
        with pytest.raises(ValueError, match="out of range"):
            Polytope(2, ((sets[4], 1.0),))

    def test_malformed_constraint_raises_alike(self):
        for subset in (_subset_table(2).sets[1], frozenset({0})):
            with pytest.raises(ValueError, match="unpack"):
                Polytope(2, ((subset, 1.0, 2.0),))

    def test_nan_bound_accepted_alike(self):
        for cons in self.table_and_fresh(2, [3, 1], [float("nan"), 1.0]):
            assert [len(s) for s, _ in Polytope(2, cons).constraints] == [1, 2]


class TestMembership:
    def test_origin_inside_everything(self):
        rng = np.random.default_rng(38)
        state = random_state(rng, L=3)
        origin = np.zeros(3)
        for builder in (tin_region, sd_region, ssnd_region, snd_region):
            assert membership(origin, builder(state, 0, 0))

    def test_point_above_all_singletons_outside(self):
        rng = np.random.default_rng(39)
        state = random_state(rng, L=3)
        region = sd_region(state, 0, 0)
        bounds = dict(region.parts[0].constraints)
        top = max(bounds.values())
        assert not membership(np.full(3, top + 1.0), region)
        snd = snd_region(state, 0, 0)
        assert not membership(np.full(3, 100 * top + 1.0), snd)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(40)
        state = random_state(rng, L=3)
        with pytest.raises(ValueError, match="length"):
            membership(np.zeros(2), sd_region(state, 0, 0))

    def test_negative_point_rejected(self):
        rng = np.random.default_rng(41)
        state = random_state(rng, L=2)
        with pytest.raises(ValueError, match="nonnegative"):
            membership(np.array([-0.1, 0.0]), sd_region(state, 0, 0))

    def test_tin_point_inside_snd(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            state = random_state(rng)
            j = int(rng.integers(state.L))
            point = np.zeros(state.L)
            point[j] = tin_rate(state, j, 0)
            assert membership(point, snd_region(state, j, 0))

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
                in_sd = membership(pt, sd)
                in_ssnd = membership(pt, ssnd)
                in_snd = membership(pt, snd)
                in_tin = membership(pt, tin)
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
                       if membership(p, region)]
            assert members
            for pt in members[:50]:
                shrunk = pt * rng.uniform(0.0, 1.0, size=3)
                assert membership(shrunk, region)


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
                    assert membership(pt, region) == snd_member_two_cell(state, j, 0, pt)

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
                        assert membership(pt, region) == \
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
                assert membership(pt, snd) == (
                    membership(pt, ssnd) or membership(pt, tin))
