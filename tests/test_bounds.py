import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mcmimo import (SCHEMES, ChannelState, SystemParams, bounds, capacity,
                    empirical_power_decomposition, mu_coefficient, network_symmetric_rate,
                    power_terms, preset_scenario, regions, sd_region, snd_region, ssnd_region,
                    tin_rate_asymptotic, tin_region)
from mcmimo.bounds import (check_omega, coherent_power, coherent_powers, mac_bound,
                           noise_floor, noise_floors, state_powers)

from oracles import direct_bound, mask_of, random_state, subset_sum


def kernel_bound(state, j, i, theta, omega):
    """The library bound for bitmasks theta and omega."""
    coh = coherent_power(state, j, i).tolist()
    noise = subset_sum(coh, ((1 << state.L) - 1) ^ omega)
    return float(mac_bound(subset_sum(coh, theta), noise, noise_floor(state, j)))


def unit_state():
    params = SystemParams(L=1, K=1, M=1.0, rho_u=1.0, rho_p=1.0)
    return ChannelState.from_beta(np.ones((1, 1, 1)), params)


class TestPowerTerms:
    def test_hand_values_unit_network(self):
        pw = power_terms(unit_state(), 0, 0, {0})
        # alpha = 1/2: desired = rho_p rho_u beta^2 alpha^2, noise = sqrt(rho_p) beta alpha
        assert pw.desired == pytest.approx(0.25, rel=1e-14)
        assert pw.est_error == pytest.approx(0.5, rel=1e-14)
        assert pw.other_users == 0.0
        assert pw.noise == pytest.approx(0.5, rel=1e-14)

    def test_empty_omega_has_no_desired_power(self):
        pw = power_terms(unit_state(), 0, 0, set())
        assert pw.desired == 0.0
        assert pw.noise > 0.0

    def test_quadratic_vs_linear_antenna_scaling(self):
        rng = np.random.default_rng(21)
        state = random_state(rng, L=3, K=2)
        one = power_terms(state, 0, 0, {0, 1})
        two = power_terms(state.with_m(2 * state.params.M), 0, 0, {0, 1})
        assert two.desired == pytest.approx(4.0 * one.desired, rel=1e-12)
        assert two.est_error == pytest.approx(2.0 * one.est_error, rel=1e-12)
        assert two.other_users == pytest.approx(2.0 * one.other_users, rel=1e-12)
        assert two.noise == pytest.approx(2.0 * one.noise, rel=1e-12)

    def test_ratio_identity_with_rate_bound(self):
        # C(desired / total_noise) equals the closed-form bound for the full set
        rng = np.random.default_rng(22)
        for _ in range(100):
            state = random_state(rng)
            j = int(rng.integers(state.L))
            i = int(rng.integers(state.K))
            full = (1 << state.L) - 1
            pw = power_terms(state, j, i, range(state.L))
            via_powers = capacity(pw.desired / pw.total_noise)
            direct = kernel_bound(state, j, i, full, full)
            assert direct == pytest.approx(via_powers, rel=1e-12)


class TestRateBound:
    def test_hand_value_unit_network(self):
        rate = kernel_bound(unit_state(), 0, 0, 0b1, 0b1)
        assert rate == pytest.approx(math.log2(1.25), rel=1e-14)

    def test_out_of_range_indices_rejected(self):
        state = random_state(np.random.default_rng(28), L=3, K=2)
        for j, i in ((3, 0), (-1, 0), (0, 2), (0, -1)):
            with pytest.raises(ValueError, match="out of range"):
                coherent_power(state, j, i)

    @pytest.mark.parametrize("coh", [[1e16, 1.0, 1.0], [1.0, 1.0, 1e16]])
    def test_subset_sum_adds_weakest_first(self, coh):
        # 1e16 + 1 + 1 rounds to 1e16, but the two ones added first give 2
        # and then 1e16 + 2 exactly, whichever labels the cells carry (an
        # order by index, highest first, gives 1e16 for the second labelling)
        big = coh.index(1e16)
        assert subset_sum(coh, 0b111) == 1e16 + 2.0
        assert subset_sum(coh, 0b111 ^ 1 << big) == 2.0
        assert subset_sum(coh, 0) == 0.0
        # the same cases through the array helper, with int64 and object masks
        for dtype in (np.int64, object):
            masks = np.array([0b111, 0b111 ^ 1 << big, 0], dtype=dtype)
            assert regions._mask_sums(np.array(coh), masks).tolist() == [1e16 + 2.0, 2.0, 0.0]

    def test_mask_sums_equal_subset_sum_to_the_bit(self):
        rng = np.random.default_rng(31)
        for L in (1, 5, 13, 63, 64, 96):
            coh = rng.lognormal(0.0, 8.0, L)
            masks = [int.from_bytes(rng.bytes(12), "little") >> 96 - L for _ in range(50)]
            got = regions._mask_sums(coh, np.array(masks, dtype=np.int64 if L < 64 else object))
            assert got.tolist() == [subset_sum(coh, mask) for mask in masks]

    def test_kernel_matches_direct_bound(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            state = random_state(rng)
            j = int(rng.integers(state.L))
            i = int(rng.integers(state.K))
            omega = int(rng.integers(1, 1 << state.L)) | 1 << j
            theta = int(rng.integers(1, 1 << state.L)) & omega or 1 << j
            cells = [l for l in range(state.L) if theta >> l & 1]
            decoded = [l for l in range(state.L) if omega >> l & 1]
            assert kernel_bound(state, j, i, theta, omega) == pytest.approx(
                direct_bound(state, j, i, cells, decoded), rel=1e-14)

    def test_vectorized_bounds_equal_scalar_calls(self):
        # solvers and region builders evaluate many bounds per call, TIN one
        rng = np.random.default_rng(30)
        for _ in range(100):
            state = random_state(rng)
            j = int(rng.integers(state.L))
            coh = coherent_power(state, j, 0).tolist()
            floor = noise_floor(state, j)
            nums = [subset_sum(coh, m) for m in range(1, 1 << state.L)]
            noises = nums[::-1]
            together = mac_bound(nums, noises, floor).tolist()
            assert together == [float(mac_bound(n, d, floor))
                                for n, d in zip(nums, noises)]

    def test_monotone_in_theta(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            state = random_state(rng, L=4)
            small = kernel_bound(state, 0, 0, 0b0011, 0b1111)
            large = kernel_bound(state, 0, 0, 0b0111, 0b1111)
            assert large > small

    def test_decoding_more_interferers_raises_bound(self):
        # moving a user from treated-as-noise into the decoded set cannot
        # hurt the bound on the remaining subset
        rng = np.random.default_rng(24)
        for _ in range(50):
            state = random_state(rng, L=3)
            narrow = kernel_bound(state, 0, 0, 0b01, 0b01)
            wide = kernel_bound(state, 0, 0, 0b01, 0b11)
            assert wide >= narrow

    def test_noise_floor_at_least_unity(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            state = random_state(rng)
            for j in range(state.L):
                assert noise_floor(state, j) >= 1.0

    def test_log_m_growth(self):
        state = preset_scenario("two-cell-scenario-a").state()
        def excess(m):
            return kernel_bound(state.with_m(m), 0, 0, 0b11, 0b11) - math.log2(m)

        gaps = [abs(excess(10.0 ** e) - excess(10.0 ** (e + 1))) for e in (4, 6, 8)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3


def two_pass_bound(n_theta, n_noise, floor):
    """The bound with a fresh array per step: add, divide, log1p, scale."""
    return np.log1p(np.divide(n_theta, np.add(n_noise, floor))) / math.log(2.0)


def read_only(array):
    array = np.array(array)
    array.flags.writeable = False
    return array


class TestMacBoundArrays:
    """mac_bound writes no input and returns the bits and types of the
    two-pass formula."""

    @staticmethod
    def shapes(rng):
        """(n_theta, n_noise, floor) of every calling shape."""
        N, L, G = 5, 4, 7
        num = rng.uniform(0.0, 1e3, (N, L + 1, L))
        noise = rng.uniform(0.0, 1e3, N * (L + 1))
        floor = rng.uniform(1.0, 10.0, N)
        return [
            (2.5, 0.75, 1.5),
            (np.float64(2.5), np.float64(0.0), 1.0),
            (list(num[0, 0]), list(noise[:L]), float(floor[0])),
            (num[0, 0], noise[:L], float(floor[0])),
            (num[0, 0, :1], noise[:3], float(floor[0])),  # (1,) over (3,)
            (num, noise.reshape(N, L + 1)[..., None], floor[:, None, None]),  # the kernel
            (rng.uniform(0.0, 1e3, (4, G)), rng.uniform(0.0, 1e3, (4, G)),
             rng.uniform(1.0, 10.0, G)),  # _two_cell_values
        ]

    def test_equals_the_two_pass_formula(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            for n_theta, n_noise, floor in self.shapes(rng):
                want = two_pass_bound(n_theta, n_noise, floor)
                got = mac_bound(n_theta, n_noise, floor)
                assert type(got) is type(want)
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_read_only_inputs_are_left_alone(self):
        rng = np.random.default_rng(61)
        for args in self.shapes(rng):
            args = [read_only(a) if np.ndim(a) else a for a in args]
            before = [np.asarray(a).tobytes() for a in args]
            got = mac_bound(*args)
            assert [np.asarray(a).tobytes() for a in args] == before
            assert np.asarray(got).tobytes() == np.asarray(two_pass_bound(*args)).tobytes()

    def test_state_memo_arrays_go_in_as_they_are(self):
        state = random_state(np.random.default_rng(62), L=4, K=2)
        coh, floor = state_powers(state, 1)
        assert not coh.flags.writeable and not floor.flags.writeable
        saved = coh.tobytes(), floor.tobytes()
        got = mac_bound(coh, coh[:, ::-1], floor[:, None])
        assert got.tobytes() == two_pass_bound(coh, coh[:, ::-1], floor[:, None]).tobytes()
        assert (coh.tobytes(), floor.tobytes()) == saved

    def test_a_float64_noise_of_the_shape_is_left_alone(self):
        rng = np.random.default_rng(63)
        n_theta, n_noise = rng.uniform(0.0, 1e3, 9), rng.uniform(0.0, 1e3, 9)
        assert n_noise.flags.writeable
        saved = n_noise.tobytes()
        got = mac_bound(n_theta, n_noise, 1.5)
        assert got is not n_noise and n_noise.tobytes() == saved
        assert got.tobytes() == two_pass_bound(n_theta, n_noise, 1.5).tobytes()

    def test_capacity_out(self):
        snr = np.random.default_rng(64).uniform(0.0, 1e6, 50)
        want = capacity(snr)
        out = snr.copy()
        assert capacity(out, out=out) is out
        assert out.tobytes() == want.tobytes()
        assert type(capacity(3.0)) is np.float64


@pytest.mark.parametrize("terms", [
    pytest.param(lambda state, j, i: power_terms(state, j, i, [0]), id="power_terms"),
    pytest.param(mu_coefficient, id="mu_coefficient"),
    pytest.param(tin_rate_asymptotic, id="tin_rate_asymptotic"),
])
def test_analytic_terms_reject_out_of_range_indices(terms):
    state = random_state(np.random.default_rng(27), L=3, K=2)
    for j, i in ((-1, 0), (3, 0), (0, -1), (0, 2)):
        with pytest.raises(ValueError, match="out of range"):
            terms(state, j, i)


@pytest.mark.parametrize("j, message", [
    (-1, "BS index -1 out of range for L=3"),
    (3, "BS index 3 out of range for L=3"),
    (True, "BS index must be an integer, got True"),
    (1.0, "BS index must be an integer, got 1.0"),
])
def test_noise_floor_rejects_non_indices(j, message):
    # numpy reads -1 from the end, True as a mask, and refuses 3 and 1.0
    # with errors of its own
    state = random_state(np.random.default_rng(27), L=3, K=2)
    with pytest.raises(ValueError) as exc:
        noise_floor(state, j)
    assert str(exc.value) == message


@pytest.mark.parametrize("omega, message", [
    ([True], r"omega entries must be integers, got \[True\]"),
    ([np.bool_(False)], r"omega entries must be integers, got \[np.False_\]"),
    ([0, 0.0], r"omega entries must be integers, got \[0, 0.0\]"),
    ([1.5], r"omega entries must be integers, got \[1.5\]"),
    ([0, -1], r"omega \[-1, 0\] has entries out of range for L=3"),
    ([3], r"omega \[3\] has entries out of range for L=3"),
    (5, r"omega must be an iterable of cell indices, got 5"),
    (None, r"omega must be an iterable of cell indices, got None"),
])
def test_check_omega_refuses_non_indices(omega, message):
    # numpy would read True as a mask, -1 from the end, and refuse 0.0
    state = random_state(np.random.default_rng(27), L=3, K=2)
    for check in (check_omega, lambda s, o: power_terms(s, 0, 0, o),
                  lambda s, o: empirical_power_decomposition(s, 0, 0, o, 1000, 0)):
        with pytest.raises(ValueError, match=message):
            check(state, omega)
    assert check_omega(state, (2, np.int64(0), 2)) == [0, 2]


class TestTinRates:
    def test_single_cell_tin_equals_full_bound(self):
        state = unit_state()
        assert tin_region(state, 0, 0).bound[0] == kernel_bound(state, 0, 0, 0b1, 0b1)

    def test_equal_gains_saturate_at_one_bit(self):
        beta = np.full((2, 1, 2), 0.3)
        params = SystemParams(L=2, K=1, M=1e12, rho_u=1.0, rho_p=1.0)
        state = ChannelState.from_beta(beta, params)
        assert tin_region(state, 0, 0).bound[0] < 1.0
        assert tin_rate_asymptotic(state, 0, 0) == pytest.approx(1.0, rel=1e-12)

    def test_asymptote_values(self):
        beta = np.array([[[0.4, 0.2]], [[0.2, 0.4]]])
        params = SystemParams(L=2, K=1, M=10.0, rho_u=1.0, rho_p=1.0)
        state = ChannelState.from_beta(beta, params)
        assert tin_rate_asymptotic(state, 0, 0) == pytest.approx(math.log2(5.0), rel=1e-14)

    def test_single_cell_unbounded(self):
        assert tin_rate_asymptotic(unit_state(), 0, 0) == math.inf

    def test_finite_tin_approaches_asymptote(self):
        state = preset_scenario("two-cell-scenario-a").state().with_m(1e9)
        finite = tin_region(state, 0, 0).bound[0]
        limit = tin_rate_asymptotic(state, 0, 0)
        assert abs(finite - limit) / limit < 0.01
        assert finite < limit


class TestMuCoefficient:
    def test_hand_value_unit_network(self):
        assert mu_coefficient(unit_state(), 0, 0) == pytest.approx(0.25, rel=1e-14)

    def test_full_decode_identity(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            state = random_state(rng)
            j = int(rng.integers(state.L))
            i = int(rng.integers(state.K))
            mu = mu_coefficient(state, j, i)
            full = (1 << state.L) - 1
            subset = sorted(int(l) for l in rng.choice(
                state.L, size=rng.integers(1, state.L + 1), replace=False))
            via_mu = capacity(mu * (state.beta[j, i, subset] ** 2).sum())
            assert kernel_bound(state, j, i, mask_of(subset), full) == pytest.approx(
                via_mu, rel=1e-12)

    def test_linear_in_antennas(self):
        rng = np.random.default_rng(26)
        state = random_state(rng, L=3, K=2)
        assert mu_coefficient(state.with_m(2 * state.params.M), 0, 0) == pytest.approx(
            2.0 * mu_coefficient(state, 0, 0), rel=1e-13)


class TestOverflow:
    """Finite inputs whose powers overflow raise one ValueError, and no numpy
    warning (the suite turns warnings into errors)."""

    def test_overflowing_coherent_power_rejected(self):
        state = preset_scenario("two-cell-scenario-a").state()
        p, beta, alpha = state.params, state.beta, state.stats.alpha
        coh = coherent_powers(np.array([1e3, 1e300]), p, beta, alpha, 0)
        assert coh.shape == (2, 2, 2) and np.isfinite(coh).all()
        with pytest.raises(ValueError,
                           match=r"coherent power .* overflows: M, rho_p or rho_u"):
            coherent_powers(np.array([1e3, 1e308]), p, beta, alpha, 0)
        with pytest.raises(ValueError, match="overflows"):
            coherent_power(state.with_m(1e308), 0, 0)

    def test_overflowing_power_terms_rejected(self):
        # with K = 1 the other-user sum is 0, and 0 times an overflowed
        # scale was nan
        params = SystemParams(L=2, K=1, M=100.0, rho_u=1e308, rho_p=120.0)
        state = ChannelState.from_beta(np.full((2, 1, 2), 0.5), params)
        with pytest.raises(ValueError, match="power terms overflow: M, rho_p or rho_u"):
            power_terms(state, 0, 0, [0, 1])
        with pytest.raises(ValueError, match="power terms overflow"):
            power_terms(preset_scenario("two-cell-scenario-a").state().with_m(1e308),
                        0, 0, [0])

    def test_overflowing_noise_floor_rejected(self):
        beta = np.ones((2, 1, 2))
        assert noise_floors(beta, 1e307).tolist() == [2e307 + 1.0] * 2
        with pytest.raises(ValueError, match=r"noise floor .* overflows: rho_u is too large"):
            noise_floors(beta, 1e308)


class TestPowerMemo:
    """A state forms its coherent powers (per pilot) and noise floors once;
    the memo reads equal the unmemoized kernels to the bit."""

    def test_memo_equals_unmemoized_kernels(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            state = random_state(rng)
            p = state.params
            for i in range(state.K):
                coh = coherent_powers(p.M, p, state.beta, state.stats.alpha, i)
                for j in range(state.L):
                    assert repr(coherent_power(state, j, i)) == repr(coh[j])
                    assert repr(noise_floor(state, j)) == repr(
                        float(noise_floors(state.beta[j], p.rho_u)))

    def test_arrays_are_read_only(self):
        state = random_state(np.random.default_rng(72), L=3, K=2)
        coh, floor = state_powers(state, 1)
        for array in (coh, floor, coherent_power(state, 2, 1)):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_one_state_forms_its_powers_once(self, monkeypatch):
        calls = {"coherent_powers": 0, "noise_floors": 0}
        for name in calls:
            def counted(*args, _f=getattr(bounds, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(bounds, name, counted)
        state = random_state(np.random.default_rng(73), L=4, K=2)
        for scheme in SCHEMES:
            network_symmetric_rate(state, scheme, 1)
        for builder in (sd_region, ssnd_region, snd_region):
            builder(state, 2, 1)
        assert calls == {"coherent_powers": 1, "noise_floors": 1}
        coherent_power(state, 0, 0)
        assert calls == {"coherent_powers": 2, "noise_floors": 1}

    def test_with_m_has_its_own_memo(self):
        state = random_state(np.random.default_rng(74), L=3, K=2)
        parent = coherent_power(state, 0, 0)
        child = state.with_m(2.0 * state.params.M)
        p = child.params
        want = coherent_powers(p.M, p, child.beta, child.stats.alpha, 0)[0]
        assert repr(coherent_power(child, 0, 0)) == repr(want)
        assert not np.shares_memory(coherent_power(child, 0, 0), parent)
        assert (coherent_power(child, 0, 0) != parent).all()
        assert repr(coherent_power(state, 0, 0)) == repr(parent)

    def test_overflow_raises_on_every_call(self):
        state = preset_scenario("two-cell-scenario-a").state().with_m(1e308)
        for _ in range(2):
            with pytest.raises(ValueError, match="overflows"):
                coherent_power(state, 0, 0)
        assert state._powers == {}


def memo_tables(state):
    """The subset-sum tables held in a state's memo."""
    values = [a for v in state._powers.values() for a in (v if isinstance(v, tuple) else (v,))]
    return [a for a in values if isinstance(a, np.ndarray) and a.shape == (1 << state.L,)]


def unmemoized(state):
    """The same channel state with an empty memo."""
    return ChannelState(params=state.params, beta=state.beta, stats=state.stats)


def region_columns(region):
    return [(c.dtype.str, c.tobytes()) for c in
            (region.omega, region.offsets, region.theta, region.bound)]


class TestTableMemo:
    """The SD, S-SND and SND builds at one (BS, pilot) read one subset-sum
    table, kept in the state's memo; the memo holds the last table only."""

    @pytest.fixture
    def tables(self, monkeypatch):
        calls = []

        def counted(coh, masks, _f=regions._mask_sums):
            calls.append(coh)
            return _f(coh, masks)

        monkeypatch.setattr(regions, "_mask_sums", counted)
        return calls

    def test_one_table_per_bs_and_pilot(self, tables):
        state = random_state(np.random.default_rng(75), L=4, K=2)
        for builder in (snd_region, ssnd_region, sd_region):
            builder(state, 2, 1)
        assert len(tables) == 1
        assert repr(tables[0]) == repr(coherent_power(state, 2, 1))
        for builder in (snd_region, ssnd_region, sd_region):
            builder(state, 2, 1)
        assert len(tables) == 1

    def test_new_bs_or_pilot_forms_a_new_table_and_keeps_one(self, tables):
        state = random_state(np.random.default_rng(76), L=4, K=2)
        keys = [(2, 1), (0, 1), (0, 0), (2, 1)]
        want = [region_columns(snd_region(unmemoized(state), j, i)) for j, i in keys]
        tables.clear()
        for n, (j, i) in enumerate(keys, start=1):
            assert region_columns(snd_region(state, j, i)) == want[n - 1]
            assert len(tables) == n
            assert state._powers["sums"][0] == (j, i)
            assert len(memo_tables(state)) == 1

    def test_table_is_read_only(self):
        state = random_state(np.random.default_rng(77), L=3, K=2)
        table = regions._sums(state, 1, 0)
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0
        assert regions._sums(state, 1, 0) is table

    def test_with_m_starts_empty(self, tables):
        state = random_state(np.random.default_rng(78), L=3, K=2)
        parent = sd_region(state, 1, 0)
        child = state.with_m(2.0 * state.params.M)
        assert "sums" not in child._powers
        got = sd_region(child, 1, 0)
        assert len(tables) == 2
        assert (got.bound > parent.bound).all()
        assert region_columns(sd_region(state, 1, 0)) == region_columns(parent)

    def test_threads_read_the_serial_columns(self):
        rng = np.random.default_rng(79)
        state = random_state(rng, L=5, K=3)
        keys = [(builder, j, i) for builder in (sd_region, ssnd_region, snd_region)
                for j in range(5) for i in range(3)] * 3
        rng.shuffle(keys)
        serial = [region_columns(b(unmemoized(state), j, i)) for b, j, i in keys]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                threaded = list(pool.map(lambda key: region_columns(key[0](state, *key[1:])),
                                         keys, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
        assert len(memo_tables(state)) == 1
