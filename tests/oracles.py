"""Independent reference implementations used to cross-check fast paths.

Everything here deliberately avoids the production shortcuts: symmetric
rates come from exhaustive subset enumeration, bisection on membership or
a scalar loop over the constraints of a validated :class:`Polytope`,
union-region membership comes from the explicit two- and three-cell
inequality systems rather than the part-by-part union construction, and the
Monte Carlo reference samples every BS's M-vectors rather than drawing the
combiner's scalars from the R factor of BS j's own-slot channels.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, repeat
from operator import lt, or_
from typing import Sequence

import numpy as np
from hypothesis import strategies as st

from mcmimo import (SCHEMES, CellLayout, ChannelState, RegionFamily, SystemParams,
                    classify_two_cell, network_symmetric_rate)
from mcmimo import montecarlo
from mcmimo.bounds import PowerDecomposition, capacity, coherent_power, noise_floor
from mcmimo.scenarios import EQ_RTOL, REL_TOL, Crossing, SweepRow
from mcmimo.estimation import EstimationStats
from mcmimo.montecarlo import complex_normal
from mcmimo.regions import _mask_sums, _rate_point


def direct_bound(state: ChannelState, j: int, i: int, theta, omega) -> float:
    """The sum-rate bound C(N(theta) / (N(omega^c) + F)) for explicit cell
    sets, summed by numpy in index order rather than by the library's
    bitmask kernel."""
    theta, omega = sorted(set(theta)), set(omega)
    if not theta or not set(theta) <= omega:
        raise ValueError("theta must be a nonempty subset of omega")
    coh = coherent_power(state, j, i)
    omega_c = [l for l in range(state.L) if l not in omega]
    return float(capacity(coh[theta].sum() / (coh[omega_c].sum() + noise_floor(state, j))))


def case_threshold_m(state: ChannelState, j: int, i: int) -> float:
    """The antenna count at which a two-cell network leaves case (i).

    With c the coherent power per antenna (own cell c_o, cross cell c_x) and
    F the noise floor, case (i) holds iff the cross user's bound is below the
    TIN rate, C(c_x M / F) < C(c_o M / (c_x M + F)), that is iff
    c_x^2 M + c_x F < c_o F, so the threshold is M* = F (c_o - c_x) / c_x^2.
    """
    c = coherent_power(state, j, i) / state.params.M
    c_own, c_cross = c[j], c[1 - j]
    return float(noise_floor(state, j) * (c_own - c_cross) / c_cross ** 2)


def _sequential_labels(scenario, axis: str, pilot: int):
    """``point(value)``: the network rates of every scheme and the two-cell
    case at BS 0 (None for other L), from
    ``scenario.with_axis(axis, value).state()``, each value built once; and
    the indicators of a sweep, ``{name: label(value)}``: the order of every
    scheme pair, with rates within relative EQ_RTOL of each other (or of 1)
    counting as equal, and for two cells the case label."""
    points = {}

    def point(value):
        if value not in points:
            state = scenario.with_axis(axis, value).state()
            rates = {s: network_symmetric_rate(state, s, pilot).network_rate for s in SCHEMES}
            case = classify_two_cell(state, 0, pilot).label if state.L == 2 else None
            points[value] = rates, case
        return points[value]

    def order(rates, p, q):
        a, b = rates[p], rates[q]
        if abs(a - b) <= EQ_RTOL * max(abs(a), abs(b), 1.0):
            return "="
        return ">" if a > b else "<"

    indicators = {f"{p}-{q}": lambda v, p=p, q=q: order(point(v)[0], p, q)
                  for p, q in combinations(SCHEMES, 2)}
    if scenario.params.L == 2:
        indicators["case"] = lambda v: point(v)[1]
    return point, indicators


def _is_open(lo: float, hi: float) -> bool:
    return hi - lo > REL_TOL * max(abs(lo), abs(hi))


def sequential_sweep(scenario, axis: str, grid, pilot: int = 0):
    """The rows and thresholds of ``sweep``, from one channel state per axis
    value and one bracket bisected at a time.

    Every value gets its own channel state, network rates from
    ``network_symmetric_rate`` per scheme and, for two cells, its case from
    ``classify_two_cell`` at BS 0.  Each change of an indicator between
    grid neighbours is bisected on its own until the bracket is narrower
    than REL_TOL relative.
    """
    point, indicators = _sequential_labels(scenario, axis, pilot)
    rows = tuple(SweepRow(value=v, rates=point(v)[0], case=point(v)[1]) for v in grid)

    thresholds = []
    for name, label in indicators.items():
        for lo, hi in zip(grid, grid[1:]):
            before, after = label(lo), label(hi)
            if before == after:
                continue
            while _is_open(lo, hi):
                mid = 0.5 * (lo + hi)
                if label(mid) == before:
                    lo = mid
                else:
                    hi = mid
            thresholds.append(Crossing(name=name, before=before, after=after,
                                       value=0.5 * (lo + hi), rel_tol=REL_TOL))
    return rows, tuple(sorted(thresholds, key=lambda c: (c.value, c.name)))


def tree_schedule_calls(scenario, axis: str, grid, pilot: int = 0) -> int:
    """The number of stacked evaluations a sweep makes when each refinement
    call holds only bisection trees: the grid, then one call per round.  A
    round takes the n distinct open brackets and the most levels d with
    n (2^d - 1) <= len(grid), at least one; it evaluates every open node of
    each bracket's depth-d tree not evaluated before (no call if there is
    none), and moves every bracket d bisection steps.  Signs come from
    per-value states, as in :func:`sequential_sweep`."""
    grid = [float(v) for v in grid]
    _, indicators = _sequential_labels(scenario, axis, pilot)
    # (label, sign at lo, lo, hi) of every open bracket
    active = [(label, label(lo), lo, hi) for label in indicators.values()
              for lo, hi in zip(grid, grid[1:])
              if label(lo) != label(hi) and _is_open(lo, hi)]
    evaluated, calls = set(grid), 1
    while active:
        spans = {(lo, hi) for _, _, lo, hi in active}
        levels = max(1, (len(grid) // len(spans) + 1).bit_length() - 1)
        new, todo = set(), [(lo, hi, levels) for lo, hi in spans]
        while todo:
            lo, hi, d = todo.pop()
            if d and _is_open(lo, hi):
                mid = 0.5 * (lo + hi)
                new.add(mid)
                todo += [(lo, mid, d - 1), (mid, hi, d - 1)]
        if new - evaluated:
            calls += 1
            evaluated |= new
        moved = []
        for label, before, lo, hi in active:
            for _ in range(levels):
                if not _is_open(lo, hi):
                    break
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if label(mid) == before else (lo, mid)
            if _is_open(lo, hi):
                moved.append((label, before, lo, hi))
        active = moved
    return calls


def _mirrored_pair(center_a, center_b, radius, angle_deg):
    """User points of two cells mirrored across their bisector, at
    ``angle_deg`` from the ray toward the other BS."""
    phi = math.radians(angle_deg)
    ux = radius * math.cos(phi)
    uy = radius * math.sin(phi)
    pa = (center_a[0] + ux, center_a[1] + uy)
    pb = (center_b[0] - ux, center_b[1] + uy)
    return pa, pb


def two_cell_points(x: float, spacing: float, user_angle_deg: float = 180.0):
    """BS points and one user point per cell of one two-cell recipe, from
    Python floats and ``math`` trig."""
    if x <= 0:
        raise ValueError(f"cell radius 'x' must be positive, got {x!r}")
    if spacing <= 0:
        raise ValueError(f"BS spacing 'spacing' must be positive, got {spacing!r}")
    bs = ((0.0, 0.0), (spacing, 0.0))
    return bs, _mirrored_pair(*bs, x, user_angle_deg)


def three_cell_points(x: float, spacing: float | None = None, theta_deg: float = 90.0,
                      outer_angle_deg: float = 180.0):
    """BS points and one user point per cell of one three-cell recipe, from
    Python floats and ``math`` trig."""
    if x <= 0:
        raise ValueError(f"cell radius 'x' must be positive, got {x!r}")
    if spacing is None:
        spacing = 2.0 * x
    if spacing <= 0:
        raise ValueError(f"BS spacing 'spacing' must be positive, got {spacing!r}")
    if not 0.0 <= theta_deg <= 360.0:
        raise ValueError(f"'theta_deg' must be in [0, 360], got {theta_deg!r}")
    bs = ((0.0, 0.0), (spacing, 0.0), (2.0 * spacing, 0.0))
    p_left, p_right = _mirrored_pair(bs[0], bs[2], x, outer_angle_deg)
    th = math.radians(theta_deg)
    p_mid = (spacing - x * math.cos(th), x * math.sin(th))
    return bs, (p_left, p_mid, p_right)


def scalar_layouts(kind: str, users_per_cell: int, recipes):
    """BS positions (G, L, 2) and user positions (G, L, K, 2) of G two- or
    three-cell recipes, each built on its own with Python floats, checked
    before the next one: the construction the array-built layouts must
    reproduce to the bit, first error included."""
    points = {"two_cell": two_cell_points, "three_cell": three_cell_points}[kind]
    bs, users = zip(*(points(**recipe) for recipe in recipes))
    users = np.array(users, dtype=float)[:, :, None, :]
    return np.array(bs, dtype=float), np.repeat(users, users_per_cell, axis=2)


def cells(mask: int) -> frozenset:
    """The cell set of a bitmask."""
    return frozenset(l for l in range(mask.bit_length()) if mask >> l & 1)


def mask_of(cells) -> int:
    """The bitmask of a cell set."""
    return sum(1 << l for l in set(cells))


def random_state(rng: np.random.Generator, L: int | None = None,
                 K: int | None = None, m_lo: float = 1.0,
                 m_hi: float = 1e6) -> ChannelState:
    """Random instance with nearest-BS association (own gain is the largest)."""
    L = L if L is not None else int(rng.integers(1, 7))
    K = K if K is not None else int(rng.integers(1, 5))
    beta = 10.0 ** rng.uniform(-4.0, 0.0, size=(L, K, L))
    # lift the own-cell gain to the row maximum so users attach to the
    # nearest BS, as the canonical layouts do
    for j in range(L):
        for k in range(K):
            beta[j, k, j] = beta[j, k].max() * rng.uniform(1.0, 3.0)
    params = SystemParams(
        L=L, K=K,
        M=float(10.0 ** rng.uniform(np.log10(m_lo), np.log10(m_hi))),
        rho_u=float(10.0 ** rng.uniform(-1.0, 2.0)),
        rho_p=float(10.0 ** rng.uniform(-1.0, 2.5)),
    )
    return ChannelState.from_beta(beta, params)


def ring_layout(rng: np.random.Generator, L: int, K: int = 2) -> CellLayout:
    """L cells of radius 400 m on a ring with 800 m between neighbouring BSs
    and users at random points of their own cell."""
    ring = 400.0 / math.sin(math.pi / L) if L > 1 else 0.0
    bs = [[ring * math.cos(2 * math.pi * l / L), ring * math.sin(2 * math.pi * l / L)]
          for l in range(L)]
    rad = 400.0 * np.sqrt(rng.uniform(0.01, 1.0, (L, K)))
    phi = rng.uniform(0.0, 2 * math.pi, (L, K))
    users = [[[bs[l][0] + rad[l, k] * math.cos(phi[l, k]),
               bs[l][1] + rad[l, k] * math.sin(phi[l, k])] for k in range(K)]
             for l in range(L)]
    return CellLayout(bs, users)


def ring_params(L: int, K: int = 2, M: float = 1e4) -> SystemParams:
    """The reference parameters of the bundled presets for an L-cell ring."""
    return SystemParams(L=L, K=K, M=M, rho_u=30.0, rho_p=120.0, alpha_pl=2.0, d0=100.0)


def ring_state(rng: np.random.Generator, L: int, K: int = 2,
               M: float = 1e4) -> ChannelState:
    """A :func:`ring_layout` network under :func:`ring_params`."""
    return ChannelState.from_layout(ring_layout(rng, L, K), ring_params(L, K, M))


def _tiebreak(subset):
    return (len(subset), mask_of(subset))


def _full_decode_value(state: ChannelState, j: int, i: int, combo) -> float:
    """Per-user bound for one subset under full joint decoding, from scratch:
    plain Python sums over the coherent powers, no shared subset tables."""
    p = state.params
    b = state.beta[j, i, :]
    a = state.stats.alpha[j, i, :]
    num = sum(p.M * math.sqrt(p.rho_p) * p.rho_u * b[l] * a[l] for l in combo)
    floor = p.rho_u * state.beta[j].sum() + 1.0
    # log1p keeps full relative precision in the low-SINR regime
    return math.log1p(num / floor) / math.log(2.0) / len(combo)


def brute_force_sd(state: ChannelState, j: int, i: int):
    """Min over all 2^L - 1 nonempty subsets of bound / cardinality, and the
    binding subset as a bitmask."""
    best, best_set = np.inf, None
    for q in range(1, state.L + 1):
        for combo in combinations(range(state.L), q):
            val = _full_decode_value(state, j, i, combo)
            key = _tiebreak(combo)
            if val < best or (val == best and key < _tiebreak(best_set)):
                best, best_set = val, combo
    return best, mask_of(best_set)


def brute_force_ssnd(state: ChannelState, j: int, i: int):
    """Same as :func:`brute_force_sd` restricted to subsets containing j."""
    best, best_set = np.inf, None
    for q in range(1, state.L + 1):
        for combo in combinations(range(state.L), q):
            if j not in combo:
                continue
            val = _full_decode_value(state, j, i, combo)
            key = _tiebreak(combo)
            if val < best or (val == best and key < _tiebreak(best_set)):
                best, best_set = val, combo
    return best, mask_of(best_set)


def brute_force_snd(state: ChannelState, j: int, i: int):
    """Max over decoded sets containing j of the per-part polytope value."""
    L = state.L
    best = -np.inf
    for qo in range(1, L + 1):
        for omega in combinations(range(L), qo):
            if j not in omega:
                continue
            inner = np.inf
            for qt in range(1, qo + 1):
                for theta in combinations(omega, qt):
                    inner = min(inner, direct_bound(state, j, i, theta, omega) / qt)
            best = max(best, inner)
    return best


def subset_sum(coh, mask: int) -> float:
    """N(mask): the sum of ``coh[l]`` over the set bits l of ``mask``.

    The terms are added from 0.0 weakest first, exactly tied cells lowest
    index first.  Every bound sums in this one order, which is what makes a
    solver's rate equal, to the bit, the value read off the matching region.
    """
    total = 0.0
    for l in sorted((l for l in range(mask.bit_length()) if mask >> l & 1),
                    key=lambda l: coh[l]):  # a stable sort of the cells in index order
        total += coh[l]
    return total


def subset_sum_table(values: np.ndarray) -> np.ndarray:
    """sums[mask] = :func:`subset_sum` of every mask below 2^len(values)."""
    values = np.asarray(values, dtype=float).tolist()
    return np.array([subset_sum(values, mask) for mask in range(1 << len(values))])


@dataclass(frozen=True)
class Polytope:
    """Rates R >= 0 with sum_{l in mask} R_l <= bound for each constraint.

    ``constraints`` holds ``(mask, bound)`` pairs: a nonzero int bitmask of
    cells below ``2**dim`` and a nonnegative rate bound.  Masks must be
    distinct; they are stored sorted by (cardinality, mask).  Missing subsets
    are unbounded.
    """

    dim: int
    constraints: tuple[tuple[int, float], ...]

    def __post_init__(self):
        # C-level passes over the whole sequence: a part of an SND region can
        # hold thousands of constraints.
        cons = tuple(self.constraints)
        try:
            table = dict(cons)
        except (TypeError, ValueError):
            raise ValueError("each constraint must be a (mask, bound) pair") from None
        if len(table) != len(cons):
            raise ValueError("duplicate constraint mask")
        try:
            by_mask = sorted(table)
            order = sorted(by_mask, key=int.bit_count)  # (cardinality, mask) order
        except TypeError:
            raise TypeError("constraint masks must be int bitmasks") from None
        if by_mask and by_mask[0] == 0:
            raise ValueError("constraint masks must be nonempty")
        if by_mask and (by_mask[0] < 0 or by_mask[-1] >> self.dim):
            raise ValueError(f"constraint mask out of range for dim {self.dim}")
        if any(map(lt, table.values(), repeat(0))):
            raise ValueError("constraint bounds must be nonnegative")
        if order != list(table):
            cons = tuple(zip(order, map(table.__getitem__, order)))
        object.__setattr__(self, "constraints", cons)

    def contains(self, point: Sequence[float]) -> bool:
        rates = _rate_point(point, self.dim)
        masks = np.array([mask for mask, _ in self.constraints], dtype=object)
        return not (_mask_sums(rates, masks) > [bound for _, bound in self.constraints]).any()


def polytope_symmetric_rate(poly: Polytope) -> tuple[float, int]:
    """Largest R with (R, ..., R) in the polytope, and the binding mask: the
    first constraint attaining the least bound / |mask|, which is the
    smaller set on ties since constraints are kept in (cardinality, mask)
    order."""
    if not poly.constraints:
        raise ValueError("polytope has no constraints; the symmetric rate is unbounded")
    best, best_theta = math.inf, 0
    for theta, bound in poly.constraints:
        val = bound / theta.bit_count()
        if val < best:
            best, best_theta = val, theta
    return best, best_theta


def region_of(dim: int, parts) -> RegionFamily:
    """A region whose part p holds the ``(mask, bound)`` pairs ``parts[p]``
    in the given order, decoding the union of its masks."""
    pairs = [pair for part in parts for pair in part]
    return RegionFamily(
        "snd", dim, np.array([reduce(or_, (mask for mask, _ in part), 0) for part in parts]),
        np.cumsum([0] + [len(part) for part in parts]),
        np.array([mask for mask, _ in pairs], dtype=np.int64 if dim < 64 else object),
        np.array([bound for _, bound in pairs], dtype=float))


def exhaustive_snd(state: ChannelState, j: int, i: int):
    """SND max symmetric rate at BS j by enumerating every decoded set omega
    containing j and every subset theta of it: O(3^L).

    Returns ``(rate, omega, theta)`` with bitmask sets.  Ties are broken
    toward the smaller (cardinality, bitmask) for theta, then for omega.
    """
    L = state.L
    coh = coherent_power(state, j, i)
    floor = noise_floor(state, j)
    sums = subset_sum_table(coh)
    full_mask = (1 << L) - 1
    jbit = 1 << j
    best = -math.inf
    best_omega = 0
    best_theta = 0
    for om in range(1, full_mask + 1):
        if not om & jbit:
            continue
        den = sums[full_mask ^ om] + floor
        inner = math.inf
        inner_theta = 0
        sub = om
        while sub:
            val = capacity(sums[sub] / den) / sub.bit_count()
            if val < inner or (val == inner and
                               (sub.bit_count(), sub) < (inner_theta.bit_count(), inner_theta)):
                inner = val
                inner_theta = sub
            sub = (sub - 1) & om
        if inner > best or (inner == best and
                            (om.bit_count(), om) < (best_omega.bit_count(), best_omega)):
            best = inner
            best_omega = om
            best_theta = inner_theta
    return float(best), best_omega, best_theta


def sample_channels(beta: np.ndarray, m: int, rng: np.random.Generator,
                    count: int = 1) -> np.ndarray:
    """Channel vectors g[t, j, k, l, :] = sqrt(beta[j,k,l]) * h, h ~ CN(0, I_m)."""
    h = complex_normal(rng, (count, *beta.shape, m))
    return np.sqrt(beta)[None, :, :, :, None] * h


def despread_pilots(g: np.ndarray, rho_p: float, rng: np.random.Generator) -> np.ndarray:
    """Despread pilot observations r[t, j, k, :] = sqrt(rho_p) sum_l g + noise."""
    signal = math.sqrt(rho_p) * g.sum(axis=3)
    return signal + complex_normal(rng, signal.shape)


def mmse_estimate(r: np.ndarray, stats: EstimationStats) -> np.ndarray:
    """Own-channel MMSE estimates g_hat[t, j, k, :] = alpha_own[j,k] * r."""
    return stats.alpha_own[None, :, :, None] * r


def estimate_for_cell(g_hat: np.ndarray, beta: np.ndarray, j: int, k: int,
                      l: int) -> np.ndarray:
    """Cross-channel estimate: the own estimate rescaled by beta_jkl / beta_jkj."""
    return (beta[j, k, l] / beta[j, k, j]) * g_hat[:, j, k, :]


def mrc_outputs(g: np.ndarray, g_hat: np.ndarray, x: np.ndarray, rho_u: float,
                rng: np.random.Generator | None = None,
                noise: np.ndarray | None = None) -> np.ndarray:
    """Combiner outputs yhat[t, j, i] = g_hat_jij^H y_j for all BSs and slots.

    ``x[t, l, k]`` are the transmitted symbols.  Receiver noise is drawn from
    ``rng`` unless an explicit ``noise`` array of shape (t, L, m) is given.
    """
    count, L, K, _, m = g.shape
    if noise is None:
        if rng is None:
            raise ValueError("mrc_outputs needs either rng or an explicit noise array")
        noise = complex_normal(rng, (count, L, m))
    # y[t, j, :] = sqrt(rho_u) * sum_{l,k} g[t,j,k,l,:] x[t,l,k] + n
    y = math.sqrt(rho_u) * np.einsum("tjklm,tlk->tjm", g, x) + noise
    return np.einsum("tjim,tjm->tji", g_hat.conj(), y)


@dataclass(frozen=True)
class TrialScalars:
    """Per-trial scalars of the power decomposition at one (j, i)."""

    own: np.ndarray      # (T, L): g_hat_jij^H g_jil
    other: np.ndarray    # (T,): the sum over k != i and l of g_hat_jij^H g_jkl x_lk
    noise: np.ndarray    # (T,): g_hat_jij^H n_j
    symbols: np.ndarray | None = None  # (T, L): x_li, where they were drawn


def sampler_scalars(state: ChannelState, j: int, i: int, trials: int,
                    seed: int) -> TrialScalars:
    """The scalars the sampler's batches hold, concatenated over the
    batches."""
    batches = [], [], []
    for planes in montecarlo._batches(state, j, i, trials, seed):
        for out, z in zip(batches, planes):
            out.append((z[0] + 1j * z[1]).T)  # trials first
    return TrialScalars(*map(np.concatenate, batches))


def decompose(stats: TrialScalars, state: ChannelState, omega) -> PowerDecomposition:
    """The four power terms from the per-trial scalars, two passes over
    the record: numpy's means, then its variances about them.  The
    estimation-error term is the variance of
    sqrt(rho_u) sum_l (a_l - mean(a_l)) x_li where the symbols were drawn,
    and its mean over them, rho_u sum_l var(a_l), where they were not."""
    root_rho = math.sqrt(state.params.rho_u)
    mean_own = stats.own.mean(axis=0)  # (L,)
    desired = state.params.rho_u * float((np.abs(mean_own[sorted(omega)]) ** 2).sum())
    if stats.symbols is None:
        est_error = state.params.rho_u * float(stats.own.var(axis=0).sum())
    else:
        est_err_term = root_rho * ((stats.own - mean_own) * stats.symbols).sum(axis=1)
        est_error = float(est_err_term.var())
    return PowerDecomposition(
        desired=desired,
        est_error=est_error,
        other_users=float((root_rho * stats.other).var()),
        noise=float(stats.noise.var()),
    )


def exact_est_error(stats: TrialScalars, state: ChannelState) -> float:
    """The sampler's est_error term in rational arithmetic, so its only
    rounding is the last one: rho_u times the sum over l of the variance
    over the trials of the own inner products a_l."""
    T, L = stats.own.shape
    spread = Fraction(0)
    for l in range(L):
        a_l = [(Fraction(z.real), Fraction(z.imag)) for z in stats.own[:, l].tolist()]
        mean_re, mean_im = sum(re for re, _ in a_l) / T, sum(im for _, im in a_l) / T
        spread += sum((re - mean_re) ** 2 + (im - mean_im) ** 2 for re, im in a_l) / T
    return float(spread * Fraction(state.params.rho_u))


def full_tensor_batches(state: ChannelState, j: int, i: int, seeds, counts) -> TrialScalars:
    """Per-trial scalars at BS j, slot i from the full network simulation:
    channels (T, L, K, L, M), pilots and receiver noise for every BS, of
    which only BS j's are read, and the symbols.  It keeps slot i's
    symbols, so :func:`decompose` forms its est_error from them: the
    reference that the sampler's term, with the symbols averaged out,
    must match."""
    p = state.params
    m = int(p.M)
    others = np.arange(p.K) != i
    batches = [], [], [], []
    for seed, count in zip(seeds, counts):
        rng = np.random.default_rng(seed)
        g = sample_channels(state.beta, m, rng, count)
        r = despread_pilots(g, p.rho_p, rng)
        g_hat = mmse_estimate(r, state.stats)
        x = complex_normal(rng, (count, p.L, p.K))
        n = complex_normal(rng, (count, p.L, m))
        ref = g_hat[:, j, i, :].conj()
        inner = np.einsum("tm,tklm->tkl", ref, g[:, j])
        other = (inner[:, others] * x.transpose(0, 2, 1)[:, others]).sum(axis=(1, 2))
        scalars = (inner[:, i], other, np.einsum("tm,tm->t", ref, n[:, j]), x[:, :, i])
        for out, z in zip(batches, scalars):
            out.append(z)
    return TrialScalars(*map(np.concatenate, batches))


def per_trial_batches(state: ChannelState, j: int, i: int, trials: int,
                      seed: int) -> TrialScalars:
    """Per-trial scalars at BS j, slot i from the sampler's own draws, built
    one trial at a time: each trial's own inner products
    a_l = r (sum_c W_lc z_c + W_l0 r), r = sqrt(G), its norm r gain, and
    its other-user term O = z_O norm sqrt(sum beta_jkl E_kl) come from
    Python loops over real and imaginary parts that add in index order.

    The draws are the sampler's calls, batch by batch: the gamma variates,
    the L normals a trial and the noise projections, then, if
    K > 1, the exponentials E, one row of trials per (k != i, l), and the
    normals z_O.  W and the gain are built here from the rotation that
    ``montecarlo._rotation`` gives, which its own test holds to
    orthogonality."""
    p = state.params
    K, L, m = p.K, p.L, int(p.M)
    scale = [math.sqrt(b) for b in state.beta[j, i]]
    s = [b * math.sqrt(p.rho_p) for b in scale] + [1.0]
    gain = float(state.stats.alpha_own[j, i]) * math.sqrt(sum(x * x for x in s))
    rotation = montecarlo._rotation(s)
    weight = [[gain * b * u for u in row] for b, row in zip(scale, rotation)]
    others = [float(state.beta[j, k, l]) for k in range(K) if k != i for l in range(L)]
    rng = np.random.default_rng(seed)
    stats = TrialScalars(own=np.empty((trials, L), np.complex128),
                         other=np.empty(trials, np.complex128),
                         noise=np.empty(trials, np.complex128))
    size = montecarlo._batch_size(L, K)
    for lo in range(0, trials, size):
        count = min(size, trials - lo)
        gammas = rng.standard_gamma(float(m), size=count)
        normals = complex_normal(rng, (count, L))
        projections = complex_normal(rng, (count,))
        if others:
            exps = rng.standard_exponential((len(others), count))
            picks = complex_normal(rng, (count,))
        for t in range(count):
            r = math.sqrt(gammas[t])
            z = normals[t].tolist()
            for l in range(L):
                re = weight[l][1] * z[0].real
                im = weight[l][1] * z[0].imag
                for c in range(2, L + 1):
                    re += weight[l][c] * z[c - 1].real
                    im += weight[l][c] * z[c - 1].imag
                re += weight[l][0] * r
                stats.own[lo + t, l] = complex(re * r, im * r)
            norm = r * gain
            stats.noise[lo + t] = complex(projections[t]) * norm
            stats.other[lo + t] = 0.0
            if others:
                spread = 0.0
                for b, e in zip(others, exps[:, t].tolist()):
                    spread += b * e
                sigma = norm * math.sqrt(spread)
                stats.other[lo + t] = complex(picks[t].real * sigma, picks[t].imag * sigma)
    return stats


def diagonal_rate_bisection(region, dim: int, hi: float, iters: int = 80) -> float:
    """Largest R with (R, ..., R) inside the region, by pure membership tests."""
    lo = 0.0
    if not region.contains(np.full(dim, 0.0)):
        raise AssertionError("regions must contain the origin")
    while region.contains(np.full(dim, hi)):
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if region.contains(np.full(dim, mid)):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def restricted_average_argmin(values: np.ndarray, j: int):
    """Exhaustive argmin of mean(values over S) for sets S containing j, as
    a bitmask."""
    L = len(values)
    best, best_set = np.inf, None
    for q in range(1, L + 1):
        for combo in combinations(range(L), q):
            if j not in combo:
                continue
            val = values[list(combo)].mean()
            key = _tiebreak(combo)
            if val < best or (val == best and key < _tiebreak(best_set)):
                best, best_set = val, combo
    return mask_of(best_set)


def snd_member_two_cell(state: ChannelState, j: int, i: int, point) -> bool:
    """Explicit two-cell union membership at BS j.

    Membership holds iff R_j stays below its single-user bound and
    R_j + min(R_other, single-user bound of the other) fits under the joint
    sum bound.
    """
    o = 1 - j
    full = {0, 1}
    a = direct_bound(state, j, i, {j}, full)
    b = direct_bound(state, j, i, {o}, full)
    f = direct_bound(state, j, i, full, full)
    return point[j] <= a and point[j] + min(point[o], b) <= f


def snd_member_three_cell(state: ChannelState, j: int, i: int, point) -> bool:
    """Explicit three-cell union membership at BS j (the four-face system)."""
    o1, o2 = [l for l in range(3) if l != j]
    full = {0, 1, 2}

    def c(*theta):
        return direct_bound(state, j, i, theta, full)

    r, r1, r2 = point[j], point[o1], point[o2]
    if r > c(j):
        return False
    if r + min(c(o1), r1) > c(j, o1):
        return False
    if r + min(c(o2), r2) > c(j, o2):
        return False
    if r + min(c(o1, o2), r1 + c(o2), r2 + c(o1), r1 + r2) > c(j, o1, o2):
        return False
    return True


def fading_states(max_cells: int = 8, min_cells: int = 1):
    """Channel states from random fading tensors with min_cells..max_cells
    cells.

    Gains lie in [1e-4, 1] and are any float, or 10^(-k/1000) for integer
    k, or drawn from at most three such levels, which makes exact ties
    common.  Half of the tensors lift each user's own gain to the largest of
    its row (nearest-BS association); the rest leave the own cell anywhere.
    """
    level = st.integers(0, 4000).map(lambda k: 10.0 ** (-k / 1000))

    @st.composite
    def build(draw):
        L = draw(st.integers(min_cells, max_cells))
        K = draw(st.integers(1, 3))
        gain = draw(st.sampled_from([
            st.floats(1e-4, 1.0),
            level,
            st.lists(level, min_size=1, max_size=3).flatmap(st.sampled_from),
        ]))
        beta = np.array(draw(st.lists(gain, min_size=L * K * L, max_size=L * K * L)))
        beta = beta.reshape(L, K, L)
        if draw(st.booleans()):
            for j in range(L):
                for k in range(K):
                    beta[j, k, j] = beta[j, k].max() * draw(st.sampled_from([1.0, 1.5, 3.0]))
        exponent = st.integers(-10, 70).map(lambda k: 10.0 ** (k / 10))
        params = SystemParams(L=L, K=K, M=draw(exponent), rho_u=draw(exponent),
                              rho_p=draw(exponent))
        return ChannelState.from_beta(beta, params), draw(st.integers(0, K - 1))
    return build()
