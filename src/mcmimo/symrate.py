"""Maximum symmetric (max-min) rates per BS and network-wide.

Over a subset-sum polytope the largest R with (R, ..., R) inside is
min over constraints of bound / |subset|; absent constraints are infinite.
SD and S-SND reduce to comparing L candidates after sorting the squared
gains; SND reduces to L nested decoded sets (the own cell plus its
strongest interferers) with at most L candidate subsets each, so every
solver is polynomial in L.

Ties among minimizing (or maximizing) subsets are broken toward the smaller
cardinality first and then the smaller bitmask, so witness sets are
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import capacity, coherent_power, noise_floor, tin_rate
from .estimation import ChannelState
from .regions import Polytope

__all__ = [
    "SCHEMES",
    "BsSymRate",
    "SymRateReport",
    "max_symmetric_rate",
    "sd_max_symmetric",
    "ssnd_max_symmetric",
    "low_sinr_decode_set",
    "snd_max_symmetric",
    "bs_symmetric_rate",
    "network_symmetric_rate",
]

SCHEMES = ("tin", "sd", "ssnd", "snd")


@dataclass(frozen=True)
class BsSymRate:
    """Max symmetric rate at one BS with its witness sets.

    ``theta`` is the binding (minimizing) subset; ``omega`` the decoded set,
    which for SND is the maximizing one.
    """

    bs: int
    rate: float
    theta: frozenset[int]
    omega: frozenset[int]


@dataclass(frozen=True)
class SymRateReport:
    scheme: str
    per_bs: tuple[BsSymRate, ...]
    network_rate: float
    network_argmin: int


def _tiebreak_key(subset: frozenset[int]) -> tuple[int, int]:
    mask = 0
    for l in subset:
        mask |= 1 << l
    return (len(subset), mask)


def max_symmetric_rate(poly: Polytope) -> tuple[float, frozenset[int]]:
    """Largest R with (R, ..., R) in the polytope, and the binding subset."""
    if not poly.constraints:
        raise ValueError("polytope has no constraints; the symmetric rate is unbounded")
    best = math.inf
    best_subset = None
    for subset, bound in poly.constraints:
        val = bound / len(subset)
        if val < best or (val == best and _tiebreak_key(subset) < _tiebreak_key(best_subset)):
            best = val
            best_subset = subset
    return best, best_subset


def _ranked_powers(state: ChannelState, j: int, i: int):
    """Coherent powers with their ascending rank order and the noise floor.

    The ascending order equals the squared-gain order since the coherent
    power is monotone in the gain.
    """
    coh = coherent_power(state, j, i)
    order = [int(l) for l in np.argsort(coh, kind="stable")]
    return coh, order, noise_floor(state, j)


def _bit_order_sum(coh: np.ndarray, cells) -> float:
    """Sum of coh over a cell set, accumulated from the highest cell index
    down.  This matches the subset-sum table of the region builders bit for
    bit, so solvers and regions agree to the exact float."""
    total = 0.0
    for l in sorted(cells, reverse=True):
        total += coh[l]
    return total


def sd_max_symmetric(state: ChannelState, j: int, i: int) -> tuple[float, frozenset[int]]:
    """Max symmetric rate of the full-MAC polytope at BS j.

    For each cardinality q the binding subset is the q weakest users, so only
    L candidates v_q = log2(1 + mu_ji * s_q) / q need comparing, where s_q
    sums the q smallest squared gains.  Quadratic in L overall, no region
    materialization.
    """
    coh, order, floor = _ranked_powers(state, j, i)
    best = math.inf
    best_q = 0
    for q in range(1, state.L + 1):
        v = capacity(_bit_order_sum(coh, order[:q]) / floor) / q
        if v < best:
            best = v
            best_q = q
    return float(best), frozenset(order[:best_q])


def ssnd_max_symmetric(state: ChannelState, j: int, i: int) -> tuple[float, frozenset[int]]:
    """Like :func:`sd_max_symmetric` but every candidate set contains the own
    cell: c_q combines the own gain with the q-1 weakest other cells."""
    coh, order, floor = _ranked_powers(state, j, i)
    others = [l for l in order if l != j]
    best = capacity(_bit_order_sum(coh, [j]) / floor)  # q = 1, theta = {j}
    best_q = 1
    for q in range(2, state.L + 1):
        c = capacity(_bit_order_sum(coh, [j] + others[:q - 1]) / floor) / q
        if c < best:
            best = c
            best_q = q
    return float(best), frozenset({j} | set(others[:best_q - 1]))


def low_sinr_decode_set(state: ChannelState, j: int, i: int) -> frozenset[int]:
    """Greedy decoded set minimizing the average squared gain over sets that
    contain the own cell.

    Starts from the own cell plus the weakest other user and keeps adding the
    next weakest while the running average decreases.  In the low-SINR regime
    the rate bound is proportional to that average, so this set maximizes the
    S-SND symmetric rate.  Assumes the own gain is not the weakest (true for
    nearest-BS association).
    """
    b2 = state.beta[j, i, :] ** 2
    others = [int(l) for l in np.argsort(b2, kind="stable") if l != j]
    if not others:
        return frozenset({j})
    total = b2[j] + b2[others[0]]
    count = 2
    avg = total / count
    taken = 1
    for l in others[1:]:
        cand = (total + b2[l]) / (count + 1)
        if cand >= avg:
            break
        total += b2[l]
        count += 1
        avg = cand
        taken += 1
    return frozenset({j} | set(others[:taken]))


def snd_max_symmetric(state: ChannelState, j: int,
                      i: int) -> tuple[float, frozenset[int], frozenset[int]]:
    """Max symmetric rate over the union of MAC polytopes at BS j.

    Returns ``(rate, omega, theta)``: the rate, the maximizing decoded set
    and the binding subset of it.  Every part and the union are downward
    closed along the diagonal, so the union's symmetric rate is the max over
    decoded sets omega (containing j) of the per-part polytope value

        v(omega) = min over nonempty theta in omega of
                   C(N(theta) / (N(omega^c) + F)) / |theta|.

    Only L of the 2^(L-1) decoded sets and L(L+1)/2 thetas need evaluating:

    1. For a fixed omega and size t, the bound grows with N(theta), so the
       binding theta of size t is the t weakest members of omega.  v(omega)
       is therefore a min over t of the weakest-t sums.
    2. Swap a member of omega other than j for a stronger non-member.  Each
       weakest-t sum of omega stays or grows (the t weakest of the new set
       dominate those of the old one elementwise), and N(omega^c), hence the
       denominator, shrinks.  So no value falls and v(omega) cannot fall.
       Repeated swaps turn any omega of size q + 1 into j plus the q
       strongest interferers.

    The answer is therefore the best of the L nested sets "j plus the q
    strongest interferers", q = 0..L-1, each with its q + 1 weakest-member
    prefixes as thetas: L(L+1)/2 bound evaluations instead of O(3^L).

    Ties reproduce the exhaustive enumeration: theta minimizes (value,
    |theta|, bitmask) and omega maximizes value, then minimizes (|omega|,
    bitmask).  Exactly tied cells are ranked lowest index first in both the
    weakest and the strongest order, which gives the smallest bitmask among
    equal-valued sets.  Sums are accumulated in bit order and logs taken
    through :func:`capacity`, so the rate is bit-identical to the one the
    subset-sum table of :func:`snd_region` gives.
    """
    if j < 0:  # numpy would read it as a BS counted from the end
        raise ValueError(f"BS index must be nonnegative, got {j}")
    coh = coherent_power(state, j, i).tolist()
    floor = noise_floor(state, j)
    weak = sorted(range(len(coh)), key=coh.__getitem__)
    strong = [l for l in sorted(weak, key=coh.__getitem__, reverse=True) if l != j]
    best = -math.inf
    for q in range(len(coh)):
        omega = (j, *strong[:q])
        den = _bit_order_sum(coh, strong[q:]) + floor
        inner = math.inf
        theta = []
        low = len(coh)
        total = 0.0
        for l in weak:
            if l not in omega:
                continue
            theta.append(l)
            if l < low:  # a new lowest index is the last term of the bit-order sum
                total += coh[l]
                low = l
            else:
                total = _bit_order_sum(coh, theta)
            val = capacity(total / den) / len(theta)
            if val < inner:
                inner, inner_t = val, len(theta)
        if inner > best:
            best, best_omega, best_theta = inner, omega, theta[:inner_t]
    return float(best), frozenset(best_omega), frozenset(best_theta)


def bs_symmetric_rate(state: ChannelState, scheme: str, j: int, i: int = 0) -> BsSymRate:
    """Max symmetric rate at one BS for a decoding scheme."""
    full = frozenset(range(state.L))
    if scheme == "tin":
        return BsSymRate(j, tin_rate(state, j, i), frozenset({j}), frozenset({j}))
    if scheme == "sd":
        rate, theta = sd_max_symmetric(state, j, i)
        return BsSymRate(j, rate, theta, full)
    if scheme == "ssnd":
        rate, theta = ssnd_max_symmetric(state, j, i)
        return BsSymRate(j, rate, theta, full)
    if scheme == "snd":
        rate, omega, theta = snd_max_symmetric(state, j, i)
        return BsSymRate(j, rate, theta, omega)
    raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def network_symmetric_rate(state: ChannelState, scheme: str, i: int = 0) -> SymRateReport:
    """Per-BS max symmetric rates and the binding network-wide minimum."""
    per_bs = tuple(bs_symmetric_rate(state, scheme, j, i) for j in range(state.L))
    argmin = 0
    for j in range(1, state.L):
        if per_bs[j].rate < per_bs[argmin].rate:
            argmin = j
    return SymRateReport(scheme=scheme, per_bs=per_bs,
                         network_rate=per_bs[argmin].rate, network_argmin=argmin)
