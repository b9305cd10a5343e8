"""Maximum symmetric (max-min) rates per BS and network-wide.

Over a subset-sum polytope the largest R with (R, ..., R) inside is
min over constraints of bound / |subset|; absent constraints are infinite.
SD and S-SND reduce to comparing L candidates after sorting the coherent
powers; SND reduces to L nested decoded sets (the own cell plus its
strongest interferers) with at most L candidate subsets each, so every
solver is polynomial in L.  Each solver sums its candidate sets with
:func:`~mcmimo.bounds.subset_sum` and evaluates them with one
:func:`~mcmimo.bounds.mac_bound` call, as the region builders do, so
its rate equals the value of the matching region to the bit.

Cell sets are int bitmasks (bit l stands for cell l).  Ties among
minimizing (or maximizing) subsets are broken toward the smaller cardinality
first and then the smaller bitmask, so witness sets are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import or_

import numpy as np

from .bounds import (check_indices, coherent_power, mac_bound, noise_floor, subset_sum,
                     tin_rate)
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
    """Max symmetric rate at one BS with its witness sets (bitmasks).

    ``theta`` is the binding (minimizing) subset; ``omega`` the decoded set,
    which for SND is the maximizing one.
    """

    bs: int
    rate: float
    theta: int
    omega: int


@dataclass(frozen=True)
class SymRateReport:
    scheme: str
    per_bs: tuple[BsSymRate, ...]
    network_rate: float
    network_argmin: int


def _per_user_min(thetas, bounds) -> tuple[float, int]:
    """The least bound / |theta| and the first theta attaining it, which is
    the smaller set on ties since callers list thetas in (cardinality, mask)
    order.  Takes one bound per theta from ``bounds``, which may be shared."""
    best, best_theta = math.inf, 0
    for theta, bound in zip(thetas, bounds):
        val = bound / theta.bit_count()
        if val < best:
            best, best_theta = val, theta
    return best, best_theta


def max_symmetric_rate(poly: Polytope) -> tuple[float, int]:
    """Largest R with (R, ..., R) in the polytope, and the binding mask."""
    if not poly.constraints:
        raise ValueError("polytope has no constraints; the symmetric rate is unbounded")
    return _per_user_min(*zip(*poly.constraints))


def _powers(state: ChannelState, j: int, i: int):
    """Coherent powers as floats, the cells from weakest to strongest (exact
    ties lowest index first) and the noise floor."""
    coh = coherent_power(state, j, i).tolist()
    return coh, sorted(range(len(coh)), key=coh.__getitem__), noise_floor(state, j)


def _full_decode_min(coh: list, floor: float, cells: list[int]) -> tuple[float, int]:
    """Per-user minimum over the prefixes of ``cells`` with every cell
    decoded (no noise term)."""
    thetas = list(accumulate((1 << l for l in cells), or_))
    bounds = mac_bound([subset_sum(coh, t) for t in thetas], 0.0, floor).tolist()
    return _per_user_min(thetas, bounds)


def sd_max_symmetric(state: ChannelState, j: int, i: int) -> tuple[float, int]:
    """Max symmetric rate of the full-MAC polytope at BS j.

    For each cardinality q the binding subset is the q weakest users, so only
    L candidates v_q = log2(1 + mu_ji * s_q) / q need comparing, where s_q
    sums the q smallest squared gains.  Quadratic in L overall, no region
    materialization.
    """
    coh, weak, floor = _powers(state, j, i)
    return _full_decode_min(coh, floor, weak)


def ssnd_max_symmetric(state: ChannelState, j: int, i: int) -> tuple[float, int]:
    """Like :func:`sd_max_symmetric` but every candidate set contains the own
    cell: c_q combines the own gain with the q-1 weakest other cells."""
    coh, weak, floor = _powers(state, j, i)
    return _full_decode_min(coh, floor, [j] + [l for l in weak if l != j])


def low_sinr_decode_set(state: ChannelState, j: int, i: int) -> int:
    """Greedy decoded set (a bitmask) minimizing the average squared gain
    over sets that contain the own cell.

    Starts from the own cell plus the weakest other user and keeps adding the
    next weakest while the running average decreases.  In the low-SINR regime
    the rate bound is proportional to that average, so this set maximizes the
    S-SND symmetric rate.  Assumes the own gain is not the weakest (true for
    nearest-BS association).
    """
    check_indices(state, j, i)
    b2 = state.beta[j, i, :] ** 2
    mask, total, count = 1 << j, b2[j], 1
    for l in np.argsort(b2, kind="stable").tolist():
        if l == j:
            continue
        if count > 1 and (total + b2[l]) / (count + 1) >= total / count:
            break
        mask |= 1 << l
        total += b2[l]
        count += 1
    return mask


def snd_max_symmetric(state: ChannelState, j: int, i: int) -> tuple[float, int, int]:
    """Max symmetric rate over the union of MAC polytopes at BS j.

    Returns ``(rate, omega, theta)``: the rate, the maximizing decoded set
    and the binding subset of it, as bitmasks.  Every part and the union are
    downward closed along the diagonal, so the union's symmetric rate is the
    max over decoded sets omega (containing j) of the per-part polytope value

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
    equal-valued sets.  All bounds come from :func:`subset_sum` and one
    :func:`mac_bound` call, so the rate is bit-identical to the best
    part value of :func:`~mcmimo.regions.snd_region`.
    """
    coh, weak, floor = _powers(state, j, i)
    full = (1 << len(coh)) - 1
    strong = [l for l in sorted(weak, key=coh.__getitem__, reverse=True) if l != j]
    omegas = list(accumulate([1 << j] + [1 << l for l in strong], or_))
    thetas, nums, noises = [], [], []
    for omega in omegas:
        prefixes = list(accumulate((1 << l for l in weak if omega >> l & 1), or_))
        thetas.append(prefixes)
        nums += [subset_sum(coh, t) for t in prefixes]
        noises += [subset_sum(coh, full ^ omega)] * len(prefixes)
    bounds = iter(mac_bound(nums, noises, floor).tolist())
    best = -math.inf
    for omega, prefixes in zip(omegas, thetas):
        inner, theta = _per_user_min(prefixes, bounds)
        if inner > best:
            best, best_omega, best_theta = inner, omega, theta
    return best, best_omega, best_theta


def bs_symmetric_rate(state: ChannelState, scheme: str, j: int, i: int = 0) -> BsSymRate:
    """Max symmetric rate at one BS for a decoding scheme."""
    full = (1 << state.L) - 1
    if scheme == "tin":
        return BsSymRate(j, tin_rate(state, j, i), 1 << j, 1 << j)
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
