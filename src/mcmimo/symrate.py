"""Maximum symmetric (max-min) rates per BS and network-wide.

Over a subset-sum polytope the largest R with (R, ..., R) inside is
min over constraints of bound / |subset|; absent constraints are infinite.
The four schemes are (omega, theta) filters over one kernel,
:func:`stacked_rates`.  It takes a (G, L, L) stack of coherent-power
rows, one row per (grid point, BS), with their noise floors, and solves
every row under all four schemes at once, into (4, G, L) arrays of rates
and witness masks.  :func:`stacked_rates_only` is the same solve, chunk
for chunk, returning the rates alone: a caller that reads no witness set,
such as a sweep, never pays for the masks.  Each row has one family of
L + 1 decoded sets, and each scheme reads its rate off that family:

* SND compares the L nested decoded sets "own cell plus its q strongest
  interferers", each with its weakest-member prefixes as thetas, which is
  L(L+1)/2 bounds instead of O(3^L) (see :func:`_solve_rows`),
* TIN decodes the own cell only, which is SND's set 0,
* SD decodes every cell, ranked weakest first, which is SND's set L - 1:
  its binding subset of each size is the weakest cells,
* S-SND decodes every cell with the own cell ranked first and the others
  from the weakest, the one set of the family outside SND.

:func:`symmetric_rates` is the kernel on every BS of one state under all
four schemes; the state keeps its reports in its memo, so each (state,
pilot) is solved once.  The per-scheme and per-BS functions
(:func:`network_symmetric_rate`, :func:`bs_symmetric_rate` and
:func:`tin_rate`) read those reports, so a one-BS request pays for the
whole state once.  Every sum of coherent powers adds the cells from the
highest index down, as :func:`~mcmimo.bounds.subset_sum` does, and every
bound is one :func:`~mcmimo.bounds.mac_bound`, so a solver's rate equals
the value of the matching region to the bit, and a stacked row equals the
same row solved alone.

Cell sets are int bitmasks (bit l stands for cell l).  The weakest and
strongest orders are stable sorts of each row, so exactly tied cells rank
lowest index first in both; rounding can tie cells at some antenna counts
and not at others, so every row is sorted on its own.  Ties among
minimizing (or maximizing) subsets are broken toward the smaller
cardinality first and then the smaller bitmask, so witness sets are
reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType
from typing import TYPE_CHECKING

import numpy as np

from .bounds import check_bs, check_indices, check_pilot, mac_bound, memo, state_powers
from .estimation import ChannelState

if TYPE_CHECKING:
    from .regions import Polytope

__all__ = [
    "SCHEMES",
    "BsSymRate",
    "SymRateReport",
    "max_symmetric_rate",
    "stacked_rates",
    "stacked_rates_only",
    "STACK_BYTES",
    "low_sinr_decode_set",
    "symmetric_rates",
    "bs_symmetric_rate",
    "tin_rate",
    "network_symmetric_rate",
]

SCHEMES = ("tin", "sd", "ssnd", "snd")
STACK_BYTES = 32 << 20  # bytes of arrays one chunk of stacked rows holds, at most


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


def max_symmetric_rate(poly: Polytope) -> tuple[float, int]:
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


@functools.cache
def _bits(L: int) -> np.ndarray:
    """1 << l for each cell l of L: int64 below L = 64, Python ints from
    there on."""
    bits = np.array([1 << l for l in range(L)], dtype=np.int64 if L < 64 else object)
    bits.flags.writeable = False
    return bits


def _masks(member: np.ndarray) -> np.ndarray:
    """The bitmasks of the cell sets ``member[..., l]``."""
    return member @ _bits(member.shape[-1])


def _ranks(keys: np.ndarray) -> np.ndarray:
    """rank[..., l]: the position of cell l when each row of ``keys`` is
    sorted ascending, exact ties lowest index first."""
    return keys.argsort(axis=-1, kind="stable").argsort(axis=-1)


def stacked_rates(coh, floor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max symmetric rates and witness masks of a stack of networks.

    ``coh[g, j, l]`` is the coherent power N({l}) of cell l at BS j in
    stack entry g, and ``floor[g, j]`` the noise floor there.  Returns
    (rate, theta, omega), three (4, G, L) arrays with ``[s, g, j]`` for
    scheme ``SCHEMES[s]``.  The G * L rows are solved in chunks of at most
    ``STACK_BYTES`` of arrays, about 64 bytes per (row, decoded set,
    cell), with L + 1 decoded sets per row.  :func:`stacked_rates_only`
    is the rate array alone, without forming the masks.
    """
    G, L = np.shape(coh)[:2]
    parts = list(map(_with_masks, _solve_stack(coh, floor)))
    solved = parts[0] if len(parts) == 1 else [np.concatenate(arrays, axis=-1)
                                               for arrays in zip(*parts)]
    return tuple(a.reshape(len(SCHEMES), G, L) for a in solved)


def stacked_rates_only(coh, floor) -> np.ndarray:
    """The rate array of :func:`stacked_rates`, (4, G, L) and equal to it
    bit for bit, for callers that read no witness set: the same chunks are
    solved, and the theta and omega masks are never formed."""
    G, L = np.shape(coh)[:2]
    parts = list(map(itemgetter(0), _solve_stack(coh, floor)))
    rates = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
    return rates.reshape(len(SCHEMES), G, L)


def _with_masks(solved: tuple) -> tuple:
    """A :func:`_solve_rows` result as its rates, theta and omega masks."""
    rates, masks = solved
    return (rates, *masks())


def _solve_stack(coh, floor):
    """:func:`_solve_rows` of each chunk of the stack's G * L rows, in order.
    Read it through ``map``, which lets go of a chunk's arrays before the
    next chunk is solved."""
    coh = np.asarray(coh, dtype=float)
    G, _, L = coh.shape
    rows = coh.reshape(G * L, L)
    floors = np.asarray(floor, dtype=float).reshape(G * L)
    owns = np.arange(G * L) % L
    step = max(1, STACK_BYTES // (64 * (L + 1) * L))
    for k in range(0, G * L, step):
        yield _solve_rows(rows[k:k + step], floors[k:k + step], owns[k:k + step])


def _solve_rows(coh, floor, own) -> tuple:
    """The rates of N rows: coherent powers (N, L), noise floors (N,) and
    own cells (N,); returns the rates, a (4, N) array in ``SCHEMES`` order,
    and a function of no arguments that returns their theta and omega
    masks, two more (4, N) arrays.  The masks cost a gather and a mask
    product per scheme, so a caller that reads only rates never forms them.

    Every row has L + 1 decoded sets q, each with a rank of the cells: for
    q < L the own cell and its q strongest interferers, ranked weakest
    first, and for q = L every cell, the own cell ranked first and then the
    others from the weakest.  The thetas of set q are, for r < L, its
    members of rank at most r, and r counts only where the cell of rank r
    is a member, so each theta appears once and in cardinality order.  The
    value of a set is the min over its thetas of bound / |theta|, the first
    minimizing theta winning ties.  TIN (the own cell alone) reads set 0,
    SD (every cell by weakest rank) set L - 1, S-SND set L, and SND the
    first maximizing set among 0..L-1.

    SND's rate is that of the union of MAC polytopes at the BS.  Every part
    and the union are downward closed along the diagonal, so the union's
    symmetric rate is the max over decoded sets omega (containing the own
    cell j) of the per-part polytope value

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
    equal-valued sets.  Every bound adds its cells in the order of
    :func:`~mcmimo.bounds.subset_sum`, so the rate is bit-identical to the
    best part value of :func:`~mcmimo.regions.snd_region`.
    """
    N, L = coh.shape
    Q = L + 1
    is_own = own[:, None] == np.arange(L)
    # set q holds the cells of strong rank at most q (the own cell ranks
    # first), so set L holds every cell
    strong = _ranks(np.where(is_own, -np.inf, -coh))
    omega_in = strong[:, None, :] <= np.arange(Q)[:, None]
    rank = np.empty((N, Q, L), dtype=strong.dtype)
    rank[:, :L] = _ranks(coh)[:, None]
    rank[:, L] = _ranks(np.where(is_own, -np.inf, coh))

    # member_rank: the rank of each member, L for the cells outside the set;
    # fresh[n, q, r]: whether the cell of rank r is in set q
    member_rank = np.where(omega_in, rank, L)
    fresh = np.zeros((N * Q, L), dtype=bool)
    fresh[np.arange(N * Q)[:, None], rank.reshape(N * Q, L)] = omega_in.reshape(N * Q, L)
    fresh = fresh.reshape(N, Q, L)
    # every theta sum adds its cells from the highest index down, as
    # bounds.subset_sum does, and so does the sum outside each decoded set
    r = np.arange(L)
    outside = ~omega_in
    noise = np.zeros((N, Q))
    num = np.zeros((N, Q, L))
    for l in range(L - 1, -1, -1):
        c = coh[:, l, None]
        np.add(noise, c, out=noise, where=outside[..., l])
        np.add(num, c[..., None], out=num, where=member_rank[..., l, None] <= r)
    bound = mac_bound(num, noise[..., None], floor[:, None, None])
    vals = np.divide(bound, fresh.cumsum(axis=-1), out=np.full((N, Q, L), np.inf),
                     where=fresh)
    inner = vals.min(axis=-1)

    # the set each scheme reads, (4, N) in SCHEMES order
    n = np.arange(N)
    q = np.empty((4, N), dtype=np.intp)
    q[:3] = [[0], [L - 1], [L]]
    q[3] = inner[:, :L].argmax(axis=-1)

    def masks() -> tuple[np.ndarray, np.ndarray]:
        # theta: the members up to the rank of the first minimizing prefix
        r_best = vals[n, q].argmin(axis=-1)
        return _masks(np.array([member_rank[n, q] <= r_best[..., None], omega_in[n, q]]))

    return inner[n, q], masks


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


def _check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def _solve_state(state: ChannelState, i: int) -> MappingProxyType:
    coh, floor = state_powers(state, i)
    solved = (a[:, 0].tolist() for a in stacked_rates(coh[None], floor[None]))
    reports = {}
    for scheme, rates, thetas, omegas in zip(SCHEMES, *solved):
        per_bs = tuple(map(BsSymRate, range(state.L), rates, thetas, omegas))
        argmin = rates.index(min(rates))
        reports[scheme] = SymRateReport(scheme=scheme, per_bs=per_bs,
                                        network_rate=rates[argmin], network_argmin=argmin)
    return MappingProxyType(reports)


def symmetric_rates(state: ChannelState, i: int = 0) -> MappingProxyType:
    """The :class:`SymRateReport` of every scheme in pilot slot i, as a
    read-only ``{scheme: report}`` mapping.

    One :func:`stacked_rates` call solves every BS of the state under all
    four schemes; the state keeps the result in its memo, next to its
    powers (see :func:`~mcmimo.bounds.state_powers`), so each (state,
    pilot) is solved once and later calls read it.  A state whose powers
    overflow keeps nothing and raises on every call.
    """
    check_pilot(state, i)
    return memo(state, ("rates", i), lambda: _solve_state(state, i))


def bs_symmetric_rate(state: ChannelState, scheme: str, j: int, i: int = 0) -> BsSymRate:
    """Max symmetric rate at one BS for a decoding scheme, read off
    :func:`symmetric_rates`."""
    _check_scheme(scheme)
    check_bs(state, j)
    return symmetric_rates(state, i)[scheme].per_bs[j]


def tin_rate(state: ChannelState, j: int, i: int) -> float:
    """Rate when BS j decodes only its own user and treats the co-pilot
    interference (whose combined power also grows with M) as noise."""
    return bs_symmetric_rate(state, "tin", j, i).rate


def network_symmetric_rate(state: ChannelState, scheme: str, i: int = 0) -> SymRateReport:
    """Per-BS max symmetric rates and the binding network-wide minimum (the
    lowest BS index on ties), read off :func:`symmetric_rates`."""
    _check_scheme(scheme)
    return symmetric_rates(state, i)[scheme]
