"""Maximum symmetric (max-min) rates per BS and network-wide.

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
pilot) is solved once.  :func:`network_symmetric_rate` reads one scheme's
report, so a one-BS request, ``network_symmetric_rate(state, scheme,
i).per_bs[j]``, pays for the whole state once.  Every sum
of coherent powers adds the cells in the one order that
:mod:`~mcmimo.bounds` states, and every bound is one
:func:`~mcmimo.bounds.mac_bound`, so a solver's rate equals the value of
the matching region to the bit, and a stacked row equals the same row
solved alone.

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
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .bounds import SCHEMES, check_indices, check_pilot, mac_bound, memo, state_powers
from .estimation import ChannelState

__all__ = [
    "SCHEMES",
    "BsSymRate",
    "SymRateReport",
    "stacked_rates",
    "stacked_rates_only",
    "STACK_BYTES",
    "low_sinr_decode_set",
    "symmetric_rates",
    "network_symmetric_rate",
]

STACK_BYTES = 32 << 20  # bytes of arrays one chunk of stacked rows holds, at most
# bytes a chunk holds per (row, decoded set, cell), with a row's O(L) arrays
# counted as 2 L more entries: the tracemalloc peak of stacked_rates on a
# ring's rows reads 33-39 B per entry from L = 16 to 256
ENTRY_BYTES = 42


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
    per_bs: tuple[BsSymRate, ...]
    network_rate: float
    network_argmin: int


@functools.cache
def _bits(L: int) -> np.ndarray:
    """1 << l for each cell l of L: int64 below L = 64, Python ints from
    there on."""
    bits = np.array([1 << l for l in range(L)], dtype=np.int64 if L < 64 else object)
    bits.flags.writeable = False
    return bits


def _masks(member: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The bitmasks of the cell sets ``member[..., p]`` over sorted
    positions p, where position p of a row holds cell ``order[..., p]``."""
    return np.where(member, _bits(member.shape[-1])[order], 0).sum(axis=-1)


def _ranks(keys: np.ndarray) -> np.ndarray:
    """rank[..., l]: the position of cell l when each row of ``keys`` is
    sorted ascending, exact ties lowest index first."""
    return keys.argsort(axis=-1, kind="stable").argsort(axis=-1)


def stacked_rates(coh, floor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max symmetric rates and witness masks of a stack of networks.

    ``coh[g, j, l]`` is the coherent power N({l}) of cell l at BS j in
    stack entry g, and ``floor[g, j]`` the noise floor there.  Returns
    (rate, theta, omega), three (4, G, L) arrays with ``[s, g, j]`` for
    scheme ``SCHEMES[s]``, the masks in ``_bits(L).dtype``.  The G * L
    rows are solved in chunks of bounded memory, and a ``coh`` or
    ``floor`` of any other shape is refused (see :func:`_solve_stack`).
    :func:`stacked_rates_only` is the rate array alone, without forming
    the masks.
    """
    (G, L), chunks = _solve_stack(coh, floor)
    rate = np.empty((len(SCHEMES), G * L))
    masks = np.empty((2, len(SCHEMES), G * L), dtype=_bits(L).dtype)
    for rows, (rates, chunk_masks) in chunks:
        rate[:, rows] = rates
        masks[..., rows] = chunk_masks()
        del chunk_masks  # the chunk's arrays go before the next is solved
    return rate.reshape(len(SCHEMES), G, L), *masks.reshape(2, len(SCHEMES), G, L)


def stacked_rates_only(coh, floor) -> np.ndarray:
    """The rate array of :func:`stacked_rates`, (4, G, L) and equal to it
    bit for bit, for callers that read no witness set: the same chunks are
    solved, and the theta and omega masks are never formed."""
    (G, L), chunks = _solve_stack(coh, floor)
    rate = np.empty((len(SCHEMES), G * L))
    for rows, (rates, chunk_masks) in chunks:
        rate[:, rows] = rates
        del chunk_masks  # the chunk's arrays go before the next is solved
    return rate.reshape(len(SCHEMES), G, L)


def _solve_stack(coh, floor):
    """The stack's (G, L) and an iterator of ``(rows, _solve_rows(...))``
    for each chunk of its G * L rows, in order, ``rows`` the chunk's slice
    of them.  ``coh`` must be (G, L, L) and ``floor`` (G, L); any other
    shapes raise ``ValueError`` before a chunk is solved.

    A chunk holds at most ``STACK_BYTES`` of arrays if the caller lets go
    of each chunk's result before it takes the next.  A row holds
    ``ENTRY_BYTES`` for each of its (L + 1) L (decoded set, cell) entries
    and for 2 L more: its O(L) arrays (sort order, strong ranks, the other
    cells, noise sums and the S-SND prefix) hold about as much as two more
    decoded sets, and at small L they are most of a row.  Each chunk forms
    its own cells' indices, so the kernel holds no whole-stack array but
    the returned ones.
    """
    coh = np.asarray(coh, dtype=float)
    floor = np.asarray(floor, dtype=float)
    if coh.ndim != 3 or coh.shape[1] != coh.shape[2] or floor.shape != coh.shape[:2]:
        raise ValueError(f"stacked coherent powers must be (G, L, L) and noise floors "
                         f"(G, L), got {coh.shape} and {floor.shape}")
    G, _, L = coh.shape
    rows, floors = coh.reshape(G * L, L), floor.reshape(G * L)
    step = max(1, STACK_BYTES // (ENTRY_BYTES * (L + 3) * L))

    def chunks():
        for k in range(0, G * L, step):
            chunk = slice(k, k + step)
            own = np.arange(*chunk.indices(G * L)) % L
            yield chunk, _solve_rows(rows[chunk], floors[chunk], own)

    return (G, L), chunks()


def _solve_rows(coh, floor, own) -> tuple:
    """The rates of N rows: coherent powers (N, L), noise floors (N,) and
    own cells (N,); returns the rates, a (4, N) array in ``SCHEMES`` order,
    and a function of no arguments that returns their theta and omega
    masks, a (2, 4, N) array.  The masks cost a gather of the members and a
    mask sum per scheme, so a caller that reads only rates never forms
    them.

    Every row has L + 1 decoded sets q: for q < L the own cell and its q
    strongest interferers, and for q = L every cell.  The thetas of set
    q < L are its weakest-member prefixes, one ending at each member; those
    of set L are the own cell and its r weakest others, r = 0..L-1 (S-SND
    keeps only thetas that hold the own cell).  Each theta appears once and
    in cardinality order.  The value of a set is the min over its thetas of
    bound / |theta|, the first minimizing theta winning ties.  TIN (the own
    cell alone) reads set 0, SD (every cell) set L - 1, S-SND set L, and
    SND the first maximizing set among 0..L-1.

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
    equal-valued sets.  Every sum adds its cells weakest first, as
    :mod:`~mcmimo.bounds` states, so each row is sorted once and every sum
    is a ``cumsum`` along the sorted axis, and the rate is bit-identical to
    the best part value of :func:`~mcmimo.regions.snd_region`.
    """
    N, L = coh.shape
    n = np.arange(N)
    is_own = own[:, None] == np.arange(L)
    order = coh.argsort(axis=-1, kind="stable")  # exact ties lowest index first
    ascending = coh[n[:, None], order]
    pos_own = (order == own[:, None]).argmax(axis=-1)
    # set q holds the cells of strong rank at most q (the own cell ranks
    # first), so set L holds every cell; member[n, q, p]: whether the cell
    # at sorted position p is in set q
    strong = _ranks(np.where(is_own, -np.inf, -coh))
    member = strong[n[:, None], order][:, None] <= np.arange(L + 1)[:, None]
    num = np.where(member, ascending[:, None], 0.0)
    np.cumsum(num, axis=-1, out=num)
    # S-SND's theta of r + 1 cells: the r weakest others, then the own cell,
    # while r is at most the own cell's sorted position; beyond, a prefix
    prefix = num[:, L]
    with_own = np.concatenate((np.zeros((N, 1)), prefix[:, :-1]), axis=-1) + coh[n, own, None]
    prefix[:] = np.where(np.arange(L) <= pos_own[:, None], with_own, prefix)
    # the cells outside set q < L are the L - 1 - q weakest others (tied
    # cells have equal powers, so which of them is outside changes no sum)
    noise = np.zeros((N, L + 1))
    others = ascending[order != own[:, None]].reshape(N, L - 1)
    noise[:, :L - 1] = others.cumsum(axis=-1)[:, ::-1]
    bound = mac_bound(num, noise[..., None], floor[:, None, None])
    vals = np.divide(bound, member.cumsum(axis=-1), out=np.full(num.shape, np.inf),
                     where=member)
    inner = vals.min(axis=-1)

    # the set each scheme reads, (4, N) in SCHEMES order
    q = np.empty((4, N), dtype=np.intp)
    q[:3] = [[0], [L - 1], [L]]
    q[3] = inner[:, :L].argmax(axis=-1)

    def masks() -> np.ndarray:
        # on sorted positions p, omega is set q's members and theta those up
        # to the position r of the first minimizing prefix; for S-SND, the
        # own cell and the r weakest others
        r = vals[n, q].argmin(axis=-1)[..., None]
        p = np.arange(L)
        omega = member[n, q]
        theta = omega & (p <= r)
        theta[2] = (p == pos_own[:, None]) | (p < r[2] + (r[2] > pos_own[:, None]))
        return _masks(np.array([theta, omega]), order)

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
        reports[scheme] = SymRateReport(per_bs=per_bs, network_rate=rates[argmin],
                                        network_argmin=argmin)
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


def network_symmetric_rate(state: ChannelState, scheme: str, i: int = 0) -> SymRateReport:
    """Per-BS max symmetric rates and the binding network-wide minimum (the
    lowest BS index on ties), read off :func:`symmetric_rates`."""
    _check_scheme(scheme)
    return symmetric_rates(state, i)[scheme]
