"""Achievable rate regions at one BS: TIN, SD, S-SND polytopes and the SND
union of MAC polytopes.

A :class:`RegionFamily` is the one region type.  Each part is a set of
subset-sum constraints over the L co-pilot user rates; coordinates that
appear in no constraint of a part are unbounded in it.  The SND region is
a union of one MAC polytope per decoded set ``omega`` containing the own
cell; users outside ``omega`` enter the bounds as noise and their rate
coordinates are unconstrained within that part.  The parts are held as
flat columns, ``parts`` views each as a one-part region, and
:func:`max_symmetric_rate` reads the columns with array operations.
Cell sets are int bitmasks (bit l stands for cell l), as in the CSV
output, and N of a mask is summed weakest first, as :mod:`~mcmimo.bounds`
states, by :func:`_mask_sums`, which also forms the 2^L table.

The TIN region holds a single bound; the SD, S-SND and SND
builders refuse a region of more than ``MAX_CONSTRAINTS`` constraints
before allocating it.  Which (theta, omega) pairs a region holds depends
only on its scheme, L and BS (SD: on L alone), so its ``omega``,
``offsets`` and ``theta`` columns are built once and kept, read-only and
shared by every region of that key, in a least-recently-used cache that
holds at most ``MAX_CONSTRAINTS`` constraints in total;
``_columns.cache_info()`` counts its hits and misses.  Each build then
reads every bound off one table of the subset sums of all 2^L masks with
one vectorized division and :func:`~mcmimo.bounds.capacity`; the state's
memo keeps the last table in one slot, so the regions at one (BS, pilot)
form it once and a state holds one table at most (8 MiB at the SD limit
L = 20).  Regions are immutable after construction and membership
queries are read-only.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .bounds import (SCHEMES, capacity, check_indices, mac_bound, noise_floor,
                     state_powers)
from .estimation import ChannelState

__all__ = [
    "MAX_CONSTRAINTS",
    "RegionFamily",
    "max_symmetric_rate",
    "tin_region",
    "sd_region",
    "ssnd_region",
    "snd_region",
]

# constraints of one SD, S-SND or SND region, and of all cached columns, at most
MAX_CONSTRAINTS = 1 << 20


def _rate_point(point: Sequence[float], dim: int) -> np.ndarray:
    point = np.asarray(point, dtype=float)
    if point.shape != (dim,):
        raise ValueError(f"point must have length {dim}, got shape {point.shape}")
    if not np.all(point >= 0):  # also refuses NaN
        raise ValueError("rate points must be componentwise nonnegative")
    return point


def _mask_sums(values, masks) -> np.ndarray:
    """N of each bitmask in the array ``masks``: the sum of ``values[l]``
    over its set bits l, added from 0.0 weakest first, exactly tied cells
    lowest index first, as :mod:`~mcmimo.bounds` states."""
    total = np.zeros(np.shape(masks))
    for l in np.argsort(values, kind="stable").tolist():
        np.add(total, values[l], out=total, where=masks & 1 << l != 0)
    return total


@dataclass(frozen=True, eq=False)
class RegionFamily:
    """A per-BS achievable region: one polytope, or a union of them for SND.

    Part p decodes the cell set ``omega[p]`` and holds the rates R >= 0
    with sum_{l in theta} R_l <= bound for each of its rows
    ``offsets[p]:offsets[p + 1]`` of the read-only ``theta`` and ``bound``
    columns, which are in (cardinality, mask) order.  Every part holds at
    least one row.  For SND the union runs over every decoded set
    containing the own cell.
    """

    kind: str
    dim: int
    omega: np.ndarray
    offsets: np.ndarray
    theta: np.ndarray
    bound: np.ndarray

    def __post_init__(self):
        if self.kind not in SCHEMES:
            raise ValueError(f"unknown region kind {self.kind!r}")
        columns = (self.omega, self.offsets, self.theta, self.bound)
        for name, column in zip(("omega", "offsets", "theta", "bound"), columns):
            if not isinstance(column, np.ndarray):
                raise ValueError(f"{name} must be a numpy array, got {type(column).__name__}")
        if len(self.offsets) != len(self.omega) + 1:
            raise ValueError("offsets must hold one entry per part plus one")
        if self.kind != "snd" and len(self.omega) != 1:
            raise ValueError(f"{self.kind} region must have exactly one part")
        if len(self.bound) != len(self.theta):
            raise ValueError("bound must hold one entry per theta")
        if self.offsets[0] != 0 or self.offsets[-1] != len(self.theta):
            raise ValueError("offsets must run from 0 to the number of constraints")
        if (np.diff(self.offsets) <= 0).any():
            raise ValueError("offsets must increase strictly: every part holds a constraint")
        for column in columns:
            column.flags.writeable = False

    @cached_property
    def parts(self) -> tuple[RegionFamily, ...]:
        """Each part as a one-part region over views of these columns."""
        ends = self.offsets.tolist()
        return tuple(RegionFamily(self.kind, self.dim, self.omega[p:p + 1],
                                  np.array([0, b - a]), self.theta[a:b], self.bound[a:b])
                     for p, (a, b) in enumerate(zip(ends, ends[1:])))

    @property
    def constraints(self) -> tuple[tuple[int, float], ...]:
        """The ``(theta, bound)`` rows of every part, as Python ints and floats."""
        return tuple(zip(self.theta.tolist(), self.bound.tolist()))

    def contains(self, point: Sequence[float]) -> bool:
        """Whether some part holds the point.  The theta sums are
        :func:`_mask_sums`, taken per constraint, not from a 2^L table, as
        a TIN region has one constraint at any L."""
        total = _mask_sums(_rate_point(point, self.dim), self.theta)
        broken = np.logical_or.reduceat(total > self.bound, self.offsets[:-1])
        return not broken.all()


def max_symmetric_rate(region: RegionFamily) -> tuple[float, int]:
    """Largest R with (R, ..., R) in the region, and its binding theta.

    Each part's rate is its least bound / |theta|, and its binding theta the
    first attaining it in (cardinality, mask) order; the region's rate is
    the largest part rate, with the theta of the first part attaining it.
    """
    per = region.bound / np.bitwise_count(region.theta).astype(float)
    least = np.minimum.reduceat(per, region.offsets[:-1])
    p = int(np.argmax(least))
    a, b = region.offsets[p:p + 2]
    return float(least[p]), int(region.theta[a + np.argmin(per[a:b])])


def _check(kind: str, state: ChannelState, j: int, i: int, count: int) -> None:
    """Reject bad indices, and a region of ``count`` constraints above
    ``MAX_CONSTRAINTS``, before anything is allocated."""
    check_indices(state, j, i)
    if count > MAX_CONSTRAINTS:
        raise ValueError(
            f"{kind} region at L={state.L} has {count} constraints, above the "
            f"limit of {MAX_CONSTRAINTS}")


def _ordered_masks(L: int) -> np.ndarray:
    """The nonzero masks of L cells in (cardinality, mask) order."""
    masks = np.arange(1, 1 << L)
    return masks[np.argsort(np.bitwise_count(masks), kind="stable")]


def _index(kind: str, L: int, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``omega``, ``offsets`` and ``theta`` columns of a ``kind`` region
    at BS j of L cells, as read-only views: part p decodes ``omega[p]`` and
    constrains its subsets among the masks the scheme keeps, in
    (cardinality, mask) order."""
    masks = _ordered_masks(L)
    if kind == "snd":
        omega = np.arange(1 << L)
        omega = omega[omega >> j & 1 == 1]
    else:
        omega = np.array([(1 << L) - 1])
        if kind == "ssnd":
            masks = masks[masks >> j & 1 == 1]
    narrow = np.min_scalar_type((1 << L) - 1)
    inside = (masks.astype(narrow) & ~omega.astype(narrow)[:, None]) == 0
    part, col = np.divmod(np.flatnonzero(inside), len(masks))  # row-major order
    del inside
    offsets = np.searchsorted(part, np.arange(len(omega) + 1))
    columns = (omega, offsets, masks[col])
    for column in columns:
        column.flags.writeable = False
    # views of read-only arrays cannot be made writeable again
    return tuple(column.view() for column in columns)


_CacheInfo = namedtuple("_CacheInfo", "hits misses entries constraints")


class _ColumnCache:
    """The index columns of each (kind, L, BS), built once: which (theta,
    omega) pairs a region holds depends on them alone, not on the channel.
    SD's columns do not depend on the BS, so it has one entry per L.

    Entries hold at most ``MAX_CONSTRAINTS`` constraints in total, read when
    an entry is added; the least recently used go first.  A lock guards the
    entries; a miss builds outside it, so two threads may build one entry
    at once, and both get the one that is kept.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self.hits = self.misses = self.held = 0

    def __call__(self, kind: str, L: int, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        key = (kind, L) if kind == "sd" else (kind, L, j)
        with self._lock:
            columns = self._entries.get(key)
            if columns is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return columns
            self.misses += 1
        columns = _index(kind, L, j)
        with self._lock:
            if key in self._entries:
                return self._entries[key]
            self._entries[key] = columns
            self.held += len(columns[2])
            while self.held > MAX_CONSTRAINTS:
                _, old = self._entries.popitem(last=False)
                self.held -= len(old[2])
        return columns

    def cache_info(self) -> _CacheInfo:
        with self._lock:
            return _CacheInfo(self.hits, self.misses, len(self._entries), self.held)

    def cache_clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.held = 0


_columns = _ColumnCache()


def _sums(state: ChannelState, j: int, i: int) -> np.ndarray:
    """The read-only table of N(mask) for every mask below 2^L at BS j,
    pilot i, read from or put in the state's one table slot, the immutable
    ``((j, i), table)``."""
    slot = state._powers.get("sums")
    if slot is None or slot[0] != (j, i):
        table = _mask_sums(state_powers(state, i)[0][j], np.arange(1 << state.L))
        table.flags.writeable = False
        slot = state._powers["sums"] = ((j, i), table)
    return slot[1]


def _region(kind: str, state: ChannelState, j: int, i: int) -> RegionFamily:
    """The ``kind`` region at BS j, pilot i: its cached index columns with
    the bounds of this state, read off the state's table of all 2^L subset
    sums.  The floor is added to each part's N(omega^c) before the spread
    to one denominator per constraint, which the division and the
    :func:`~mcmimo.bounds.capacity` write in place into ``bound``: a build
    holds two arrays of one float per constraint, that and the theta sums."""
    omega, offsets, theta = _columns(kind, state.L, j)
    sums = _sums(state, j, i)
    denom = sums[((1 << state.L) - 1) ^ omega] + noise_floor(state, j)
    denom = np.repeat(denom, offsets[1:] - offsets[:-1])
    bound = capacity(np.divide(sums[theta], denom, out=denom), out=denom)
    return RegionFamily(kind, state.L, omega, offsets, theta, bound)


def tin_region(state: ChannelState, j: int, i: int) -> RegionFamily:
    """Own-rate box: only the own user is decoded, others are noise.  Its one
    bound is the symmetric-rate kernel's TIN rate to the bit, with no solve."""
    check_indices(state, j, i)
    coh = state_powers(state, i)[0][j]
    own = np.array([1 << j], dtype=np.int64 if state.L < 64 else object)
    rate = mac_bound(coh[[j]], _mask_sums(coh, ((1 << state.L) - 1) ^ own),
                     noise_floor(state, j))
    return RegionFamily("tin", state.L, own, np.array([0, 1]), own, rate)


def sd_region(state: ChannelState, j: int, i: int) -> RegionFamily:
    """Full MAC polytope: all L co-pilot users jointly and uniquely decoded."""
    _check("sd", state, j, i, (1 << state.L) - 1)
    return _region("sd", state, j, i)


def ssnd_region(state: ChannelState, j: int, i: int) -> RegionFamily:
    """SD polytope with every constraint not involving the own rate removed."""
    _check("ssnd", state, j, i, 1 << (state.L - 1))
    return _region("ssnd", state, j, i)


def snd_region(state: ChannelState, j: int, i: int) -> RegionFamily:
    """Union of MAC polytopes over all decoded sets containing the own cell.

    Within the part for decoded set omega, users outside omega contribute
    their coherent power to the bound denominators and their rate coordinates
    are unconstrained.  Exponential in L: the 2^(L-1) parts hold
    2 * 3^(L-1) - 2^(L-1) constraints, which allows L <= 12.
    """
    _check("snd", state, j, i, 2 * 3 ** (state.L - 1) - (1 << (state.L - 1)))
    return _region("snd", state, j, i)
