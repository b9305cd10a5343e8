"""Achievable rate regions at one BS: TIN, SD, S-SND polytopes and the SND
union of MAC polytopes.

A :class:`Polytope` is a set of subset-sum constraints over the L co-pilot
user rates; coordinates that appear in no constraint are unbounded.  The SND
region is a union of one MAC polytope per decoded set ``omega`` containing
the own cell; users outside ``omega`` enter the bounds as noise and their
rate coordinates are unconstrained within that part.

All constraint bounds are evaluated once at construction time; regions are
immutable afterwards and membership queries are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Iterable, Sequence, Union

import numpy as np

from .bounds import capacity, coherent_power, noise_floor, tin_rate
from .estimation import ChannelState

__all__ = [
    "Polytope",
    "RegionFamily",
    "tin_region",
    "sd_region",
    "ssnd_region",
    "snd_region",
    "membership",
]


def _set_to_mask(s: Iterable[int]) -> int:
    mask = 0
    for l in s:
        mask |= 1 << l
    return mask


def _constraint_order(item):
    subset, _ = item
    return (len(subset), _set_to_mask(subset))


class _SubsetTable:
    """Every subset of ``range(L)`` built once and shared by all regions of
    that size: ``sets[mask]`` is the frozenset of the set bits, ``order``
    holds the nonzero masks sorted by (cardinality, mask), the order in which
    a :class:`Polytope` stores its constraints, and ``rank`` maps the id of
    each nonempty table set to its position in that order."""

    def __init__(self, L: int):
        sets = [frozenset()]
        for l in range(L):
            sets += [s | {l} for s in sets]
        self.sets = sets
        order = sorted(range(1, 1 << L), key=lambda m: (m.bit_count(), m))
        self.order = np.array(order, dtype=np.int64)
        self.rank = {id(sets[m]): r for r, m in enumerate(order)}


# Tables are immutable, so sharing them changes no result.  Those of up to
# _CACHED_CELLS cells (about 1 MB in all) live as long as the process; larger
# ones are built per call and freed with their region.
_CACHED_CELLS = 12
_TABLES: dict[int, _SubsetTable] = {}


def _subset_table(L: int) -> _SubsetTable:
    table = _TABLES.get(L)
    if table is None:
        table = _SubsetTable(L)
        if L <= _CACHED_CELLS:
            _TABLES[L] = table
    return table


@dataclass(frozen=True)
class Polytope:
    """Rates R >= 0 with sum_{l in subset} R_l <= bound for each constraint.

    ``constraints`` maps nonempty cell subsets to nonnegative rate bounds,
    stored sorted by (cardinality, bitmask).  Missing subsets are unbounded.
    """

    dim: int
    constraints: tuple[tuple[frozenset[int], float], ...]

    def __post_init__(self):
        if not self._table_constraints_valid():
            self._check_constraints()

    def _table_constraints_valid(self) -> bool:
        """True if every subset is a set of this dimension's shared subset
        table, the subsets are distinct and already in (cardinality, mask)
        order, and every bound is nonnegative.  Table sets are nonempty and
        in range by construction, so such constraints pass the full check
        unchanged; any other input gets the full check."""
        cons = self.constraints
        try:
            table = _TABLES.get(self.dim)
            if table is None or type(cons) is not tuple or set(map(len, cons)) != {2}:
                return False
            ranks = list(map(table.rank.get, map(id, map(itemgetter(0), cons))))
            # a NaN first would stay the min; NaN bounds are left to the full check
            return (None not in ranks and ranks == sorted(set(ranks))
                    and min(map(itemgetter(1), cons)) >= 0)
        except TypeError:
            return False

    def _check_constraints(self) -> None:
        seen = set()
        for subset, bound in self.constraints:
            if not subset:
                raise ValueError("constraint subsets must be nonempty")
            if subset in seen:
                raise ValueError(f"duplicate constraint subset {set(subset)}")
            if any(l < 0 or l >= self.dim for l in subset):
                raise ValueError(f"subset {set(subset)} out of range for dim {self.dim}")
            if bound < 0:
                raise ValueError(f"constraint bound must be nonnegative, got {bound}")
            seen.add(subset)
        ordered = tuple(sorted(self.constraints, key=_constraint_order))
        object.__setattr__(self, "constraints", ordered)

    def contains(self, point: Sequence[float]) -> bool:
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dim,):
            raise ValueError(f"point must have length {self.dim}, got shape {point.shape}")
        if np.any(point < 0):
            raise ValueError("rate points must be componentwise nonnegative")
        for subset, bound in self.constraints:
            if point[list(subset)].sum() > bound:
                return False
        return True


@dataclass(frozen=True)
class RegionFamily:
    """A per-BS achievable region: one polytope, or a union of them for SND.

    For SND, ``omegas[p]`` is the decoded set of ``parts[p]``; the union runs
    over every decoded set containing the own cell.
    """

    kind: str
    parts: tuple[Polytope, ...]
    omegas: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.kind not in ("tin", "sd", "ssnd", "snd"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        if len(self.parts) != len(self.omegas):
            raise ValueError("parts and omegas must align")
        if self.kind != "snd" and len(self.parts) != 1:
            raise ValueError(f"{self.kind} region must have exactly one part")

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    def contains(self, point: Sequence[float]) -> bool:
        return any(part.contains(point) for part in self.parts)


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """sums[mask] = sum of values[l] over set bits of mask.

    Each sum adds the value of its lowest bit last to the sum of the higher
    bits (sums[mask] = sums[mask ^ low] + values[low]), so every entry is
    accumulated from the highest index down; ``symrate`` reproduces this
    order when it sums single sets.  Filled one bit at a time, highest
    first: step b sets every mask whose lowest bit is b.
    """
    n = len(values)
    sums = np.zeros(1 << n)
    for b in range(n - 1, -1, -1):
        view = sums.reshape(-1, 2, 1 << b)
        view[:, 1, 0] = view[:, 0, 0] + values[b]
    return sums


def _parts(state: ChannelState, j: int, i: int, table: _SubsetTable, omegas: list[int],
           masks: list[np.ndarray]) -> tuple[Polytope, ...]:
    """One polytope per decoded set ``omegas[p]``: ``masks[p]`` lists its
    constrained subsets in (cardinality, mask) order, and ``table`` supplies
    their sets.  All bounds come from one subset-sum table and one vectorized
    :func:`capacity` call."""
    L = state.L
    if j < 0 or i < 0:
        raise ValueError("cell, BS and pilot indices must be nonnegative")
    if j >= L:
        raise ValueError(f"BS index {j} out of range for L={L}")
    if i >= state.K:
        raise ValueError(f"pilot index {i} out of range for K={state.K}")
    sums = _subset_sums(coherent_power(state, j, i))
    dens = sums[((1 << L) - 1) ^ np.array(omegas, dtype=np.int64)] + noise_floor(state, j)
    counts = [len(m) for m in masks]
    flat = np.concatenate(masks)
    bounds = capacity(sums[flat] / np.repeat(dens, counts)).tolist()
    pairs = zip(map(table.sets.__getitem__, flat.tolist()), bounds)
    return tuple(Polytope(L, tuple(islice(pairs, count))) for count in counts)


def tin_region(state: ChannelState, j: int, i: int) -> RegionFamily:
    """Own-rate box: only the own user is decoded, others are noise."""
    poly = Polytope(dim=state.L,
                    constraints=((frozenset({j}), tin_rate(state, j, i)),))
    return RegionFamily(kind="tin", parts=(poly,), omegas=(frozenset({j}),))


def sd_region(state: ChannelState, j: int, i: int) -> RegionFamily:
    """Full MAC polytope: all L co-pilot users jointly and uniquely decoded."""
    full = (1 << state.L) - 1
    table = _subset_table(state.L)
    return RegionFamily(kind="sd", parts=_parts(state, j, i, table, [full], [table.order]),
                        omegas=(table.sets[full],))


def ssnd_region(state: ChannelState, j: int, i: int) -> RegionFamily:
    """SD polytope with every constraint not involving the own rate removed."""
    full = (1 << state.L) - 1
    table = _subset_table(state.L)
    masks = table.order[(table.order >> j & 1) == 1]
    return RegionFamily(kind="ssnd", parts=_parts(state, j, i, table, [full], [masks]),
                        omegas=(table.sets[full],))


def snd_region(state: ChannelState, j: int, i: int, max_cells: int = 12) -> RegionFamily:
    """Union of MAC polytopes over all decoded sets containing the own cell.

    Within the part for decoded set omega, users outside omega contribute
    their coherent power to the bound denominators and their rate coordinates
    are unconstrained.  Exponential in L; refuses L > max_cells.
    """
    L = state.L
    if L > max_cells:
        raise ValueError(
            f"snd_region enumerates 2^(L-1) decoded sets; L={L} exceeds the "
            f"supported limit of {max_cells}")
    table = _subset_table(L)
    omegas = [om for om in range(1, 1 << L) if om >> j & 1]
    masks = [table.order[(table.order & ~om) == 0] for om in omegas]
    return RegionFamily(kind="snd", parts=_parts(state, j, i, table, omegas, masks),
                        omegas=tuple(table.sets[om] for om in omegas))


def membership(point: Sequence[float], region: Union[RegionFamily, Polytope]) -> bool:
    """True if the rate point lies in the region (any part, for unions)."""
    return region.contains(point)
