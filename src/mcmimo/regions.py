"""Achievable rate regions at one BS: TIN, SD, S-SND polytopes and the SND
union of MAC polytopes.

A :class:`Polytope` is a set of subset-sum constraints over the L co-pilot
user rates; coordinates that appear in no constraint are unbounded.  The SND
region is a union of one MAC polytope per decoded set ``omega`` containing
the own cell; users outside ``omega`` enter the bounds as noise and their
rate coordinates are unconstrained within that part.

Cell sets are int bitmasks (bit l stands for cell l), as in the CSV output.
Every builder sums the coherent powers of each of the 2^L masks once with
:func:`~mcmimo.bounds.subset_sum` and reads all its bounds off that table
with one vectorized :func:`~mcmimo.bounds.mac_bound` call.  Regions are
immutable after construction and membership queries are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat
from operator import lt
from typing import Sequence

import numpy as np

from .bounds import (check_indices, coherent_power, mac_bound, noise_floor, subset_sum,
                     tin_rate)
from .estimation import ChannelState

__all__ = [
    "Polytope",
    "RegionFamily",
    "tin_region",
    "sd_region",
    "ssnd_region",
    "snd_region",
]


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
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dim,):
            raise ValueError(f"point must have length {self.dim}, got shape {point.shape}")
        if np.any(point < 0):
            raise ValueError("rate points must be componentwise nonnegative")
        rates = point.tolist()
        return not any(subset_sum(rates, mask) > bound for mask, bound in self.constraints)


@dataclass(frozen=True)
class RegionFamily:
    """A per-BS achievable region: one polytope, or a union of them for SND.

    ``omegas[p]`` is the decoded set (a bitmask) of ``parts[p]``; for SND the
    union runs over every decoded set containing the own cell.
    """

    kind: str
    parts: tuple[Polytope, ...]
    omegas: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("tin", "sd", "ssnd", "snd"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        if len(self.parts) != len(self.omegas):
            raise ValueError("parts and omegas must align")
        if self.kind != "snd" and len(self.parts) != 1:
            raise ValueError(f"{self.kind} region must have exactly one part")

    def contains(self, point: Sequence[float]) -> bool:
        return any(part.contains(point) for part in self.parts)


def _ordered_masks(L: int) -> np.ndarray:
    """The nonzero masks of L cells in (cardinality, mask) order."""
    masks = np.arange(1, 1 << L)
    return masks[np.argsort(np.bitwise_count(masks), kind="stable")]


def _parts(state: ChannelState, j: int, i: int, omegas: list[int],
           thetas: list[np.ndarray]) -> tuple[Polytope, ...]:
    """One polytope per decoded set ``omegas[p]``, constraining the masks
    ``thetas[p]`` (in (cardinality, mask) order)."""
    coh = coherent_power(state, j, i).tolist()
    full = (1 << state.L) - 1
    sums = np.array([subset_sum(coh, mask) for mask in range(full + 1)])
    counts = [len(t) for t in thetas]
    flat = np.concatenate(thetas)
    noise = np.repeat(sums[full ^ np.array(omegas)], counts)
    bounds = mac_bound(sums[flat], noise, noise_floor(state, j)).tolist()
    pairs = zip(flat.tolist(), bounds)
    return tuple(Polytope(state.L, tuple(islice(pairs, count))) for count in counts)


def tin_region(state: ChannelState, j: int, i: int) -> RegionFamily:
    """Own-rate box: only the own user is decoded, others are noise."""
    rate = tin_rate(state, j, i)
    poly = Polytope(dim=state.L, constraints=((1 << j, rate),))
    return RegionFamily(kind="tin", parts=(poly,), omegas=(1 << j,))


def sd_region(state: ChannelState, j: int, i: int) -> RegionFamily:
    """Full MAC polytope: all L co-pilot users jointly and uniquely decoded."""
    full = (1 << state.L) - 1
    return RegionFamily(kind="sd", omegas=(full,),
                        parts=_parts(state, j, i, [full], [_ordered_masks(state.L)]))


def ssnd_region(state: ChannelState, j: int, i: int) -> RegionFamily:
    """SD polytope with every constraint not involving the own rate removed."""
    full = (1 << state.L) - 1
    masks = _ordered_masks(state.L)
    return RegionFamily(kind="ssnd", omegas=(full,),
                        parts=_parts(state, j, i, [full], [masks[masks >> j & 1 == 1]]))


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
    check_indices(state, j, i)
    masks = _ordered_masks(L)
    omegas = [om for om in range(1, 1 << L) if om >> j & 1]
    thetas = [masks[masks & ~om == 0] for om in omegas]
    return RegionFamily(kind="snd", parts=_parts(state, j, i, omegas, thetas),
                        omegas=tuple(omegas))
