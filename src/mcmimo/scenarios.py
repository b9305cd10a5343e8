"""Canonical scenarios, two-cell case classification, and parameter sweeps.

The bundled presets use the reference parameter set K=4, path-loss exponent
2, uplink SNR 30, pilot SNR 120 and d0 = 100 m, with cell-edge users:

* ``two-cell-scenario-a``: radius 400 m, BS spacing 800 m, antenna count is
  the natural sweep axis,
* ``two-cell-scenario-b``: BS spacing 500 m, 5e4 antennas, radius is the
  natural sweep axis,
* ``three-cell-theta``: three collinear cells of radius 400 m, middle-cell
  user angle theta is movable (90 deg default).

Sweeps evaluate the four network symmetric rates on a grid and locate
scheme-ordering changes and two-cell case transitions by bisection.  Every
evaluation is one stacked call of :func:`~mcmimo.symrate.stacked_rates`
over many axis values: the grid at once, then calls that each resolve
several bisection levels of every open bracket, as many as the grid
length allows.  An M sweep builds one channel state and scales its
coherent powers by each M; a radius or theta sweep builds its positions
as arrays straight from the layout recipe and computes their fading and
MMSE statistics in one pass.  Stacks are split into chunks of bounded
memory, which changes no output bit.  All thresholds of a sweep share one
memo of evaluated values, so a bracket where several orderings flip is
refined once and no axis value is evaluated twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice, repeat

import numpy as np

from .bounds import (check_indices, coherent_power, coherent_powers, mac_bound, noise_floor,
                     noise_floors)
from .estimation import ChannelState, check_fading, mmse_coeffs
from .network import CellLayout, SystemParams, fading_stack, layout_stack
from .symrate import SCHEMES, STACK_BYTES, stacked_rates

__all__ = [
    "Scenario",
    "PRESET_NAMES",
    "preset_scenario",
    "TwoCellCase",
    "OrderingCheck",
    "classify_two_cell",
    "two_cell_ordering_check",
    "SweepRow",
    "Crossing",
    "SweepResult",
    "sweep",
    "SWEEP_AXES",
    "MAX_GRID_POINTS",
]

SWEEP_AXES = ("M", "radius_x", "theta")
REL_TOL = 1e-3  # relative bracket width at which a sweep bisection stops
EQ_RTOL = 1e-9  # relative band within which two rates count as equal
MAX_GRID_POINTS = 10_000  # points of one sweep grid, at most
_RECIPE_KEYS = {"radius_x": "x", "theta": "theta_deg"}  # geometry axis -> recipe argument

_REFERENCE = dict(K=4, rho_u=30.0, rho_p=120.0, alpha_pl=2.0, d0=100.0)


@dataclass(frozen=True)
class Scenario:
    """A rebuildable network: parameters plus a layout recipe.

    ``layout_kind`` is one of ``two_cell``, ``three_cell`` or ``explicit``;
    ``layout_args`` holds the recipe arguments.  Canonical recipes can be
    re-materialized with modified geometry, which is what parameter sweeps
    need; explicit layouts only support the antenna-count axis.
    """

    params: SystemParams
    layout_kind: str
    layout_args: tuple[tuple[str, float], ...]
    name: str | None = None

    def layout(self) -> CellLayout:
        if self.layout_kind == "explicit":
            return CellLayout.from_dict(dict(self.layout_args)["layout_dict"])
        bs, users = layout_stack(self.layout_kind, self.params.K, [dict(self.layout_args)])
        return CellLayout(bs[0], users[0])

    def state(self) -> ChannelState:
        return ChannelState.from_layout(self.layout(), self.params)

    @classmethod
    def from_layout(cls, layout: CellLayout, params: SystemParams,
                    name: str | None = None) -> "Scenario":
        return cls(params=params, layout_kind="explicit",
                   layout_args=(("layout_dict", layout.to_dict()),), name=name)

    def with_axis(self, axis: str, value: float) -> "Scenario":
        """Scenario with one swept quantity replaced."""
        if axis == "M":
            return replace(self, params=self.params.with_m(float(value)))
        args = self._recipe(axis)
        args[_RECIPE_KEYS[axis]] = float(value)
        return replace(self, layout_args=tuple(sorted(args.items())))

    def positions(self, axis: str, values) -> tuple[np.ndarray, np.ndarray]:
        """BS positions (G, L, 2) and user positions (G, L, K, 2) of the
        layouts at G values of the geometry axis ``axis``; row g is the
        layout of ``with_axis(axis, values[g])``."""
        args, key = self._recipe(axis), _RECIPE_KEYS[axis]
        return layout_stack(self.layout_kind, self.params.K,
                            [{**args, key: float(v)} for v in values])

    def _recipe(self, axis: str) -> dict:
        """The layout recipe arguments, once ``axis`` is known to move one."""
        if self.layout_kind == "explicit":
            raise ValueError(f"axis {axis!r} requires a canonical (two/three cell) layout")
        if axis not in _RECIPE_KEYS:
            raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
        if axis == "theta" and self.layout_kind != "three_cell":
            raise ValueError("axis 'theta' requires the three-cell layout")
        return dict(self.layout_args)


def _reference_params(L: int, M: float) -> SystemParams:
    return SystemParams(L=L, M=M, **_REFERENCE)


PRESET_NAMES = ("two-cell-scenario-a", "two-cell-scenario-b", "three-cell-theta")


def preset_scenario(name: str) -> Scenario:
    """Named canonical scenario; see module docstring for the parameter sets."""
    if name == "two-cell-scenario-a":
        return Scenario(params=_reference_params(2, 1e4), layout_kind="two_cell",
                        layout_args=(("spacing", 800.0), ("user_angle_deg", 180.0),
                                     ("x", 400.0)),
                        name=name)
    if name == "two-cell-scenario-b":
        return Scenario(params=_reference_params(2, 5e4), layout_kind="two_cell",
                        layout_args=(("spacing", 500.0), ("user_angle_deg", 180.0),
                                     ("x", 225.0)),
                        name=name)
    if name == "three-cell-theta":
        return Scenario(params=_reference_params(3, 1e4), layout_kind="three_cell",
                        layout_args=(("spacing", 800.0), ("theta_deg", 90.0),
                                     ("x", 400.0)),
                        name=name)
    raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")


@dataclass(frozen=True)
class TwoCellCase:
    """Two-cell interference regime at one BS.

    ``case_i`` (weak interference): the cross user's decodable rate is below
    the own-user TIN rate, so treating it as noise wins.  ``case_ii``:
    half the joint sum-rate fits under both single-user bounds, so joint
    decoding wins.  ``lhs`` and ``rhs`` are the compared bound values.
    """

    label: str
    lhs: float
    rhs: float


def _two_cell_values(coh, floor, j: int) -> np.ndarray:
    """With both users decoded: the bounds on the own user, the other user
    and both; then the TIN rate (only the own user decoded).  From the
    coherent powers (..., 2) at BS j and the noise floors (...), as a
    (4, ...) array."""
    own, other = coh[..., j], coh[..., 1 - j]
    zero = np.zeros_like(own)
    nums = np.stack([own, other, coh[..., 1] + coh[..., 0], own])
    return mac_bound(nums, np.stack([zero, zero, zero, other]), floor)


def _case(a: float, b: float, f: float, t: float) -> TwoCellCase:
    """The case label of the :func:`_two_cell_values` ``a, b, f, t``."""
    if b < t:
        return TwoCellCase(label="case_i", lhs=b, rhs=t)
    if 0.5 * f <= min(a, b):
        return TwoCellCase(label="case_ii", lhs=0.5 * f, rhs=min(a, b))
    raise ValueError(
        "unclassifiable two-cell instance: the cross user is received more "
        "strongly than the own user (violates nearest-BS association)")


def classify_two_cell(state: ChannelState, j: int = 0, i: int = 0) -> TwoCellCase:
    """Classify the interference regime at BS j of a two-cell network.

    The third conceivable regime (the cross user received more coherent power
    than the own user) cannot occur under nearest-BS association; it is
    reported as an error rather than a label.
    """
    if state.L != 2:
        raise ValueError(f"two-cell classification requires L=2, got L={state.L}")
    values = _two_cell_values(coherent_power(state, j, i), noise_floor(state, j), j)
    return _case(*values.tolist())


@dataclass(frozen=True)
class OrderingCheck:
    """Expected scheme ordering for the active two-cell case at one BS."""

    case: str
    rates: dict
    lhs: float
    rhs: float
    passed: bool


def two_cell_ordering_check(state: ChannelState, j: int = 0, i: int = 0) -> OrderingCheck:
    """Verify the scheme ordering implied by the active case at BS j.

    Case (i) requires sd < ssnd < snd = tin; case (ii) requires
    tin <= sd = snd = ssnd.  Equalities are checked to relative ``EQ_RTOL``.
    """
    case = classify_two_cell(state, j, i)
    solved = stacked_rates(coherent_power(state, j, i)[None, None], [[noise_floor(state, j)]],
                           SCHEMES, [j])
    rates = {s: float(solved[s][0][0, 0]) for s in SCHEMES}

    def close(u, v):
        return math.isclose(u, v, rel_tol=EQ_RTOL, abs_tol=0.0)

    if case.label == "case_i":
        ok = (rates["sd"] < rates["ssnd"] < rates["snd"] and
              close(rates["snd"], rates["tin"]))
    else:
        ok = (rates["tin"] <= rates["sd"] * (1.0 + EQ_RTOL) and
              close(rates["sd"], rates["snd"]) and close(rates["sd"], rates["ssnd"]))
    return OrderingCheck(case=case.label, rates=rates, lhs=case.lhs, rhs=case.rhs,
                         passed=ok)


@dataclass(frozen=True)
class SweepRow:
    value: float
    rates: dict
    case: str | None


@dataclass(frozen=True)
class Crossing:
    """A detected transition of a scheme ordering (or case label) between two
    axis values, located by bisection to relative tolerance ``rel_tol``
    (the module's ``REL_TOL``)."""

    name: str
    before: str
    after: str
    value: float
    rel_tol: float


@dataclass(frozen=True)
class SweepResult:
    axis: str
    scenario: Scenario
    rows: tuple[SweepRow, ...]
    thresholds: tuple[Crossing, ...]


_PAIRS = tuple((p, q) for p in range(len(SCHEMES)) for q in range(p + 1, len(SCHEMES)))


def _stack_powers(scenario: Scenario, axis: str, values: list[float], pilot: int,
                  base: ChannelState | None):
    """Coherent powers (G, L, L) and noise floors (G, L) at every BS of the
    scenario at each axis value.

    An M sweep scales the coherent powers of ``base``, the scenario's one
    channel state (fading and MMSE statistics do not depend on M); the other
    axes stack the G layouts and compute their fading and MMSE statistics in
    one pass.  Every input check of a per-value state build still runs.
    """
    p = scenario.params
    if axis == "M":
        m = np.array(values)
        bad = m[~(m > 0)]
        if bad.size:
            raise ValueError(f"M must be positive, got {float(bad[0])!r}")
        bad = m[~np.isfinite(m)]
        if bad.size:
            raise ValueError(f"M must be finite, got {float(bad[0])!r}")
        beta, alpha = base.beta, base.stats.alpha
    else:
        m = p.M
        beta = fading_stack(*scenario.positions(axis, values), p)
        check_fading(beta)
        alpha = mmse_coeffs(beta, p).alpha
    coh = coherent_powers(m, p, beta, alpha, pilot)
    return coh, np.broadcast_to(noise_floors(beta, p.rho_u), coh.shape[:-1])


def _evaluate(scenario: Scenario, axis: str, values: list[float], pilot: int,
              base: ChannelState | None):
    """The network rates of every scheme, (G, 4) in ``SCHEMES`` order, and
    for two cells the :func:`_two_cell_values` at BS 0, (4, G), at each axis
    value.

    Values are evaluated in chunks of at most ``STACK_BYTES`` of arrays.
    Per value the kernel holds about 64 bytes for each of its L^2 (L + 3)
    (BS, decoded set, cell) entries, and a fading stack about 64 bytes for
    each of its K L^2 links.
    """
    L, K = scenario.params.L, scenario.params.K
    step = max(1, STACK_BYTES // (64 * L * L * (L + 3 + K)))
    rates, cases = [], []
    for start in range(0, len(values), step):
        coh, floor = _stack_powers(scenario, axis, values[start:start + step], pilot, base)
        solved = stacked_rates(coh, floor)
        rates.append(np.stack([solved[s][0].min(axis=1) for s in SCHEMES], axis=1))
        if L == 2:
            cases.append(_two_cell_values(coh[:, 0], floor[:, 0], 0))
    return np.concatenate(rates), np.concatenate(cases, axis=1) if cases else None


def _order_signs(rates: np.ndarray) -> np.ndarray:
    """-1, 0 or +1 for every scheme pair (p, q) of ``_PAIRS``: rate p vs
    rate q in each row of the (G, 4) ``rates``, with a relative equality
    band of EQ_RTOL.  Returns a (G, 6) array."""
    ra, rb = rates[:, [p for p, _ in _PAIRS]], rates[:, [q for _, q in _PAIRS]]
    band = EQ_RTOL * np.maximum(np.maximum(np.abs(ra), np.abs(rb)), 1.0)
    return np.where(np.abs(ra - rb) <= band, 0, np.where(ra > rb, 1, -1))


_SIGN_LABEL = {-1: "<", 0: "=", 1: ">"}
_CASE_LABEL = {1: "case_i", -1: "case_ii"}


def _is_open(lo: float, hi: float) -> bool:
    """Whether bisection still narrows the bracket [lo, hi]."""
    return hi - lo > REL_TOL * max(abs(lo), abs(hi))


@dataclass
class _Bracket:
    """A change of one indicator between grid neighbours, narrowed by
    bisection: ``lo`` keeps the sign ``s_lo`` and ``hi`` the other one."""

    name: str
    key: int  # the indicator's index: a pair of _PAIRS, or the case
    labels: dict
    s_lo: int
    s_hi: int
    lo: float
    hi: float

    def bisect(self, memo: dict, steps: int) -> None:
        """Take up to ``steps`` bisection steps, reading the signs at the
        midpoints from ``memo``."""
        for _ in range(steps):
            if not _is_open(self.lo, self.hi):
                return
            mid = 0.5 * (self.lo + self.hi)
            if memo[mid][self.key] == self.s_lo:
                self.lo = mid
            else:
                self.hi = mid


def _midpoints(lo: float, hi: float, levels: int) -> list[float]:
    """Every midpoint that up to ``levels`` bisection steps from [lo, hi]
    can visit: the nodes of its bisection tree of that depth whose
    interval is still open."""
    mids, todo = [], [(lo, hi, levels)]
    while todo:
        lo, hi, levels = todo.pop()
        if levels and _is_open(lo, hi):
            mid = 0.5 * (lo + hi)
            mids.append(mid)
            todo += [(lo, mid, levels - 1), (mid, hi, levels - 1)]
    return mids


def sweep(scenario: Scenario, axis: str, grid, pilot: int = 0) -> SweepResult:
    """Evaluate all scheme rates over a grid and locate transitions.

    ``grid`` must be nonempty, strictly increasing and at most
    ``MAX_GRID_POINTS`` long.  The indicators are the ordering (<, =, >) of
    every scheme pair and, for two-cell scenarios, the sign of the case
    margin.  Each change of an indicator between grid neighbours is refined
    by bisection until the bracket shrinks below ``REL_TOL`` relative width.
    Each refinement call resolves d levels at once, the most for which the
    n distinct open brackets need at most n (2^d - 1) <= ``len(grid)``
    values (at least one level): it evaluates, in one stacked call, every
    midpoint of each bracket's depth-d bisection tree whose interval is
    still open and that is not yet in the memo, then moves every bracket
    up to d steps by the usual rule, reading only the memo.  So each
    bracket visits the midpoints that bisecting it alone would, and the
    thresholds equal those of bisecting one bracket at a time.  The memo
    is seeded by the grid rows, so a midpoint that several indicators
    visit is evaluated once.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    grid = [float(v) for v in islice(grid, MAX_GRID_POINTS + 1)]
    if not grid:
        raise ValueError("sweep grid must be nonempty")
    if len(grid) > MAX_GRID_POINTS:
        raise ValueError(f"sweep grid has more than {MAX_GRID_POINTS} points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("sweep grid must be strictly increasing")
    check_indices(scenario.params, 0, pilot)
    base = scenario.state() if axis == "M" else None

    # value -> the signs of every indicator: the scheme pairs, then for two
    # cells the case margin
    memo = {}

    def fill(values: list[float]):
        rates, cases = _evaluate(scenario, axis, values, pilot, base)
        signs = _order_signs(rates)
        if cases is not None:
            signs = np.column_stack([signs, np.where(cases[1] < cases[3], 1, -1)])
        memo.update(zip(values, signs.tolist()))
        return rates, cases

    rates, cases = fill(grid)
    rows = tuple(SweepRow(value=v, rates=dict(zip(SCHEMES, r)),
                          case=None if cases is None else _case(*c).label)
                 for v, r, c in zip(grid, rates.tolist(),
                                    repeat(None) if cases is None else cases.T.tolist()))

    indicators = [(f"{SCHEMES[p]}-{SCHEMES[q]}", _SIGN_LABEL) for p, q in _PAIRS]
    if cases is not None:
        indicators.append(("case", _CASE_LABEL))
    brackets = [_Bracket(name, key, labels, memo[lo][key], memo[hi][key], lo, hi)
                for key, (name, labels) in enumerate(indicators)
                for lo, hi in zip(grid, grid[1:]) if memo[lo][key] != memo[hi][key]]

    active = [b for b in brackets if _is_open(b.lo, b.hi)]
    while active:
        spans = {(b.lo, b.hi) for b in active}
        # the most levels whose trees, 2^d - 1 nodes per span, fit in a
        # stack as long as the grid
        levels = max(1, (len(grid) // len(spans) + 1).bit_length() - 1)
        new = {v for lo, hi in spans for v in _midpoints(lo, hi, levels) if v not in memo}
        if new:
            fill(sorted(new))
        for b in active:
            b.bisect(memo, levels)
        active = [b for b in active if _is_open(b.lo, b.hi)]

    thresholds = sorted((Crossing(name=b.name, before=b.labels[b.s_lo],
                                  after=b.labels[b.s_hi], value=0.5 * (b.lo + b.hi),
                                  rel_tol=REL_TOL) for b in brackets),
                        key=lambda c: (c.value, c.name))
    return SweepResult(axis=axis, scenario=scenario, rows=rows, thresholds=tuple(thresholds))
