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
evaluation is one stacked call of :func:`~mcmimo.symrate.stacked_rates_only`
(a sweep reads rates, not witness sets) over many axis values: the grid
at once, then calls that each hold, for every open bracket, the
bisection path its margins predict, so a bracket whose prediction holds
closes in one call.  An M sweep builds one channel state, scales its
coherent powers by each M and reads its noise floors from the state's memo; a
radius or theta sweep builds its positions as arrays straight from the
layout recipe, with the moving argument as a numpy array, and computes
their fading and MMSE statistics in one pass.  Stacks are split into
chunks of bounded memory, which changes no output bit.  All thresholds
of a sweep share one memo of evaluated values, so a bracket where several
orderings flip is refined once and no axis value is evaluated twice.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from itertools import islice, repeat

import numpy as np

from .bounds import (check_indices, coherent_power, coherent_powers, mac_bound, noise_floor,
                     noise_floors, state_floors)
from .estimation import ChannelState, check_fading, mmse_coeffs
from .network import CellLayout, SystemParams, fading_stack, layout_stack
from .symrate import SCHEMES, STACK_BYTES, stacked_rates_only, symmetric_rates

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

# name -> cell count, antenna count, layout kind and recipe arguments; the
# other parameters are the reference set of the module docstring
_PRESETS = {
    "two-cell-scenario-a": (2, 1e4, "two_cell",
                            dict(spacing=800.0, user_angle_deg=180.0, x=400.0)),
    "two-cell-scenario-b": (2, 5e4, "two_cell",
                            dict(spacing=500.0, user_angle_deg=180.0, x=225.0)),
    "three-cell-theta": (3, 1e4, "three_cell", dict(spacing=800.0, theta_deg=90.0, x=400.0)),
}
PRESET_NAMES = tuple(_PRESETS)


@dataclass(frozen=True)
class Scenario:
    """A rebuildable network: parameters plus a layout recipe.

    ``layout_kind`` is one of ``two_cell``, ``three_cell`` or ``explicit``;
    ``layout_args`` holds the recipe arguments, or an explicit layout's
    ``bs_positions`` and ``user_positions`` lists.  Canonical recipes can be
    re-materialized with modified geometry, which is what parameter sweeps
    need; explicit layouts only support the antenna-count axis.
    """

    params: SystemParams
    layout_kind: str
    layout_args: tuple[tuple[str, object], ...]
    name: str | None = None

    def layout(self) -> CellLayout:
        if self.layout_kind == "explicit":
            return CellLayout.from_dict(dict(self.layout_args))
        bs, users = layout_stack(self.layout_kind, self.params.K, **dict(self.layout_args))
        return CellLayout(bs[0], users[0])

    def state(self) -> ChannelState:
        return ChannelState.from_layout(self.layout(), self.params)

    @classmethod
    def from_layout(cls, layout: CellLayout, params: SystemParams,
                    name: str | None = None) -> "Scenario":
        return cls(params=params, layout_kind="explicit",
                   layout_args=tuple(sorted(layout.to_dict().items())), name=name)

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
        args = self._recipe(axis)
        args[_RECIPE_KEYS[axis]] = np.array(values, dtype=float)
        return layout_stack(self.layout_kind, self.params.K, **args)

    def _recipe(self, axis: str) -> dict:
        """The layout recipe arguments, once ``axis`` is known to move one."""
        if self.layout_kind == "explicit":
            raise ValueError(f"axis {axis!r} requires a canonical (two/three cell) layout")
        if axis not in _RECIPE_KEYS:
            raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
        if axis == "theta" and self.layout_kind != "three_cell":
            raise ValueError("axis 'theta' requires the three-cell layout")
        return dict(self.layout_args)


def preset_scenario(name: str) -> Scenario:
    """Named canonical scenario; see module docstring for the parameter sets."""
    if not (isinstance(name, str) and name in _PRESETS):
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    L, M, kind, args = _PRESETS[name]
    return Scenario(params=SystemParams(L=L, K=4, M=M, rho_u=30.0, rho_p=120.0),
                    layout_kind=kind, layout_args=tuple(sorted(args.items())), name=name)


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


_CASES = ("case_i", "case_ii")


def _case_ii(values: np.ndarray) -> np.ndarray:
    """Whether each column of (4, G) :func:`_two_cell_values` ``a, b, f,
    t`` is in case (ii) rather than case (i): case (i) when b < t, else
    case (ii) when 0.5 f <= min(a, b); a column in neither is an error."""
    a, b, f, t = values
    case_ii = ~(b < t)
    if not (0.5 * f <= np.minimum(a, b))[case_ii].all():
        raise ValueError(
            "unclassifiable two-cell instance: the cross user is received more "
            "strongly than the own user (violates nearest-BS association)")
    return case_ii


def classify_two_cell(state: ChannelState, j: int = 0, i: int = 0) -> TwoCellCase:
    """Classify the interference regime at BS j of a two-cell network.

    The third conceivable regime (the cross user received more coherent power
    than the own user) cannot occur under nearest-BS association; it is
    reported as an error rather than a label.
    """
    if state.L != 2:
        raise ValueError(f"two-cell classification requires L=2, got L={state.L}")
    values = _two_cell_values(coherent_power(state, j, i), noise_floor(state, j), j)
    a, b, f, t = values.tolist()
    if _case_ii(values[:, None])[0]:
        return TwoCellCase(label="case_ii", lhs=0.5 * f, rhs=min(a, b))
    return TwoCellCase(label="case_i", lhs=b, rhs=t)


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
    rates = {s: report.per_bs[j].rate for s, report in symmetric_rates(state, i).items()}

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
# the first and the second scheme of each pair, as index arrays
_PAIR_P, _PAIR_Q = np.array(_PAIRS).T


def _stack_powers(scenario: Scenario, axis: str, values: list[float], pilot: int,
                  base: ChannelState | None):
    """Coherent powers (G, L, L) and noise floors (G, L) at every BS of the
    scenario at each axis value.

    An M sweep scales the coherent powers of ``base``, the scenario's one
    channel state (fading and MMSE statistics do not depend on M), and
    reads its noise floors from the state's memo; the other
    axes stack the G layouts and compute their fading and MMSE statistics in
    one pass.  Every input check of a per-value state build still runs, but
    for finiteness, which :func:`sweep` checks before any evaluation.
    """
    p = scenario.params
    if axis == "M":
        m = np.array(values)
        bad = m[~(m > 0)]
        if bad.size:
            raise ValueError(f"M must be positive, got {float(bad[0])!r}")
        coh = coherent_powers(m, p, base.beta, base.stats.alpha, pilot)
        return coh, np.broadcast_to(state_floors(base), coh.shape[:-1])
    beta = fading_stack(*scenario.positions(axis, values), p)
    check_fading(beta)
    coh = coherent_powers(p.M, p, beta, mmse_coeffs(beta, p).alpha, pilot)
    return coh, noise_floors(beta, p.rho_u)


def _evaluate(scenario: Scenario, axis: str, values: list[float], pilot: int,
              base: ChannelState | None):
    """The network rates of every scheme, (G, 4) in ``SCHEMES`` order, and
    for two cells the :func:`_two_cell_values` at BS 0, (4, G), at each axis
    value.

    Values are evaluated in chunks whose own stacks (the fading, MMSE and
    coherent-power arrays of :func:`_stack_powers`) hold at most
    ``STACK_BYTES``, at 64 bytes for each of a value's K L^2 links: their
    ``tracemalloc`` peak reads 45-56 B per link at K = 1, 4 and 64.  The
    kernel bounds its own arrays (see :func:`~mcmimo.symrate.stacked_rates`).
    """
    L, K = scenario.params.L, scenario.params.K
    rates = np.empty((len(values), len(SCHEMES)))
    cases = np.empty((4, len(values))) if L == 2 else None
    step = max(1, STACK_BYTES // (64 * K * L * L))
    for start in range(0, len(values), step):
        chunk = slice(start, start + step)
        coh, floor = _stack_powers(scenario, axis, values[chunk], pilot, base)
        rates[chunk] = stacked_rates_only(coh, floor).min(axis=-1).T
        if cases is not None:
            cases[:, chunk] = _two_cell_values(coh[:, 0], floor[:, 0], 0)
    return rates, cases


def _signs_and_margins(rates: np.ndarray,
                       cases: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The sign and the margin of every indicator at each of G axis values,
    two (G, n) arrays: for each scheme pair (p, q) of ``_PAIRS``, -1, 0 or +1
    as rate p is below, within a relative band of EQ_RTOL of, or above rate
    q, and the margin rate p - rate q; then, for two cells, +1 (case (i)) or
    -1 (case (ii)) and the margin TIN rate - cross user's bound, from the
    (4, G) ``cases``."""
    ra, rb = rates[:, _PAIR_P], rates[:, _PAIR_Q]
    margins = ra - rb
    band = EQ_RTOL * np.maximum(np.maximum(np.abs(ra), np.abs(rb)), 1.0)
    signs = np.where(np.abs(margins) <= band, 0, np.where(ra > rb, 1, -1))
    if cases is not None:
        signs = np.column_stack([signs, np.where(cases[1] < cases[3], 1, -1)])
        margins = np.column_stack([margins, cases[3] - cases[1]])
    return signs, margins


_SIGN_LABEL = {-1: "<", 0: "=", 1: ">"}
_CASE_LABEL = {1: "case_i", -1: "case_ii"}


# Bisection narrows a bracket [lo, hi] while it is open:
# hi - lo > REL_TOL * max(|lo|, |hi|).  With lo <= hi, max(|lo|, |hi|) is
# max(-lo, hi), so the stepping loops below test
# ``hi - lo > REL_TOL * (hi if hi > -lo else -lo)``, with no call per step.


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

    def bisect(self, memo: dict) -> bool:
        """Take bisection steps for as long as ``memo`` holds the sign at
        the next midpoint; whether the bracket is still open."""
        lo, hi, key, s_lo = self.lo, self.hi, self.key, self.s_lo
        while still_open := hi - lo > REL_TOL * (hi if hi > -lo else -lo):
            mid = 0.5 * (lo + hi)
            known = memo.get(mid)
            if known is None:
                break
            if known[0][key] == s_lo:
                lo = mid
            else:
                hi = mid
        self.lo, self.hi = lo, hi
        return still_open

    def path(self, memo: dict, evaluated: list[float]) -> list[float]:
        """The midpoints that bisection visits if the indicator flips at
        the predicted zero of its margin (see :meth:`_zero`)."""
        lo, hi = self.lo, self.hi
        x, path = self._zero(memo, evaluated), []
        while hi - lo > REL_TOL * (hi if hi > -lo else -lo):
            mid = 0.5 * (lo + hi)
            path.append(mid)
            if mid < x:
                lo = mid
            else:
                hi = mid
        return path

    def _zero(self, memo: dict, evaluated: list[float]) -> float:
        """Where the line through two margins of the indicator crosses
        zero, in log(value) when the bracket and both values are positive,
        kept within the bracket.  A flip between two strict signs interpolates between the
        bracket ends; a flip into or out of ``=``, where the margin is
        about zero, extrapolates from the strict end and the nearest
        evaluated value beyond it (``evaluated`` is sorted).  Without such
        a pair of distinct margins, the bracket's midpoint."""
        lo, hi = self.lo, self.hi
        mid = 0.5 * (lo + hi)
        if self.s_lo and self.s_hi:
            a, b = lo, hi
        elif self.s_lo:
            k = bisect_left(evaluated, lo)
            if not k:
                return mid
            a, b = evaluated[k - 1], lo
        else:
            k = bisect_right(evaluated, hi)
            if k == len(evaluated):
                return mid
            a, b = hi, evaluated[k]
        ma, mb = memo[a][1][self.key], memo[b][1][self.key]
        if ma == mb:
            return mid
        to, back = (math.log, math.exp) if min(a, lo) > 0 else (float, float)
        t = to(a) + ma / (ma - mb) * (to(b) - to(a))
        if not math.isfinite(t):
            return mid
        return back(min(max(t, to(lo)), to(hi)))


def sweep(scenario: Scenario, axis: str, grid, pilot: int = 0) -> SweepResult:
    """Evaluate all scheme rates over a grid and locate transitions.

    ``grid`` must be nonempty, finite, strictly increasing and at most
    ``MAX_GRID_POINTS`` long.  The indicators are the ordering (<, =, >) of
    every scheme pair and, for two-cell scenarios, the sign of the case
    margin.  Each change of an indicator between grid neighbours is refined
    by bisection until the bracket shrinks below ``REL_TOL`` relative width.

    Each refinement call evaluates, in one stacked call, the values not yet
    in the memo on each open bracket's predicted path: the midpoints that
    bisection visits if the indicator flips where its margin is predicted
    to reach zero (see ``_Bracket._zero``).  Then every bracket steps by the
    usual rule for as long as the memo holds its next midpoint.  So each
    bracket visits the midpoints that bisecting it alone would, and the
    thresholds equal those of bisecting one bracket at a time; the
    prediction only chooses which values share a call.  A path starts at
    its bracket's own midpoint, which an open bracket has not found in the
    memo, so each call moves every open bracket at least one level.  The
    memo is seeded by the grid rows, so a midpoint that several indicators
    visit is evaluated once.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    grid = [float(v) for v in islice(grid, MAX_GRID_POINTS + 1)]
    if not grid:
        raise ValueError("sweep grid must be nonempty")
    if len(grid) > MAX_GRID_POINTS:
        raise ValueError(f"sweep grid has more than {MAX_GRID_POINTS} points")
    bad = next((v for v in grid if not math.isfinite(v)), None)
    if bad is not None:
        raise ValueError(f"grid entry must be finite, got {bad!r}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("sweep grid must be strictly increasing")
    check_indices(scenario.params, 0, pilot)
    base = scenario.state() if axis == "M" else None

    # value -> the signs and the margins of every indicator: the scheme
    # pairs, then for two cells the case
    memo = {}

    def fill(values: list[float]):
        rates, cases = _evaluate(scenario, axis, values, pilot, base)
        signs, margins = _signs_and_margins(rates, cases)
        memo.update(zip(values, zip(signs.tolist(), margins.tolist())))
        return rates, cases

    rates, cases = fill(grid)
    labels = repeat(None) if cases is None else [_CASES[k] for k in _case_ii(cases).tolist()]
    rows = tuple(SweepRow(value=v, rates=dict(zip(SCHEMES, r)), case=c)
                 for v, r, c in zip(grid, rates.tolist(), labels))

    indicators = [(f"{SCHEMES[p]}-{SCHEMES[q]}", _SIGN_LABEL) for p, q in _PAIRS]
    if cases is not None:
        indicators.append(("case", _CASE_LABEL))
    sign = [memo[v][0] for v in grid]
    brackets = [_Bracket(name, key, labels, a[key], b[key], lo, hi)
                for key, (name, labels) in enumerate(indicators)
                for lo, hi, a, b in zip(grid, grid[1:], sign, sign[1:]) if a[key] != b[key]]

    # no grid value lies inside a bracket, so this only drops closed ones
    active = [b for b in brackets if b.bisect(memo)]
    while active:
        evaluated = sorted(memo)
        fill(sorted({v for b in active for v in b.path(memo, evaluated)}.difference(memo)))
        active = [b for b in active if b.bisect(memo)]

    thresholds = sorted((Crossing(name=b.name, before=b.labels[b.s_lo],
                                  after=b.labels[b.s_hi], value=0.5 * (b.lo + b.hi),
                                  rel_tol=REL_TOL) for b in brackets),
                        key=lambda c: (c.value, c.name))
    return SweepResult(axis=axis, scenario=scenario, rows=rows, thresholds=tuple(thresholds))
