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
scheme-ordering changes and two-cell case transitions by bisection.  All
thresholds of a sweep share one evaluation memo, so a bracket where several
orderings flip is refined once and no axis value is evaluated twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .bounds import coherent_power, mac_bound, noise_floor, subset_sum
from .estimation import ChannelState
from .network import CellLayout, SystemParams, three_cell_layout, two_cell_layout
from .parallel import parallel_map
from .symrate import SCHEMES, network_symmetric_rate

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
]

SWEEP_AXES = ("M", "radius_x", "theta")
REL_TOL = 1e-3  # relative bracket width at which a sweep bisection stops
EQ_RTOL = 1e-9  # relative band within which two rates count as equal

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
        args = dict(self.layout_args)
        if self.layout_kind == "two_cell":
            return two_cell_layout(users_per_cell=self.params.K, **args)
        if self.layout_kind == "three_cell":
            return three_cell_layout(users_per_cell=self.params.K, **args)
        if self.layout_kind == "explicit":
            return CellLayout.from_dict(args["layout_dict"])
        raise ValueError(f"unknown layout kind {self.layout_kind!r}")

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
        if self.layout_kind == "explicit":
            raise ValueError(f"axis {axis!r} requires a canonical (two/three cell) layout")
        args = dict(self.layout_args)
        if axis == "radius_x":
            args["x"] = float(value)
        elif axis == "theta":
            if self.layout_kind != "three_cell":
                raise ValueError("axis 'theta' requires the three-cell layout")
            args["theta_deg"] = float(value)
        else:
            raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
        return replace(self, layout_args=tuple(sorted(args.items())))


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


def _two_cell_values(state: ChannelState, j: int, i: int):
    """With both users decoded: the bounds on the own user, the other user
    and both; then the TIN rate (only the own user decoded)."""
    coh = coherent_power(state, j, i).tolist()
    n_own, n_other = subset_sum(coh, 1 << j), subset_sum(coh, 1 << (1 - j))
    nums = [n_own, n_other, subset_sum(coh, 0b11), n_own]
    return mac_bound(nums, [0.0, 0.0, 0.0, n_other], noise_floor(state, j)).tolist()


def classify_two_cell(state: ChannelState, j: int = 0, i: int = 0) -> TwoCellCase:
    """Classify the interference regime at BS j of a two-cell network.

    The third conceivable regime (the cross user received more coherent power
    than the own user) cannot occur under nearest-BS association; it is
    reported as an error rather than a label.
    """
    if state.L != 2:
        raise ValueError(f"two-cell classification requires L=2, got L={state.L}")
    a, b, f, t = _two_cell_values(state, j, i)
    if b < t:
        return TwoCellCase(label="case_i", lhs=b, rhs=t)
    if 0.5 * f <= min(a, b):
        return TwoCellCase(label="case_ii", lhs=0.5 * f, rhs=min(a, b))
    raise ValueError(
        "unclassifiable two-cell instance: the cross user is received more "
        "strongly than the own user (violates nearest-BS association)")


def case_margin(state: ChannelState, j: int = 0, i: int = 0) -> float:
    """Positive in case (i), negative in case (ii); crosses zero at the
    transition, which makes it the natural bisection target."""
    _, b, _, t = _two_cell_values(state, j, i)
    return t - b


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
    rates = {s: network_symmetric_rate(state, s, i).per_bs[j].rate for s in SCHEMES}

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


_PAIRS = tuple((SCHEMES[p], SCHEMES[q])
               for p in range(len(SCHEMES)) for q in range(p + 1, len(SCHEMES)))


def _eval_point(scenario: Scenario, axis: str, value: float, pilot: int) -> SweepRow:
    state = scenario.with_axis(axis, value).state()
    rates = {s: network_symmetric_rate(state, s, pilot).network_rate for s in SCHEMES}
    case = None
    if state.L == 2:
        case = classify_two_cell(state, 0, pilot).label
    return SweepRow(value=float(value), rates=rates, case=case)


def _eval_point_star(args):
    return _eval_point(*args)


def _order_sign(ra: float, rb: float) -> int:
    """-1, 0 or +1 for ra vs rb with a relative equality band of EQ_RTOL."""
    if abs(ra - rb) <= EQ_RTOL * max(abs(ra), abs(rb), 1.0):
        return 0
    return 1 if ra > rb else -1


_SIGN_LABEL = {-1: "<", 0: "=", 1: ">"}
_CASE_LABEL = {1: "case_i", -1: "case_ii"}


def sweep(scenario: Scenario, axis: str, grid, pilot: int = 0,
          workers: int = 1) -> SweepResult:
    """Evaluate all scheme rates over a grid and locate transitions.

    ``grid`` must be nonempty and strictly increasing.  The indicators are
    the ordering (<, =, >) of every scheme pair and, for two-cell scenarios,
    the sign of the case margin.  Each change of an indicator between grid
    neighbours is refined by bisection until the bracket shrinks below
    ``REL_TOL`` relative width.  All indicators read one memo of channel
    states and scheme rates, seeded by the grid rows, so a midpoint that
    several indicators visit is evaluated once.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    grid = [float(v) for v in grid]
    if not grid:
        raise ValueError("sweep grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("sweep grid must be strictly increasing")

    rows = parallel_map(_eval_point_star, [(scenario, axis, v, pilot) for v in grid],
                        workers)

    # (value, scheme) -> network rate and (value, "case") -> margin sign
    memo = {(row.value, s): r for row in rows for s, r in row.rates.items()}
    memo.update(((row.value, "case"), 1 if row.case == "case_i" else -1)
                for row in rows if row.case is not None)
    states = {}

    def lookup(value: float, key: str):
        if (value, key) not in memo:
            if value not in states:
                states[value] = scenario.with_axis(axis, value).state()
            state = states[value]
            memo[value, key] = (
                (1 if case_margin(state, 0, pilot) > 0 else -1) if key == "case"
                else network_symmetric_rate(state, key, pilot).network_rate)
        return memo[value, key]

    indicators = [(f"{sa}-{sb}", _SIGN_LABEL,
                   lambda v, sa=sa, sb=sb: _order_sign(lookup(v, sa), lookup(v, sb)))
                  for sa, sb in _PAIRS]
    if rows[0].case is not None:
        indicators.append(("case", _CASE_LABEL, lambda v: lookup(v, "case")))

    thresholds = []
    for name, label, sign in indicators:
        for lo, hi in zip(grid, grid[1:]):
            s_lo, s_hi = sign(lo), sign(hi)
            if s_lo == s_hi:
                continue
            while hi - lo > REL_TOL * max(abs(lo), abs(hi)):
                mid = 0.5 * (lo + hi)
                if sign(mid) == s_lo:
                    lo = mid
                else:
                    hi = mid
            thresholds.append(Crossing(name=name, before=label[s_lo], after=label[s_hi],
                                       value=0.5 * (lo + hi), rel_tol=REL_TOL))

    thresholds.sort(key=lambda c: (c.value, c.name))
    return SweepResult(axis=axis, scenario=scenario, rows=tuple(rows),
                       thresholds=tuple(thresholds))
