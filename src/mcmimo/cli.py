"""Command-line interface: config ingestion, dispatch and CSV output.

One executable with subcommands ``region``, ``symrate``, ``sweep``,
``classify`` and ``montecarlo``.  A run is configured either by ``--preset``
or by a JSON config file; a flag replaces its config key before validation,
so flags and config values pass the same checks.  All output is CSV with a
header row, LF line endings and 12 significant digits, so a given config and
seed always produce byte-identical files.  Every error, bad argv included,
prints a single machine-parsable ``error: ...`` line to stderr and exits 2.

Config schema (JSON object; unknown keys are rejected):

    preset   name of a canonical scenario, or instead:
    params   {"L", "K", "M", "rho_u", "rho_p", "alpha_pl", "d0"}
    layout   {"kind": "two_cell",   "x", "spacing", "user_angle_deg"}
           | {"kind": "three_cell", "x", "spacing", "theta_deg", "outer_angle_deg"}
           | {"kind": "explicit",   "bs_positions", "user_positions"}
    unit     "bits" (default) or "nats"
    scheme, axis, grid, seed, trials, out, bs, pilot, omega, m, workers
             optional subcommand parameters; grid is a list of values or
             {"scale": "log"|"lin", "start", "stop", "num"}; m replaces the
             antenna count in every subcommand, sweep included

Every number must be finite.

Cell, BS and pilot indices are 0-based everywhere; subset columns are emitted
as bitmasks with bit l for cell l.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .bounds import power_terms
from .montecarlo import empirical_power_decomposition
from .network import CellLayout, SystemParams
from .regions import sd_region, snd_region, ssnd_region, tin_region
from .scenarios import (MAX_GRID_POINTS, PRESET_NAMES, SWEEP_AXES, Scenario, preset_scenario,
                        sweep, two_cell_ordering_check)
from .symrate import SCHEMES, network_symmetric_rate

__all__ = ["RunConfig", "parse_config", "emit_csv", "main"]

_LN2 = math.log(2.0)

_PARAM_KEYS = {"L", "K", "M", "rho_u", "rho_p", "alpha_pl", "d0"}
_LAYOUT_KEYS = {
    "two_cell": {"x", "spacing", "user_angle_deg"},
    "three_cell": {"x", "spacing", "theta_deg", "outer_angle_deg"},
    "explicit": {"bs_positions", "user_positions"},
}
_CONFIG_KEYS = {"preset", "params", "layout", "unit", "scheme", "axis", "grid",
                "seed", "trials", "out", "bs", "pilot", "omega", "m", "workers"}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration: a scenario plus subcommand options."""

    scenario: Scenario
    unit: str = "bits"
    scheme: str | None = None
    axis: str | None = None
    grid: tuple[float, ...] | None = None
    seed: int = 0
    trials: int = 10000
    out: str | None = None
    bs: int = 0
    pilot: int = 0
    omega: tuple[int, ...] | None = None
    m: float | None = None
    workers: int | None = None

    def to_dict(self) -> dict:
        """Effective configuration; ``parse_config`` reproduces this object."""
        d: dict = {}
        if self.scenario.name in PRESET_NAMES and \
                self.scenario == preset_scenario(self.scenario.name):
            d["preset"] = self.scenario.name
        else:
            p = self.scenario.params
            d["params"] = {"L": p.L, "K": p.K, "M": p.M, "rho_u": p.rho_u,
                           "rho_p": p.rho_p, "alpha_pl": p.alpha_pl, "d0": p.d0}
            args = dict(self.scenario.layout_args)
            if self.scenario.layout_kind == "explicit":
                d["layout"] = {"kind": "explicit", **args["layout_dict"]}
            else:
                d["layout"] = {"kind": self.scenario.layout_kind, **args}
        d["unit"] = self.unit
        for key in ("scheme", "axis", "out", "omega", "m", "workers"):
            val = getattr(self, key)
            if val is not None:
                d[key] = list(val) if isinstance(val, tuple) else val
        if self.grid is not None:
            d["grid"] = list(self.grid)
        d["seed"] = self.seed
        d["trials"] = self.trials
        d["bs"] = self.bs
        d["pilot"] = self.pilot
        return d


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


_COUNT_WORDS = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}


def _number(key: str, val, count: bool = False, least: int | None = None):
    """The config value ``val`` of ``key`` as a float or, for a ``count``,
    an int of at least ``least``.  JSON booleans are rejected although
    Python counts them as ints, and so is a count with a fractional part or
    a value that is not finite (Python's JSON reads ``Infinity`` and
    ``NaN``)."""
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    if not count:
        _require(number, f"{key} must be a number, got {val!r}")
        _require(math.isfinite(val), f"{key} must be finite, got {val!r}")
        return float(val)
    _require(number and (isinstance(val, int) or val.is_integer()) and
             (least is None or val >= least),
             f"{key} must be {_COUNT_WORDS[least]}, got {val!r}")
    return int(val)


def _reject_unknown(raw: dict, allowed: set, what: str) -> None:
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"unknown {what} key {unknown[0]!r}")


def _parse_params(raw: dict, m_default: float | None = None) -> SystemParams:
    """``m_default`` fills in the antenna count when a sweep over it makes the
    explicit value redundant."""
    _require(isinstance(raw, dict), "config key 'params' must be an object")
    _reject_unknown(raw, _PARAM_KEYS, "params")
    for req in ("L", "K", "rho_u", "rho_p"):
        _require(req in raw, f"params is missing required key {req!r}")
    _require("M" in raw or m_default is not None,
             "params is missing required key 'M' (only omittable when sweeping axis 'M')")
    values = {key: _number(f"params key {key!r}", raw[key], count=key in ("L", "K"))
              for key in raw}
    try:
        return SystemParams(**{"M": m_default, "alpha_pl": 2.0, "d0": 100.0, **values})
    except ValueError as exc:
        raise ConfigError(f"params: {exc}") from None


def _parse_layout(raw: dict, params: SystemParams) -> Scenario:
    _require(isinstance(raw, dict), "config key 'layout' must be an object")
    _require("kind" in raw, "layout is missing required key 'kind'")
    kind = raw["kind"]
    _require(kind in _LAYOUT_KEYS, f"layout kind {kind!r} must be one of "
             f"{sorted(_LAYOUT_KEYS)}")
    body = {k: v for k, v in raw.items() if k != "kind"}
    _reject_unknown(body, _LAYOUT_KEYS[kind], f"layout (kind {kind!r})")
    if kind == "explicit":
        try:
            layout = CellLayout.from_dict(body)
        except ValueError as exc:
            raise ConfigError(f"layout: {exc}") from None
        _require(layout.num_cells == params.L,
                 f"layout has {layout.num_cells} cells but params.L = {params.L}")
        _require(layout.users_per_cell == params.K,
                 f"layout has {layout.users_per_cell} users per cell but "
                 f"params.K = {params.K}")
        return Scenario.from_layout(layout, params)
    _require("x" in body, "layout is missing required key 'x'")
    body = {key: _number(f"layout key {key!r}", val) for key, val in body.items()}
    _require(body["x"] > 0, f"layout key 'x' must be positive, got {body['x']}")
    if "spacing" in body:
        _require(body["spacing"] > 0,
                 f"layout key 'spacing' must be positive, got {body['spacing']}")
    if kind == "three_cell" and "theta_deg" in body:
        _require(0 <= body["theta_deg"] <= 360,
                 f"layout key 'theta_deg' must be in [0, 360], got {body['theta_deg']}")
    if kind == "two_cell":
        body.setdefault("spacing", 2.0 * body["x"])
        body.setdefault("user_angle_deg", 180.0)
        _require(params.L == 2, f"two_cell layout requires params.L = 2, got {params.L}")
    else:
        body.setdefault("spacing", 2.0 * body["x"])
        body.setdefault("theta_deg", 90.0)
        body.setdefault("outer_angle_deg", 180.0)
        _require(params.L == 3, f"three_cell layout requires params.L = 3, got {params.L}")
    return Scenario(params=params, layout_kind=kind,
                    layout_args=tuple(sorted(body.items())))


def _parse_grid(raw) -> tuple[float, ...]:
    if isinstance(raw, (list, tuple)):
        _require(len(raw) > 0, "grid must be nonempty")
        _require(len(raw) <= MAX_GRID_POINTS,
                 f"grid has {len(raw)} points; at most {MAX_GRID_POINTS} are allowed")
        grid = tuple(_number("grid entry", v) for v in raw)
    elif isinstance(raw, dict):
        _reject_unknown(raw, {"scale", "start", "stop", "num"}, "grid")
        for req in ("start", "stop", "num"):
            _require(req in raw, f"grid is missing required key {req!r}")
        scale = raw.get("scale", "lin")
        _require(scale in ("lin", "log"), f"grid scale must be 'lin' or 'log', got {scale!r}")
        start, stop = _number("grid start", raw["start"]), _number("grid stop", raw["stop"])
        num = _number("grid num", raw["num"], count=True)
        _require(2 <= num <= MAX_GRID_POINTS,
                 f"grid num must be in [2, {MAX_GRID_POINTS}], got {num}")
        _require(start < stop, f"grid start must be below stop, got [{start}, {stop}]")
        if scale == "log":
            _require(start > 0, "log grids require a positive start")
            grid = tuple(float(v) for v in np.geomspace(start, stop, num))
        else:
            grid = tuple(float(v) for v in np.linspace(start, stop, num))
    else:
        raise ConfigError("grid must be a list of values or a start/stop/num object")
    _require(all(b > a for a, b in zip(grid, grid[1:])),
             "grid must be strictly increasing")
    return grid


def _json_object(text: str) -> dict:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    _require(isinstance(raw, dict), "config root must be a JSON object")
    return raw


def parse_config(source) -> RunConfig:
    """Build a validated :class:`RunConfig` from a dict or a JSON string.

    Unknown keys are rejected by name; out-of-range values report the
    offending key and the accepted bounds.
    """
    raw = _json_object(source) if isinstance(source, str) else source
    _require(isinstance(raw, dict), "config root must be a JSON object")
    _reject_unknown(raw, _CONFIG_KEYS, "config")

    axis = raw.get("axis")
    _require(axis is None or axis in SWEEP_AXES,
             f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    grid = _parse_grid(raw["grid"]) if "grid" in raw else None

    has_preset = "preset" in raw
    has_explicit = "params" in raw or "layout" in raw
    _require(has_preset != has_explicit,
             "config must specify exactly one of 'preset' or 'params'+'layout'")
    if has_preset:
        try:
            scenario = preset_scenario(raw["preset"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    else:
        _require("params" in raw, "explicit config requires 'params'")
        _require("layout" in raw, "explicit config requires 'layout'")
        m_default = grid[0] if (axis == "M" and grid) else None
        params = _parse_params(raw["params"], m_default=m_default)
        scenario = _parse_layout(raw["layout"], params)

    unit = raw.get("unit", "bits")
    _require(unit in ("bits", "nats"), f"unit must be 'bits' or 'nats', got {unit!r}")
    scheme = raw.get("scheme")
    _require(scheme is None or scheme in SCHEMES,
             f"scheme must be one of {SCHEMES}, got {scheme!r}")
    seed = _number("seed", raw.get("seed", 0), count=True)
    trials = _number("trials", raw.get("trials", 10000), count=True, least=1)
    bs = _number("bs", raw.get("bs", 0), count=True, least=0)
    pilot = _number("pilot", raw.get("pilot", 0), count=True, least=0)
    omega = raw.get("omega")
    if omega is not None:
        _require(isinstance(omega, (list, tuple)),
                 "omega must be a list of nonnegative cell indices")
        omega = tuple(sorted({_number("omega entry", v, count=True, least=0) for v in omega}))
    m = raw.get("m")
    if m is not None:
        m = _number("m", m)
        _require(m > 0, f"m must be positive, got {m!r}")
    workers = (_number("workers", raw["workers"], count=True, least=1)
               if "workers" in raw else None)
    out = raw.get("out")
    _require(out is None or isinstance(out, str), "out must be a path string")
    return RunConfig(scenario=scenario, unit=unit, scheme=scheme, axis=axis,
                     grid=grid, seed=seed, trials=trials, out=out, bs=bs,
                     pilot=pilot, omega=omega, m=m, workers=workers)


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    if value is None:
        return ""
    return str(value)


def emit_csv(header: list[str], rows: list[list], path: str | None) -> str:
    """Serialize rows to CSV text and write it to ``path`` (or stdout).

    Column order follows ``header``; floats use 12 significant digits and
    lines end with LF, so identical inputs yield byte-identical files.
    """
    return _write_csv(header, [",".join(map(_format_cell, row)) for row in rows], path)


def _write_csv(header: list[str], lines: list[str], path: str | None) -> str:
    """Write a header and already formatted rows as CSV text to ``path``
    (or stdout)."""
    text = "\n".join([",".join(header), *lines]) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {path!r}: {exc}") from None
    return text


def _unit_factor(unit: str) -> float:
    return _LN2 if unit == "nats" else 1.0


def _grid_flag(spec: str):
    """The config form of ``--grid``: 'lo:hi:n[:log|lin]' becomes a grid
    object, comma-separated values a list."""
    parts = spec.split(":")
    _require(len(parts) in (1, 3, 4), f"grid spec must be lo:hi:n[:log|lin], got {spec!r}")
    try:
        if len(parts) == 1:
            return [float(v) for v in spec.split(",")]
        start, stop, num = map(float, parts[:3])
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {spec!r}: {exc}") from None
    return {"start": start, "stop": stop, "num": num,
            "scale": parts[3] if len(parts) == 4 else "lin"}


def _omega_flag(spec: str) -> list[int]:
    """The config form of ``--omega``: a list of cell indices."""
    try:
        return [int(v) for v in spec.split(",")]
    except ValueError:
        raise ConfigError(f"omega must be comma-separated integers, got {spec!r}") from None


def _load_run(args) -> tuple[RunConfig, Scenario]:
    """The validated config of a run and the scenario it runs on.

    The config is the ``--config`` file, or else ``{"preset": ...}``.  Each
    given flag replaces its config key before the one ``parse_config`` call,
    so a flag passes the checks of its key.  The ``m`` key and the
    ``--cells`` and ``--users`` flags then adjust the scenario.
    """
    flags = {key: val for key, val in vars(args).items()
             if key in _CONFIG_KEYS and val is not None}
    if "grid" in flags:
        flags["grid"] = _grid_flag(flags["grid"])
    if "omega" in flags:
        flags["omega"] = _omega_flag(flags["omega"])
    raw = {"preset": "two-cell-scenario-a"}
    if args.config:
        _require("preset" not in flags, "give either --config or --preset, not both")
        try:
            with open(args.config) as fh:
                raw = _json_object(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from None
    cfg = parse_config({**raw, **flags})

    scenario = cfg.scenario
    cells, users = getattr(args, "cells", None), getattr(args, "users", None)
    if cells is not None and scenario.params.L != cells:
        _require(cells in (2, 3), f"--cells must be 2 or 3, got {cells}")
        scenario = preset_scenario("two-cell-scenario-a" if cells == 2 else "three-cell-theta")
    if users is not None:
        _require(scenario.layout_kind != "explicit",
                 "--users requires a canonical layout (user count fixes its shape)")
        scenario = replace(scenario, params=replace(scenario.params, K=users))
    if cfg.m is not None:
        scenario = scenario.with_axis("M", cfg.m)
    return cfg, scenario


def _cmd_region(cfg: RunConfig, scenario: Scenario) -> int:
    scheme = cfg.scheme or "sd"
    builder = {"tin": tin_region, "sd": sd_region, "ssnd": ssnd_region,
               "snd": snd_region}[scheme]
    region = builder(scenario.state(), cfg.bs, cfg.pilot)
    prefix = ",".join(map(_format_cell, (scheme, cfg.bs, cfg.pilot, "")))
    omega = np.repeat(region.omega, np.diff(region.offsets)).tolist()
    bound = (region.bound * _unit_factor(cfg.unit)).tolist()
    _write_csv(["scheme", "bs", "pilot", "omega_mask", "theta_mask", "bound"],
               [f"{prefix}{o},{m},{b:.12g}" for o, m, b in
                zip(omega, region.theta.tolist(), bound)], cfg.out)
    return 0


def _cmd_symrate(cfg: RunConfig, scenario: Scenario) -> int:
    report = network_symmetric_rate(scenario.state(), cfg.scheme or "snd", cfg.pilot)
    factor = _unit_factor(cfg.unit)
    rows = [[str(entry.bs), entry.rate * factor, entry.theta, entry.omega]
            for entry in report.per_bs]
    binding = report.per_bs[report.network_argmin]
    rows.append(["network", report.network_rate * factor, binding.theta, binding.omega])
    emit_csv(["scope", "rate", "theta_mask", "omega_mask"], rows, cfg.out)
    return 0


def _cmd_classify(cfg: RunConfig, scenario: Scenario) -> int:
    state = scenario.state()
    factor = _unit_factor(cfg.unit)
    rows = []
    for j in range(state.L):
        chk = two_cell_ordering_check(state, j, cfg.pilot)
        rows.append([j, chk.case, chk.lhs * factor, chk.rhs * factor,
                     chk.rates["tin"] * factor, chk.rates["sd"] * factor,
                     chk.rates["ssnd"] * factor, chk.rates["snd"] * factor,
                     chk.passed])
    emit_csv(["bs", "case", "lhs", "rhs", "r_tin", "r_sd", "r_ssnd", "r_snd",
              "ordering_ok"], rows, cfg.out)
    return 0


def _cmd_sweep(cfg: RunConfig, scenario: Scenario) -> int:
    _require(cfg.axis is not None, "sweep requires an axis (--axis or config key 'axis')")
    _require(cfg.grid is not None, "sweep requires a grid (--grid or config key 'grid')")
    result = sweep(scenario, cfg.axis, cfg.grid, pilot=cfg.pilot)
    factor = _unit_factor(cfg.unit)
    rows = [[cfg.axis, row.value, row.rates["tin"] * factor, row.rates["sd"] * factor,
             row.rates["ssnd"] * factor, row.rates["snd"] * factor, row.case]
            for row in result.rows]
    emit_csv(["axis", "value", "r_tin", "r_sd", "r_ssnd", "r_snd", "case"],
             rows, cfg.out)
    th_rows = [[c.name, c.before, c.after, c.value, c.rel_tol]
               for c in result.thresholds]
    th_path = None if cfg.out is None else _threshold_path(cfg.out)
    if cfg.out is None:
        sys.stdout.write("\n")
    emit_csv(["name", "before", "after", "value", "rel_tol"], th_rows, th_path)
    return 0


def _threshold_path(out: str) -> str:
    return (out[:-4] if out.endswith(".csv") else out) + ".thresholds.csv"


def _cmd_montecarlo(cfg: RunConfig, scenario: Scenario) -> int:
    state = scenario.state()
    omega = cfg.omega if cfg.omega is not None else tuple(range(state.L))
    empirical = empirical_power_decomposition(
        state, cfg.bs, cfg.pilot, omega, trials=cfg.trials, seed=cfg.seed,
        workers=cfg.workers)
    analytic = power_terms(state, cfg.bs, cfg.pilot, omega)
    rows = []
    names = ("desired", "est_error", "other_users", "noise")
    for name, emp, ana in zip(names, empirical.as_tuple(), analytic.as_tuple()):
        rel = abs(emp - ana) / ana if ana else 0.0
        rows.append([name, emp, ana, rel])
    emit_csv(["term", "empirical", "analytic", "rel_error"], rows, cfg.out)
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors take the one ``error:`` line
    path of every other failure instead of printing a usage block."""

    def error(self, message: str):
        raise ConfigError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--preset", choices=PRESET_NAMES, help="named scenario")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    parser.add_argument("--seed", type=int, help="RNG seed (default 0)")
    parser.add_argument("--unit", choices=("bits", "nats"), help="rate unit")
    parser.add_argument("--workers", type=int,
                        help="cap on Monte Carlo threads, which hold at most 32 MiB of "
                             "batches in flight (default: all usable CPUs)")
    parser.add_argument("--pilot", type=int, help="pilot slot index (default 0)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="mcmimo",
        description="Uplink rate regions and max-min symmetric rates for "
                    "multi-cell massive MIMO under TIN/SD/SND/S-SND decoding.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_region = subs.add_parser("region", help="emit the constraint list of a region")
    _add_common(p_region)
    p_region.add_argument("--scheme", choices=SCHEMES)
    p_region.add_argument("--bs", type=int, help="BS index (default 0)")
    p_region.set_defaults(func=_cmd_region)

    p_sym = subs.add_parser("symrate", help="per-BS and network max symmetric rates")
    _add_common(p_sym)
    p_sym.add_argument("--scheme", choices=SCHEMES)
    p_sym.add_argument("--m", type=float, help="override antenna count")
    p_sym.set_defaults(func=_cmd_symrate)

    p_cls = subs.add_parser("classify", help="two-cell case label and ordering check")
    _add_common(p_cls)
    p_cls.add_argument("--m", type=float, help="override antenna count")
    p_cls.set_defaults(func=_cmd_classify)

    p_sweep = subs.add_parser("sweep", help="rates over a parameter grid plus thresholds")
    _add_common(p_sweep)
    p_sweep.add_argument("--axis", choices=SWEEP_AXES)
    p_sweep.add_argument("--grid", help="lo:hi:n[:log|lin] or comma-separated values")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_mc = subs.add_parser("montecarlo",
                           help="empirical vs analytic power decomposition")
    _add_common(p_mc)
    p_mc.add_argument("--cells", type=int, help="2 or 3: pick the canonical scenario")
    p_mc.add_argument("--users", type=int, help="override users per cell")
    p_mc.add_argument("--m", type=float, help="override antenna count")
    p_mc.add_argument("--trials", type=int, help="number of trials (default 10000)")
    p_mc.add_argument("--bs", type=int, help="BS index (default 0)")
    p_mc.add_argument("--omega", help="decoded set, comma-separated cell indices")
    p_mc.set_defaults(func=_cmd_montecarlo)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(*_load_run(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
