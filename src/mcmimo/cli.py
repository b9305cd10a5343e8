"""Command-line interface: config ingestion, dispatch and CSV output.

One executable with subcommands ``region``, ``symrate``, ``sweep``,
``classify`` and ``montecarlo``.  A run is configured either by ``--preset``
or by a JSON config file.  Each option is one row of ``_OPTIONS``, and its
flag is only another way to set its config key: the flag string is read as
a JSON value (an int, else a float, else the string) and passes the key's
one check.  No key accepts ``null``.  All output is CSV with a header row,
LF line endings and 12 significant digits, so a given config and seed
always produce byte-identical files.  Every error, bad argv and a failed
write to stdout included, prints a single machine-parsable ``error: ...``
line to stderr and exits 2.

Config schema (JSON object; unknown keys are rejected):

    preset   name of a canonical scenario, or instead:
    params   {"L", "K", "M", "rho_u", "rho_p", "alpha_pl", "d0"}
    layout   {"kind": "two_cell",   "x", "spacing", "user_angle_deg"}
           | {"kind": "three_cell", "x", "spacing", "theta_deg", "outer_angle_deg"}
           | {"kind": "explicit",   "bs_positions", "user_positions"}
    unit     "bits" (default) or "nats"
    scheme, axis, grid, seed, trials, out, bs, pilot, omega, m
             optional subcommand parameters; grid is a list of values or
             {"scale": "log"|"lin", "start", "stop", "num"}; m replaces the
             antenna count in every subcommand, sweep included, and so
             may stand in for params M

Every number must be finite.  ``RunConfig.to_dict()`` describes the run,
with ``m``, ``--cells`` and ``--users`` applied to its scenario.

Cell, BS and pilot indices are 0-based everywhere; subset columns are emitted
as bitmasks with bit l for cell l.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .bounds import PowerDecomposition, power_terms
from .montecarlo import empirical_power_decomposition
from .network import CellLayout, SystemParams, build_fading
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

    def to_dict(self) -> dict:
        """Effective configuration; ``parse_config`` reproduces this object,
        but a preset changed by ``m`` or ``--users`` comes back unnamed."""
        d: dict = {}
        if self.scenario.name in PRESET_NAMES and \
                self.scenario == preset_scenario(self.scenario.name):
            d["preset"] = self.scenario.name
        else:
            d["params"] = asdict(self.scenario.params)
            d["layout"] = {"kind": self.scenario.layout_kind, **dict(self.scenario.layout_args)}
        for field in fields(self)[1:]:  # the options, after the scenario
            if getattr(self, field.name) is not None:
                d[field.name] = getattr(self, field.name)
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
    """``m_default`` fills in the antenna count when the ``m`` key or a
    sweep over it makes the explicit value redundant."""
    _require(isinstance(raw, dict), "config key 'params' must be an object")
    _reject_unknown(raw, _PARAM_KEYS, "params")
    for req in ("L", "K", "rho_u", "rho_p"):
        _require(req in raw, f"params is missing required key {req!r}")
    _require("M" in raw or m_default is not None,
             "params is missing required key 'M' (only omittable when key 'm' or "
             "a sweep along axis 'M' supplies it)")
    values = {key: _number(f"params key {key!r}", raw[key], count=key in ("L", "K"))
              for key in raw}
    try:
        return SystemParams(**{"M": m_default, **values})
    except ValueError as exc:
        raise ConfigError(f"params: {exc}") from None


def _parse_layout(raw: dict, params: SystemParams) -> Scenario:
    """The scenario of a ``layout`` object.  Its layout and fading are built
    once here, so the network's own checks of the recipe, the positions and
    their shape against ``params`` report a bad value as a config error."""
    _require(isinstance(raw, dict), "config key 'layout' must be an object")
    _require("kind" in raw, "layout is missing required key 'kind'")
    kind = raw["kind"]
    _require(isinstance(kind, str) and kind in _LAYOUT_KEYS,
             f"layout kind {kind!r} must be one of {sorted(_LAYOUT_KEYS)}")
    body = {k: v for k, v in raw.items() if k != "kind"}
    _reject_unknown(body, _LAYOUT_KEYS[kind], f"layout (kind {kind!r})")
    if kind != "explicit":
        _require("x" in body, "layout is missing required key 'x'")
        body = {key: _number(f"layout key {key!r}", val) for key, val in body.items()}
        # fixed here, so a radius sweep keeps the config's spacing
        body = {"spacing": 2.0 * body["x"], **body}
    try:
        if kind == "explicit":
            scenario = Scenario.from_layout(CellLayout.from_dict(body), params)
        else:
            scenario = Scenario(params=params, layout_kind=kind,
                                layout_args=tuple(sorted(body.items())))
        build_fading(scenario.layout(), params)
    except ValueError as exc:
        raise ConfigError(f"layout: {exc}") from None
    return scenario


def _parse_grid(key: str, raw) -> tuple[float, ...]:
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
        raise ConfigError(f"{key} must be a list of values or a start/stop/num object")
    _require(all(b > a for a, b in zip(grid, grid[1:])),
             "grid must be strictly increasing")
    return grid


def _choice(*allowed):
    def check(key: str, val):
        _require(val in allowed, f"{key} must be one of {allowed}, got {val!r}")
        return val
    return check


def _count(least: int | None = None):
    return lambda key, val: _number(key, val, count=True, least=least)


def _positive(key: str, val) -> float:
    val = _number(key, val)
    _require(val > 0, f"{key} must be positive, got {val!r}")
    return val


def _path(key: str, val) -> str:
    _require(isinstance(val, str), f"{key} must be a path string")
    return val


def _cells(key: str, val) -> tuple[int, ...]:
    _require(isinstance(val, (list, tuple)), f"{key} must be a list of nonnegative cell indices")
    return tuple(sorted({_number(f"{key} entry", v, count=True, least=0) for v in val}))


def _scalar_flag(text: str):
    """A flag's config value: an int, else a float, else the string itself."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _list_flag(spec: str) -> list:
    return [_scalar_flag(v) for v in spec.split(",")]


def _grid_flag(spec: str):
    """The config form of ``--grid``: 'lo:hi:n[:log|lin]' becomes a grid
    object, comma-separated values a list."""
    parts = spec.split(":")
    _require(len(parts) in (1, 3, 4), f"grid spec must be lo:hi:n[:log|lin], got {spec!r}")
    if len(parts) == 1:
        return _list_flag(spec)
    start, stop, num = map(_scalar_flag, parts[:3])
    return {"start": start, "stop": stop, "num": num,
            "scale": parts[3] if len(parts) == 4 else "lin"}


_ALL = ("region", "symrate", "classify", "sweep", "montecarlo")


@dataclass(frozen=True)
class _Option:
    """A config key's value check and its flag's help, subcommands and reader."""

    check: Callable[[str, object], object]
    help: str
    commands: tuple[str, ...] = _ALL
    read: Callable[[str], object] = _scalar_flag


_OPTIONS = {
    "preset": _Option(_choice(*PRESET_NAMES),
                      f"{'|'.join(PRESET_NAMES)} (default {PRESET_NAMES[0]})"),
    "out": _Option(_path, "output CSV path (default: stdout)", read=str),
    "seed": _Option(_count(), "RNG seed (default 0)"),
    "unit": _Option(_choice("bits", "nats"), "bits|nats: rate unit (default bits)"),
    "pilot": _Option(_count(0), "pilot slot index (default 0)"),
    "scheme": _Option(_choice(*SCHEMES), f"{'|'.join(SCHEMES)} (default sd for region, "
                                         "snd for symrate)", ("region", "symrate")),
    "bs": _Option(_count(0), "BS index (default 0)", ("region", "montecarlo")),
    "m": _Option(_positive, "override antenna count"),
    "axis": _Option(_choice(*SWEEP_AXES), "|".join(SWEEP_AXES), ("sweep",)),
    "grid": _Option(_parse_grid, "lo:hi:n[:log|lin] or comma-separated values", ("sweep",),
                    _grid_flag),
    "trials": _Option(_count(1), "number of trials (default 10000)", ("montecarlo",)),
    "omega": _Option(_cells, "decoded set, comma-separated cell indices", ("montecarlo",),
                     _list_flag),
}
_CONFIG_KEYS = {"params", "layout", *_OPTIONS}


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
    values = {key: opt.check(key, raw[key]) for key, opt in _OPTIONS.items() if key in raw}

    has_explicit = "params" in raw or "layout" in raw
    _require(("preset" in values) != has_explicit,
             "config must specify exactly one of 'preset' or 'params'+'layout'")
    if "preset" in values:
        scenario = preset_scenario(values.pop("preset"))
    else:
        _require("params" in raw, "explicit config requires 'params'")
        _require("layout" in raw, "explicit config requires 'layout'")
        grid = values.get("grid")
        m_default = values.get("m", grid[0] if (values.get("axis") == "M" and grid) else None)
        scenario = _parse_layout(raw["layout"], _parse_params(raw["params"], m_default))
    return RunConfig(scenario=scenario, **values)


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
    (or stdout, flushed).  A closed or failing stdout is a config error."""
    text = "\n".join([",".join(header), *lines]) + "\n"
    if path is None:
        if sys.stdout is None:
            raise ConfigError("cannot write output: stdout is closed")
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # the interpreter's flush at exit retries the buffered text: on
            # the null device it neither fails nor prints
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise ConfigError(f"cannot write output: {exc}") from None
    else:
        try:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {path!r}: {exc}") from None
    return text


def _unit_factor(unit: str) -> float:
    return _LN2 if unit == "nats" else 1.0


def _load_run(args) -> RunConfig:
    """The validated config of a run, holding the scenario it runs on.

    The config is the ``--config`` file, or else ``{"preset": ...}``, whose
    preset ``--cells`` picks; ``--cells`` is refused beside ``--config`` or
    ``--preset``.  Each given flag replaces its config key before the one
    ``parse_config`` call, so a flag passes the checks of its key.  The
    ``--users`` flag and then the ``m`` key adjust the scenario.
    """
    flags = {key: opt.read(getattr(args, key)) for key, opt in _OPTIONS.items()
             if getattr(args, key, None) is not None}
    raw = {"preset": PRESET_NAMES[0]}
    cells, users = getattr(args, "cells", None), getattr(args, "users", None)
    if cells is not None:
        _require(not args.config and "preset" not in flags,
                 "--cells picks a canonical scenario; give it without --config or --preset")
        _require(cells in (2, 3), f"--cells must be 2 or 3, got {cells}")
        raw = {"preset": "two-cell-scenario-a" if cells == 2 else "three-cell-theta"}
    if args.config:
        _require("preset" not in flags, "give either --config or --preset, not both")
        try:
            with open(args.config) as fh:
                raw = _json_object(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from None
    cfg = parse_config({**raw, **flags})

    scenario = cfg.scenario
    if users is not None:
        _require(scenario.layout_kind != "explicit",
                 "--users requires a canonical layout (user count fixes its shape)")
        scenario = replace(scenario, params=replace(scenario.params, K=users))
    if cfg.m is not None:
        scenario = scenario.with_axis("M", cfg.m)
    return replace(cfg, scenario=scenario)


def _cmd_region(cfg: RunConfig) -> int:
    scheme = cfg.scheme or "sd"
    builder = {"tin": tin_region, "sd": sd_region, "ssnd": ssnd_region,
               "snd": snd_region}[scheme]
    region = builder(cfg.scenario.state(), cfg.bs, cfg.pilot)
    prefix = ",".join(map(_format_cell, (scheme, cfg.bs, cfg.pilot, "")))
    omega = np.repeat(region.omega, np.diff(region.offsets)).tolist()
    bound = (region.bound * _unit_factor(cfg.unit)).tolist()
    _write_csv(["scheme", "bs", "pilot", "omega_mask", "theta_mask", "bound"],
               [f"{prefix}{o},{m},{b:.12g}" for o, m, b in
                zip(omega, region.theta.tolist(), bound)], cfg.out)
    return 0


def _cmd_symrate(cfg: RunConfig) -> int:
    report = network_symmetric_rate(cfg.scenario.state(), cfg.scheme or "snd", cfg.pilot)
    factor = _unit_factor(cfg.unit)
    rows = [[str(entry.bs), entry.rate * factor, entry.theta, entry.omega]
            for entry in report.per_bs]
    binding = report.per_bs[report.network_argmin]
    rows.append(["network", report.network_rate * factor, binding.theta, binding.omega])
    emit_csv(["scope", "rate", "theta_mask", "omega_mask"], rows, cfg.out)
    return 0


def _cmd_classify(cfg: RunConfig) -> int:
    state = cfg.scenario.state()
    factor = _unit_factor(cfg.unit)
    rows = []
    for j in range(state.L):
        chk = two_cell_ordering_check(state, j, cfg.pilot)
        rows.append([j, chk.case, chk.lhs * factor, chk.rhs * factor,
                     *(chk.rates[s] * factor for s in SCHEMES), chk.passed])
    emit_csv(["bs", "case", "lhs", "rhs", *(f"r_{s}" for s in SCHEMES), "ordering_ok"],
             rows, cfg.out)
    return 0


def _cmd_sweep(cfg: RunConfig) -> int:
    _require(cfg.axis is not None, "sweep requires an axis (--axis or config key 'axis')")
    _require(cfg.grid is not None, "sweep requires a grid (--grid or config key 'grid')")
    result = sweep(cfg.scenario, cfg.axis, cfg.grid, pilot=cfg.pilot)
    factor = _unit_factor(cfg.unit)
    rows = [[cfg.axis, row.value, *(row.rates[s] * factor for s in SCHEMES), row.case]
            for row in result.rows]
    emit_csv(["axis", "value", *(f"r_{s}" for s in SCHEMES), "case"], rows, cfg.out)
    th_rows = [[c.name, c.before, c.after, c.value, c.rel_tol]
               for c in result.thresholds]
    th_path = None if cfg.out is None else _threshold_path(cfg.out)
    if cfg.out is None:
        _write_csv([], [], None)  # an empty CSV: the blank line between the tables
    emit_csv(["name", "before", "after", "value", "rel_tol"], th_rows, th_path)
    return 0


def _threshold_path(out: str) -> str:
    return (out[:-4] if out.endswith(".csv") else out) + ".thresholds.csv"


def _cmd_montecarlo(cfg: RunConfig) -> int:
    state = cfg.scenario.state()
    omega = cfg.omega if cfg.omega is not None else tuple(range(state.L))
    empirical = empirical_power_decomposition(
        state, cfg.bs, cfg.pilot, omega, trials=cfg.trials, seed=cfg.seed)
    analytic = power_terms(state, cfg.bs, cfg.pilot, omega)
    rows = []
    for term in fields(PowerDecomposition):
        emp, ana = getattr(empirical, term.name), getattr(analytic, term.name)
        rel = abs(emp - ana) / ana if ana else 0.0
        rows.append([term.name, emp, ana, rel])
    emit_csv(["term", "empirical", "analytic", "rel_error"], rows, cfg.out)
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors take the one ``error:`` line
    path of every other failure instead of printing a usage block."""

    def error(self, message: str):
        raise ConfigError(message)


_COMMANDS = {
    "region": (_cmd_region, "emit the constraint list of a region"),
    "symrate": (_cmd_symrate, "per-BS and network max symmetric rates"),
    "classify": (_cmd_classify, "two-cell case label and ordering check"),
    "sweep": (_cmd_sweep, "rates over a parameter grid plus thresholds"),
    "montecarlo": (_cmd_montecarlo, "empirical vs analytic power decomposition"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="mcmimo",
        description="Uplink rate regions and max-min symmetric rates for "
                    "multi-cell massive MIMO under TIN/SD/SND/S-SND decoding.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        sub.add_argument("--config", help="JSON config file")
        for key, opt in _OPTIONS.items():
            if command in opt.commands:
                sub.add_argument(f"--{key}", help=opt.help)
        sub.set_defaults(func=func)
    # the two flags without a config key
    montecarlo = subs.choices["montecarlo"]
    montecarlo.add_argument("--cells", type=int, help="2 or 3: pick the canonical scenario")
    montecarlo.add_argument("--users", type=int, help="override users per cell")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(_load_run(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
