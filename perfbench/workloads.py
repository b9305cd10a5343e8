"""The four workloads: seeded inputs, one op, and the check of its output.

Each workload is driven as a closed loop by one client: the next op starts
only after the previous one returned and was checked.  Inputs come from the
seed alone and are all generated before timing starts; the library sees
only the generated values.  The cost of an op depends on the shape of its
input (cell count, antenna count, trial count), which every seed draws from
the same fixed schedule, so different seeds give the same amount of work.

Only stable entry points are called: SystemParams, CellLayout,
ChannelState.from_layout, network_symmetric_rate, the region builders,
max_symmetric_rate, preset_scenario (with Scenario.with_axis/state),
sweep, classify_two_cell, power_terms, empirical_power_decomposition and
the ``mcmimo`` CLI.  A check returns ``None`` when the output is right and
a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import mcmimo
from layers import MANYCELL_L, MC_CURVE_M, MC_CURVE_SHAPE

SCHEMES = ("tin", "sd", "ssnd", "snd")
REFERENCE = dict(rho_u=30.0, rho_p=120.0)  # the presets' SNRs
ORDER_RTOL = 1e-12
# Largest relative error of an empirical power term against power_terms.
# Correct code stays below about 0.17 at 2000 trials; a term off by a
# factor of 2 is off by at least 0.5.
MC_TOL = 0.35
MC_TRIALS = 2000
CHILD_TIMEOUT_S = 120
# Rings of each cell count per manycell pass: enough that the median and the
# tail do not hang on the cost of one or two networks.
NETWORKS_PER_L = 8


def _ge(a: float, b: float) -> bool:
    return a >= b - ORDER_RTOL * max(abs(a), abs(b))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ORDER_RTOL * max(abs(a), abs(b))


def ring_layout(rng, L: int, K: int) -> mcmimo.CellLayout:
    """L cells of radius r on a ring, neighbouring BSs 2r apart, with K users
    at uniform random points of each cell (at least r/10 from the BS)."""
    r = rng.uniform(300.0, 500.0)
    ring = r / math.sin(math.pi / L)
    turn = rng.uniform()
    ang = [2 * math.pi * (turn + l / L) for l in range(L)]
    bs = [[ring * math.cos(a), ring * math.sin(a)] for a in ang]
    rad = r * (rng.uniform(0.01, 1.0, (L, K)) ** 0.5)
    phi = rng.uniform(0.0, 2 * math.pi, (L, K))
    users = [[[bs[l][0] + rad[l, k] * math.cos(phi[l, k]),
               bs[l][1] + rad[l, k] * math.sin(phi[l, k])] for k in range(K)]
             for l in range(L)]
    return mcmimo.CellLayout(bs, users)


# -- manycell ------------------------------------------------------------------

@dataclass(frozen=True)
class Network:
    layout: mcmimo.CellLayout
    params: mcmimo.SystemParams
    pilot: int
    bs: int


class ManyCell:
    """op = one ring network: channel statistics, the four network
    symmetric rates, and the SND, S-SND and SD regions at one BS."""

    name = "manycell"
    regions = ("snd", "ssnd", "sd")

    def inputs(self, rng, small: bool) -> list:
        cells = MANYCELL_L[:2] if small else MANYCELL_L
        ops = []
        for _ in range(1 if small else NETWORKS_PER_L):
            for L in cells:
                params = mcmimo.SystemParams(L=L, K=4, M=float(10 ** rng.uniform(2, 6)),
                                             **REFERENCE)
                ops.append(Network(ring_layout(rng, L, 4), params,
                                   int(rng.integers(4)), int(rng.integers(L))))
        return ops

    def run(self, op: Network):
        state = mcmimo.ChannelState.from_layout(op.layout, op.params)
        reports = {s: mcmimo.network_symmetric_rate(state, s, op.pilot) for s in SCHEMES}
        regions = {s: getattr(mcmimo, f"{s}_region")(state, op.bs, op.pilot)
                   for s in self.regions}
        return reports, regions

    def check(self, op: Network, result):
        reports, regions = result
        for j in range(op.params.L):
            r = {s: reports[s].per_bs[j].rate for s in SCHEMES}
            if not (_ge(r["snd"], r["ssnd"]) and _ge(r["ssnd"], r["sd"])
                    and _ge(r["snd"], r["tin"])):
                return f"scheme ordering violated at BS {j}: {r}"
        for s, region in regions.items():
            best = max(mcmimo.max_symmetric_rate(part)[0] for part in region.parts)
            want = reports[s].per_bs[op.bs].rate
            if not _close(best, want):
                return f"{s} symrate {want!r} at BS {op.bs} != region value {best!r}"
        return None

    def describe(self, ops) -> dict:
        return {"cells": [op.params.L for op in ops], "K": 4,
                "M": [op.params.M for op in ops]}


# -- sweeps --------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCase:
    kind: str
    scenario: object
    axis: str
    grid: tuple


SWEEP_POINTS = 25


def _sweep_kinds(rng):
    """One perturbed preset per sweep kind: (kind, preset, axis, grid,
    [(axis, value)] applied to the preset).  The ranges keep the number of
    crossovers inside each grid, and so the work of each kind, fixed."""
    n = SWEEP_POINTS

    def log_grid(lo, hi):
        shift = rng.uniform(-0.2, 0.2)
        lo, hi = math.log10(lo) + shift, math.log10(hi) + shift
        return [10 ** (lo + (hi - lo) * k / (n - 1)) for k in range(n)]

    def lin_grid(lo, width):
        return [lo + width * k / (n - 1) for k in range(n)]

    return [
        ("a-M", "two-cell-scenario-a", "M", log_grid(1e3, 1e7),
         [("radius_x", rng.uniform(360.0, 440.0))]),
        ("b-M", "two-cell-scenario-b", "M", log_grid(1e3, 1e7),
         [("radius_x", rng.uniform(205.0, 245.0))]),
        ("three-M", "three-cell-theta", "M", log_grid(1e3, 1e7),
         [("theta", rng.uniform(80.0, 100.0))]),
        ("a-radius", "two-cell-scenario-a", "radius_x",
         lin_grid(rng.uniform(110.0, 125.0), 270.0), [("M", 10 ** rng.uniform(4.95, 5.05))]),
        ("b-radius", "two-cell-scenario-b", "radius_x",
         lin_grid(rng.uniform(130.0, 140.0), 108.0), [("M", 10 ** rng.uniform(4.75, 4.85))]),
        ("three-theta", "three-cell-theta", "theta",
         lin_grid(rng.uniform(0.0, 5.0), 172.0), [("M", 10 ** rng.uniform(3.97, 4.03))]),
    ]


def _order_sign(ra: float, rb: float, eq_rtol: float = 1e-9) -> str:
    if abs(ra - rb) <= eq_rtol * max(abs(ra), abs(rb), 1.0):
        return "="
    return ">" if ra > rb else "<"


class Sweeps:
    """op = one ``sweep`` call on a perturbed preset."""

    name = "sweeps"

    def inputs(self, rng, small: bool) -> list:
        ops = []
        for _ in range(1 if small else 20):
            for kind, preset, axis, grid, moves in _sweep_kinds(rng):
                scenario = mcmimo.preset_scenario(preset)
                for move_axis, value in moves:
                    scenario = scenario.with_axis(move_axis, value)
                ops.append(SweepCase(kind, scenario, axis, tuple(grid)))
        return ops

    def run(self, op: SweepCase):
        return mcmimo.sweep(op.scenario, op.axis, list(op.grid))

    def check(self, op: SweepCase, result):
        rows = result.rows
        if [row.value for row in rows] != list(op.grid):
            return "sweep rows do not follow the grid"
        for row in rows:
            r = row.rates
            if not (_ge(r["snd"], r["ssnd"]) and _ge(r["ssnd"], r["sd"])
                    and _ge(r["snd"], r["tin"])):
                return f"scheme ordering violated at {op.axis}={row.value}: {r}"
        if not result.thresholds:
            return "no threshold found on a grid that spans a crossover"
        for c in result.thresholds:
            k = next((k for k in range(len(rows) - 1)
                      if rows[k].value <= c.value <= rows[k + 1].value), None)
            if k is None:
                return f"threshold {c.name} at {c.value} lies outside the grid"
            left, right = rows[k], rows[k + 1]
            if c.name == "case":
                if (left.case, right.case) != (c.before, c.after):
                    return f"case threshold at {c.value} not in a bracket where it flips"
                for value, want in ((c.value * (1 - 2 * c.rel_tol), c.before),
                                    (c.value * (1 + 2 * c.rel_tol), c.after)):
                    value = min(max(value, left.value), right.value)
                    state = op.scenario.with_axis(op.axis, value).state()
                    label = mcmimo.classify_two_cell(state, 0, 0).label
                    if label != want:
                        return (f"classify_two_cell at {op.axis}={value} gives {label}, "
                                f"threshold says {want}")
            else:
                sa, sb = c.name.split("-")
                flip = (_order_sign(left.rates[sa], left.rates[sb]),
                        _order_sign(right.rates[sa], right.rates[sb]))
                if flip != (c.before, c.after):
                    return (f"threshold {c.name} {c.before}->{c.after} at {c.value} lies "
                            f"in a bracket that flips {flip}")
        return None

    def describe(self, ops) -> dict:
        return {"kinds": [op.kind for op in ops], "grid_points": [len(op.grid) for op in ops]}


# -- montecarlo ----------------------------------------------------------------

@dataclass(frozen=True)
class MonteCarloCase:
    state: object
    bs: int
    pilot: int
    omega: tuple
    trials: int
    seed: int


class MonteCarlo:
    """op = one ``empirical_power_decomposition`` call.

    A pass runs the curve configurations (L, K) = (2, 2) at each antenna
    count of MC_CURVE_M, plus five other (L, K, M) shapes; the channel
    tensor of the largest has 2000 x 2 x 2 x 2 x 1024 entries.
    """

    name = "montecarlo"
    extra = ((3, 4, 64), (3, 1, 256), (2, 4, 256), (3, 2, 128), (2, 1, 1024))

    def inputs(self, rng, small: bool) -> list:
        if small:
            shapes, trials = [(2, 2, 64), (3, 1, 64)], 1000
        else:
            shapes = [(*MC_CURVE_SHAPE, M) for M in MC_CURVE_M] + list(self.extra)
            trials = MC_TRIALS
        ops = []
        for L, K, M in shapes:
            params = mcmimo.SystemParams(L=L, K=K, M=float(M), **REFERENCE)
            state = mcmimo.ChannelState.from_layout(ring_layout(rng, L, K), params)
            bs = int(rng.integers(L))
            omega = tuple(sorted({bs} | {l for l in range(L) if rng.uniform() < 0.5}))
            ops.append(MonteCarloCase(state, bs, int(rng.integers(K)), omega, trials,
                                      int(rng.integers(2 ** 31))))
        return ops

    def run(self, op: MonteCarloCase):
        return mcmimo.empirical_power_decomposition(op.state, op.bs, op.pilot, op.omega,
                                                    trials=op.trials, seed=op.seed)

    def check(self, op: MonteCarloCase, result):
        analytic = mcmimo.power_terms(op.state, op.bs, op.pilot, op.omega)
        for term in ("desired", "est_error", "other_users", "noise"):
            emp, ana = getattr(result, term), getattr(analytic, term)
            if not abs(emp - ana) <= MC_TOL * abs(ana):
                return f"{term}: empirical {emp!r} vs analytic {ana!r}"
        return None

    def describe(self, ops) -> dict:
        return {"shapes": [(op.state.L, op.state.K, op.state.params.M) for op in ops],
                "trials": [op.trials for op in ops]}


# -- cli -----------------------------------------------------------------------

@dataclass(frozen=True)
class CliCall:
    command: str       # subcommand, or "error" for the malformed config
    argv: tuple
    expect_code: int
    reference: object  # what the first output is checked against


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes
    rss_mb: float


def _csv(text: str):
    return [line.split(",") for line in text.splitlines()]


class Cli:
    """op = one ``mcmimo`` invocation in a child interpreter.

    Inputs include JSON configs written to ``workdir``; a pass runs every
    subcommand on presets and on generated configs (an L=6 ring among
    them), plus one malformed config.  Repeated invocations must give
    byte-identical output.
    """

    name = "cli"

    def __init__(self, workdir: Path, env: dict):
        self.workdir = workdir
        self.env = env  # puts the mcmimo sources on PYTHONPATH
        self.first_output: dict[tuple, bytes] = {}

    def _write(self, name: str, config) -> str:
        path = self.workdir / name
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        return str(path)

    def inputs(self, rng, small: bool) -> list:
        ring = ring_layout(rng, 6, 4)
        ring_params = {"L": 6, "K": 4, "M": float(10 ** rng.uniform(3, 5)), **REFERENCE}
        ring_cfg = self._write("ring6.json", {
            "params": ring_params,
            "layout": {"kind": "explicit", **ring.to_dict()}})
        ring_ref = ("explicit", ring, ring_params)
        theta_m = float(10 ** rng.uniform(3.95, 4.05))
        theta_start = rng.uniform(0.0, 10.0)
        theta_grid = [theta_start + 7.0 * k for k in range(25)]
        theta_cfg = self._write("theta.json", {
            "params": {"L": 3, "K": 4, "M": theta_m, **REFERENCE},
            "layout": {"kind": "three_cell", "x": 400.0, "spacing": 800.0},
            "axis": "theta", "grid": theta_grid})
        mc3_cfg = self._write("mc3.json", {
            "params": {"L": 3, "K": 2, "M": 1e4, **REFERENCE},
            "layout": {"kind": "three_cell", "x": 400.0, "spacing": 800.0}})
        bad = [
            '{"preset": "two-cell-scenario-a", "antennas": 64}',
            '{"preset": "two-cell-scenario-a"',
            json.dumps({"params": {"L": 2, "K": 4, "M": 1e4, **REFERENCE},
                        "layout": {"kind": "two_cell", "x": -400.0}}),
            '{"preset": "no-such-preset"}',
        ][int(rng.integers(4))]
        bad_cfg = self._write("bad.json", bad)

        two_cell = ["two-cell-scenario-a", "two-cell-scenario-b"][int(rng.integers(2))]
        classify_m = float(10 ** rng.uniform(3, 6))
        sweep_lo, sweep_hi = 10 ** rng.uniform(2.8, 3.2), 10 ** rng.uniform(6.8, 7.2)
        mc_seed = int(rng.integers(2 ** 31))
        mc3_bs = int(rng.integers(3))
        mc3_omega = sorted({mc3_bs} | {l for l in range(3) if rng.uniform() < 0.5})
        region_bs = int(rng.integers(3))
        ring_bs = int(rng.integers(6))
        calls = [
            CliCall("symrate", ("symrate", "--preset", "two-cell-scenario-a", "--scheme",
                                SCHEMES[int(rng.integers(4))]), 0,
                    ("preset", "two-cell-scenario-a", None)),
            CliCall("symrate", ("symrate", "--config", ring_cfg, "--scheme", "snd"), 0,
                    ring_ref),
            CliCall("region", ("region", "--preset", "three-cell-theta", "--scheme", "snd",
                               "--bs", str(region_bs)), 0,
                    ("preset", "three-cell-theta", None)),
            CliCall("region", ("region", "--config", ring_cfg, "--scheme", "snd",
                               "--bs", str(ring_bs)), 0, ring_ref),
            CliCall("classify", ("classify", "--preset", two_cell, "--m", repr(classify_m)),
                    0, None),
            CliCall("sweep", ("sweep", "--preset", "two-cell-scenario-a", "--axis", "M",
                              "--grid", f"{sweep_lo!r}:{sweep_hi!r}:25:log"), 0,
                    (sweep_lo, sweep_hi)),
            CliCall("sweep", ("sweep", "--config", theta_cfg), 0,
                    (theta_grid[0], theta_grid[-1])),
            CliCall("montecarlo", ("montecarlo", "--cells", "2", "--users", "2", "--m",
                                   "128", "--trials", str(MC_TRIALS), "--seed",
                                   str(mc_seed)), 0, None),
            CliCall("montecarlo", ("montecarlo", "--config", mc3_cfg, "--m", "64",
                                   "--trials", str(MC_TRIALS), "--bs", str(mc3_bs),
                                   "--omega", ",".join(map(str, mc3_omega)),
                                   "--seed", str(mc_seed + 1)), 0, None),
            CliCall("error", ("symrate", "--config", bad_cfg), 2, None),
        ]
        if small:
            calls = [c for c in calls if "ring6.json" not in " ".join(c.argv)]
            calls = list({c.command: c for c in calls}.values())
        return calls

    def run(self, op: CliCall) -> CliResult:
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            child = subprocess.Popen([sys.executable, "-m", "mcmimo.cli", *op.argv],
                                     stdout=out, stderr=err, env=self.env)
            timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                timer.cancel()
            child.returncode = os.waitstatus_to_exitcode(status)
        return CliResult(child.returncode, out_path.read_bytes(), err_path.read_bytes(),
                         usage.ru_maxrss / 1024.0)

    def check(self, op: CliCall, result: CliResult):
        if result.code != op.expect_code:
            return (f"{' '.join(op.argv)} exited {result.code}, expected {op.expect_code}: "
                    f"{result.stderr.decode(errors='replace').strip()[:200]}")
        if op.command == "error":
            lines = result.stderr.decode().splitlines()
            if result.stdout or len(lines) != 1 or not lines[0].startswith("error: "):
                return f"malformed config gave {lines!r} on stderr, {len(result.stdout)} bytes out"
            return None
        first = self.first_output.get(op.argv)
        if first is not None:
            return None if result.stdout == first else "repeated invocation changed its CSV"
        reason = self._check_content(op, result.stdout.decode())
        if reason is None:
            self.first_output[op.argv] = result.stdout
        return reason

    def _state(self, reference, m=None):
        kind, what, params = reference
        if kind == "preset":
            scenario = mcmimo.preset_scenario(what)
            if m is not None:
                scenario = scenario.with_axis("M", m)
            return scenario.state()
        return mcmimo.ChannelState.from_layout(what, mcmimo.SystemParams(**params))

    def _check_content(self, op: CliCall, text: str):
        opt = dict(zip(op.argv[1::2], op.argv[2::2]))
        if op.command == "symrate":
            rows = _csv(text)
            report = mcmimo.network_symmetric_rate(self._state(op.reference),
                                                   opt["--scheme"])
            want = [f"{e.rate:.12g}" for e in report.per_bs] + [f"{report.network_rate:.12g}"]
            if rows[0] != ["scope", "rate", "theta_mask", "omega_mask"] or \
                    [r[1] for r in rows[1:]] != want:
                return f"symrate CSV disagrees with network_symmetric_rate: {want}"
        elif op.command == "region":
            rows = _csv(text)
            state = self._state(op.reference)
            region = getattr(mcmimo, f"{opt['--scheme']}_region")(state, int(opt["--bs"]), 0)
            want = sorted(f"{b:.12g}" for p in region.parts for _, b in p.constraints)
            if rows[0][-1] != "bound" or sorted(r[-1] for r in rows[1:]) != want:
                return "region CSV bounds disagree with the region builder"
        elif op.command == "classify":
            rows = _csv(text)
            if rows[0][-1] != "ordering_ok" or len(rows) != 3 or \
                    any(r[-1] != "1" or r[1] not in ("case_i", "case_ii") for r in rows[1:]):
                return f"classify CSV reports a failed ordering check: {rows}"
        elif op.command == "sweep":
            grid_part, _, threshold_part = text.partition("\n\n")
            rows, thresholds = _csv(grid_part), _csv(threshold_part)
            lo, hi = op.reference
            if len(rows) != 26 or len(thresholds) < 2 or \
                    not all(lo <= float(t[3]) <= hi for t in thresholds[1:]):
                return f"sweep CSV has {len(rows) - 1} rows, thresholds {thresholds[1:]}"
        elif op.command == "montecarlo":
            rows = _csv(text)
            if [r[0] for r in rows] != ["term", "desired", "est_error", "other_users",
                                        "noise"] or \
                    any(not float(r[3]) <= MC_TOL for r in rows[1:]):
                return f"montecarlo CSV exceeds the error tolerance: {rows}"
        return None

    def describe(self, ops) -> dict:
        return {"argv": [list(op.argv) for op in ops]}


def make(name: str, workdir: Path, env: dict):
    """The workload ``name``; ``workdir`` and ``env`` serve the CLI children."""
    if name == "cli":
        return Cli(workdir, env)
    return {"manycell": ManyCell, "sweeps": Sweeps, "montecarlo": MonteCarlo}[name]()
