"""Run one benchmark workload against the mcmimo sources next to this
directory and print its metrics.

    python3 perfbench/run.py --workload manycell --seed 1 --seconds 25 --trace 0

Workloads: manycell, sweeps, montecarlo, cli (see workloads.py).  One
client runs the workload's ops as a closed loop, in whole passes over the
seeded inputs, until ``--seconds`` have passed.  Every op's output is
checked; an op that raises or fails its check counts as failed.  Op
latencies and set-up time are scaled to the host's quiet speed (see
``latency_metrics`` and ``measure_setup``).

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs each op once untraced and once traced (see
layers.py), reports the per-layer metrics and the tracing overhead, and
writes the spans to ``.bench_out/``.  Either way the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a JSON report with the
provenance and the details of each metric.  ``--smoke`` shrinks the inputs
to a minimum for a quick self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
# The latency quantiles count every input this many times, as if each run
# made this many passes, so that the tail percentile does not move with the
# speed of the host.
NOMINAL_PASSES = 4
CALIBRATE_EVERY_S = 0.1
# calibrate() on an idle 2.1 GHz Xeon core of the host the bounds were set
# on; it only fixes the scale of the latency metrics.  calibrate_subsets()
# takes about 1.6 times as long.
CALIBRATION_REF_S = 2.5e-3
SUBSETS_CALIBRATION_REF_S = 4.0e-3
# A fresh interpreter that imports numpy, as every child process does before
# mcmimo runs, and then does about as much pure-Python work as importing
# mcmimo and generating inputs.  It calibrates child-process latencies (the
# CLI ops and set-up); REFERENCE_CHILD_S is a nominal quiet time that fixes
# their scale.
REFERENCE_CHILD = ("-c", f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
                   "import run\nfor _ in range(12): run.calibrate_subsets()")
REFERENCE_CHILD_S = 0.17

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("manycell", "sweeps", "montecarlo", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="minimal inputs")
    p.add_argument("--setup-only", action="store_true",
                   help="import mcmimo, generate the inputs and exit (times set-up)")
    return p.parse_args(argv)


def child_env() -> dict:
    """The environment with the mcmimo sources first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _timed_child(argv) -> tuple[float, str]:
    start = perf_counter()
    done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=child_env(), timeout=120, text=True)
    seconds = perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{argv[1:]} failed: {done.stderr.strip()[-300:]}")
    return seconds, done.stdout


def reference_child() -> float:
    """Seconds for a child interpreter that runs REFERENCE_CHILD."""
    return _timed_child([sys.executable, *REFERENCE_CHILD])[0]


def measure_setup(args) -> tuple[float, list[float], list[float]]:
    """Set-up time: wall time of fresh processes that import mcmimo and
    generate the workload's inputs, process start to the point where timing
    would begin.

    Child-process start slows with the host's load much more than the
    in-process ``calibrate()`` does, so each set-up child is paired with a
    ``reference_child()`` and the median set-up time is scaled by
    ``REFERENCE_CHILD_S / median reference time``.  Work that mcmimo adds to
    its import or to input generation moves the scaled figure as much as the
    raw one.  Returns the scaled median and the raw set-up and reference
    samples."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    setup, ref = [], []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        ref.append(reference_child())
        setup.append(_timed_child(argv)[0])
    return statistics.median(setup) * REFERENCE_CHILD_S / statistics.median(ref), setup, ref


def measure_import_ms(smoke: bool) -> float:
    code = ("import time; t = time.perf_counter(); import mcmimo; "
            "print(time.perf_counter() - t)")
    return 1e3 * statistics.median(float(_timed_child([sys.executable, "-c", code])[1])
                                   for _ in range(1 if smoke else IMPORT_REPEATS))


def tail(latencies) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples above it,
    and that percentile; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def latency_metrics(per_input, per_input_cal, ref_s) -> tuple[dict, dict]:
    """End-to-end latency metrics from the latencies of each input, one per
    pass, and the calibration time measured around each of them.

    On a host shared with other tenants, they can slow it by 40 % for
    minutes at a time, so raw wall times of two runs minutes apart are not
    comparable.  The loop therefore also times a calibration (``calibrate()``
    or a variant in process, ``reference_child()`` for workloads whose ops
    are child processes) between ops, and a latency is scaled by ``ref_s``
    over the mean of the calibrations just before and just after it:
    milliseconds at the host's quiet speed.  A faster or slower program
    moves the scaled figures as much as the raw ones; a busier host moves
    the op and its calibrations alike and cancels out.  Every input does the
    same work on each pass, so an op's latency is the median of its scaled
    passes, and the quantiles run over NOMINAL_PASSES copies of each op's
    latency.  The raw figures go into the report.
    """
    per_op = [statistics.median(t * ref_s / c for t, c in zip(runs, cals))
              for runs, cals in zip(per_input, per_input_cal)]
    samples = [t for t in per_op for _ in range(NOMINAL_PASSES)]
    raw = [t for runs in per_input for t in runs]
    tail_s, tail_pct = tail(samples)
    values = {"ops_per_s": len(per_op) / sum(per_op),
              "op_p50_ms": 1e3 * statistics.median(per_op), "op_tail_ms": 1e3 * tail_s}
    details = {"samples": len(raw), "tail_samples": len(samples),
               "tail_percentile": tail_pct, "timed_s": sum(raw),
               "raw_ops_per_s": len(raw) / sum(raw),
               "raw_op_p50_ms": 1e3 * statistics.median(raw),
               "raw_op_tail_ms": 1e3 * tail(raw)[0]}
    return values, details


def provenance(args, workload, ops) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "mcmimo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "ops_per_pass": len(ops), "inputs": workload.describe(ops)}


def calibrate() -> float:
    """Seconds for a fixed amount of interpreter and numpy work that does not
    touch mcmimo; its drift over a run measures how busy the host is."""
    start = perf_counter()
    acc, table = 0, {}
    for i in range(20000):
        acc += (i * 7) % 13
        table[i & 255] = acc
    a = np.arange(20000, dtype=float)
    for _ in range(20):
        a = np.sqrt(a * 1.0001 + 1.0)
    return perf_counter() - start


def calibrate_subsets() -> float:
    """``calibrate()`` plus an enumeration of the subsets of 10 cells as
    frozensets into a dict: the kind of work of the SND solver and the
    region builders, whose slowdown on a busy host it follows more closely
    than ``calibrate()`` alone."""
    start = perf_counter()
    calibrate()
    table = {}
    for mask in range(1, 1 << 10):
        cells = frozenset(l for l in range(10) if mask >> l & 1)
        table[cells] = 0.5 * sum(cells) + len(cells)
    max(table.values())
    return perf_counter() - start


# Per workload: what each pass times to measure how busy the host is, and
# its time on a quiet host.  Other workloads use calibrate().
CALIBRATIONS = {"manycell": (calibrate_subsets, SUBSETS_CALIBRATION_REF_S),
                "cli": (reference_child, REFERENCE_CHILD_S)}


class Loop:
    """Closed loop over whole passes of ``ops``; traced runs execute every op
    untraced and then traced.  Untraced passes time ``calibration`` at their
    start and end and between ops, at most every CALIBRATE_EVERY_S.  The loop
    stops after the pass that brings the run closest to ``seconds``, so a run
    measures about ``seconds`` whatever the length of a pass."""

    def __init__(self, workload, tracer=None, targets=(), calibration=calibrate):
        self.workload = workload
        self.calibration = calibration
        self.tracer = tracer
        self.targets = targets
        self.latencies: list[list[float]] = []  # per input, one entry per pass
        self.op_cal: list[list[float]] = []  # calibration around each latency
        self.traced_s = 0.0
        self.untraced_s = 0.0
        self.traced_ops = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.cli_records: list[tuple] = []
        self.child_rss_mb = 0.0
        self.pass_s: list[float] = []
        self.pass_cal: list[float] = []  # median calibration time per pass (report)

    def _attempt(self, op, traced: bool) -> float:
        self.attempted += 1
        if traced:
            self.tracer.install(self.targets)
            self.tracer.op = self.traced_ops
        start = perf_counter()
        try:
            if traced:
                result = self.tracer.run_span(f"op.{self.workload.name}", self.workload.run, op)
            else:
                result = self.workload.run(op)
        except Exception as exc:  # a failing op is counted, the loop goes on
            result, reason = None, f"{type(exc).__name__}: {exc}"
        else:
            reason = None
        seconds = perf_counter() - start
        if traced:
            self.tracer.uninstall()
        if reason is None:
            try:
                reason = self.workload.check(op, result)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            self.failures.append(reason)
        rss = getattr(result, "rss_mb", None)
        if rss is not None:
            self.child_rss_mb = max(self.child_rss_mb, rss)
            if traced:
                self.cli_records.append((op.command, seconds * 1e3, rss))
        return seconds

    def run(self, ops, seconds: float) -> None:
        self.latencies = [[] for _ in ops]
        self.op_cal = [[] for _ in ops]
        start = perf_counter()
        while True:
            pass_start = perf_counter()
            if self.tracer is None:
                self._untraced_pass(ops)
            else:
                for op in ops:
                    self.untraced_s += self._attempt(op, traced=False)
                    self.traced_s += self._attempt(op, traced=True)
                    self.traced_ops += 1
            self.pass_s.append(perf_counter() - pass_start)
            if perf_counter() - start + 0.5 * self.pass_s[-1] >= seconds:
                return

    def _untraced_pass(self, ops) -> None:
        cal, last_cal = [self.calibration()], perf_counter()
        timed = []  # (input, latency, index of the calibration before it)
        for k, op in enumerate(ops):
            timed.append((k, self._attempt(op, traced=False), len(cal) - 1))
            if perf_counter() - last_cal >= CALIBRATE_EVERY_S or k == len(ops) - 1:
                cal.append(self.calibration())
                last_cal = perf_counter()
        for k, seconds, i in timed:
            self.latencies[k].append(seconds)
            self.op_cal[k].append(0.5 * (cal[i] + cal[i + 1]))
        self.pass_cal.append(statistics.median(cal))


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "mcmimo" / "__init__.py").is_file():
        print(f"error: mcmimo sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mcmimo
    if Path(mcmimo.__file__).resolve().parent != (SRC / "mcmimo").resolve():
        print(f"error: imported mcmimo from {mcmimo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    import workloads
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        workload = workloads.make(args.workload, Path(workdir), child_env())
        ops = workload.inputs(np.random.default_rng(args.seed), args.smoke)
        if args.setup_only:
            return 0
        setup = None if args.trace else measure_setup(args)
        tracer = Tracer() if args.trace else None
        calibration, calibration_ref_s = CALIBRATIONS.get(
            args.workload, (calibrate, CALIBRATION_REF_S))
        loop = Loop(workload, tracer, layers.TARGETS, calibration)
        loop.run(ops, args.seconds)

    report = {"provenance": provenance(args, workload, ops), "pass_s": loop.pass_s,
              "failures": loop.failures[:5]}
    if args.trace:
        overhead = loop.traced_s / loop.untraced_s - 1.0 if loop.untraced_s else 0.0
        metrics = layers.per_layer_metrics(tracer, loop.traced_ops, loop.cli_records,
                                           measure_import_ms(args.smoke), overhead)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(trace_path, report["provenance"])
        report.update(trace_file=str(trace_path.relative_to(ROOT)),
                      traced_ops=loop.traced_ops, dropped_spans=tracer.dropped,
                      missing_targets=tracer.missing)
    else:
        values, details = latency_metrics(loop.latencies, loop.op_cal, calibration_ref_s)
        values["setup_s"], setup_raw, setup_ref = setup
        values["peak_rss_mb"] = (loop.child_rss_mb if args.workload == "cli" else
                                 resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = {k: (values[k], unit) for k, unit in END_TO_END_UNITS.items()}
        report.update(details, setup_samples_s=setup_raw, setup_reference_s=setup_ref,
                      calibration_s=loop.pass_cal)
    fail_frac = len(loop.failures) / loop.attempted
    report["fail_frac"] = fail_frac

    for name, (value, unit) in metrics.items():
        print(f"{name:46s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"{'op_p50_ms samples':46s} {report['samples']:14d}")
        print(f"{'op_tail_ms percentile':46s} {report['tail_percentile']:14.6g} %")
    print(f"{'fail_frac':46s} {fail_frac:14.6g} ({len(loop.failures)}/{loop.attempted})")
    for reason in report["failures"]:
        print(f"failed: {reason}")
    print(json.dumps(report))
    print(json.dumps({"correct": not loop.failures, "attempted": loop.attempted,
                      "failed": len(loop.failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
