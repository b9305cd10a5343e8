"""Self-test of the benchmark at minimal size.

    python3 perfbench/smoke.py

Runs every workload with ``--smoke`` untraced and traced, and asserts that
the result line carries exactly the metrics BENCHMARK.json names, with
their units.  Feeds each workload's check a deliberately corrupted result
and asserts that it fails, so no check is vacuous.  Also asserts that a
wrapped name that does not exist is skipped, and that the benchmark refuses
to run where the mcmimo sources are missing.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from run import child_env  # noqa: E402
from spans import Target, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics_emitted() -> None:
    for entry in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = run_bench(entry["name"], trace)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, done.stdout
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (entry["name"], trace, set(got) ^ set(want))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
            if trace == 0:
                assert all(result["metrics"][n]["value"] > 0 for n in want), result
            print(f"ok  {entry['name']} --trace {trace}: {len(got)} metrics")


def _first_result(workload, ops):
    op = ops[0]
    result = workload.run(op)
    assert workload.check(op, result) is None
    return op, result


def _must_fail(workload, op, result, what: str) -> None:
    reason = workload.check(op, result)
    assert reason is not None, f"{workload.name}: check accepted {what}"
    print(f"ok  {workload.name} rejects {what}: {reason[:90]}")


def check_checks_fail_on_corruption(workdir: Path) -> None:
    rng = np.random.default_rng(3)

    w = workloads.make("manycell", workdir, child_env())
    op, (reports, regions) = _first_result(w, w.inputs(rng, True))
    snd = reports["snd"]
    for what, scheme, j, scale in (("an SD rate above SND", "sd", 0, None),
                                   ("an SND rate off its region", "snd", op.bs, 1 + 1e-9)):
        rep = reports[scheme]
        rate = 2 * snd.per_bs[j].rate if scale is None else rep.per_bs[j].rate * scale
        per_bs = list(rep.per_bs)
        per_bs[j] = dataclasses.replace(per_bs[j], rate=rate)
        bad = dict(reports, **{scheme: dataclasses.replace(rep, per_bs=tuple(per_bs))})
        _must_fail(w, op, (bad, regions), what)

    w = workloads.make("sweeps", workdir, child_env())
    op, result = _first_result(w, w.inputs(rng, True))
    c = result.thresholds[0]
    moved = dataclasses.replace(c, value=0.5 * (result.rows[0].value + result.rows[1].value))
    if moved.value == c.value or result.rows[0].value <= c.value <= result.rows[1].value:
        moved = dataclasses.replace(c, value=0.5 * (result.rows[-2].value
                                                    + result.rows[-1].value))
    _must_fail(w, op, dataclasses.replace(result, thresholds=(moved,)),
               "a threshold outside its bracket")
    swapped = dataclasses.replace(c, before=c.after, after=c.before)
    _must_fail(w, op, dataclasses.replace(result, thresholds=(swapped,)),
               "a threshold with swapped labels")
    _must_fail(w, op, dataclasses.replace(result, thresholds=()), "a sweep without thresholds")

    w = workloads.make("montecarlo", workdir, child_env())
    op, result = _first_result(w, w.inputs(rng, True))
    for term in ("desired", "est_error", "other_users", "noise"):
        for factor in (2.0, 0.5):
            _must_fail(w, op, dataclasses.replace(result, **{term: factor * getattr(result, term)}),
                       f"{term} x{factor}")

    w = workloads.make("cli", workdir, child_env())
    ops = w.inputs(rng, True)
    op, result = _first_result(w, ops)
    _must_fail(w, op, dataclasses.replace(result, code=1), "a wrong exit code")
    _must_fail(w, op, dataclasses.replace(result, stdout=result.stdout.replace(b",", b";", 1)),
               "a repeated run with different CSV")
    fresh = workloads.make("cli", workdir, child_env())
    _must_fail(fresh, op, dataclasses.replace(result, stdout=result.stdout.replace(
        b"\n", b"\n0,1e9,1,1\n", 1)), "a CSV that disagrees with the library")
    error = next(o for o in ops if o.command == "error")
    error_result = w.run(error)
    assert w.check(error, error_result) is None
    _must_fail(w, error, dataclasses.replace(error_result, stderr=error_result.stderr * 2),
               "two error lines")


def check_missing_target_is_skipped() -> None:
    import mcmimo
    tracer = Tracer()
    tracer.install([Target("mcmimo.regions", "no_such_function", "regions.none"),
                    Target("mcmimo.symrate", "network_symmetric_rate", "symrate.any")])
    try:
        mcmimo.network_symmetric_rate(mcmimo.preset_scenario("two-cell-scenario-a").state(),
                                      "tin")
    finally:
        tracer.uninstall()
    assert tracer.missing == ["mcmimo.regions.no_such_function"], tracer.missing
    assert tracer.calls == {"symrate.any": 1}, dict(tracer.calls)
    print("ok  a missing wrapped name is skipped")


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench("manycell", 0, cwd=Path(tmp))
    assert done.returncode != 0 and '"correct"' not in done.stdout, done
    print(f"ok  refuses to run without sources: {done.stderr.strip()}")


def main() -> int:
    OUT.mkdir(exist_ok=True)
    check_missing_target_is_skipped()
    check_refuses_without_sources()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        check_checks_fail_on_corruption(Path(tmp))
    check_metrics_emitted()
    print("smoke: all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
