"""Which mcmimo functions a traced run wraps, and the per-layer metrics
derived from the spans and counters they record.

The layers are the library's modules: network, estimation, bounds, regions,
symrate, scenarios, montecarlo and cli.  Each wrapped name is looked up when
a traced op starts; a name a later version removed reads as zero, so this
table can outlive the functions it lists.

Per-op metrics (unit ``.../op``) are totals over the traced ops divided by
their count.  Since every run executes whole passes over its inputs, they
do not depend on how many passes fitted in the run.  A layer that a
workload never reaches reads 0 on that workload.
"""

from __future__ import annotations

import math
import statistics

from spans import Target

# Cell counts of the manycell workload and antenna counts of the Monte Carlo
# scaling curve; the curve metrics below have one entry per value.
MANYCELL_L = (6, 7, 8, 9, 10)
MC_CURVE_M = (64, 128, 256, 512, 1024)
MC_CURVE_SHAPE = (2, 2)  # (L, K) of the Monte Carlo curve configurations
CLI_COMMANDS = ("region", "symrate", "classify", "sweep", "montecarlo")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count(key):
    def after(tracer, args, kwargs, result, seconds, token):
        tracer.counters[key] += 1
    return after


def _region_after(curve):
    def after(tracer, args, kwargs, result, seconds, token):
        tracer.counters["regions.constraints"] += sum(len(p.constraints)
                                                      for p in result.parts)
        if curve:
            L = _arg(args, kwargs, 0, "state").L
            tracer.samples[f"regions.snd_region.ms.L{L}"].append(seconds * 1e3)
    return after


def _symrate_name(args, kwargs):
    return "symrate." + _arg(args, kwargs, 1, "scheme")


def _symrate_after(tracer, args, kwargs, result, seconds, token):
    if _arg(args, kwargs, 1, "scheme") == "snd":
        L = _arg(args, kwargs, 0, "state").L
        tracer.counters["symrate.snd.decoded_sets"] += L * 2 ** (L - 1)
        tracer.samples[f"symrate.snd.ms_per_bs.L{L}"].append(seconds * 1e3 / L)


def _sweep_before(tracer, args, kwargs):
    return tracer.counters["estimation.state_builds"]


def _sweep_after(tracer, args, kwargs, result, seconds, builds_before):
    grid = len(_arg(args, kwargs, 2, "grid"))
    builds = tracer.counters["estimation.state_builds"] - builds_before
    tracer.counters["scenarios.sweep.grid_evals"] += grid
    tracer.counters["scenarios.sweep.refine_evals"] += max(0, builds - grid)
    tracer.counters["scenarios.sweep.thresholds"] += len(result.thresholds)


def _mc_after(tracer, args, kwargs, result, seconds, token):
    state = _arg(args, kwargs, 0, "state")
    trials = _arg(args, kwargs, 4, "trials")
    tracer.counters["montecarlo.trials"] += trials
    if (state.L, state.K) == MC_CURVE_SHAPE:
        M = int(state.params.M)
        tracer.samples[f"montecarlo.ms_per_ktrial.M{M}"].append(seconds * 1e6 / trials)


def _sampled_after(tracer, args, kwargs, result, seconds, token):
    # complex128 samples drawn, from the requested shape
    tracer.counters["montecarlo.sampled_bytes"] += 16 * math.prod(
        _arg(args, kwargs, 1, "shape"))


TARGETS = (
    Target("mcmimo.network", "build_fading", "network.build_fading"),
    Target("mcmimo.estimation", "mmse_coeffs", "estimation.mmse_coeffs"),
    Target("mcmimo.estimation", "ChannelState.from_layout", "estimation.from_layout",
           after=_count("estimation.state_builds")),
    Target("mcmimo.estimation", "ChannelState.with_m", "estimation.with_m", span=False,
           after=_count("estimation.state_builds")),
    Target("mcmimo.bounds", "coherent_power", "bounds.coherent_power", span=False),
    Target("mcmimo.bounds", "rate_bound", "bounds.rate_bound"),
    Target("mcmimo.bounds", "power_terms", "bounds.power_terms"),
    Target("mcmimo.regions", "tin_region", "regions.tin_region", after=_region_after(False)),
    Target("mcmimo.regions", "sd_region", "regions.sd_region", after=_region_after(False)),
    Target("mcmimo.regions", "ssnd_region", "regions.ssnd_region",
           after=_region_after(False)),
    Target("mcmimo.regions", "snd_region", "regions.snd_region", after=_region_after(True)),
    Target("mcmimo.symrate", "network_symmetric_rate", _symrate_name, after=_symrate_after),
    Target("mcmimo.scenarios", "sweep", "scenarios.sweep", before=_sweep_before,
           after=_sweep_after),
    Target("mcmimo.montecarlo", "empirical_power_decomposition", "montecarlo",
           after=_mc_after),
    Target("mcmimo.montecarlo", "complex_normal", "montecarlo.complex_normal", span=False,
           after=_sampled_after),
)

# (metric, unit); ``calls``/``self_ms`` entries read the span of that name,
# other ``/op`` entries read the counter of that name.
PER_LAYER = (
    [("network.build_fading.calls", "count/op"),
     ("network.build_fading.self_ms", "ms/op"),
     ("estimation.from_layout.calls", "count/op"),
     ("estimation.mmse_coeffs.self_ms", "ms/op"),
     ("bounds.coherent_power.calls", "count/op"),
     ("bounds.rate_bound.calls", "count/op"),
     ("bounds.rate_bound.self_ms", "ms/op"),
     ("regions.sd_region.self_ms", "ms/op"),
     ("regions.ssnd_region.self_ms", "ms/op"),
     ("regions.snd_region.self_ms", "ms/op"),
     ("regions.constraints", "count/op")]
    + [(f"regions.snd_region.ms.L{L}", "ms") for L in MANYCELL_L]
    + [(f"symrate.{s}.self_ms", "ms/op") for s in ("tin", "sd", "ssnd", "snd")]
    + [("symrate.snd.decoded_sets", "count/op")]
    + [(f"symrate.snd.ms_per_bs.L{L}", "ms") for L in MANYCELL_L]
    + [("scenarios.sweep.self_ms", "ms/op"),
       ("scenarios.sweep.grid_evals", "count/op"),
       ("scenarios.sweep.refine_evals", "count/op"),
       ("scenarios.sweep.thresholds", "count/op"),
       ("scenarios.sweep.thresholds_per_refine_eval", "ratio"),
       ("montecarlo.self_ms", "ms/op"),
       ("montecarlo.trials", "count/op"),
       ("montecarlo.sampled_bytes", "B/op")]
    + [(f"montecarlo.ms_per_ktrial.M{M}", "ms") for M in MC_CURVE_M]
    + [("cli.import_ms", "ms")]
    + [(f"cli.{c}.wall_ms", "ms") for c in CLI_COMMANDS]
    + [(f"cli.{c}.rss_mb", "MB") for c in CLI_COMMANDS]
    + [("cli.error.wall_ms", "ms"),
       ("trace.overhead_frac", "frac")]
)


def _median(values):
    return statistics.median(values) if values else 0.0


def per_layer_metrics(tracer, n_ops, cli_records, import_ms, overhead_frac) -> dict:
    """Every PER_LAYER metric as ``{name: (value, unit)}``.

    ``cli_records`` holds ``(command, wall_ms, rss_mb)`` per traced CLI
    invocation; ``import_ms`` is the median import time of a fresh
    interpreter.
    """
    per_op = 1.0 / max(n_ops, 1)
    refine = tracer.counters["scenarios.sweep.refine_evals"]
    out = {}
    for name, unit in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            value = tracer.calls.get(base, 0) * per_op
        elif field == "self_ms":
            value = tracer.self_s.get(base, 0.0) * 1e3 * per_op
        elif name.startswith("cli."):
            command = name.split(".")[1]
            rows = [r for r in cli_records if r[0] == command]
            if name == "cli.import_ms":
                value = import_ms
            elif field == "wall_ms":
                value = _median([r[1] for r in rows])
            else:
                value = max((r[2] for r in rows), default=0.0)
        elif name == "scenarios.sweep.thresholds_per_refine_eval":
            value = tracer.counters["scenarios.sweep.thresholds"] / refine if refine else 0.0
        elif name == "trace.overhead_frac":
            value = overhead_frac
        elif unit == "ms":
            value = _median(tracer.samples.get(name, []))
        else:
            value = tracer.counters.get(name, 0.0) * per_op
        out[name] = (float(value), unit)
    return out
