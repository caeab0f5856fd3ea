"""Which bitlet functions the traced run wraps, and the per-layer metrics.

A span is named ``<layer>.<function>``; the layer is the bitlet module the
function belongs to. The benchmark's own time inside a pass is the self
time of the root span ``bench.pass`` (the glue). Functions missing from
the program are skipped, so their metrics read 0.
"""

from __future__ import annotations

import sys

import numpy as np

import bitlet  # noqa: F401  (loads every module wrapped below)
from bitlet import simulator
from tracer import Tracer, self_times
from workloads import row_ops

ROOT = "bench.pass"
LAYERS = ("cli", "config", "analysis", "model", "catalog", "simulator",
          "layout", "validation")

# module -> public functions wrapped in a span, looked up wherever imported
SPANNED = {
    "cli": ("main",),
    "config": ("load_config", "parse_config"),
    "analysis": ("sweep", "litmus", "crossover_oc", "energy_breakeven_oc"),
    "model": ("perf_pim", "pl_perf_pim", "mat_power_cap", "perf_cpu",
              "pl_perf_cpu", "energy_per_op_pim", "energy_per_op_cpu"),
    "catalog": ("microprogram_of", "oc_of", "catalog_table"),
    "simulator": ("run", "pack_ints", "unpack_ints", "count_cycles"),
    "layout": ("pac_of", "relocation_program", "default_assignment"),
    "validation": ("run_validation", "catalog_checks", "pac_checks"),
}
# class -> methods wrapped in a span
SPANNED_METHODS = {
    ("simulator", "NorProgram"): ("validate",),
    ("analysis", "Workload"): ("resolve",),
}


def _run_span(program, *_args, **_kwargs) -> str:
    """Span name of a simulator run: NOR programs (catalog) or move-only ones."""
    nor = any(type(ins) is simulator.Nor for ins in program.instructions)
    return "simulator.run.nor" if nor else "simulator.run.move"


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every bitlet module."""
    mods = {name: sys.modules[f"bitlet.{name}"] for name in LAYERS}
    everywhere = [m for name, m in sys.modules.items()
                  if name == "bitlet" or name.startswith("bitlet.")]

    def on_run(result, program, initial):
        _, cycles = result
        kind = _run_span(program).rsplit(".", 1)[1]
        tracer.add("simulator.sim_cycles", cycles)
        tracer.add(f"simulator.{kind}.row_ops", row_ops(program, initial.rows))

    def checks(result, *_args, **_kwargs):
        tracer.add("validation.checks_total", len(result))
        tracer.add("validation.checks_passed", sum(bool(c.passed) for c in result))

    def length(key):
        return lambda result, *_args, **_kwargs: tracer.add(key, len(result))

    after = {
        "analysis.sweep": length("analysis.sweep.points"),
        "catalog.microprogram_of": length("catalog.instrs"),
        "layout.relocation_program": length("layout.instrs"),
        "simulator.run": on_run,
        "simulator.NorProgram.validate": lambda _, program, *a, **k: tracer.add(
            "simulator.validate.instrs", len(program)),
        "validation.catalog_checks": checks,
        "validation.pac_checks": checks,
    }

    def wrapper(name):
        span = _run_span if name == "simulator.run" else name
        return lambda fn: tracer.wrap(fn, span, after.get(name))

    for layer, funcs in SPANNED.items():
        for func in funcs:
            tracer.patch(mods[layer], func, wrapper(f"{layer}.{func}"), everywhere)
    for (layer, cls_name), methods in SPANNED_METHODS.items():
        cls = getattr(mods[layer], cls_name, None)
        for method in methods if cls is not None else ():
            tracer.patch(cls, method, wrapper(f"{layer}.{cls_name}.{method}"))
    throughput = getattr(sys.modules["bitlet.machine"], "Throughput", None)
    if throughput is not None:
        tracer.patch(throughput, "__post_init__",
                     lambda fn: tracer.counted(fn, "machine.throughput_objs"))


def per_pass(tracer: Tracer):
    """Per-pass span tables: (names, calls, self seconds, inclusive seconds).

    Each table is passes x names. A pass is everything under one root span.
    """
    arr = tracer.arrays()
    duration = arr["end"] - arr["start"]
    own = self_times(arr["parent"], duration)
    roots = np.flatnonzero((arr["parent"] < 0)
                           & (arr["name_id"] == tracer.names.index(ROOT)))
    which = np.searchsorted(roots, np.arange(len(duration)), side="right") - 1
    keep = which >= 0
    n = len(tracer.names)
    cell = which[keep] * n + arr["name_id"][keep]
    size = len(roots) * n

    def table(weights=None):
        w = None if weights is None else weights[keep]
        return np.bincount(cell, weights=w, minlength=size).reshape(len(roots), n)

    return tracer.names, table(), table(own), table(duration)


def metrics(names, calls, own, incl, counts, pass_s) -> dict[str, float]:
    """Per-layer metrics from per-pass span tables and per-pass counts.

    Times are those of the fastest traced pass, so that the layer self
    times and the glue add up to ``trace.pass_s_min``. Counts are per pass
    (every pass does the same work, which ``trace_errors`` checks).
    ``trace.accounted_share`` is the smallest share of any pass's wall time
    that layer self times plus glue account for.
    """
    best = int(np.argmin(pass_s))

    def col(name, table):
        return float(table[best, names.index(name)]) if name in names else 0.0

    def cols(prefix, table, row=best):
        hit = [i for i, s in enumerate(names) if s == prefix or s.startswith(prefix + ".")]
        return table[row, hit].sum()

    def count(name):
        return int(col(name, calls))

    c = counts[0]
    m = {}
    layer_self = {layer: float(cols(layer, own)) for layer in LAYERS}

    m["cli.main.calls"] = count("cli.main")
    m["cli.self_s"] = layer_self["cli"]
    m["cli.bytes_out"] = c.get("cli.bytes_out", 0)

    m["config.load_config.calls"] = count("config.load_config")
    m["config.load_config.s"] = col("config.load_config", incl)
    m["config.self_s"] = layer_self["config"]

    points = c.get("analysis.sweep.points", 0)
    m["analysis.self_s"] = layer_self["analysis"]
    m["analysis.sweep.self_s"] = col("analysis.sweep", own)
    m["analysis.sweep.points"] = points
    m["analysis.sweep.us_per_point"] = (
        col("analysis.sweep", incl) / points * 1e6 if points else 0.0)
    m["analysis.litmus.calls"] = count("analysis.litmus")
    m["analysis.litmus.self_s"] = col("analysis.litmus", own)

    model_calls = int(cols("model", calls))
    m["model.calls"] = model_calls
    m["model.self_s"] = layer_self["model"]
    m["model.ns_per_call"] = layer_self["model"] / model_calls * 1e9 if model_calls else 0.0

    objs = c.get("machine.throughput_objs", 0)
    m["machine.throughput_objs"] = objs
    m["machine.objs_per_point"] = objs / points if points else 0.0

    m["catalog.self_s"] = layer_self["catalog"]
    m["catalog.microprogram_of.calls"] = count("catalog.microprogram_of")
    m["catalog.microprogram_of.self_s"] = col("catalog.microprogram_of", own)
    m["catalog.instrs_generated"] = c.get("catalog.instrs", 0)

    validate = "simulator.NorProgram.validate"
    validate_s = col(validate, own)
    m["simulator.self_s"] = layer_self["simulator"]
    m["simulator.validate.calls"] = count(validate)
    m["simulator.validate.self_s"] = validate_s
    m["simulator.validate.instrs_per_s"] = (
        c.get("simulator.validate.instrs", 0) / validate_s if validate_s else 0.0)
    m["simulator.run.self_s"] = float(cols("simulator.run", own))
    nor_ops = c.get("simulator.nor.row_ops", 0)
    move_ops = c.get("simulator.move.row_ops", 0)
    m["simulator.run.row_ops"] = nor_ops + move_ops
    nor_s = col("simulator.run.nor", own)
    move_s = col("simulator.run.move", own)
    m["simulator.nor.row_ops_per_s"] = nor_ops / nor_s if nor_s else 0.0
    m["simulator.move.row_ops_per_s"] = move_ops / move_s if move_s else 0.0
    m["simulator.sim_cycles"] = c.get("simulator.sim_cycles", 0)
    m["simulator.pack_unpack.self_s"] = (col("simulator.pack_ints", own)
                                         + col("simulator.unpack_ints", own))

    m["layout.self_s"] = layer_self["layout"]
    m["layout.relocation_program.calls"] = count("layout.relocation_program")
    m["layout.relocation_program.self_s"] = col("layout.relocation_program", own)
    m["layout.instrs_generated"] = c.get("layout.instrs", 0)
    m["layout.pac_of.calls"] = count("layout.pac_of")

    m["validation.self_s"] = layer_self["validation"]
    m["validation.catalog_checks.self_s"] = col("validation.catalog_checks", own)
    m["validation.pac_checks.self_s"] = col("validation.pac_checks", own)
    m["validation.checks_passed"] = c.get("validation.checks_passed", 0)
    m["validation.checks_total"] = c.get("validation.checks_total", 0)

    # accounting: layer self times plus glue against the pass wall time
    wall = np.asarray(pass_s)
    accounted = [sum(cols(layer, own, row) for layer in LAYERS) + own[row, names.index(ROOT)]
                 for row in range(len(wall))]
    m["trace.pass_s_min"] = float(wall[best])
    m["trace.glue_s"] = col(ROOT, own)
    m["trace.glue_share"] = m["trace.glue_s"] / wall[best]
    m["trace.accounted_share"] = float(np.min(accounted / wall))
    m["trace.spans_per_pass"] = int(calls[best].sum())
    return m


def trace_errors(calls, counts, metrics) -> list[str]:
    """Why a traced run's figures cannot be trusted; empty when they can."""
    errors = []
    if not ((calls == calls[0]).all() and all(c == counts[0] for c in counts)):
        errors.append("traced passes disagree on their counts")
    if not 0.99 <= metrics["trace.accounted_share"] <= 1.0:
        errors.append("layer self times plus glue do not add up to the pass")
    return errors
