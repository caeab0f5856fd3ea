"""Tests of the benchmark's tracer and per-layer accounting.

    python3 -m pytest -q bench/tests/tracer_checks.py

The file name keeps these tests out of the repository's own test run; they
use small versions of the workloads and take a few seconds.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

SMALL_SWEEPS = (("MAT", "1:1e6:60:log"), ("OC", "1:1e5:60:log"),
                ("TDP", "0.1:1000:60:log"))


def _bitlet_bindings() -> dict:
    """Every attribute of every bitlet module and of the wrapped classes."""
    import bitlet  # noqa: F401
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "bitlet" or name.startswith("bitlet."):
            found.update({(name, k): v for k, v in vars(mod).items()})
    for (layer, cls_name), _ in layers.SPANNED_METHODS.items():
        cls = getattr(sys.modules[f"bitlet.{layer}"], cls_name)
        found.update({(cls_name, k): v for k, v in vars(cls).items()})
    throughput = sys.modules["bitlet.machine"].Throughput
    found.update({("Throughput", k): v for k, v in vars(throughput).items()})
    return found


def _workload(name, tmp):
    if name == "sweep_grid":
        return workloads.SweepGrid(7, tmp, sweeps=SMALL_SWEEPS)
    if name == "simulate_tall":
        return workloads.SimulateTall(7, tmp, rows=1024)
    return workloads.CliSuite(7, tmp)


def _traced_pass(name, tmp):
    """One traced pass; returns (outputs, per-layer metrics, checked)."""
    tmp.mkdir()
    wl = _workload(name, tmp)
    tracer = Tracer()
    layers.install(tracer)
    try:
        t0 = time.perf_counter()
        with tracer.span(layers.ROOT):
            result = wl.run_pass()
        wall = time.perf_counter() - t0
        counts = tracer.take_counts()
    finally:
        tracer.restore()
    outputs = _outputs(wl, result)
    checked = wl.check(result)
    counts["cli.bytes_out"] = checked.bytes_out
    names, calls, own, incl = layers.per_pass(tracer)
    metrics = layers.metrics(names, calls, own, incl, [counts], [wall])
    return outputs, metrics, checked


def _outputs(wl, result):
    if isinstance(wl, workloads.CliWorkload):
        return wl.outputs(result)
    return [(c, got.tolist(), None if carry is None else np.asarray(carry).tolist())
            for _, c, got, carry in result]


def test_every_wrapped_name_is_restored():
    before = _bitlet_bindings()
    tracer = Tracer()
    layers.install(tracer)
    cli = sys.modules["bitlet.cli"]
    analysis = sys.modules["bitlet.analysis"]
    assert cli.sweep is not before[("bitlet.analysis", "sweep")]
    assert cli.sweep is analysis.sweep          # wrapped where imported, too
    tracer.restore()
    after = _bitlet_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("name", ["sweep_grid", "simulate_tall", "cli_suite"])
def test_traced_outputs_are_identical_to_untraced(name, tmp_path):
    (tmp_path / "plain").mkdir()
    plain = _workload(name, tmp_path / "plain")
    result = plain.run_pass()
    untraced = _outputs(plain, result)
    traced, _, checked = _traced_pass(name, tmp_path / "traced")
    assert traced == untraced
    if name != "sweep_grid":   # the small sweeps have no golden digests
        assert checked.ok, checked.detail


def test_self_times_of_a_nested_span_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    own = self_times(parent, end - start)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == 10.0


def test_per_pass_tables_split_spans_by_root():
    tracer = Tracer()
    for _ in range(2):
        with tracer.span(layers.ROOT):
            with tracer.span("model.perf_pim"):
                with tracer.span("model.perf_pim"):
                    pass
            with tracer.span("cli.main"):
                pass
    names, calls, own, incl = layers.per_pass(tracer)
    assert calls.shape == (2, len(names))
    assert calls[:, names.index("model.perf_pim")].tolist() == [2, 2]
    assert calls[:, names.index("cli.main")].tolist() == [1, 1]
    root = names.index(layers.ROOT)
    assert np.allclose(own.sum(axis=1), incl[:, root])
    assert layers.trace_errors(calls, [{}, {}],
                               {"trace.accounted_share": 1.0}) == []


@pytest.mark.parametrize("name", ["sweep_grid", "simulate_tall", "cli_suite"])
def test_exact_counts_repeat_across_traced_runs(name, tmp_path):
    keys = ("simulator.sim_cycles", "simulator.run.row_ops",
            "machine.throughput_objs", "cli.bytes_out")
    _, first, _ = _traced_pass(name, tmp_path / "one")
    _, second, _ = _traced_pass(name, tmp_path / "two")
    assert {k: first[k] for k in keys} == {k: second[k] for k in keys}
    assert any(first[k] for k in keys)


def test_layer_self_times_and_glue_add_up_to_the_pass(tmp_path):
    _, metrics, _ = _traced_pass("cli_suite", tmp_path / "pass")
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    wall = metrics["trace.pass_s_min"]
    assert layer_sum + metrics["trace.glue_s"] == pytest.approx(
        metrics["trace.accounted_share"] * wall, rel=1e-9)
    assert 0.99 < metrics["trace.accounted_share"] <= 1.0
