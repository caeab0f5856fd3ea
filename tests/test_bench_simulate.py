"""The benchmark's ``simulate_tall`` pass and its own check, run in tier-1.

``bench/workloads.py`` is only imported and read, as ``test_cli.py`` reads
``bench/golden.json``, so that a change which would fail the benchmark's
correctness gate fails here first.
"""

import importlib.util
import sys
import tracemalloc
from pathlib import Path

import pytest

from bitlet import layout
from bitlet.machine import PimMachine

PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("seed", [11, 2024])
@pytest.mark.parametrize("rows", [64, 65, 130, 65536])
def test_simulate_tall_pass_passes_its_check(workloads, rows, seed):
    tall = workloads.SimulateTall(seed, rows=rows)
    results = tall.run_pass()
    checked = tall.check(results)
    assert checked.ok, checked.detail
    assert [cycles for _, cycles, *_ in results] == tall.expected_cycles()
    if rows == 65536:
        assert checked.work == 88145920


def _peak_mb(walk):
    """What `walk()` returns, and the peak of what it allocated, in MB."""
    tracemalloc.start()
    try:
        return walk(), tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_walking_the_tall_relocation_holds_one_chunk(workloads):
    # the benchmark's check counts the 65536-row relocation's VMoves through
    # NorProgram.instructions: a tuple of all 65552 objects takes about 10 MB
    n = workloads.SHIFTED.element_width_bits
    pim = PimMachine(rows=workloads.TALL_ROWS, cols=2 * n)
    program = layout.relocation_program(workloads.SHIFTED, pim)
    walked, peak = _peak_mb(lambda: sum(1 for _ in program.instructions))
    assert walked == len(program) == n + pim.rows and peak < 1
    row_ops, peak = _peak_mb(lambda: workloads.row_ops(program, pim.rows))
    assert row_ops == pim.rows * n + pim.rows and peak < 1     # n HMoves, 65536 VMoves
