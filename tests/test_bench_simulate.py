"""The benchmark's ``simulate_tall`` pass and its own check, run in tier-1.

``bench/workloads.py`` is only imported and read, as ``test_cli.py`` reads
``bench/golden.json``, so that a change which would fail the benchmark's
correctness gate fails here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

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
