"""The benchmark's own tracer checks, run in tier-1.

``bench/tests/tracer_checks.py`` wraps the bitlet names the benchmark reads
(``Nor``, ``VMove``, ``NorProgram.instructions`` and ``.validate``,
``Throughput``, ``cli.sweep``, ``analysis.Workload``) and runs small
versions of every workload. It is run in a subprocess, as the benchmark
runs it, so that removing or renaming one of those names fails here first.
``bench/`` is only read.

The tracer skips a function named in ``bench/layers.py`` that its module no
longer has, so that layer's series would read 0 with every check passing;
the ``catalog`` and ``validation`` names are checked here.
"""

import importlib.util
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


@pytest.fixture(scope="module")
def layers():
    # layers.py imports its siblings tracer and workloads by their own names
    siblings = [name for name in ("tracer", "workloads") if name not in sys.modules]
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(BENCH))
        for name in siblings:
            sys.modules.pop(name, None)


@pytest.mark.parametrize("layer", ["catalog", "validation"])
def test_every_spanned_name_is_a_function_of_its_module(layers, layer):
    module = importlib.import_module(f"bitlet.{layer}")
    for name in layers.SPANNED[layer]:
        assert isinstance(vars(module).get(name), types.FunctionType), f"{layer}.{name}"


def test_tracer_checks_pass():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "bench/tests/tracer_checks.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
