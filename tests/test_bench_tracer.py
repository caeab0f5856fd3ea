"""The benchmark's own tracer checks, run in tier-1.

``bench/tests/tracer_checks.py`` wraps the bitlet names the benchmark reads
(``Nor``, ``VMove``, ``NorProgram.instructions`` and ``.validate``,
``Throughput``, ``cli.sweep``, ``analysis.Workload``) and runs small
versions of every workload. It is run in a subprocess, as the benchmark
runs it, so that removing or renaming one of those names fails here first.
``bench/`` is only read.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_checks_pass():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "bench/tests/tracer_checks.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
