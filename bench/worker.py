"""One workload in one child process: set up, then time passes.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is ``setup`` (set up, report ready, exit), ``measure`` (timed passes,
tracing off) or ``trace`` (timed passes under the span tracer). The worker
prints ``ready`` on stdout once set up, and after its passes one JSON line
with the pass and step times, checks and, in trace mode, the per-layer
metrics. The CLI's own output never reaches stdout: the workloads capture
it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import sys
import tempfile
import time
import traceback
from pathlib import Path

import layers
import workloads
from tracer import Tracer

OUT_DIR = workloads.OUT_DIR


CPUS = sorted(os.sched_getaffinity(0))


def _pin_to_quietest_cpu() -> None:
    """Pin this process to the allowed CPU on which a 1 ms probe runs fastest.

    Other tenants of a shared host slow each CPU for spells of a fraction
    of a second to many seconds, each CPU on its own; a pass started on the
    CPU that is quiet now is more likely to run in a quiet spell.
    """
    probe_s = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        t0 = time.perf_counter()
        sum(i * i for i in range(10000))
        probe_s[cpu] = time.perf_counter() - t0
    os.sched_setaffinity(0, {min(probe_s, key=probe_s.get)})


def _passes(wl, seconds: float, tracer: Tracer | None):
    """Run passes for ``seconds``: at least one, and none that would overrun."""
    times, failed, work, counts, details = [], 0, 0, [], []
    step_s: dict[str, list[float]] = {}   # step label -> its time in each pass
    start = time.perf_counter()
    while not times or time.perf_counter() - start + times[-1] <= seconds:
        _pin_to_quietest_cpu()
        timed = contextlib.nullcontext() if tracer is None else tracer.span(layers.ROOT)
        t0, t1, steps = time.perf_counter(), None, {}
        try:
            with timed:
                result = wl.run_pass(steps)
            t1 = time.perf_counter()
            checked = wl.check(result)
        except Exception:   # a failing pass is counted, and the run goes on
            t1 = t1 or time.perf_counter()
            traceback.print_exc(file=sys.stderr)
            checked = workloads.Checked(False, 0, 0, "exception")
        result = None       # so that a pass's peak memory holds one pass only
        times.append(t1 - t0)
        for label, step in steps.items():
            step_s.setdefault(label, []).append(step)
        failed += not checked.ok
        work += checked.work
        if not checked.ok:
            details.append(checked.detail)
        if tracer is not None:
            counts.append({**tracer.take_counts(), "cli.bytes_out": checked.bytes_out})
    return times, step_s, failed, work, counts, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        wl = workloads.make(args.workload, args.seed, tmp)
        print("ready", flush=True)
        if args.mode == "setup":
            return 0
        tracer = None
        if args.mode == "trace":
            tracer = Tracer()
            layers.install(tracer)
        try:
            times, step_s, failed, work, counts, details = _passes(
                wl, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        report = {"pass_s": times, "step_s": step_s, "work": work}
        if tracer is not None:
            names, calls, own, incl = layers.per_pass(tracer)
            report["layers"] = layers.metrics(names, calls, own, incl, counts, times)
            errors = layers.trace_errors(calls, counts, report["layers"])
            if errors:   # the per-layer figures of every pass are suspect
                failed, details = len(times), errors + details
            tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
        report.update(failed=failed, details=details[:3])
        print(json.dumps(report), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
