"""Benchmark of the bitlet tool: one workload per call, from the repo root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each is there):
    sweep_grid     three 1000-point ``bitlet sweep`` runs through cli.main
    simulate_tall  catalog and relocation programs on 65536-row arrays
    cli_suite      eval, crossover, power, reproduce fig1-3, validate

Every pass's outputs are checked: CLI outputs against SHA-256 digests in
bench/golden.json, simulator results against numpy integer arithmetic.
Each workload runs in child processes of its own (bench/worker.py), one at
a time. With ``--trace 0`` the last stdout line is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a separate traced run. Times are host wall times; simulated cycles
appear only as exact counts.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep_grid", "simulate_tall", "cli_suite")
WORK_UNITS = {"sweep_grid": "rows", "simulate_tall": "row-ops",
              "cli_suite": "commands"}
SETUP_RUNS = 7          # cold starts per run; setup_s is their median
DEADLINE_S = 170.0      # every child is killed past this point of the run


class ChildFailed(RuntimeError):
    pass


def _child(args, mode: str, seconds: float, deadline: float):
    """Run one worker; return (setup seconds, report or None, peak RSS MB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise ChildFailed(f"{mode} worker for {args.workload} exited "
                          f"with code {proc.returncode}")
    report = json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else None
    return setup_s, report, usage.ru_maxrss * 1024 / 1e6   # ru_maxrss is in KiB


def _p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _best_pass(report) -> float:
    """A pass made of each step's fastest run.

    Steps take from a few ms to a few tenths of a second. The host's speed
    changes within a second, so the fastest run of a short step is steady
    while whole passes and medians are not.
    """
    return sum(min(times) for times in report["step_s"].values())


def _end_to_end(args, deadline):
    # cold starts before and after the measuring child, so that they span the
    # run rather than a few seconds of it
    setup = lambda: _child(args, "setup", 0, deadline)[0]  # noqa: E731
    setups = [setup() for _ in range(SETUP_RUNS // 2)]
    setup_s, report, rss = _child(args, "measure", args.seconds, deadline)
    setups += [setup_s] + [setup() for _ in range(SETUP_RUNS - 1 - SETUP_RUNS // 2)]
    best = _best_pass(report)
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s_min": best,
        "work_per_s": report["work"] / len(report["pass_s"]) / best,
        "peak_rss_mb": rss,
    }
    return metrics, [report]


def _per_layer(args, deadline):
    half = args.seconds / 2
    _, plain, _ = _child(args, "measure", half, deadline)
    _, traced, _ = _child(args, "trace", half, deadline)
    metrics = traced["layers"]
    metrics["trace.overhead_s"] = min(traced["pass_s"]) - min(plain["pass_s"])
    return metrics, [plain, traced]


def _units(section: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (SRC / "bitlet" / "__init__.py", BENCH / "golden.json",
                           BENCH / "config.json") if not p.is_file()]
    if missing:
        print(f"error: missing {', '.join(map(str, missing))}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2

    # on SIGTERM, unwind through _child so that it kills its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + DEADLINE_S
    try:
        metrics, reports = (_per_layer if args.trace else _end_to_end)(args, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(r["pass_s"]) for r in reports)
    failed = sum(r["failed"] for r in reports)
    for r in reports:
        for detail in r["details"]:
            print(f"failed pass: {detail}")
    plain = reports[0]["pass_s"]   # untraced passes; p50 and p90 for reading only
    print(f"{args.workload} seed={args.seed} passes={attempted} failed={failed} "
          f"fail_ratio={failed / attempted:.4g} work_unit={WORK_UNITS[args.workload]} "
          f"untraced pass_s p50={statistics.median(plain):.4g} "
          f"p90={_p90(plain):.4g} n={len(plain)}")
    units = _units("per_layer" if args.trace else "end_to_end")
    for name, unit in units.items():
        print(f"  {name:<36} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
