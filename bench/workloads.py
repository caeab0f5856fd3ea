"""The benchmark's three workloads.

``make(name, seed, tmp)`` builds a workload: every input comes from the
seed, and the program only ever sees those inputs. ``run_pass()`` is the
timed unit of work. ``check(result)`` runs outside the timed region: it
verifies one pass's outputs and returns a ``Checked`` with the pass's work
in the workload's own unit.

The program is driven only through its public entry points:
``cli.main(argv)``, ``catalog.microprogram_of``, ``simulator.run``,
``layout.relocation_program`` and ``simulator.pack_ints``/``unpack_ints``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bitlet import catalog, cli, config, layout, simulator
from bitlet.catalog import OpKind, OpSpec
from bitlet.machine import PimMachine

BENCH_DIR = Path(__file__).resolve().parent
CONFIG = BENCH_DIR / "config.json"
GOLDEN = BENCH_DIR / "golden.json"
OUT_DIR = BENCH_DIR.parent / ".bench_out"   # scratch space inside the checkout

# Three params through the three branches of the sweep's per-point rebuild:
# MAT rebuilds the machine, OC the workload point, TDP the power budget.
# 1000 points keep each command near 60 ms, short enough for its fastest run
# to fall in a quiet moment of a shared host.
SWEEPS = (("MAT", "1:1e6:1000:log"),
          ("OC", "1:1e5:1000:log"),
          ("TDP", "0.1:1000:1000:log"))

_CFG = ["--config", str(CONFIG)]
SUITE = (("eval", ["eval", *_CFG], "eval.csv"),
         ("crossover", ["crossover", *_CFG], "crossover.csv"),
         ("power", ["power", *_CFG], "power.csv"),
         ("fig1", ["reproduce", "fig1"], "fig1.csv"),
         ("fig2", ["reproduce", "fig2"], "fig2.csv"),
         ("fig3", ["reproduce", "fig3"], "fig3.csv"),
         ("validate", ["validate", "--scope", "all"], None))

TALL_ROWS = 65536
# MPY at n=8 (656 cycles, about 0.4 s) rather than n=16 (2592 cycles, about
# 2.4 s): a step that long never runs wholly in a quiet spell of a shared
# host, so its fastest run is not steady.
TALL_OPS = ((OpKind.ADD, 32), (OpKind.ADD_FANIN4, 32),
            (OpKind.XOR, 32), (OpKind.MPY, 8))
# The shifted-operand layout: one misaligned subset plus a vertical move.
SHIFTED = layout.LayoutSpec(element_width_bits=16, misaligned_subsets=1,
                            needs_vertical_relocation=True)


@dataclass
class Checked:
    ok: bool
    work: int            # output rows, row-ops or commands, per workload
    bytes_out: int = 0   # bytes the CLI wrote to stdout and to files
    detail: str = ""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def row_ops(program, rows: int) -> int:
    """Rows acted on by a program.

    A NOR or HMove acts on every row of the array; a VMove moves the cells
    of one row, so it counts once.
    """
    vmoves = sum(type(ins) is simulator.VMove for ins in program.instructions)
    return rows * (len(program) - vmoves) + vmoves


class CliWorkload:
    """Commands run through ``cli.main``; the seed orders them in each pass.

    The config and the command lines are fixed so that every output can be
    compared with a digest captured when the benchmark was defined; the
    seed decides only the order of the commands in each pass.
    """

    name = ""

    def __init__(self, seed: int, tmp: Path, commands):
        self.rng = random.Random(seed)
        self.commands = commands          # (label, argv, output file or None)
        self.golden = json.loads(GOLDEN.read_text())[self.name]
        config.load_config(str(CONFIG))   # fail in set-up on a bad config

    def run_pass(self, steps: dict | None = None) -> dict[str, tuple[int, str]]:
        results = {}
        for label, argv, _ in self.rng.sample(self.commands, len(self.commands)):
            out = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            if steps is not None:
                steps[label] = time.perf_counter() - t0
            results[label] = (code, out.getvalue())
        return results

    def outputs(self, results) -> dict[str, bytes]:
        """Every stdout and output file of one pass, by name."""
        docs = {}
        for label, _, path in self.commands:
            docs[f"{label}.stdout"] = results[label][1].encode()
            if path is not None:
                docs[path.name] = path.read_bytes()
        return docs

    def check(self, results) -> Checked:
        bad = [label for label, (code, _) in results.items() if code != 0]
        docs = self.outputs(results)
        for _, _, path in self.commands:   # the next pass must write them anew
            if path is not None:
                path.unlink()
        bad += [k for k in sorted(set(docs) | set(self.golden))
                if k not in docs or self.golden.get(k) != sha256(docs[k])]
        return Checked(not bad, self.work(docs),
                       sum(len(d) for d in docs.values()),
                       f"mismatch: {', '.join(bad)}" if bad else "")


class SweepGrid(CliWorkload):
    """Three 1000-point sweeps of the three-workload config, to CSV files."""

    name = "sweep_grid"

    def __init__(self, seed: int, tmp: Path, sweeps=SWEEPS):
        """``sweeps`` other than SWEEPS (used by the tests) have no digests."""
        commands = []
        for param, grid in sweeps:
            out = Path(tmp) / f"sweep_{param}.csv"
            commands.append((f"sweep_{param}",
                             ["sweep", "--config", str(CONFIG), "--param", param,
                              "--grid", grid, "--out", str(out)], out))
        super().__init__(seed, tmp, commands)

    def work(self, docs) -> int:
        """CSV data rows written (comment and header lines excluded)."""
        return sum(sum(not line.startswith(b"#") for line in doc.splitlines()) - 1
                   for name, doc in docs.items() if name.endswith(".csv"))


class CliSuite(CliWorkload):
    """Every other subcommand once per pass, on the same config."""

    name = "cli_suite"

    def __init__(self, seed: int, tmp: Path):
        commands = []
        for label, argv, name in SUITE:
            out = Path(tmp) / name if name else None
            commands.append((label, argv + ["--out", str(out)] if out else argv, out))
        super().__init__(seed, tmp, commands)

    def work(self, docs) -> int:
        """Commands run."""
        return len(self.commands)


def _operand(rng, n: int, rows: int) -> np.ndarray:
    return rng.integers(0, 1 << n, rows, dtype=np.int64)


class SimulateTall:
    """Catalog programs and one relocation program on 65536-row arrays.

    Results are checked against integer arithmetic done here with numpy,
    and the relocation against direct bookkeeping of where each row's
    element must land.
    """

    name = "simulate_tall"

    def __init__(self, seed: int, tmp: Path | None = None, rows: int = TALL_ROWS):
        rng = np.random.default_rng(seed)
        self.rows = rows
        self.ops = []
        for kind, n in TALL_OPS:
            a, b = _operand(rng, n, rows), _operand(rng, n, rows)
            carry_in = None                 # (input range, values to pack)
            if kind is OpKind.MPY:
                want, want_carry = a * b, None
            elif kind is OpKind.XOR:
                want, want_carry = a ^ b, None
            else:
                cin = _operand(rng, 1, rows)
                total = a + b + cin
                want, want_carry = total & ((1 << n) - 1), total >> n
                # the fan-in-4 adder's carry-in is active low
                carry_in = ("carry", cin) if kind is OpKind.ADD else ("ncin", 1 - cin)
            self.ops.append((kind, n, a, b, carry_in, want, want_carry))
        n = SHIFTED.element_width_bits
        self.pim = PimMachine(rows=rows, cols=2 * n)
        self.source = _operand(rng, n, rows)
        # Alignment copies each element into the target region; the vertical
        # pass then pulls row r+1's element into row r. The last row's
        # partner lies in the neighbouring array, which is not simulated.
        self.moved = np.append(self.source[1:], self.source[-1])

    def run_pass(self, steps: dict | None = None):
        rows, results = self.rows, []
        for kind, n, a, b, carry_in, _, _ in self.ops:
            t0 = time.perf_counter()
            prog = catalog.microprogram_of(OpSpec(kind, n))
            state = simulator.ArrayState.zeros(rows, prog.cols_required)
            simulator.pack_ints(state, prog.range("a").start, n, a)
            simulator.pack_ints(state, prog.range("b").start, n, b)
            if carry_in is not None:
                simulator.pack_ints(state, prog.range(carry_in[0]).start, 1, carry_in[1])
            final, cycles = simulator.run(prog, state)
            out = prog.range("out")
            got = simulator.unpack_ints(final, out.start, out.width)
            carry = None
            if kind is OpKind.ADD:
                carry = simulator.unpack_ints(final, prog.range("carry").start, 1)
            elif kind is OpKind.ADD_FANIN4:
                rail = prog.range("ncout")   # carry = NOR of the two rail cells
                carry = simulator.unpack_ints(final, rail.start, rail.width) == 0
            results.append((prog, cycles, got, carry))
            if steps is not None:
                steps[f"{kind.name}_{n}"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        prog = layout.relocation_program(SHIFTED, self.pim)
        n = SHIFTED.element_width_bits
        state = simulator.ArrayState.zeros(rows, self.pim.cols)
        simulator.pack_ints(state, 0, n, self.source)
        final, cycles = simulator.run(prog, state)
        results.append((prog, cycles, simulator.unpack_ints(final, 0, n),
                        simulator.unpack_ints(final, n, n)))
        if steps is not None:
            steps["relocation"] = time.perf_counter() - t0
        return results

    def expected_cycles(self) -> list[int]:
        """Cycle counts the programs must report, from their constructions."""
        per_bit = {OpKind.ADD: 9, OpKind.ADD_FANIN4: 7, OpKind.XOR: 5}
        cycles = [10 * n * n + 2 * n if kind is OpKind.MPY else per_bit[kind] * n
                  for kind, n in TALL_OPS]
        return cycles + [SHIFTED.element_width_bits + self.rows]

    def check(self, results) -> Checked:
        bad = []
        for (kind, n, *_, want, want_carry), (_, _, got, carry) in zip(self.ops, results):
            if not np.array_equal(got, want):
                bad.append(f"{kind.name} n={n} result")
            if want_carry is not None and not np.array_equal(carry.astype(np.int64),
                                                             want_carry):
                bad.append(f"{kind.name} n={n} carry")
        _, _, source, target = results[-1]
        if not np.array_equal(source, self.source):
            bad.append("relocation source region")
        if not np.array_equal(target, self.moved):
            bad.append("relocation target region")
        cycles = [c for _, c, _, _ in results]
        if cycles != self.expected_cycles():
            bad.append(f"cycles {cycles} != {self.expected_cycles()}")
        work = sum(row_ops(prog, self.rows) for prog, *_ in results)
        return Checked(not bad, work, 0, f"mismatch: {', '.join(bad)}" if bad else "")


WORKLOADS = {"sweep_grid": SweepGrid, "simulate_tall": SimulateTall,
             "cli_suite": CliSuite}


def make(name: str, seed: int, tmp: Path):
    return WORKLOADS[name](seed, tmp)
