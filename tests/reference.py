"""The references the tests hold the model kernel and the simulator to.

The scalar closed forms of the paper (``perf_pim`` ... ``energy_per_op_cpu``,
``crossover_oc`` and ``energy_breakeven_oc``) state each model quantity at
one point; ``reference_columns`` gathers them into every column that
``model.evaluate`` returns, which must equal them bit for bit.

``NorProgram`` is built from columns only; the ``Nor``/``HMove``/``VMove``
objects are its read-only view. Here they go the other way: ``from_objects``
builds a program from them through the columns constructor, and
``apply_instr`` and ``_problem`` state, one instruction at a time, the
semantics and the validity rules that ``run`` and ``validate`` apply to
whole runs of columns. The rules use Python ints, which never wrap.
``program_form`` is what two programs are compared by: their instructions
as objects and their declared interface.

The library makes an ``ArrayState`` only by ``ArrayState.zeros`` and reads
and writes it only through the simulator. ``state_of`` and ``bits_of``
move a rows x cols ``bool`` matrix in and out of its planes by
``np.packbits`` and ``np.unpackbits``, independently of ``pack_ints`` and
``unpack_ints``, and ``same_state`` compares two states plane by plane,
padding bits included.

``reference_block`` is the CLI's CSV block writer as it was before it
baked constant columns into the row pattern: one conversion per cell, in a
single %-format over the block.

``subset_of_row`` is the row partition the relocation program's outputs
own, one row at a time. ``relocation_agreement`` is the 64-row ``pac-agreement`` check of
``validation`` as it ran before it was batched: each layout's move program
alone on an array of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from bitlet.layout import LayoutSpec, pac_of
from bitlet.machine import CpuMachine, PimMachine, PowerBudget, Throughput, WorkloadPoint
from bitlet.model import TIE_REL_TOL
from bitlet.simulator import (OP_HMOVE, OP_NOR, OP_VMOVE, ArrayState, HMove, Instr, Nor,
                              NorProgram, VMove, pack_ints, run, unpack_ints)
from bitlet.validation import SEED, _subsets


def perf_pim(pim: PimMachine, w: WorkloadPoint) -> Throughput:
    """Raw memory-side throughput: ROW x MAT rows finish every (OC+PAC) cycles."""
    return Throughput(pim.rows * pim.mats / ((w.oc_cycles + w.pac_cycles) * pim.cycle_time_s))


def pl_perf_pim(pim: PimMachine, w: WorkloadPoint, power: PowerBudget) -> Throughput:
    """Power-limited memory-side throughput.

    The budget divided by the per-operation energy bounds how many
    operations can complete per second regardless of array count.
    """
    cap = power.tdp_watts / (pim.energy_per_cycle_j * (w.oc_cycles + w.pac_cycles))
    return Throughput(min(perf_pim(pim, w).ops_per_second, cap))


def perf_cpu(cpu: CpuMachine, w: WorkloadPoint) -> Throughput:
    """Raw CPU-side throughput: bandwidth divided by bits moved per op."""
    return Throughput(cpu.bandwidth_bps / w.dio_bits)


def pl_perf_cpu(cpu: CpuMachine, w: WorkloadPoint, power: PowerBudget) -> Throughput:
    """Power-limited CPU-side throughput (transfer energy pays the budget)."""
    cap = power.tdp_watts / (cpu.energy_per_bit_j * w.dio_bits)
    return Throughput(min(perf_cpu(cpu, w).ops_per_second, cap))


def energy_per_op_pim(pim: PimMachine, w: WorkloadPoint) -> float:
    """Memory-side energy per operation, in picojoules."""
    return pim.energy_per_cycle_pj * (w.oc_cycles + w.pac_cycles)


def energy_per_op_cpu(cpu: CpuMachine, w: WorkloadPoint) -> float:
    """CPU-side energy per operation (transfer energy only), in picojoules."""
    return cpu.energy_per_bit_pj * w.dio_bits


def crossover_oc(pim: PimMachine, cpu: CpuMachine, dio_bits: int,
                 pac_cycles: int = 0) -> float:
    """Operation complexity at which both sides' raw throughput is equal.

    Below the returned value the memory side is faster, above it the CPU
    is. May be <= 0, meaning the memory side never wins at this setting.
    """
    budget = pim.rows * pim.mats * dio_bits / (cpu.bandwidth_bps * pim.cycle_time_s)
    return budget - pac_cycles


def energy_breakeven_oc(pim: PimMachine, cpu: CpuMachine, dio_bits: int,
                        pac_cycles: int = 0) -> float:
    """Operation complexity at which both sides spend equal energy per op."""
    return cpu.energy_per_bit_pj * dio_bits / pim.energy_per_cycle_pj - pac_cycles


def reference_columns(pim, cpu, power, coord) -> dict:
    """Every kernel column at one point, from the scalar closed forms.

    `coord` is (OC, PAC, DIO, MAT, BW, TDP); MAT and BW replace the
    machines' own values, and a TDP other than None replaces the budget.
    """
    oc, pac, dio, mats, bw, tdp = coord
    pim, cpu, w = replace(pim, mats=mats), replace(cpu, bandwidth_bps=bw), \
        WorkloadPoint(oc, pac, dio)
    power = PowerBudget(tdp) if tdp is not None else power
    raw = (perf_pim(pim, w), perf_cpu(cpu, w))
    capped = (pl_perf_pim(pim, w, power), pl_perf_cpu(cpu, w, power)) if power else raw
    pim_ops, cpu_ops = (t.ops_per_second for t in capped)
    if abs(pim_ops - cpu_ops) <= TIE_REL_TOL * max(pim_ops, cpu_ops):
        winner, speedup = "TIE", 1.0
    else:
        winner, speedup = ("PIM" if pim_ops > cpu_ops else "CPU"), pim_ops / cpu_ops
    e_pim, e_cpu = energy_per_op_pim(pim, w), energy_per_op_cpu(cpu, w)
    return {"pim_gops": raw[0].gops, "cpu_gops": raw[1].gops,
            "pl_pim_gops": capped[0].gops, "pl_cpu_gops": capped[1].gops,
            "pim_pj_per_op": e_pim, "cpu_pj_per_op": e_cpu,
            "crossover_oc": crossover_oc(pim, cpu, dio, pac),
            "energy_breakeven_oc": energy_breakeven_oc(pim, cpu, dio, pac),
            "winner": winner, "speedup": speedup, "energy_ratio": e_cpu / e_pim}


@dataclass(frozen=True)
class BadOp:
    """An instruction whose op code is none of NOR, HMOVE and VMOVE."""

    op: int


def from_objects(*instrs: Instr | BadOp, inputs=(), outputs=(),
                 max_fanin: int = 2) -> NorProgram:
    """A program of these instructions, built from their columns."""
    cols = []
    for ins in instrs:
        if isinstance(ins, Nor):
            cols.append((OP_NOR, ins.dest, ins.srcs, len(ins.srcs), 0, 0, 0, 0, False))
        elif isinstance(ins, HMove):
            cols.append((OP_HMOVE, ins.dest, (ins.src,), 1, 0, 0, 0, 0, False))
        elif isinstance(ins, VMove):
            cols.append((OP_VMOVE, -1, (), 0, ins.offset, ins.col_lo, ins.col_hi,
                         ins.row, ins.crosses_array))
        else:
            cols.append((ins.op, 1, (0,), 1, 0, 0, 0, 0, False))
    op, dest, srcs, fanin, *moves = zip(*cols) if cols else [()] * 9
    w = max(fanin, default=1) or 1
    srcs = np.array([s + (-1,) * (w - len(s)) for s in srcs], dtype=np.int64)
    return NorProgram(op, dest, srcs.reshape(len(cols), w), fanin, *moves,
                      inputs=inputs, outputs=outputs, max_fanin=max_fanin)


COLUMNS = ("op", "dest", "srcs", "fanin", "offset", "col_lo", "col_hi", "row", "crosses")


def rebuilt(program, stop=None, **changes) -> NorProgram:
    """`program` cut at instruction `stop`, with the columns and the
    constructor keywords (``inputs``, ``outputs``, ``max_fanin``) given
    in `changes` replaced."""
    cols = [changes.pop(c, getattr(program, c))[:stop] for c in COLUMNS]
    keywords = {"inputs": program.inputs, "outputs": program.outputs,
                "max_fanin": program.max_fanin, **changes}
    return NorProgram(*cols, **keywords)


def sources_are_padded(program) -> bool:
    """Whether each row of ``srcs`` holds its fan-in's columns, then only
    the -1 padding that the ``NorProgram`` constructor documents (and does
    not check)."""
    past = np.arange(program.srcs.shape[1]) >= program.fanin[:, None]
    return np.array_equal(program.srcs >= 0, ~past) and bool((program.srcs[past] == -1).all())


def program_form(program) -> tuple:
    """A program as its instructions and its declared interface, so that
    two programs are equal exactly when these are."""
    return (tuple(program.instructions), program.inputs, program.outputs,
            program.max_fanin)


def state_of(bits) -> ArrayState:
    """A state holding the rows x cols bool matrix `bits`."""
    bits = np.asarray(bits, dtype=bool)
    state = ArrayState.zeros(*bits.shape)
    packed = np.packbits(bits.T, axis=1, bitorder="little")
    # the words are little-endian: byte j of a plane holds rows 8j..8j+7
    state._planes.view(np.uint8)[:, :packed.shape[1]] = packed
    return state


def bits_of(state: ArrayState) -> np.ndarray:
    """The rows x cols bool matrix a state holds, as a new array."""
    return np.unpackbits(state._planes.view(np.uint8), axis=1, count=state.rows,
                         bitorder="little").view(bool).T


def same_state(a: ArrayState, b: ArrayState) -> bool:
    """Whether two states have the same rows and every plane word equal;
    the padding bits past the last row are zero outside ``run``."""
    return a.rows == b.rows and np.array_equal(a._planes, b._planes)


def apply_instr(bits: np.ndarray, ins: Instr) -> None:
    """Reference semantics: apply one validated instruction to a bool matrix."""
    if isinstance(ins, Nor):
        bits[:, ins.dest] = ~bits[:, list(ins.srcs)].any(axis=1)
    elif isinstance(ins, HMove):
        bits[:, ins.dest] = bits[:, ins.src]
    else:
        rows = bits.shape[0]
        src, dst = ins.row, ins.row + ins.offset
        if 0 <= src < rows and 0 <= dst < rows:
            bits[dst, ins.col_lo:ins.col_hi + 1] = bits[src, ins.col_lo:ins.col_hi + 1]
        # cross-array endpoint: cycle is paid, no local cells change


def reference_run(program, bits):
    """Run a program instruction by instruction on a bool copy."""
    bits = bits.copy()
    for ins in program.instructions:
        apply_instr(bits, ins)
    return bits, len(program)


def _problem(ins: Instr, rows: int, cols: int, max_fanin: int) -> str | None:
    """Why one instruction is illegal for rows x cols, or None if it is legal."""
    if isinstance(ins, Nor):
        if not 1 <= len(ins.srcs) <= max_fanin:
            return f"fan-in {len(ins.srcs)} exceeds limit {max_fanin}"
        if ins.dest in ins.srcs:
            return "destination is also a source"
        for c in (ins.dest, *ins.srcs):
            if not 0 <= c < cols:
                return f"column {c} out of range"
    elif isinstance(ins, HMove):
        if ins.dest == ins.src:
            return "destination equals source"
        for c in (ins.dest, ins.src):
            if not 0 <= c < cols:
                return f"column {c} out of range"
    elif isinstance(ins, VMove):
        if ins.offset == 0:
            return "zero row offset"
        if not 0 <= ins.col_lo <= ins.col_hi < cols:
            return "bad column range"
        src_in = 0 <= ins.row < rows
        dst_in = 0 <= ins.row + ins.offset < rows
        if not (src_in or dst_in):
            return "neither endpoint is inside the array"
        if ins.crosses_array == (src_in and dst_in):
            return (f"crosses_array flag does not match endpoints "
                    f"(src in={src_in}, dest in={dst_in})")
    else:
        return "unknown instruction type"
    return None


def reference_error(instrs, rows: int, cols: int, max_fanin: int) -> str | None:
    """The text of the error that building and validating a program raises.

    The constructor refuses the first unknown op code, wherever it stands;
    otherwise it is the first instruction-by-instruction validation failure.
    """
    instrs = tuple(instrs)      # walked twice; a program's walk only once
    for i, ins in enumerate(instrs):
        if isinstance(ins, BadOp):
            return f"instruction {i}: op code {ins.op} is not NOR, HMOVE or VMOVE"
    for i, ins in enumerate(instrs):
        problem = _problem(ins, rows, cols, max_fanin)
        if problem is not None:
            return f"instruction {i}: {ins!r}: {problem}"
    return None


def reference_block(pattern: str, rows) -> str:
    """CSV lines for a 2-D array or a list of tuples; `pattern` formats one row."""
    cells = (rows.ravel().tolist() if isinstance(rows, np.ndarray)
             else [v for row in rows for v in row])
    return ((pattern + "\n") * len(rows)) % tuple(cells)


def subset_of_row(row: int, rows: int, k: int) -> int:
    """Contiguous-block row partition: which of k subsets owns this row."""
    return min(row * k // rows, k - 1) if k > 0 else 0


def relocation_agreement(relocation_program) -> tuple[bool, str]:
    """(passed, detail) of ``validation``'s ``pac-agreement[64-row array]``
    check, one layout at a time, each move program run alone on its own
    array, with the given generator."""
    rng = np.random.default_rng(SEED + 1)
    small = PimMachine(rows=64, cols=512)
    bad = None
    cases = 0
    for k in range(0, 5):
        for n in (1, 2, 3, 4, 8, 16, 32):
            for vertical in (False, True):
                layout = LayoutSpec(element_width_bits=n, misaligned_subsets=k,
                                    needs_vertical_relocation=vertical)
                err = _relocation_matches(relocation_program, layout, small, rng)
                cases += 1
                if err and bad is None:
                    bad = err
    return bad is None, bad or f"{cases} layouts: counts exact, cells verified"


def _relocation_matches(relocation_program, layout, pim, rng) -> str | None:
    """Run the move program and verify cells; returns an error or None."""
    n, k = layout.element_width_bits, layout.misaligned_subsets
    vertical = layout.needs_vertical_relocation
    prog = relocation_program(layout, pim)
    cycles, pac = len(prog), pac_of(layout, pim)
    if cycles != pac:
        return f"cycles {cycles} != pac {pac} (k={k}, n={n}, vertical={vertical})"
    state = ArrayState.zeros(pim.rows, max(pim.cols, prog.cols_required))
    # each subset's elements go into its source region; with no subsets to
    # align, the elements already sit in the one output region. The source
    # regions are consecutive n-column blocks, and so are the outputs, so
    # each kind is packed or unpacked in one call.
    placed = prog.inputs or prog.outputs
    sources = rng.integers(0, 1 << min(n, 48), (len(placed), pim.rows), dtype=np.int64)
    pack_ints(state, placed[0].start, n, sources)
    final, _ = run(prog, state)

    # after alignment each row holds its own subset's element in that
    # subset's output region; a vertical pass then pulls row r+1's element
    # into row r, and the last row's comes from the neighbour array (not
    # checked)
    rows = np.arange(pim.rows - 1 if vertical else pim.rows)
    src = rows + 1 if vertical else rows
    subset = _subsets(src, pim.rows, len(prog.outputs))
    got = unpack_ints(final, prog.outputs[0].start, n, len(prog.outputs))[subset, rows]
    want = sources[subset, src]
    bad = np.flatnonzero(got != want)
    if len(bad):
        i = bad[0]
        return (f"row {rows[i]} region {prog.outputs[subset[i]].start}: got {got[i]}, "
                f"want {want[i]} (k={k}, n={n}, vertical={vertical})")
    return None
