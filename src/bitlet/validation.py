"""Self-checks tying the cycle catalog to executable ground truth.

Every operation of ``catalog.OPS`` that has a generated microprogram is
checked two ways: the program's instruction count must equal the record's
count exactly, and running it through ``catalog.execute`` must reproduce
the record's integer/bitwise reference on every row (exhaustively for
narrow widths, on a fixed random sample for wide ones). Placement/alignment
move programs are checked the same way against the closed-form cycle
formula and against direct array bookkeeping.

The 70 move programs of the 64-row agreement check run as one program
(``simulator.compose``), each in its own slot of columns. That is the same
check as running each on an array of its own: the slots are disjoint, no
program names a column at or past its own ``cols_required``, which its
slot holds, and rows are shared but a VMove moves only its own column
range. A program whose count is wrong is left out of the run, as it was
never run alone, and the first failing layout is reported in the
(k, n, vertical) order and text of the one-at-a-time form, which
``tests/reference.py`` keeps.

A kind whose count is cited (``catalog.Op.cited``; today MPY) has a
generated program that validates function only: the program's own
instruction count and the cited count are reported side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .catalog import OPS, OpKind, OpSpec, execute, microprogram_of, oc_of, operands_of
from .layout import LayoutSpec, pac_of, relocation_program
from .machine import PimMachine
from .simulator import ArrayState, NorProgram, compose, pack_ints, run, unpack_ints

EXHAUSTIVE_MAX_WIDTH = 4
RANDOM_WIDTHS = (8, 16, 32)
COUNT_MAX_WIDTH = 32       # gate counts are checked for every n = 1..COUNT_MAX_WIDTH
RANDOM_ROWS = 1000
SEED = 20240917


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


def _operand_sets(program: NorProgram, n: int, exhaustive: bool, rng: np.random.Generator):
    """Operands (a row per operand) and carry-ins, or None for programs
    without a carry-in."""
    count, with_carry = operands_of(program)
    if not exhaustive:
        operands = rng.integers(0, 1 << n, (count, RANDOM_ROWS), dtype=np.int64)
        cin = rng.integers(0, 2, RANDOM_ROWS, dtype=np.int64) if with_carry else None
        return operands, cin
    # every combination of the operands' values: a in the low n bits of a
    # counter, b in the next n
    combos = np.arange(1 << (count * n), dtype=np.int64)
    operands = np.array([combos & ((1 << n) - 1), combos >> n][:count])
    if not with_carry:
        return operands, None
    return np.tile(operands, 2), np.repeat(np.array([0, 1], dtype=np.int64), len(combos))


def _check_function(kind: OpKind, programs: dict, rng, detail: str = "") -> Check:
    """Run the programs of `kind`, keyed by width, on reference operands;
    a pass reports `detail`, by default how the operands were chosen."""
    name = f"function[{kind.name}]"
    for n, prog in programs.items():
        operands, cin = _operand_sets(prog, n, n <= EXHAUSTIVE_MAX_WIDTH, rng)
        got, got_carry, _ = execute(prog, operands, cin)
        want, want_carry = OPS[kind].reference(operands, cin, n)
        if not np.array_equal(got, want):
            bad = int(np.flatnonzero(got != want)[0])
            return Check(name, False, f"n={n} row {bad}: got {int(got[bad])}, "
                                      f"want {int(want[bad])}")
        if want_carry is not None and not np.array_equal(got_carry, want_carry):
            return Check(name, False, f"n={n}: carry-out mismatch")
    return Check(name, True, detail or f"exhaustive n<={EXHAUSTIVE_MAX_WIDTH}, "
                                       f"{RANDOM_ROWS} random rows for wider")


def catalog_checks() -> list[Check]:
    """Gate-count and functional checks for every generated operation.

    Each (kind, n) program is generated once per call and serves both its
    count check and its function check. A kind whose count is cited gets a
    function check only, at n = EXHAUSTIVE_MAX_WIDTH.
    """
    rng = np.random.default_rng(SEED)
    checks: list[Check] = []
    programs = {}
    counted = [kind for kind, op in OPS.items() if op.generator and not op.cited]

    for kind in counted:
        bad = []
        for n in range(1, COUNT_MAX_WIDTH + 1):
            spec = OpSpec(kind, n)
            programs[kind, n] = prog = microprogram_of(spec)
            got, want = len(prog), oc_of(spec)
            if got != want:
                bad.append(f"n={n}: program {got} vs catalog {want}")
        checks.append(Check(f"count[{kind.name}]", not bad,
                            bad[0] if bad else f"exact for n=1..{COUNT_MAX_WIDTH}"))

    widths = (*range(1, EXHAUSTIVE_MAX_WIDTH + 1), *RANDOM_WIDTHS)   # all <= COUNT_MAX_WIDTH
    for kind in counted:
        checks.append(_check_function(kind, {n: programs[kind, n] for n in widths}, rng))

    for kind in [kind for kind, op in OPS.items() if op.generator and op.cited]:
        spec = OpSpec(kind, EXHAUSTIVE_MAX_WIDTH)
        prog = microprogram_of(spec)
        detail = (f"exhaustive n={spec.width_bits}; generated program {len(prog)} cycles, "
                  f"catalog {oc_of(spec)} (informational)")
        checks.append(_check_function(kind, {spec.width_bits: prog}, rng, detail))
    return checks


PAC_WIDTHS = (1, 2, 3, 4, 8, 16, 32)
# (misaligned subsets k, element width n, vertical) of each layout checked
PAC_LAYOUTS = tuple(product(range(5), PAC_WIDTHS, (False, True)))


def _subsets(row: np.ndarray, rows: int, blocks) -> np.ndarray:
    """The subset ``min(r * k // rows, k - 1)`` of the contiguous-block row
    partition into k = `blocks` subsets that owns each entry r of `row`.

    The formula is restated here rather than read from the relocation
    program's own row blocks, so the check stays independent of the
    generator. `blocks` may be an array that broadcasts against `row`.
    """
    return np.minimum(row * blocks // rows, blocks - 1)


class _Part(NamedTuple):
    """A layout of the agreement check whose program has the right count,
    placed in its width's n-column blocks."""

    index: int              # the layout's place in (k, n, vertical) order
    layout: LayoutSpec
    program: NorProgram
    block: int              # its slot's first block
    placed: int             # the block of its first source region
    target: int             # the block of its first output region


def _where(layout: LayoutSpec) -> str:
    return (f"(k={layout.misaligned_subsets}, n={layout.element_width_bits}, "
            f"vertical={layout.needs_vertical_relocation})")


def _relocation_agreement(pim: PimMachine, rng) -> str | None:
    """Check the move program of every layout of ``PAC_LAYOUTS`` against
    ``pac_of`` and against its cells, in one composed run (see the module
    docstring); return the text of the first that fails, or None.

    Each program gets a slot of whole n-column blocks that holds its
    cols_required. The slots are grouped by n, so each width's blocks are
    consecutive and are packed (sources, and zeros in the targets) and
    unpacked in one call each.
    """
    errors: dict[int, str] = {}
    parts: dict[int, list[_Part]] = {n: [] for n in PAC_WIDTHS}
    slots: dict[int, list[np.ndarray]] = {n: [] for n in PAC_WIDTHS}
    for index, (k, n, vertical) in enumerate(PAC_LAYOUTS):
        layout = LayoutSpec(element_width_bits=n, misaligned_subsets=k,
                            needs_vertical_relocation=vertical)
        prog = relocation_program(layout, pim)
        cycles, pac = len(prog), pac_of(layout, pim)
        if cycles != pac:
            errors[index] = f"cycles {cycles} != pac {pac} {_where(layout)}"
            continue
        # each subset's elements go into its source region; with no subsets
        # to align, the elements already sit in the one output region
        placed = prog.inputs or prog.outputs
        sources = rng.integers(0, 1 << min(n, 48), (len(placed), pim.rows), dtype=np.int64)
        # the slot's blocks: zeros but for the sources
        slot = np.zeros((-(-prog.cols_required // n), pim.rows), dtype=np.int64)
        first, target = placed[0].start, prog.outputs[0].start
        slot[first // n:first // n + len(placed)] = sources
        block = sum(map(len, slots[n]))
        parts[n].append(_Part(index, layout, prog, block, block + first // n,
                              block + target // n))
        slots[n].append(slot)
        if first % n or target % n:     # the pack and the check read whole blocks
            errors[index] = (f"region {first if first % n else target} is not at a "
                             f"multiple of {n} columns {_where(layout)}")

    values = {n: np.concatenate(slots[n]) for n in PAC_WIDTHS if parts[n]}
    starts, col = {}, 0     # a width's slots follow the narrower widths'
    for n in values:
        starts[n], col = col, col + n * len(values[n])
    state = ArrayState.zeros(pim.rows, col)
    for n in values:
        pack_ints(state, starts[n], n, values[n])
    run(compose([p.program for n in values for p in parts[n]],
                [starts[n] + n * p.block for n in values for p in parts[n]]), state)

    # after alignment each row holds its own subset's element in that
    # subset's output region; a vertical pass then pulls row r+1's element
    # into row r, and the last row's comes from the neighbour array (not
    # checked)
    rows = np.arange(pim.rows)
    for n in values:
        group = parts[n]
        vertical = np.array([[p.layout.needs_vertical_relocation] for p in group])
        src = np.minimum(rows + vertical, pim.rows - 1)
        subset = _subsets(src, pim.rows, np.array([[len(p.program.outputs)] for p in group]))
        got = unpack_ints(state, starts[n], n, len(values[n]))[
            np.array([[p.target] for p in group]) + subset, rows]
        want = values[n][np.array([[p.placed] for p in group]) + subset, src]
        bad = (got != want) & (rows < pim.rows - vertical)
        i, r = np.unravel_index(bad.argmax(), bad.shape)
        if bad[i, r]:
            errors.setdefault(group[i].index, (
                f"row {r} region {group[i].program.outputs[subset[i, r]].start}: "
                f"got {got[i, r]}, want {want[i, r]} {_where(group[i].layout)}"))
    return errors[min(errors)] if errors else None


def pac_checks() -> list[Check]:
    """Move-program vs formula agreement, plus the canonical shifted-add case."""
    rng = np.random.default_rng(SEED + 1)
    checks: list[Check] = []

    bad = _relocation_agreement(PimMachine(rows=64, cols=512), rng)
    checks.append(Check("pac-agreement[64-row array]", bad is None,
                        bad or f"{len(PAC_LAYOUTS)} layouts: counts exact, cells verified"))

    big = PimMachine()  # 1024 x 1024
    worked = LayoutSpec(element_width_bits=16, misaligned_subsets=1,
                        needs_vertical_relocation=True)
    prog = relocation_program(worked, big)
    checks.append(Check("pac-shifted-operand[ROW=1024, n=16]",
                        len(prog) == pac_of(worked, big) == 1040,
                        f"16 horizontal + 1024 vertical moves = {len(prog)}"))

    align_only = LayoutSpec(element_width_bits=16, misaligned_subsets=1)
    prog = relocation_program(align_only, big)
    checks.append(Check("pac-alignment-only[n=16]",
                        len(prog) == pac_of(align_only, big) == 16,
                        f"{len(prog)} horizontal moves"))
    return checks


def run_validation(scope: str = "all") -> list[Check]:
    """Run the requested validation scope: catalog, pac, or all."""
    if scope not in ("catalog", "pac", "all"):
        raise ValueError(f"unknown scope {scope!r}")
    checks = []
    if scope in ("catalog", "all"):
        checks += catalog_checks()
    if scope in ("pac", "all"):
        checks += pac_checks()
    return checks
