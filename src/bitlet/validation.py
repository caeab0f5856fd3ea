"""Self-checks tying the cycle catalog to executable ground truth.

Every closed-form cycle count that has a generated microprogram is checked
two ways: the program's instruction count must equal the catalog value
exactly, and running it through ``catalog.execute`` must reproduce the
reference integer/bitwise result on every row (exhaustively for narrow
widths, on a fixed random sample for wide ones). Placement/alignment move
programs are checked the same way against the closed-form cycle formula
and against direct array bookkeeping.

The multiplier is special: its generated shift-and-add program validates
function only, and both its own instruction count and the catalog's
optimized-construction count are reported side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import catalog
from .catalog import OpKind, OpSpec, execute, microprogram_of
from .layout import LayoutSpec, pac_of, relocation_program
from .machine import PimMachine
from .simulator import ArrayState, pack_ints, run, unpack_ints

COUNT_KINDS = (OpKind.NOT, OpKind.OR, OpKind.AND, OpKind.XOR,
               OpKind.ADD, OpKind.ADD_FANIN4)
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


def _reference(kind: OpKind, n: int, operands: np.ndarray, cin: np.ndarray | None):
    """Integer/bitwise ground truth of the operands (a, or a and b);
    returns (result, carry_out or None)."""
    a, b = operands[0], operands[-1]
    mask = (1 << n) - 1
    if kind is OpKind.NOT:
        return (~a) & mask, None
    if kind is OpKind.OR:
        return a | b, None
    if kind is OpKind.AND:
        return a & b, None
    if kind is OpKind.XOR:
        return a ^ b, None
    if kind in (OpKind.ADD, OpKind.ADD_FANIN4):
        total = a + b + cin
        return total & mask, total >> n
    if kind is OpKind.MPY:
        return a * b, None
    raise ValueError(kind)


def _operand_sets(kind: OpKind, n: int, exhaustive: bool, rng: np.random.Generator):
    """Operands (a row per operand) and carry-ins, or None for operations
    without a carry-in."""
    count = 1 if kind is OpKind.NOT else 2
    with_carry = kind in (OpKind.ADD, OpKind.ADD_FANIN4)
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
        operands, cin = _operand_sets(kind, n, n <= EXHAUSTIVE_MAX_WIDTH, rng)
        got, got_carry, _ = execute(prog, operands, cin)
        want, want_carry = _reference(kind, n, operands, cin)
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
    count check and its function check.
    """
    rng = np.random.default_rng(SEED)
    checks: list[Check] = []
    programs = {}

    for kind in COUNT_KINDS:
        bad = []
        for n in range(1, COUNT_MAX_WIDTH + 1):
            spec = OpSpec(kind, n)
            programs[kind, n] = prog = microprogram_of(spec)
            got, want = len(prog), catalog.oc_of(spec)
            if got != want:
                bad.append(f"n={n}: program {got} vs catalog {want}")
        checks.append(Check(f"count[{kind.name}]", not bad,
                            bad[0] if bad else f"exact for n=1..{COUNT_MAX_WIDTH}"))

    widths = (*range(1, EXHAUSTIVE_MAX_WIDTH + 1), *RANDOM_WIDTHS)   # all <= COUNT_MAX_WIDTH
    for kind in COUNT_KINDS:
        checks.append(_check_function(kind, {n: programs[kind, n] for n in widths}, rng))

    spec = OpSpec(OpKind.MPY, EXHAUSTIVE_MAX_WIDTH)
    prog = microprogram_of(spec)
    detail = (f"exhaustive n={spec.width_bits}; generated program {len(prog)} cycles, "
              f"catalog {catalog.oc_of(spec)} (informational)")
    checks.append(_check_function(OpKind.MPY, {spec.width_bits: prog}, rng, detail))
    return checks


def _relocation_matches(layout: LayoutSpec, pim: PimMachine, rng) -> str | None:
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


def _subsets(row: np.ndarray, rows: int, blocks: int) -> np.ndarray:
    """``layout.subset_of_row(r, rows, blocks)`` of every entry r of `row`.

    The formula is restated here rather than read from the relocation
    program's own row blocks, so the check stays independent of the generator.
    """
    return np.minimum(row * blocks // rows, blocks - 1)


def pac_checks() -> list[Check]:
    """Move-program vs formula agreement, plus the canonical shifted-add case."""
    rng = np.random.default_rng(SEED + 1)
    checks: list[Check] = []

    small = PimMachine(rows=64, cols=512)
    bad = None
    cases = 0
    for k in range(0, 5):
        for n in (1, 2, 3, 4, 8, 16, 32):
            for vertical in (False, True):
                layout = LayoutSpec(element_width_bits=n, misaligned_subsets=k,
                                    needs_vertical_relocation=vertical)
                err = _relocation_matches(layout, small, rng)
                cases += 1
                if err and bad is None:
                    bad = err
    checks.append(Check("pac-agreement[64-row array]", bad is None,
                        bad or f"{cases} layouts: counts exact, cells verified"))

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
