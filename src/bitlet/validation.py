"""Self-checks tying the cycle catalog to executable ground truth.

Every closed-form cycle count that has a generated microprogram is checked
two ways: the program's instruction count must equal the catalog value
exactly, and running the program on a simulated array must reproduce the
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
from .catalog import OpKind, OpSpec, microprogram_of
from .layout import LayoutSpec, default_assignment, pac_of, relocation_program
from .machine import PimMachine
from .simulator import ArrayState, count_cycles, pack_ints, run, unpack_ints

COUNT_KINDS = (OpKind.NOT, OpKind.OR, OpKind.AND, OpKind.XOR,
               OpKind.ADD, OpKind.ADD_FANIN4)
EXHAUSTIVE_MAX_WIDTH = 4
RANDOM_WIDTHS = (8, 16, 32)
RANDOM_ROWS = 1000
SEED = 20240917


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


def _reference(kind: OpKind, n: int, a, b, cin):
    """Integer/bitwise ground truth; returns (result, carry_out or None)."""
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


def _run_op(kind: OpKind, n: int, a: np.ndarray, b: np.ndarray | None,
            cin: np.ndarray | None):
    """Pack operands, run the generated program, return (result, carry_out)."""
    prog = microprogram_of(OpSpec(kind, n))
    state = ArrayState.zeros(len(a), prog.cols_required)
    pack_ints(state, prog.range("a").start, n, a)
    if b is not None:
        pack_ints(state, prog.range("b").start, n, b)
    if kind is OpKind.ADD:
        pack_ints(state, prog.range("carry").start, 1, cin)
    elif kind is OpKind.ADD_FANIN4:
        pack_ints(state, prog.range("ncin").start, 1, 1 - cin)  # active low
    final, _ = run(prog, state)
    out = prog.range("out")
    result = unpack_ints(final, out.start, out.width)
    carry = None
    if kind is OpKind.ADD:
        carry = unpack_ints(final, prog.range("carry").start, 1)
    elif kind is OpKind.ADD_FANIN4:
        rail = prog.range("ncout")
        carry = (unpack_ints(final, rail.start, rail.width) == 0).astype(np.int64)
    return result, carry


def _operand_sets(kind: OpKind, n: int, exhaustive: bool, rng: np.random.Generator):
    unary = kind is OpKind.NOT
    with_carry = kind in (OpKind.ADD, OpKind.ADD_FANIN4)
    if exhaustive:
        if unary:
            a = np.arange(1 << n, dtype=np.int64)
            return a, None, None
        pairs = np.arange(1 << (2 * n), dtype=np.int64)
        a, b = pairs & ((1 << n) - 1), pairs >> n
        if with_carry:
            a = np.concatenate([a, a])
            b = np.concatenate([b, b])
            cin = np.repeat(np.array([0, 1], dtype=np.int64), 1 << (2 * n))
            return a, b, cin
        return a, b, None
    a = rng.integers(0, 1 << n, RANDOM_ROWS, dtype=np.int64)
    if unary:
        return a, None, None
    b = rng.integers(0, 1 << n, RANDOM_ROWS, dtype=np.int64)
    cin = rng.integers(0, 2, RANDOM_ROWS, dtype=np.int64) if with_carry else None
    return a, b, cin


def _check_function(kind: OpKind, widths, rng) -> Check:
    for n in widths:
        exhaustive = n <= EXHAUSTIVE_MAX_WIDTH
        a, b, cin = _operand_sets(kind, n, exhaustive, rng)
        got, got_carry = _run_op(kind, n, a, b, cin)
        want, want_carry = _reference(kind, n, a,
                                      b if b is not None else 0,
                                      cin if cin is not None else 0)
        if not np.array_equal(got, want):
            bad = int(np.flatnonzero(got != want)[0])
            return Check(f"function[{kind.name}]", False,
                         f"n={n} row {bad}: got {int(got[bad])}, "
                         f"want {int(want[bad])}")
        if want_carry is not None and not np.array_equal(got_carry, want_carry):
            return Check(f"function[{kind.name}]", False, f"n={n}: carry-out mismatch")
    mode = f"exhaustive n<={EXHAUSTIVE_MAX_WIDTH}, {RANDOM_ROWS} random rows for wider"
    return Check(f"function[{kind.name}]", True, mode)


def catalog_checks(max_width: int = 32) -> list[Check]:
    """Gate-count and functional checks for every generated operation."""
    rng = np.random.default_rng(SEED)
    checks: list[Check] = []

    for kind in COUNT_KINDS:
        bad = []
        for n in range(1, max_width + 1):
            spec = OpSpec(kind, n)
            got = count_cycles(microprogram_of(spec))
            want = catalog.oc_of(spec)
            if got != want:
                bad.append(f"n={n}: program {got} vs catalog {want}")
        checks.append(Check(f"count[{kind.name}]", not bad,
                            bad[0] if bad else f"exact for n=1..{max_width}"))

    widths = [n for n in (1, 2, 3, 4, *RANDOM_WIDTHS) if n <= max_width]
    for kind in COUNT_KINDS:
        checks.append(_check_function(kind, widths, rng))

    mpy_n = 4
    a, b, cin = _operand_sets(OpKind.MPY, mpy_n, True, rng)
    got, _ = _run_op(OpKind.MPY, mpy_n, a, b, cin)
    want, _ = _reference(OpKind.MPY, mpy_n, a, b, 0)
    generated = count_cycles(microprogram_of(OpSpec(OpKind.MPY, mpy_n)))
    formula = catalog.oc_of(OpSpec(OpKind.MPY, mpy_n))
    checks.append(Check("function[MPY]", bool(np.array_equal(got, want)),
                        f"exhaustive n={mpy_n}; generated program {generated} cycles, "
                        f"catalog {formula} (informational)"))
    return checks


def _relocation_matches(layout: LayoutSpec, pim: PimMachine, rng) -> str | None:
    """Run the move program and verify cells; returns an error or None."""
    n, k = layout.element_width_bits, layout.misaligned_subsets
    assignment = default_assignment(layout)
    prog = relocation_program(layout, pim, assignment)
    if count_cycles(prog) != pac_of(layout, pim):
        return (f"cycles {count_cycles(prog)} != pac {pac_of(layout, pim)} "
                f"(k={k}, n={n}, vertical={layout.needs_vertical_relocation})")
    cols = max(pim.cols, prog.cols_required if len(prog) else n)
    state = ArrayState.zeros(pim.rows, cols)
    sources = rng.integers(0, 1 << min(n, 48), (max(k, 1), pim.rows), dtype=np.int64)
    for g in range(k):
        pack_ints(state, assignment.source_starts[g], n, sources[g])
    if k == 0:
        pack_ints(state, assignment.aligned_start, n, sources[0])
    final, _ = run(prog, state)

    # after alignment each row holds its own subset's element at the target
    # region; a vertical pass then pulls row r+1's element into row r, and
    # the last row's element comes from the neighbour array (not checked)
    rows = np.arange(pim.rows - 1 if layout.needs_vertical_relocation else pim.rows)
    src = rows + 1 if layout.needs_vertical_relocation else rows
    if k:
        subset = _subsets(src, pim.rows, k)
        region = np.array(assignment.target_starts)[subset]
        want = sources[subset, src]
    else:
        region = np.full(len(src), assignment.aligned_start)
        want = sources[0][src]
    got = np.empty_like(want)
    for start in np.unique(region).tolist():
        at = region == start
        got[at] = unpack_ints(final, start, n)[rows[at]]
    bad = np.flatnonzero(got != want)
    if len(bad):
        i = bad[0]
        return (f"row {rows[i]} region {region[i]}: got {got[i]}, want {want[i]} "
                f"(k={k}, n={n}, vertical={layout.needs_vertical_relocation})")
    return None


def _subsets(row: np.ndarray, rows: int, k: int) -> np.ndarray:
    """``layout.subset_of_row`` of every entry of `row`, for k >= 1 subsets.

    The formula is restated here rather than read from the relocation
    program's own row blocks, so the check stays independent of the generator.
    """
    return np.minimum(row * k // rows, k - 1)


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
    want = pac_of(worked, big)
    ok = count_cycles(prog) == want == 1040
    checks.append(Check("pac-shifted-operand[ROW=1024, n=16]", ok,
                        f"16 horizontal + 1024 vertical moves = {count_cycles(prog)}"))

    align_only = LayoutSpec(element_width_bits=16, misaligned_subsets=1)
    prog = relocation_program(align_only, big)
    checks.append(Check("pac-alignment-only[n=16]",
                        count_cycles(prog) == pac_of(align_only, big) == 16,
                        f"{count_cycles(prog)} horizontal moves"))
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
