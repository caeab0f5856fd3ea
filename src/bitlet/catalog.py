"""Operation complexity catalog and NOR microprogram generators.

Maps (operation kind, bit width) to a cycle count, and builds executable
NOR programs whose simulated behaviour and cycle counts back those numbers.
``OPS`` is the one statement of each operation: one ``Op`` record per
``OpKind`` holds its cited count, its generator and its numpy reference.
Of the kinds with a program, MPY's count is cited: its generated program
is a plain shift-and-add multiplier, checked for function only. A program
states its operands and carry in its input blocks (see ``operands_of``).

A workload whose operation is none of these gives its cycle count as
``analysis.Workload.oc_override`` instead.

The 7n adder passes its carry between bits as a two-column rail holding the
inverted carry in distributed form (the NOR of the two columns is the true
carry). A seven-gate-per-bit adder with a single carry column does not
exist, in any polarity; the rail form does, at fan-in 3. Consequences:
the carry-in column of ADD_FANIN4 programs is active low (preset 1 means
"no carry in"), and the carry-out is exposed as the two-column rail named
``ncout`` rather than as a single cell. ``execute`` hides the polarity and
the rail: its carry-in and carry-out are true carries for either adder.

Generators. Each generator states its program once, as data, in a
``_Kind``, the program half of an operation's record: named column
blocks, allocated in order from column 0 with widths such as n or 7, and
a netlist, the gates of one bit as (dest, *srcs). A netlist column is a linear form in the width n and the bit j,
per_n * n + const + per_bit * j + per_odd_bit * (j % 2), written as sums
of block starts, offsets and j: ``a + j`` is bit j of block a, ``t + 1`` a
fixed scratch column. At import each netlist becomes a table of those four
coefficients per column, fan-in, dest and padded sources alike. A width's
program is then one matrix product of the terms (n, 1, j, j % 2) of its
bits with that table, so building it takes the same numpy calls at every
width and gate count. What the linear form cannot state is patched after
the product, where the generator says so: ADD_FANIN4's bit-0 rail, and
MPY's first carry-in and last carry-out. MPY's n rounds are its round 0,
built that way, broadcast: every column of b and out steps by one per
round. No program or table built for a width outlives the call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .machine import FieldError, _shown
from .simulator import OP_NOR, ArrayState, ColRange, NorProgram, pack_ints, run, unpack_ints

# Bounds the widths an OpSpec accepts and sizes _BIT_TERMS. It does not make
# a program fit an array: NOT needs 2n columns and MPY 6n+10, so at 1024
# columns they fit up to n = 512 and n = 169 (see cols_required).
WIDTH_CAP = 1024


class UnsupportedWidth(FieldError):
    """No cycle count is defined for this (kind, width) pair."""

    def __init__(self, rule: str):
        super().__init__("width_bits", rule)


class UnsupportedOperation(ValueError):
    """No canonical microprogram exists for this operation kind."""


class OpKind(enum.Enum):
    NOT = "NOT"
    OR = "OR"
    AND = "AND"
    XOR = "XOR"
    ADD = "ADD"
    ADD_FANIN4 = "ADD_FANIN4"
    MPY = "MPY"
    MPY_LOWPREC = "MPY_LOWPREC"


@dataclass(frozen=True)
class OpSpec:
    """An operation kind at a concrete bit width."""

    kind: OpKind
    width_bits: int

    def __post_init__(self) -> None:
        n = self.width_bits
        if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= WIDTH_CAP:
            raise UnsupportedWidth(f"must be in 1..{WIDTH_CAP}, got {_shown(n)}")
        count = OPS[self.kind].count
        if isinstance(count, dict) and n not in count:
            raise UnsupportedWidth(f"{self.kind.name} has a known cycle count only for "
                                   f"n={', '.join(map(str, count))}, got n={n}")
        if self.kind is OpKind.MPY and n < 2:
            raise UnsupportedWidth("MPY cycle formula is positive only for n >= 2")


def oc_of(spec: OpSpec) -> int:
    """Operation complexity in cycles for one operation on one row."""
    count = OPS[spec.kind].count
    return count[spec.width_bits] if isinstance(count, dict) else count(spec.width_bits)


TABLE_WIDTHS = (4, 8, 16, 32, 64)


def catalog_table() -> list[dict]:
    """Rows of {kind, n, oc} at TABLE_WIDTHS for each kind whose count is a
    formula of n, every pair defined."""
    return [{"kind": kind.value, "n": n, "oc": oc_of(OpSpec(kind, n))}
            for kind, op in OPS.items() if callable(op.count) for n in TABLE_WIDTHS]


# -- microprogram generation ---------------------------------------------

@dataclass(frozen=True)
class _Col:
    """A column of a generator's template: at bit j of an n-bit program,
    column per_n * n + const + per_bit * j + per_odd_bit * (j % 2)."""

    per_n: int = 0
    const: int = 0
    per_bit: int = 0
    per_odd_bit: int = 0

    def __add__(self, other: "_Col | int") -> "_Col":
        if isinstance(other, int):
            other = _Col(const=other)
        return _Col(self.per_n + other.per_n, self.const + other.const,
                    self.per_bit + other.per_bit, self.per_odd_bit + other.per_odd_bit)

    def at(self, n: int) -> int:
        """The column at width n, of a block start or width (no per-bit part)."""
        return self.per_n * n + self.const


_N, _J, _PAD = _Col(per_n=1), _Col(per_bit=1), _Col(const=-1)

# row j: the terms (n, 1, j, j % 2) of bit j, once column 0 is set to n
_BIT_TERMS = np.ones((WIDTH_CAP, 4), dtype=np.int32)
_BIT_TERMS[:, 2] = np.arange(WIDTH_CAP)
_BIT_TERMS[:, 3] = _BIT_TERMS[:, 2] % 2
_BIT_TERMS.setflags(write=False)


def _netlist(gates: list[tuple], width: int | None = None) -> np.ndarray:
    """The (4, k, 2 + width) table of `gates`, each (dest, *srcs): per gate,
    the coefficients of its fan-in, its dest and `width` sources padded with
    -1 (by default as many as the widest gate's fan-in)."""
    width = width or max(map(len, gates)) - 1
    rows = [[_Col(const=len(gate) - 1), *gate, *[_PAD] * (width + 1 - len(gate))]
            for gate in gates]
    table = np.array([[[c.per_n, c.const, c.per_bit, c.per_odd_bit] for c in row]
                      for row in rows], dtype=np.int32).transpose(2, 0, 1).copy()
    table.setflags(write=False)     # shared by every call
    return table


def _per_bit(netlist: np.ndarray, n: int, bits: int | None = None):
    """Columns (dest, srcs, fanin) of a netlist of an n-bit program repeated
    for bits 0..bits-1 (by default n), bit-major.

    All three come from one matrix product of those bits' terms with the
    netlist's table, so the numpy calls do not grow with the gates or the
    width. Each column is owned, so the ``NorProgram`` constructor takes it
    over without a copy.
    """
    bits = bits or n
    _, k, cols = netlist.shape
    terms = _BIT_TERMS[:bits].copy()
    terms[:, 0] = n
    table = terms.dot(netlist.reshape(4, -1)).reshape(bits, k, cols)
    srcs = np.empty((bits * k, cols - 2), dtype=np.int32)
    srcs.reshape(bits, k, -1)[...] = table[..., 2:]
    return table[..., 1].flatten(), srcs, table[..., 0].flatten()


class _Kind(NamedTuple):
    """An operation's program, stated once: its column blocks as name ->
    (start, width), its netlist (MPY: a tuple of them), and the (name, start,
    width) of each block of its inputs and of its outputs."""

    blocks: dict
    netlist: np.ndarray | tuple
    inputs: tuple
    outputs: tuple


def _kind(widths: dict, inputs: list[str], outputs: list[str], netlist) -> _Kind:
    """Allocate the blocks of `widths` in order from column 0; `netlist`
    takes the bit j and the start of each block and returns the netlist."""
    blocks, start = {}, _Col()
    for name, width in widths.items():
        blocks[name] = (start, width if isinstance(width, _Col) else _Col(const=width))
        start += width
    return _Kind(blocks, netlist(_J, *[start for start, _ in blocks.values()]),
                 tuple((x, *blocks[x]) for x in inputs), tuple((x, *blocks[x]) for x in outputs))


def _ranges(blocks: tuple, n: int) -> tuple:
    """The `ColRange` at width n of each (name, start, width) block."""
    return tuple([ColRange(x, start.at(n), width.at(n)) for x, start, width in blocks])


def _full_adder9(aj, bj, cin, sum_dest, cout_dest, t) -> list[tuple]:
    """Nine-gate two-input-NOR full adder; scratch columns t..t+6."""
    n1, n2, n3, n4, n5, n6, n7 = (t + i for i in range(7))
    return [(n1, aj, bj), (n2, aj, n1), (n3, bj, n1),
            (n4, n2, n3),                       # XNOR(a, b)
            (n5, n4, cin), (n6, n4, n5), (n7, cin, n5),
            (sum_dest, n6, n7), (cout_dest, n1, n5)]


_NOT = _kind({"a": _N, "out": _N}, ["a"], ["out"],
             lambda j, a, out: _netlist([(out + j, a + j)]))
_OR = _kind({"a": _N, "b": _N, "out": _N, "scratch": 1}, ["a", "b"], ["out"],
            lambda j, a, b, out, t: _netlist([(t, a + j, b + j), (out + j, t)]))
_AND = _kind({"a": _N, "b": _N, "out": _N, "scratch": 2}, ["a", "b"], ["out"],
             lambda j, a, b, out, t: _netlist([(t, a + j), (t + 1, b + j), (out + j, t, t + 1)]))
_XOR = _kind({"a": _N, "b": _N, "out": _N, "scratch": 4}, ["a", "b"], ["out"],
             lambda j, a, b, out, t: _netlist([
                 (t, a + j, b + j), (t + 1, a + j, t), (t + 2, b + j, t),
                 (t + 3, t + 1, t + 2),                     # XNOR
                 (out + j, t + 3)]))
# the carry column holds the carry-in on entry and the carry-out on exit
_ADD = _kind({"a": _N, "b": _N, "out": _N, "carry": 1, "scratch": 7},
             ["a", "b", "carry"], ["out", "carry"],
             lambda j, a, b, out, c, t: _netlist(_full_adder9(a + j, b + j, c, out + j, c, t)))


def _add_fanin4_netlist(j, a, b, out, ncin, even, odd):
    # Carry travels as a two-column rail holding the inverted carry in
    # distributed form: rail OR == NOT carry, so NOR(rail) == carry.
    # Per bit (7 gates, fan-in <= 3 once the rail replaces nc):
    #     p = NOR(rail, b)        c & ~b
    #     q = NOR(p, rail)        c & b
    #     r = NOR(p, b)           ~b & ~c      > rail half
    #     s = NOR(r, q, a)        ~a & (b^c)   > rail half
    #     t = NOR(s, a)           ~a & ~(b^c)
    #     u = NOR(s, r, q)        a & (b^c)
    #     out = NOR(t, u)         a ^ b ^ c
    # Two scratch banks of 6 alternate so bit j+1 can still read bit j's
    # rail: bit j writes the odd bank when j is odd and reads its rail, r
    # and s, from the other. Bit 0 reads ncin alone, patched in by
    # _add_fanin4_program.
    bank, other = even + _Col(per_odd_bit=6), odd + _Col(per_odd_bit=-6)
    p, q, r, s, t, u = (bank + i for i in range(6))
    rail = (other + 2, other + 3)
    return _netlist([(p, *rail, b + j), (q, p, *rail), (r, p, b + j), (s, r, q, a + j),
                     (t, s, a + j), (u, s, r, q), (out + j, t, u)])


# ncin is active low: 1 means carry-in 0
_ADD_FANIN4 = _kind({"a": _N, "b": _N, "out": _N, "ncin": 1, "scratch_even": 6,
                     "scratch_odd": 6}, ["a", "b", "ncin"], ["out"], _add_fanin4_netlist)


def _add_fanin4_program(n: int) -> NorProgram:
    kind = _ADD_FANIN4
    dest, srcs, fanin = _per_bit(kind.netlist, n)
    b, ncin, even = (kind.blocks[x][0].at(n) for x in ("b", "ncin", "scratch_even"))
    srcs[:2] = [[ncin, b, -1],                  # bit 0 reads ncin alone
                [even, ncin, -1]]
    fanin[:2] = 2
    r = even + 2 + 6 * ((n - 1) % 2)            # bit n-1's rail: its r and s
    return NorProgram(OP_NOR, dest, srcs, fanin, inputs=_ranges(kind.inputs, n),
                      outputs=(*_ranges(kind.outputs, n), ColRange("ncout", r, 2)),
                      max_fanin=4)


def _mpy_netlist(j, a, b, out, na, pp, nb, zero, cc, t):
    # Shift-and-add: out accumulates a * b_i << i, one nine-gate ripple add
    # per partial product. Functionally exact; the cycle count is this
    # construction's own, not the catalog's 13n^2-14n. The NOTs of a come
    # once; then each of n rounds i NORs bit i of b into not_b, forms the
    # partial products a & b_i and adds them into out from column i on. The
    # netlists state round 0; the zero column is never written and stays 0.
    return (_netlist([(na + j, a + j)], 2),
            _netlist([(nb, b)], 2),
            _netlist([(pp + j, na + j, nb)]),
            _netlist(_full_adder9(pp + j, out + j, cc, out + j, cc, t)))


_MPY = _kind({"a": _N, "b": _N, "out": _N + _N, "not_a": _N, "partial": _N, "not_b": 1,
              "zero": 1, "carry": 1, "scratch": 7}, ["a", "b"], ["out"], _mpy_netlist)


def _mpy_program(n: int) -> NorProgram:
    kind = _MPY
    not_a, not_b, products, add = kind.netlist
    b, out, zero = (kind.blocks[x][0].at(n) for x in ("b", "out", "zero"))
    # round 0, whose add carries in from the zero column at bit 0 and out
    # into the next column of out at bit n-1
    pieces = [_per_bit(not_b, n, 1), _per_bit(products, n), _per_bit(add, n)]
    add_dest, add_srcs, _ = pieces[2]
    add_srcs[4, 1] = add_srcs[6, 0] = zero
    add_dest[-1] = out + n
    dest0, srcs0, fanin0 = [np.concatenate(c) for c in zip(*pieces)]
    # round i is round 0 with every column of b and out, the adjacent
    # blocks [b, out + 2n), i further on
    m, rounds = len(dest0), np.arange(n, dtype=np.int32)
    dest = np.empty(n * (m + 1), dtype=np.int32)
    srcs = np.empty((n * (m + 1), 2), dtype=np.int32)
    fanin = np.empty(n * (m + 1), dtype=np.int32)
    dest[:n], srcs[:n], fanin[:n] = _per_bit(not_a, n)
    np.add(dest0, np.multiply.outer(rounds, (b <= dest0) & (dest0 < out + 2 * n)),
           out=dest[n:].reshape(n, m))
    np.add(srcs0, np.multiply.outer(rounds, (b <= srcs0) & (srcs0 < out + 2 * n)),
           out=srcs[n:].reshape(n, m, 2))
    fanin[n:].reshape(n, m)[...] = fanin0
    return NorProgram(OP_NOR, dest, srcs, fanin, inputs=_ranges(kind.inputs, n),
                      outputs=_ranges(kind.outputs, n))


def _per_bit_program(kind: _Kind, n: int) -> NorProgram:
    return NorProgram(OP_NOR, *_per_bit(kind.netlist, n), inputs=_ranges(kind.inputs, n),
                      outputs=_ranges(kind.outputs, n))


def _sum(operands, carry_in, n):
    """The reference of both adders: the n-bit sum and the carry-out."""
    total = operands[0] + operands[1] + carry_in
    return total & ((1 << n) - 1), total >> n


class Op(NamedTuple):
    """An operation, stated once: its cited cycle count, a formula of n or
    {n: count} point values; its generator, or None; the numpy reference of
    its function, (operands, carry_in, n) -> (result, carry_out or None);
    and whether the count is cited only, so that ``validate`` checks the
    generated program's function but not its count."""

    count: Callable[[int], int] | dict
    generator: Callable[[int], NorProgram] | None
    reference: Callable | None
    cited: bool = False


OPS = {
    # one single-input NOR (inverter) per bit
    OpKind.NOT: Op(lambda n: n, partial(_per_bit_program, _NOT),
                   lambda x, _, n: (~x[0] & ((1 << n) - 1), None)),
    # t = NOR(a, b); out = NOR(t)
    OpKind.OR: Op(lambda n: 2 * n, partial(_per_bit_program, _OR),
                  lambda x, _, n: (x[0] | x[1], None)),
    # out = NOR(NOR(a), NOR(b))
    OpKind.AND: Op(lambda n: 3 * n, partial(_per_bit_program, _AND),
                   lambda x, _, n: (x[0] & x[1], None)),
    # the minimal two-input-NOR construction
    OpKind.XOR: Op(lambda n: 5 * n, partial(_per_bit_program, _XOR),
                   lambda x, _, n: (x[0] ^ x[1], None)),
    # classic nine-NOR full adder, rippled
    OpKind.ADD: Op(lambda n: 9 * n, partial(_per_bit_program, _ADD), _sum),
    # seven NOR gates per bit using fan-in up to 4
    OpKind.ADD_FANIN4: Op(lambda n: 7 * n, _add_fanin4_program, _sum),
    # the optimized construction's count; the program is plain shift-and-add
    OpKind.MPY: Op(lambda n: 13 * n * n - 14 * n, _mpy_program,
                   lambda x, _, n: (x[0] * x[1], None), cited=True),
    # low-precision multiply keeping an n-bit result, 16-bit only
    OpKind.MPY_LOWPREC: Op({16: 1544}, None, None, cited=True),
}


def microprogram_of(spec: OpSpec) -> NorProgram:
    """Build the executable NOR program for an operation.

    Columns are packed from 0; ``NorProgram.cols_required`` says how many
    the program needs. Raises UnsupportedOperation for kinds with no
    canonical netlist.

    Programs expect every cell outside the declared input ranges to start
    at 0 (a blank array); scratch is overwritten before it is read except
    for columns that are deliberately kept at 0.
    """
    gen = OPS[spec.kind].generator
    if gen is None:
        raise UnsupportedOperation(f"no canonical microprogram for {spec.kind.name}")
    return gen(spec.width_bits)


def operands_of(program: NorProgram) -> tuple[int, bool]:
    """(count, has_carry) of a program from ``microprogram_of``: how many
    n-bit operands its input blocks hold, and whether one more is a carry-in
    (a ``carry`` column, or ADD_FANIN4's active-low ``ncin``)."""
    has_carry = bool({"carry", "ncin"} & {x.name for x in program.inputs})
    return len(program.inputs) - has_carry, has_carry


def execute(program: NorProgram, operands, carry_in=None):
    """Run a program from ``microprogram_of`` on the (1 or 2, rows) array
    `operands`, a or a and b; return (result, carry_out, cycles). Only the
    adders take a `carry_in` (None is 0) and give a `carry_out` (else None),
    both true carries, 0 or 1 per row, whatever their columns' polarity.
    A program that declares one name twice among its inputs, or among its
    outputs (as a ``compose`` of two catalog programs does), is refused."""
    for declared in (program.inputs, program.outputs):  # ADD's carry is one of each
        names = [x.name for x in declared]
        for name in names:
            if names.count(name) > 1:
                raise ValueError(f"program declares range {name!r} twice; "
                                 f"execute runs one catalog operation")
    operands = np.asarray(operands, dtype=np.int64)
    ranges = {x.name: x for x in program.inputs + program.outputs}
    count, has_carry = operands_of(program)
    if operands.ndim != 2 or len(operands) != count:
        raise ValueError(f"need {count} row(s) of operands, got shape {operands.shape}")
    if carry_in is not None and not has_carry:
        raise ValueError("carry_in given to an operation without a carry input")
    state = ArrayState.zeros(operands.shape[1], program.cols_required)
    pack_ints(state, ranges["a"].start, ranges["a"].width, operands)  # b's block follows a's
    cin = np.zeros(state.rows, np.int64) if carry_in is None else np.asarray(carry_in)
    for name, value in (("carry", cin), ("ncin", 1 - cin)):          # ncin is active low
        if name in ranges:
            pack_ints(state, ranges[name].start, 1, value)
    final, cycles = run(program, state)
    result, carry_out = unpack_ints(final, ranges["out"].start, ranges["out"].width), None
    if "carry" in ranges:
        carry_out = unpack_ints(final, ranges["carry"].start, 1)
    if "ncout" in ranges:                           # the carry is the NOR of the rail
        carry_out = (unpack_ints(final, ranges["ncout"].start, 2) == 0).astype(np.int64)
    return result, carry_out, cycles
