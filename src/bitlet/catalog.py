"""Operation complexity catalog and NOR microprogram generators.

Maps (operation kind, bit width) to a cycle count, and builds executable
NOR programs whose simulated behaviour and cycle counts back those numbers:

    NOT         n          one single-input NOR (inverter) per bit
    OR          2n         t = NOR(a,b); out = NOR(t)
    AND         3n         out = NOR(NOR(a), NOR(b))
    XOR         5n         the minimal two-input-NOR construction
    ADD         9n         classic nine-NOR full adder, rippled
    ADD_FANIN4  7n         seven NOR gates per bit using fan-in up to 4
    MPY         13n^2-14n  catalog value; the generated program is a plain
                           shift-and-add multiplier validated for function
                           only (its own gate count is reported separately)
    MPY_LOWPREC 1544       point value, 16-bit only (low-precision multiply
                           keeping an n-bit result)

A workload whose operation is none of these gives its cycle count as
``analysis.Workload.oc_override`` instead.

The 7n adder passes its carry between bits as a two-column rail holding the
inverted carry in distributed form (the NOR of the two columns is the true
carry). A seven-gate-per-bit adder with a single carry column does not
exist, in any polarity; the rail form does, at fan-in 3. Consequences:
the carry-in column of ADD_FANIN4 programs is active low (preset 1 means
"no carry in"), and the carry-out is exposed as the two-column rail named
``ncout`` rather than as a single cell.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .machine import FieldError, _shown
from .simulator import OP_NOR, ColRange, NorProgram

WIDTH_CAP = 1024  # keeps generated programs within one array's columns


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


# closed-form cycle counts per bit width
_FORMULAS = {
    OpKind.NOT: lambda n: n,
    OpKind.OR: lambda n: 2 * n,
    OpKind.AND: lambda n: 3 * n,
    OpKind.XOR: lambda n: 5 * n,
    OpKind.ADD: lambda n: 9 * n,
    OpKind.ADD_FANIN4: lambda n: 7 * n,
    OpKind.MPY: lambda n: 13 * n * n - 14 * n,
}

_POINT_VALUES = {
    (OpKind.MPY_LOWPREC, 16): 1544,
}


@dataclass(frozen=True)
class OpSpec:
    """An operation kind at a concrete bit width."""

    kind: OpKind
    width_bits: int

    def __post_init__(self) -> None:
        n = self.width_bits
        if not isinstance(n, int) or not 1 <= n <= WIDTH_CAP:
            raise UnsupportedWidth(f"must be in 1..{WIDTH_CAP}, got {_shown(n)}")
        if self.kind is OpKind.MPY_LOWPREC and (self.kind, n) not in _POINT_VALUES:
            raise UnsupportedWidth(f"MPY_LOWPREC has a known cycle count only for "
                                   f"n=16, got n={n}")
        if self.kind is OpKind.MPY and n < 2:
            raise UnsupportedWidth("MPY cycle formula is positive only for n >= 2")


def oc_of(spec: OpSpec) -> int:
    """Operation complexity in cycles for one operation on one row."""
    if spec.kind in _FORMULAS:
        return _FORMULAS[spec.kind](spec.width_bits)
    return _POINT_VALUES[(spec.kind, spec.width_bits)]


TABLE_KINDS = (OpKind.NOT, OpKind.OR, OpKind.AND, OpKind.XOR,
               OpKind.ADD, OpKind.ADD_FANIN4, OpKind.MPY)
TABLE_WIDTHS = (4, 8, 16, 32, 64)


def catalog_table() -> list[dict]:
    """Rows of {kind, n, oc} for TABLE_KINDS x TABLE_WIDTHS, every pair defined."""
    return [{"kind": kind.value, "n": n, "oc": oc_of(OpSpec(kind, n))}
            for kind in TABLE_KINDS for n in TABLE_WIDTHS]


# -- microprogram generation ---------------------------------------------

class _Plan:
    """Sequential column allocator for one program."""

    def __init__(self) -> None:
        self.next = 0
        self.ranges: dict[str, tuple[int, int]] = {}   # name -> (start, width)

    def block(self, name: str, width: int) -> int:
        """Allocate `width` columns under `name`; return the first."""
        start = self.next
        self.next += width
        self.ranges[name] = (start, width)
        return start


def _per_bit(gates, n: int, width: int | None = None):
    """Columns (dest, srcs, fanin) of a gate template repeated for n bits, bit-major.

    A gate is (dest, *srcs), and each entry is a column or an array holding
    one column per bit. ``srcs`` has `width` columns (by default the widest
    gate's fan-in), each row padded with -1 at the end. Each column is
    allocated at its final shape and written through a (bit, gate) view, so
    the ``NorProgram`` constructor takes it over without a copy.
    """
    k = len(gates)
    width = width or max(map(len, gates)) - 1
    dest = np.empty(n * k, dtype=np.int32)
    srcs = np.full((n * k, width), -1, dtype=np.int32)
    fanin = np.empty(n * k, dtype=np.int32)
    fanin.reshape(n, k)[...] = [len(gate) - 1 for gate in gates]
    dest_by_bit, srcs_by_bit = dest.reshape(n, k), srcs.reshape(n, k, width)
    for g, (out, *ins) in enumerate(gates):
        dest_by_bit[:, g] = out
        for c, column in enumerate(ins):
            srcs_by_bit[:, g, c] = column
    return dest, srcs, fanin


def _not_program(n: int):
    plan = _Plan()
    a, out = plan.block("a", n), plan.block("out", n)
    j = np.arange(n)
    return _per_bit([(out + j, a + j)], n), plan, ["a"], ["out"]


def _or_program(n: int):
    plan = _Plan()
    a, b, out = plan.block("a", n), plan.block("b", n), plan.block("out", n)
    t = plan.block("scratch", 1)
    j = np.arange(n)
    gates = [(t, a + j, b + j), (out + j, t)]
    return _per_bit(gates, n), plan, ["a", "b"], ["out"]


def _and_program(n: int):
    plan = _Plan()
    a, b, out = plan.block("a", n), plan.block("b", n), plan.block("out", n)
    t = plan.block("scratch", 2)
    j = np.arange(n)
    gates = [(t, a + j), (t + 1, b + j), (out + j, t, t + 1)]
    return _per_bit(gates, n), plan, ["a", "b"], ["out"]


def _xor_program(n: int):
    plan = _Plan()
    a, b, out = plan.block("a", n), plan.block("b", n), plan.block("out", n)
    t1, t2, t3, t4 = range(plan.block("scratch", 4), plan.next)
    j = np.arange(n)
    aj, bj = a + j, b + j
    gates = [(t1, aj, bj), (t2, aj, t1), (t3, bj, t1),
             (t4, t2, t3),                      # XNOR
             (out + j, t4)]
    return _per_bit(gates, n), plan, ["a", "b"], ["out"]


def _full_adder9(aj, bj, cin, sum_dest, cout_dest, t: int) -> list[tuple]:
    """Nine-gate two-input-NOR full adder; scratch columns t..t+6."""
    n1, n2, n3, n4, n5, n6, n7 = range(t, t + 7)
    return [(n1, aj, bj), (n2, aj, n1), (n3, bj, n1),
            (n4, n2, n3),                       # XNOR(a, b)
            (n5, n4, cin), (n6, n4, n5), (n7, cin, n5),
            (sum_dest, n6, n7), (cout_dest, n1, n5)]


def _add_program(n: int):
    plan = _Plan()
    a, b, out = plan.block("a", n), plan.block("b", n), plan.block("out", n)
    carry = plan.block("carry", 1)  # carry-in on entry, carry-out on exit
    t = plan.block("scratch", 7)
    j = np.arange(n)
    gates = _full_adder9(a + j, b + j, carry, out + j, carry, t)
    return _per_bit(gates, n), plan, ["a", "b", "carry"], ["out", "carry"]


def _add_fanin4_program(n: int):
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
    # Two scratch banks alternate so bit i+1 can still read bit i's rail.
    plan = _Plan()
    a, b, out = plan.block("a", n), plan.block("b", n), plan.block("out", n)
    ncin = plan.block("ncin", 1)                # active low: 1 means carry-in 0
    even, odd = plan.block("scratch_even", 6), plan.block("scratch_odd", 6)
    j = np.arange(n)
    bank = np.where(j % 2, odd, even)
    p, q, r, s, t, u = (bank + k for k in range(6))
    aj, bj = a + j, b + j
    rail = (np.append(ncin, r[:-1]), np.append(-1, s[:-1]))
    dest, srcs, fanin = _per_bit([(p, *rail, bj), (q, p, *rail), (r, p, bj), (s, r, q, aj),
                                  (t, s, aj), (u, s, r, q), (out + j, t, u)], n)
    srcs[:2] = [[ncin, b, -1],                  # bit 0 reads ncin alone
                [p[0], ncin, -1]]
    fanin[:2] = 2
    plan.ranges["ncout"] = (int(r[-1]), 2)      # r, s are adjacent
    return (dest, srcs, fanin), plan, ["a", "b", "ncin"], ["out", "ncout"]


def _mpy_program(n: int):
    # Shift-and-add: out accumulates a * b_i << i, one nine-gate ripple add
    # per partial product. Functionally exact; the cycle count is this
    # construction's own, not the catalog's 13n^2-14n.
    plan = _Plan()
    a, b, out = plan.block("a", n), plan.block("b", n), plan.block("out", 2 * n)
    na, pp = plan.block("not_a", n), plan.block("partial", n)
    nb = plan.block("not_b", 1)
    zero = plan.block("zero", 1)                # never written, stays 0
    cc = plan.block("carry", 1)
    t = plan.block("scratch", 7)
    j = np.arange(n)
    cin = np.where(j == 0, zero, cc)
    blocks = [_per_bit([(na + j, a + j)], n, 2)]
    for i in range(n):
        acc = out + i + j
        cout = np.where(j == n - 1, out + i + n, cc)
        blocks += [_per_bit([(nb, b + i)], 1, 2),
                   _per_bit([(pp + j, na + j, nb)], n),
                   _per_bit(_full_adder9(pp + j, acc, cin, acc, cout, t), n)]
    return tuple(map(np.concatenate, zip(*blocks))), plan, ["a", "b"], ["out"]


_GENERATORS = {
    OpKind.NOT: _not_program,
    OpKind.OR: _or_program,
    OpKind.AND: _and_program,
    OpKind.XOR: _xor_program,
    OpKind.ADD: _add_program,
    OpKind.ADD_FANIN4: _add_fanin4_program,
    OpKind.MPY: _mpy_program,
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
    gen = _GENERATORS.get(spec.kind)
    if gen is None:
        raise UnsupportedOperation(f"no canonical microprogram for {spec.kind.name}")
    (dest, srcs, fanin), plan, in_names, out_names = gen(spec.width_bits)
    return NorProgram(
        OP_NOR, dest, srcs, fanin,
        inputs=tuple([ColRange(x, *plan.ranges[x]) for x in in_names]),
        outputs=tuple([ColRange(x, *plan.ranges[x]) for x in out_names]),
        max_fanin=4 if spec.kind is OpKind.ADD_FANIN4 else 2,
    )
