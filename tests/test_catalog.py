import re

import numpy as np
import pytest

from bitlet import catalog
from bitlet.catalog import (OpKind, OpSpec, UnsupportedOperation, UnsupportedWidth,
                            catalog_table, execute, microprogram_of, oc_of)
from bitlet.simulator import (ArrayState, ColRange, InvalidProgram, Nor, compose,
                              pack_ints, run, unpack_ints)
from reference import bits_of, from_objects, program_form, sources_are_padded

EXACT_KINDS = {
    OpKind.NOT: lambda n: n,
    OpKind.OR: lambda n: 2 * n,
    OpKind.AND: lambda n: 3 * n,
    OpKind.XOR: lambda n: 5 * n,
    OpKind.ADD: lambda n: 9 * n,
    OpKind.ADD_FANIN4: lambda n: 7 * n,
}
GENERATED = [kind for kind, op in catalog.OPS.items() if op.generator is not None]


class TestCycleCounts:
    @pytest.mark.parametrize("kind,n,cycles", [
        (OpKind.AND, 16, 48),
        (OpKind.ADD, 16, 144),
        (OpKind.OR, 16, 32),
        (OpKind.MPY, 16, 3104),
        (OpKind.MPY_LOWPREC, 16, 1544),
        (OpKind.ADD_FANIN4, 16, 112),
        (OpKind.NOT, 8, 8),
        (OpKind.XOR, 16, 80),
    ])
    def test_reference_points(self, kind, n, cycles):
        assert oc_of(OpSpec(kind, n)) == cycles

    def test_formulas_exact_over_full_width_range(self):
        for kind, formula in EXACT_KINDS.items():
            for n in range(1, 65):
                assert oc_of(OpSpec(kind, n)) == formula(n)
        for n in range(2, 65):
            assert oc_of(OpSpec(OpKind.MPY, n)) == 13 * n * n - 14 * n

    def test_curve_ordering(self):
        # multiply above add above and above or above not, for n >= 2
        for n in range(2, 65):
            oc = {k: oc_of(OpSpec(k, n)) for k in
                  (OpKind.MPY, OpKind.ADD, OpKind.AND, OpKind.OR, OpKind.NOT)}
            assert oc[OpKind.MPY] > oc[OpKind.ADD] > oc[OpKind.AND] \
                > oc[OpKind.OR] > oc[OpKind.NOT]

    def test_low_precision_multiply_is_a_point_value(self):
        with pytest.raises(UnsupportedWidth):
            OpSpec(OpKind.MPY_LOWPREC, 8)
        with pytest.raises(UnsupportedWidth):
            OpSpec(OpKind.MPY_LOWPREC, 32)

    def test_width_bounds(self):
        with pytest.raises(UnsupportedWidth):
            OpSpec(OpKind.ADD, 0)
        with pytest.raises(UnsupportedWidth):
            OpSpec(OpKind.ADD, 1025)
        with pytest.raises(UnsupportedWidth):
            OpSpec(OpKind.MPY, 1)  # formula goes non-positive
        with pytest.raises(UnsupportedWidth, match=r"^width_bits: must be in 1\.\.1024, got True$"):
            OpSpec(OpKind.NOT, True)


class TestCatalogTable:
    def test_contains_figure_rows(self):
        rows = catalog_table()
        assert {"kind": "AND", "n": 16, "oc": 48} in rows
        assert {"kind": "MPY", "n": 64, "oc": 13 * 64 * 64 - 14 * 64} in rows


class TestOperationRecords:
    def test_one_record_per_kind_and_its_program_states_the_operands(self):
        ops = catalog.OPS
        assert list(ops) == list(OpKind)
        counted = [k for k, op in ops.items() if op.generator is not None and not op.cited]
        assert counted == [OpKind.NOT, OpKind.OR, OpKind.AND, OpKind.XOR,
                           OpKind.ADD, OpKind.ADD_FANIN4]
        assert GENERATED == [*counted, OpKind.MPY]
        tabled = [k for k, op in ops.items() if callable(op.count)]     # catalog_table's
        assert tabled == [k for k in OpKind if k is not OpKind.MPY_LOWPREC]
        # the operand count and carry come from the generator's blocks, so a
        # renamed carry block shows here rather than as a validate failure
        want = {OpKind.NOT: (1, False), OpKind.ADD: (2, True), OpKind.ADD_FANIN4: (2, True)}
        for kind in GENERATED:
            for n in range(1, 5):
                assert catalog.operands_of(ops[kind].generator(n)) == \
                    want.get(kind, (2, False)), (kind, n)


class TestMicroprograms:
    def test_or_width_one_shape(self):
        prog = microprogram_of(OpSpec(OpKind.OR, 1))
        assert len(prog) == 2
        # NOR of the operands, then an inverter on the intermediate
        first, second = prog.instructions
        assert isinstance(first, Nor) and len(first.srcs) == 2
        assert isinstance(second, Nor) and second.srcs == (first.dest,)
        a, b = np.indices((2, 2)).reshape(2, -1)
        assert np.array_equal(execute(prog, [a, b])[0], a | b)

    def test_and_width_one_exhaustive(self):
        prog = microprogram_of(OpSpec(OpKind.AND, 1))
        assert len(prog) == 3
        a, b = np.indices((2, 2)).reshape(2, -1)
        assert np.array_equal(execute(prog, [a, b])[0], a & b)

    # The two adders' raw column interface, which ``execute`` hides: ADD's
    # carry column holds the carry-in on entry and the carry-out on exit;
    # ADD_FANIN4's ncin is active low and its carry-out is the NOR of the
    # two-cell ncout rail.
    def test_full_adder_width_one_exhaustive(self):
        prog = microprogram_of(OpSpec(OpKind.ADD, 1))
        assert len(prog) == 9
        a, b, c = np.indices((2, 2, 2)).reshape(3, -1)
        state = ArrayState.zeros(8, prog.cols_required)
        for name, values in (("a", a), ("b", b), ("carry", c)):
            pack_ints(state, prog.range(name).start, 1, values)
        final, _ = run(prog, state)
        assert np.array_equal(unpack_ints(final, prog.range("out").start, 1), (a + b + c) & 1)
        assert np.array_equal(unpack_ints(final, prog.range("carry").start, 1), (a + b + c) >> 1)

    def test_fanin4_adder_width_one_exhaustive(self):
        prog = microprogram_of(OpSpec(OpKind.ADD_FANIN4, 1))
        assert len(prog) == 7
        assert prog.max_fanin == 4
        a, b, c = np.indices((2, 2, 2)).reshape(3, -1)
        state = ArrayState.zeros(8, prog.cols_required)
        for name, values in (("a", a), ("b", b), ("ncin", 1 - c)):
            pack_ints(state, prog.range(name).start, 1, values)
        final, _ = run(prog, state)
        rail = prog.range("ncout")
        assert rail.width == 2
        assert np.array_equal(unpack_ints(final, prog.range("out").start, 1), (a + b + c) & 1)
        assert np.array_equal(~bits_of(final)[:, rail.start:rail.stop].any(axis=1),
                              (a + b + c) >> 1)

    @pytest.mark.parametrize("kind", list(EXACT_KINDS))
    def test_gate_counts_match_catalog_for_all_widths(self, kind):
        for n in range(1, 33):
            prog = microprogram_of(OpSpec(kind, n))
            assert len(prog) == oc_of(OpSpec(kind, n))

    @pytest.mark.parametrize("n", [2, 5, 13, 32])
    def test_wide_operations_on_random_rows(self, n, rng):
        rows = 500
        a = rng.integers(0, 1 << n, rows, dtype=np.int64)
        b = rng.integers(0, 1 << n, rows, dtype=np.int64)
        cases = {
            OpKind.NOT: (~a) & ((1 << n) - 1),
            OpKind.OR: a | b,
            OpKind.AND: a & b,
            OpKind.XOR: a ^ b,
        }
        for kind, want in cases.items():
            prog = microprogram_of(OpSpec(kind, n))
            out, carry_out, _ = execute(prog, [a] if kind is OpKind.NOT else [a, b])
            assert np.array_equal(out, want), kind
            assert carry_out is None

    @pytest.mark.parametrize("n", [2, 5, 13, 32])
    def test_adders_on_random_rows(self, n, rng):
        rows = 500
        a = rng.integers(0, 1 << n, rows, dtype=np.int64)
        b = rng.integers(0, 1 << n, rows, dtype=np.int64)
        cin = rng.integers(0, 2, rows, dtype=np.int64)
        mask = (1 << n) - 1

        for kind in (OpKind.ADD, OpKind.ADD_FANIN4):
            out, carry, _ = execute(microprogram_of(OpSpec(kind, n)), [a, b], cin)
            assert np.array_equal(out, (a + b + cin) & mask), kind
            assert np.array_equal(carry, (a + b + cin) >> n), kind

    def test_multiplier_exhaustive_n4(self):
        n = 4
        prog = microprogram_of(OpSpec(OpKind.MPY, n))
        pairs = np.arange(256, dtype=np.int64)
        a, b = pairs & 15, pairs >> 4
        out, _, cycles = execute(prog, [a, b])
        assert np.array_equal(out, a * b)
        # the generated multiplier has its own cost, reported not asserted
        assert cycles == len(prog)

    def test_multiplier_random_n8(self, rng):
        n = 8
        prog = microprogram_of(OpSpec(OpKind.MPY, n))
        a = rng.integers(0, 256, 400, dtype=np.int64)
        b = rng.integers(0, 256, 400, dtype=np.int64)
        assert np.array_equal(execute(prog, [a, b])[0], a * b)

    def test_column_budget_enforced(self):
        # a, b and out (16 each), the carry and seven scratch columns
        prog = microprogram_of(OpSpec(OpKind.ADD, 16))
        assert prog.cols_required == 3 * 16 + 1 + 7
        prog.validate(8, prog.cols_required)
        with pytest.raises(InvalidProgram, match="out of range"):
            prog.validate(8, prog.cols_required - 1)

    def test_kinds_without_netlists(self):
        with pytest.raises(UnsupportedOperation):
            microprogram_of(OpSpec(OpKind.MPY_LOWPREC, 16))

    @pytest.mark.parametrize("kind,n", [(kind, n) for kind in EXACT_KINDS for n in range(1, 9)]
                             + [(OpKind.MPY, n) for n in range(2, 5)])
    def test_sources_past_the_fanin_are_padding(self, kind, n):
        assert sources_are_padded(microprogram_of(OpSpec(kind, n)))

    def test_fanin_stays_within_declared_limit(self):
        for kind in EXACT_KINDS:
            prog = microprogram_of(OpSpec(kind, 8))
            widest = max(len(i.srcs) for i in prog.instructions
                         if isinstance(i, Nor))
            assert widest <= prog.max_fanin
            if kind is not OpKind.ADD_FANIN4:
                assert prog.max_fanin == 2


class TestExecute:
    """``catalog.execute``'s contract, one test per rule."""

    @pytest.mark.parametrize("kind", [OpKind.ADD, OpKind.ADD_FANIN4])
    def test_no_carry_in_is_carry_in_zero(self, kind):
        # ADD_FANIN4's ncin left at 0 would be a carry-in of 1
        a, b = np.indices((16, 16)).reshape(2, -1)
        out, carry, _ = execute(microprogram_of(OpSpec(kind, 4)), [a, b])
        assert np.array_equal(out, (a + b) & 15)
        assert np.array_equal(carry, (a + b) >> 4)

    @pytest.mark.parametrize("kind", [OpKind.NOT, OpKind.OR, OpKind.AND, OpKind.XOR,
                                      OpKind.MPY])
    def test_carry_in_refused_without_a_carry_input(self, kind):
        prog = microprogram_of(OpSpec(kind, 4))
        operands = np.zeros((1 if kind is OpKind.NOT else 2, 3), dtype=np.int64)
        with pytest.raises(ValueError, match="^carry_in given to an operation without"):
            execute(prog, operands, np.ones(3, dtype=np.int64))

    @pytest.mark.parametrize("kind,count,shape", [
        (OpKind.NOT, 1, (2, 3)), (OpKind.OR, 2, (1, 3)), (OpKind.ADD, 2, (1, 3)),
        (OpKind.ADD_FANIN4, 2, (3, 3)), (OpKind.MPY, 2, (1, 3)), (OpKind.NOT, 1, (3,)),
    ])
    def test_one_operand_row_per_n_bit_input(self, kind, count, shape):
        prog = microprogram_of(OpSpec(kind, 4))
        message = f"need {count} row(s) of operands, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            execute(prog, np.zeros(shape, dtype=np.int64))

    def test_the_first_operand_row_is_a(self):
        # every catalog operation of two inputs is symmetric in them, so a
        # program that reads a alone pins which row goes where
        prog = from_objects(Nor(2, (0,)), inputs=(ColRange("a", 0, 1), ColRange("b", 1, 1)),
                            outputs=(ColRange("out", 2, 1),))
        out, carry, cycles = execute(prog, [[0, 1, 0, 1], [0, 0, 1, 1]])
        assert (out.tolist(), carry, cycles) == ([1, 0, 1, 0], None, 1)

    @pytest.mark.parametrize("kind", [OpKind.NOT, OpKind.ADD, OpKind.ADD_FANIN4])
    def test_a_range_name_declared_twice_is_refused(self, kind):
        # range() would read the first 'a' and a name-keyed lookup the last;
        # ADD's carry, one input and one output, is declared once in each
        prog = microprogram_of(OpSpec(kind, 4))
        twice = compose([prog, prog], [0, prog.cols_required])
        message = "program declares range 'a' twice; execute runs one catalog operation"
        operands = np.ones((1 if kind is OpKind.NOT else 2, 3), dtype=np.int64)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            execute(twice, operands)
        assert execute(prog, operands)[2] == len(prog)     # alone, it runs

    @pytest.mark.parametrize("kind", [k for k in GENERATED if k is not OpKind.NOT])
    def test_every_generator_puts_b_right_after_a(self, kind):
        # execute packs a and b with one call, as consecutive n-column blocks
        for n in (2, 5, 32):
            prog = microprogram_of(OpSpec(kind, n))
            a, b = prog.range("a"), prog.range("b")
            assert (b.start, a.width, b.width) == (a.stop, n, n)


# -- object-built reference generators ----------------------------------------
# The generators as they were written before programs became columnar: one
# Nor object per gate, columns allocated in the same order.

def _ref_full_adder9(out, aj, bj, cin, sum_dest, cout_dest, t):
    n1, n2, n3, n4, n5, n6, n7 = (t + k for k in range(7))
    out += [Nor(n1, (aj, bj)), Nor(n2, (aj, n1)), Nor(n3, (bj, n1)), Nor(n4, (n2, n3)),
            Nor(n5, (n4, cin)), Nor(n6, (n4, n5)), Nor(n7, (cin, n5)),
            Nor(sum_dest, (n6, n7)), Nor(cout_dest, (n1, n5))]


def reference_program(kind, n):
    """(instructions, {range name: (start, width)}, inputs, outputs, max_fanin)."""
    starts, top = {}, 0

    def block(name, width):
        nonlocal top
        starts[name] = (top, width)
        top += width
        return starts[name][0]

    out = []
    if kind is OpKind.NOT:
        a, o = block("a", n), block("out", n)
        out = [Nor(o + j, (a + j,)) for j in range(n)]
        return out, starts, ["a"], ["out"], 2
    if kind in (OpKind.OR, OpKind.AND, OpKind.XOR, OpKind.ADD):
        a, b, o = block("a", n), block("b", n), block("out", n)
    if kind is OpKind.OR:
        t = block("scratch", 1)
        for j in range(n):
            out += [Nor(t, (a + j, b + j)), Nor(o + j, (t,))]
    elif kind is OpKind.AND:
        t = block("scratch", 2)
        for j in range(n):
            out += [Nor(t, (a + j,)), Nor(t + 1, (b + j,)), Nor(o + j, (t, t + 1))]
    elif kind is OpKind.XOR:
        t = block("scratch", 4)
        for j in range(n):
            out += [Nor(t, (a + j, b + j)), Nor(t + 1, (a + j, t)), Nor(t + 2, (b + j, t)),
                    Nor(t + 3, (t + 1, t + 2)), Nor(o + j, (t + 3,))]
    elif kind is OpKind.ADD:
        c, t = block("carry", 1), block("scratch", 7)
        for j in range(n):
            _ref_full_adder9(out, a + j, b + j, c, o + j, c, t)
        return out, starts, ["a", "b", "carry"], ["out", "carry"], 2
    elif kind is OpKind.ADD_FANIN4:
        a, b, o = block("a", n), block("b", n), block("out", n)
        ncin = block("ncin", 1)
        banks = [block("scratch_even", 6), block("scratch_odd", 6)]
        rail = (ncin,)
        for j in range(n):
            p, q, r, s, t, u = (banks[j % 2] + k for k in range(6))
            out += [Nor(p, (*rail, b + j)), Nor(q, (p, *rail)), Nor(r, (p, b + j)),
                    Nor(s, (r, q, a + j)), Nor(t, (s, a + j)), Nor(u, (s, r, q)),
                    Nor(o + j, (t, u))]
            rail = (r, s)
        starts["ncout"] = (rail[0], 2)
        return out, starts, ["a", "b", "ncin"], ["out", "ncout"], 4
    elif kind is OpKind.MPY:
        a, b, o = block("a", n), block("b", n), block("out", 2 * n)
        na, pp = block("not_a", n), block("partial", n)
        nb, zero, cc, t = (block("not_b", 1), block("zero", 1), block("carry", 1),
                           block("scratch", 7))
        out = [Nor(na + j, (a + j,)) for j in range(n)]
        for i in range(n):
            out.append(Nor(nb, (b + i,)))
            out += [Nor(pp + j, (na + j, nb)) for j in range(n)]
            for j in range(n):
                _ref_full_adder9(out, pp + j, o + i + j, zero if j == 0 else cc,
                                 o + i + j, o + i + n if j == n - 1 else cc, t)
    return out, starts, ["a", "b"], ["out"], 2


class TestColumnarGenerators:
    # every generator: at the count check's widths, past them and, unless
    # its program grows with n**2, at the width cap
    @pytest.mark.parametrize("kind", GENERATED)
    def test_array_built_programs_equal_the_object_built_reference(self, kind):
        widths = ([*range(2, 34), 64] if kind is OpKind.MPY
                  else [*range(1, 65), catalog.WIDTH_CAP])
        for n in widths:
            prog = microprogram_of(OpSpec(kind, n))
            instrs, starts, ins, outs, max_fanin = reference_program(kind, n)
            ref = from_objects(*instrs, max_fanin=max_fanin,
                               inputs=tuple(ColRange(x, *starts[x]) for x in ins),
                               outputs=tuple(ColRange(x, *starts[x]) for x in outs))
            assert program_form(prog) == program_form(ref), (kind, n)
            assert len(prog) == len(ref)
            assert prog.cols_required == ref.cols_required
