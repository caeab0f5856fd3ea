import dataclasses
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitlet import simulator
from bitlet.catalog import OpKind, OpSpec, microprogram_of
from bitlet.simulator import (OP_HMOVE, OP_NOR, OP_VMOVE, ArrayState, ColRange, HMove,
                              InvalidProgram, Nor, NorProgram, VMove, _problem,
                              apply_instr, count_cycles, from_text, pack_ints, run,
                              to_text, unpack_ints)


def prog(*instrs, max_fanin=2, **kw):
    return NorProgram(tuple(instrs), max_fanin=max_fanin, **kw)


class TestNorSemantics:
    @pytest.mark.parametrize("a,b,expect", [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0)])
    def test_two_input_truth_table(self, a, b, expect):
        state = ArrayState(np.array([[a, b, 0]], dtype=bool))
        final, cycles = run(prog(Nor(2, (0, 1))), state)
        assert cycles == 1
        assert final.bits[0, 2] == bool(expect)

    def test_single_input_is_inverter(self):
        state = ArrayState(np.array([[0, 0], [1, 0]], dtype=bool))
        final, _ = run(prog(Nor(1, (0,))), state)
        assert final.bits[:, 1].tolist() == [True, False]

    def test_duplicate_sources_allowed(self):
        state = ArrayState(np.array([[1, 0]], dtype=bool))
        final, _ = run(prog(Nor(1, (0, 0))), state)
        assert final.bits[0, 1] == False  # noqa: E712

    def test_applies_to_all_rows_at_once(self, rng):
        bits = rng.integers(0, 2, (64, 3)).astype(bool)
        final, _ = run(prog(Nor(2, (0, 1))), ArrayState(bits.copy()))
        assert np.array_equal(final.bits[:, 2], ~(bits[:, 0] | bits[:, 1]))


class TestMoves:
    def test_hmove_copies_whole_column(self, rng):
        bits = rng.integers(0, 2, (32, 4)).astype(bool)
        final, cycles = run(prog(HMove(3, 1)), ArrayState(bits.copy()))
        assert cycles == 1
        assert np.array_equal(final.bits[:, 3], bits[:, 1])
        assert np.array_equal(final.bits[:, :3], bits[:, :3])

    def test_vmove_moves_one_row_range(self, rng):
        bits = rng.integers(0, 2, (8, 6)).astype(bool)
        final, _ = run(prog(VMove(-1, 2, 4, 3)), ArrayState(bits.copy()))
        assert np.array_equal(final.bits[2, 2:5], bits[3, 2:5])
        # everything else untouched, including the source row
        mask = np.ones_like(bits)
        mask[2, 2:5] = False
        assert np.array_equal(final.bits[mask], bits[mask])

    def test_cross_array_vmove_costs_a_cycle_but_changes_nothing(self, rng):
        bits = rng.integers(0, 2, (4, 3)).astype(bool)
        outgoing = VMove(-1, 0, 2, 0, crosses_array=True)   # leaves the array
        incoming = VMove(-1, 0, 2, 4, crosses_array=True)   # arrives from outside
        final, cycles = run(prog(outgoing, incoming), ArrayState(bits.copy()))
        assert cycles == 2
        assert np.array_equal(final.bits, bits)


EDGE_ROWS = (1, 63, 64, 65, 130)


def reference_run(program, bits):
    """Run a program instruction by instruction on a bool copy."""
    bits = bits.copy()
    for ins in program.instructions:
        apply_instr(bits, ins)
    return bits, len(program)


@st.composite
def nor_or_hmove(draw, cols):
    dest = draw(st.integers(0, cols - 1))
    other = st.integers(0, cols - 1).filter(lambda c: c != dest)
    if draw(st.booleans()):
        return HMove(dest, draw(other))
    return Nor(dest, tuple(draw(st.lists(other, min_size=1, max_size=4))))


@st.composite
def vmove(draw, rows, cols):
    # rows near the top of the array come up often, so moves chain through
    # the same rows (read-after-write and write-after-write hazards)
    offset = draw(st.sampled_from([-2, -1, 1, 2]) | st.integers(-rows - 1, rows + 1)
                  .filter(bool))
    row = draw(st.integers(-2, min(rows, 4) + 1) | st.integers(-2, rows + 1))
    src_in, dst_in = 0 <= row < rows, 0 <= row + offset < rows
    if not (src_in or dst_in):
        row = 0 if offset > 0 else rows - 1
        src_in, dst_in = True, 0 <= row + offset < rows
    lo = draw(st.integers(0, cols - 1))
    hi = draw(st.integers(lo, cols - 1))
    return VMove(offset, lo, hi, row, crosses_array=not (src_in and dst_in))


@st.composite
def random_programs(draw):
    rows = draw(st.sampled_from(EDGE_ROWS))
    cols = draw(st.integers(2, 10))
    instr = vmove(rows, cols) | vmove(rows, cols) | nor_or_hmove(cols)
    program = NorProgram(tuple(draw(st.lists(instr, max_size=40))), max_fanin=4)
    seed = draw(st.integers(0, 2**32 - 1))
    bits = np.random.default_rng(seed).integers(0, 2, (rows, cols)).astype(bool)
    return program, bits


class TestPackedEngineMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(random_programs())
    def test_run_equals_instruction_by_instruction(self, case):
        program, bits = case
        final, cycles = run(program, ArrayState(bits))
        want, want_cycles = reference_run(program, bits)
        assert cycles == want_cycles
        assert np.array_equal(final.bits, want)
        assert final == ArrayState(want)   # padding bits compare equal too

    @pytest.mark.parametrize("moves", [
        # read-after-write: row 0 must get row 2's cells through row 1
        (VMove(-1, 0, 3, 2), VMove(-1, 0, 3, 1)),
        # write-after-write: the second move overwrites row 1
        (VMove(-1, 0, 3, 2), VMove(1, 1, 2, 0)),
        # write-after-read stays in one run: row 1 gets row 2's cells 0-2
        # before the second move (another column range) rewrites row 2
        (VMove(-1, 0, 2, 2), VMove(-1, 1, 3, 3)),
        # a crossing move between the two halves of a chain
        (VMove(1, 0, 3, 0), VMove(-1, 0, 3, 0, crosses_array=True), VMove(1, 0, 3, 1)),
    ])
    def test_vmove_hazards(self, moves):
        bits = np.random.default_rng(7).integers(0, 2, (65, 4)).astype(bool)
        program = prog(*moves)
        final, _ = run(program, ArrayState(bits))
        assert np.array_equal(final.bits, reference_run(program, bits)[0])

    def test_bits_view_is_read_only(self):
        state = ArrayState.zeros(3, 2)
        with pytest.raises(ValueError):
            state.bits[0, 0] = True
        assert not state.bits.any()

    def test_padding_never_leaks(self):
        # NOR of a zero column sets every bit of the plane, padding included
        final, _ = run(prog(Nor(1, (0,))), ArrayState.zeros(65, 3))
        assert final.bits.shape == (65, 3)
        assert final.bits[:, 1].all() and not final.bits[:, [0, 2]].any()
        assert np.array_equal(unpack_ints(final, 1, 1), np.ones(65, dtype=np.int64))
        assert final == ArrayState(np.tile([False, True, False], (65, 1)))


class TestValidation:
    def test_dest_cannot_be_source(self):
        with pytest.raises(InvalidProgram, match="destination"):
            run(prog(Nor(0, (0, 1))), ArrayState.zeros(1, 2))

    def test_fanin_limit_default_two(self):
        p = prog(Nor(3, (0, 1, 2)))
        with pytest.raises(InvalidProgram, match="fan-in"):
            run(p, ArrayState.zeros(1, 4))
        p4 = prog(Nor(3, (0, 1, 2)), max_fanin=4)
        run(p4, ArrayState.zeros(1, 4))  # fine at the wider limit

    def test_column_bounds(self):
        with pytest.raises(InvalidProgram, match="out of range"):
            run(prog(Nor(5, (0,))), ArrayState.zeros(1, 3))
        with pytest.raises(InvalidProgram, match="out of range"):
            run(prog(HMove(0, 9)), ArrayState.zeros(1, 3))

    def test_vmove_bounds_and_flag(self):
        state = ArrayState.zeros(4, 2)
        with pytest.raises(InvalidProgram, match="neither endpoint"):
            run(prog(VMove(1, 0, 1, 9)), state)
        with pytest.raises(InvalidProgram, match="flag"):
            run(prog(VMove(-1, 0, 1, 4)), state)  # source outside, not flagged
        with pytest.raises(InvalidProgram, match="flag"):
            run(prog(VMove(-1, 0, 1, 2, crosses_array=True)), state)
        with pytest.raises(InvalidProgram, match="zero row offset"):
            run(prog(VMove(0, 0, 1, 1)), state)

    def test_validation_happens_before_any_mutation(self):
        bits = np.ones((2, 3), dtype=bool)
        state = ArrayState(bits)
        bad = prog(Nor(2, (0,)), Nor(9, (0,)))
        with pytest.raises(InvalidProgram):
            run(bad, state)
        assert np.array_equal(state.bits, np.ones((2, 3), dtype=bool))

    def test_max_fanin_range(self):
        with pytest.raises(InvalidProgram):
            NorProgram((), max_fanin=0)
        with pytest.raises(InvalidProgram):
            NorProgram((), max_fanin=5)


class TestProgramProperties:
    def test_count_cycles_empty(self):
        assert count_cycles(prog()) == 0

    def test_count_matches_run(self, rng):
        p = microprogram_of(OpSpec(OpKind.AND, 16))
        assert count_cycles(p) == 48
        _, cycles = run(p, ArrayState.zeros(4, p.cols_required))
        assert cycles == 48

    def test_determinism(self, rng):
        p = microprogram_of(OpSpec(OpKind.ADD, 8))
        state = ArrayState(rng.integers(0, 2, (32, p.cols_required)).astype(bool))
        a, _ = run(p, state)
        b, _ = run(p, state)
        assert a == b

    def test_row_independence(self, rng):
        # no VMove: permuting input rows permutes output rows identically
        p = microprogram_of(OpSpec(OpKind.XOR, 8))
        bits = rng.integers(0, 2, (50, p.cols_required)).astype(bool)
        perm = rng.permutation(50)
        straight, _ = run(p, ArrayState(bits.copy()))
        shuffled, _ = run(p, ArrayState(bits[perm].copy()))
        assert np.array_equal(straight.bits[perm], shuffled.bits)

    def test_locality_frame_check(self, rng):
        # every instruction changes its destination cells and nothing else
        p = microprogram_of(OpSpec(OpKind.ADD, 4))
        bits = rng.integers(0, 2, (16, p.cols_required)).astype(bool)
        for ins in p.instructions:
            before = bits.copy()
            apply_instr(bits, ins)
            changed = np.nonzero(bits != before)
            if isinstance(ins, Nor):
                assert set(changed[1].tolist()) <= {ins.dest}
            elif isinstance(ins, HMove):
                assert set(changed[1].tolist()) <= {ins.dest}
            else:
                assert set(changed[0].tolist()) <= {ins.row + ins.offset}

    def test_cols_required(self):
        p = prog(Nor(7, (0, 1)))
        assert p.cols_required == 8
        assert NorProgram((), inputs=(ColRange("a", 0, 4),)).cols_required == 4

    def test_range_lookup(self):
        p = NorProgram((), inputs=(ColRange("a", 0, 4),),
                       outputs=(ColRange("out", 4, 4),))
        assert p.range("out").start == 4
        with pytest.raises(KeyError):
            p.range("nope")


class TestPacking:
    def test_round_trip(self, rng):
        state = ArrayState.zeros(100, 40)
        values = rng.integers(0, 1 << 32, 100, dtype=np.int64)
        pack_ints(state, 3, 32, values)
        assert np.array_equal(unpack_ints(state, 3, 32), values)

    def test_little_endian_layout(self):
        state = ArrayState.zeros(1, 8)
        pack_ints(state, 2, 4, [0b1010])
        assert state.bits[0].tolist() == [False, False,
                                          False, True, False, True,
                                          False, False]

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pack_ints(ArrayState.zeros(4, 8), 0, 4, [1, 2])

    @pytest.mark.parametrize("col_lo,width", [(0, 65), (6, 4), (-1, 2)])
    def test_block_outside_the_columns_rejected(self, col_lo, width):
        state = ArrayState.zeros(4, 8)
        with pytest.raises(ValueError):
            pack_ints(state, col_lo, width, [1, 2, 3, 4])
        with pytest.raises(ValueError):
            unpack_ints(state, col_lo, width)

    @pytest.mark.parametrize("kernel", ["pack", "unpack"])
    def test_peak_allocation_is_a_small_multiple_of_the_planes(self, kernel):
        # Packing stages one word array of the block's bits plus one scratch
        # array of the same size for the in-place transpose; unpacking also
        # returns the int64 result. 2.5x the planes leaves room for small
        # objects but not for a third full-size temporary.
        rows, width = 65536, 32
        state = ArrayState.zeros(rows, width + 2)
        values = np.random.default_rng(1).integers(0, 1 << width, rows, dtype=np.int64)
        planes_bytes = width * rows // 8
        tracemalloc.start()
        try:
            if kernel == "pack":
                pack_ints(state, 1, width, values)
                out_bytes = 0
            else:
                out_bytes = unpack_ints(state, 1, width).nbytes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * planes_bytes + out_bytes

    def test_values_are_not_written(self):
        values = np.arange(-64, 64, dtype=np.int64)
        pack_ints(ArrayState.zeros(128, 9), 1, 8, values)
        assert np.array_equal(values, np.arange(-64, 64))

    def test_strided_values(self):
        state = ArrayState.zeros(10, 9)
        pack_ints(state, 1, 8, np.arange(20)[::2])
        assert unpack_ints(state, 1, 8).tolist() == list(range(0, 20, 2))

    @settings(max_examples=100, deadline=None)
    @given(rows=st.sampled_from(EDGE_ROWS), width=st.integers(0, 64),
           col_lo=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_matches_bitwise_layout(self, rows, width, col_lo, seed):
        values = np.random.default_rng(seed).integers(-2**63, 2**63 - 1, rows,
                                                      dtype=np.int64)
        state = ArrayState.zeros(rows, col_lo + width + 2)
        pack_ints(state, col_lo, width, values)
        shifts = np.arange(width, dtype=np.int64)
        want_bits = ((values[:, None] >> shifts) & 1).astype(bool)
        assert np.array_equal(state.bits[:, col_lo:col_lo + width], want_bits)
        assert not state.bits[:, :col_lo].any() and not state.bits[:, col_lo + width:].any()
        assert np.array_equal(unpack_ints(state, col_lo, width),
                              want_bits.astype(np.int64) @ (np.int64(1) << shifts))


class TestTextFormat:
    def test_round_trip(self):
        p = prog(Nor(2, (0, 1)), Nor(3, (2,)), HMove(4, 3),
                 VMove(-1, 0, 3, 1), VMove(-1, 0, 3, 8, crosses_array=True),
                 max_fanin=2)
        text = to_text(p)
        assert text.splitlines() == [
            "NOR 2 0 1",
            "NOR 3 2",
            "HMOVE 4 3",
            "VMOVE -1 0 3 1",
            "VMOVE -1 0 3 8 x",
        ]
        back = from_text(text)
        assert back.instructions == p.instructions

    def test_fanin_inferred_from_widest_nor(self):
        p = from_text("NOR 4 0 1 2 3\n")
        assert p.max_fanin == 4

    def test_comments_and_blanks_ignored(self):
        p = from_text("# header\n\nNOR 1 0\n")
        assert len(p) == 1

    @pytest.mark.parametrize("line", [
        "NOR 1", "HMOVE 1", "HMOVE 1 2 3", "VMOVE 1 2 3", "VMOVE 1 2 3 4 y",
        "FROB 1 2", "NOR a b",
    ])
    def test_parse_errors(self, line):
        with pytest.raises(InvalidProgram, match="line 1"):
            from_text(line)

    def test_empty_program_serializes_to_empty(self):
        assert to_text(prog()) == ""


def test_large_array_run_is_fast():
    # a multiply-sized instruction stream over a full array stays well
    # under the ten-second budget
    cols = 1024
    instrs = [Nor((i + 7) % cols, (i % cols, (i + 3) % cols)) for i in range(3104)]
    program = NorProgram(tuple(instrs))
    state = ArrayState.zeros(1024, cols)
    start = time.monotonic()
    _, cycles = run(program, state)
    elapsed = time.monotonic() - start
    assert cycles == 3104
    assert elapsed < 10.0


# -- the columnar program form ------------------------------------------------

def reference_error(program_instrs, rows, cols, max_fanin):
    """The text of the first instruction-by-instruction validation failure."""
    for i, ins in enumerate(program_instrs):
        problem = _problem(ins, rows, cols, max_fanin)
        if problem is not None:
            return f"instruction {i}: {ins!r}: {problem}"
    return None


@st.composite
def bad_instruction(draw, rows, cols, max_fanin):
    """One instruction that breaks a rule of validation."""
    col = st.integers(0, cols - 1)
    outside = st.sampled_from([-1, cols, cols + 7])
    rule = draw(st.sampled_from(["column", "dest_is_src", "fanin", "offset", "flag",
                                 "range", "neither", "hmove"]))
    if rule == "column":
        srcs = draw(st.lists(col | outside, min_size=1, max_size=max_fanin))
        return Nor(draw(outside), tuple(srcs)) if draw(st.booleans()) else \
            Nor(draw(col), tuple(draw(st.permutations([*srcs[1:], draw(outside)]))))
    if rule == "dest_is_src":
        dest = draw(col)
        return Nor(dest, tuple(draw(st.permutations([dest, *draw(st.lists(col, max_size=3))]))))
    if rule == "fanin":
        size = draw(st.sampled_from([0, *range(max_fanin + 1, 7)]))
        return Nor(draw(col), tuple(draw(st.lists(col, min_size=size, max_size=size))))
    if rule == "hmove":
        dest = draw(col | outside)
        return HMove(dest, draw(st.just(dest) | outside))
    row = draw(st.integers(0, rows - 1))
    if rule == "offset":
        return VMove(0, 0, draw(col), row)
    if rule == "flag":
        off = draw(st.sampled_from([-1, 1]))
        row = draw(st.sampled_from([0, rows - 1]))
        inside = 0 <= row + off < rows
        return VMove(off, 0, draw(col), row, crosses_array=inside)
    if rule == "range":
        lo, hi = draw(st.sampled_from([(1, 0), (-1, 0), (0, cols), (cols, cols + 1)]))
        return VMove(1 if row == 0 else -1, lo, hi, row)
    return VMove(draw(st.sampled_from([-1, 1])), 0, 0, draw(st.sampled_from([-5, rows + 5])))


@st.composite
def mutated_programs(draw):
    rows = draw(st.sampled_from(EDGE_ROWS))
    cols = draw(st.integers(2, 10))
    max_fanin = draw(st.integers(1, 4))
    legal = nor_or_hmove(cols).filter(
        lambda ins: not isinstance(ins, Nor) or len(ins.srcs) <= max_fanin)
    instrs = draw(st.lists(vmove(rows, cols) | legal, max_size=12))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(instrs)))
        instrs.insert(at, draw(bad_instruction(rows, cols, max_fanin)))
    return instrs, rows, cols, max_fanin


class TestColumnarValidation:
    @settings(max_examples=300, deadline=None)
    @given(mutated_programs())
    @example(([Nor(9, (0,)), Nor(1, ())], 4, 3, 2))        # rule 3 before rule 1
    @example(([VMove(-1, 0, 1, 3, crosses_array=True), VMove(0, 0, 1, 1)], 4, 3, 2))
    @example(([HMove(5, 0), Nor(1, (0, 1, 2))], 4, 3, 2))
    def test_error_text_is_that_of_the_first_bad_instruction(self, case):
        instrs, rows, cols, max_fanin = case
        want = reference_error(instrs, rows, cols, max_fanin)
        program = NorProgram(tuple(instrs), max_fanin=max_fanin)
        assert want is not None
        with pytest.raises(InvalidProgram) as err:
            program.validate(rows, cols)
        assert str(err.value) == want

    @settings(max_examples=100, deadline=None)
    @given(random_programs())
    def test_legal_programs_pass(self, case):
        program, bits = case
        assert reference_error(program.instructions, *bits.shape, program.max_fanin) is None
        program.validate(*bits.shape)

    @pytest.mark.parametrize("junk", ["NOR 1 0", None, (1, (0,)), 3])
    def test_unknown_object_fails_at_construction(self, junk):
        with pytest.raises(InvalidProgram) as err:
            NorProgram((Nor(1, (0,)), junk))
        assert str(err.value) == f"instruction 1: {junk!r}: unknown instruction type"


class TestColumnarForm:
    INSTRS = (Nor(2, (0, 1)), Nor(3, (2,)), HMove(4, 3), Nor(5, (0, 1, 2, 3)),
              VMove(-1, 0, 3, 1), VMove(1, 2, 4, 7, crosses_array=True))

    def test_columns(self):
        p = NorProgram(self.INSTRS, max_fanin=4)
        assert p.op.tolist() == [OP_NOR, OP_NOR, OP_HMOVE, OP_NOR, OP_VMOVE, OP_VMOVE]
        assert p.srcs.shape == (6, 4)
        assert p.srcs[1].tolist() == [2, -1, -1, -1]
        assert p.fanin.tolist() == [2, 1, 1, 4, 0, 0]
        assert p.crosses.tolist() == [False] * 5 + [True]
        with pytest.raises(ValueError):
            p.dest[0] = 7                       # the columns are read-only

    def test_instructions_are_rebuilt_as_plain_objects(self):
        p = NorProgram(self.INSTRS, max_fanin=4)
        got = p.instructions
        assert got == self.INSTRS
        assert got is not p.instructions        # a new tuple on each access
        assert [type(i) for i in got] == [type(i) for i in self.INSTRS]
        for ins in got:
            for field in dataclasses.fields(ins):
                value = getattr(ins, field.name)
                for v in value if isinstance(value, tuple) else (value,):
                    assert type(v) in (int, bool)
        assert repr(got[0]) == "Nor(dest=2, srcs=(0, 1))"

    def test_from_arrays_equals_the_object_form(self):
        p = NorProgram.from_arrays(
            [OP_NOR, OP_NOR, OP_HMOVE, OP_NOR, OP_VMOVE, OP_VMOVE],
            [2, 3, 4, 5, -1, -1],
            [[0, 1, -1, -1], [2, -1, -1, -1], [3, -1, -1, -1], [0, 1, 2, 3],
             [-1] * 4, [-1] * 4],
            offset=[0, 0, 0, 0, -1, 1], col_lo=[0, 0, 0, 0, 0, 2],
            col_hi=[0, 0, 0, 0, 3, 4], row=[0, 0, 0, 0, 1, 7],
            crosses=[False] * 5 + [True], max_fanin=4)
        q = NorProgram(self.INSTRS, max_fanin=4)
        assert p == q and hash(p) == hash(q)
        assert p.instructions == self.INSTRS
        assert to_text(p) == to_text(q)
        assert p.cols_required == q.cols_required == 6

    def test_fanin_column_keeps_out_of_range_sources(self):
        # a source of -1 is a source, not padding: validation must see it
        p = prog(Nor(1, (-1,)))
        assert p.fanin.tolist() == [1]
        with pytest.raises(InvalidProgram, match=r"^instruction 0: Nor\(dest=1, "
                                                 r"srcs=\(-1,\)\): column -1 out of range$"):
            p.validate(1, 3)

    def test_equality_never_raises(self):
        a, b = prog(Nor(1, (0,))), prog(Nor(1, (0,)))
        assert a == b and not (a != b)
        assert a != prog(Nor(2, (0,))) and a != "NOR 1 0"
        assert a != prog(Nor(1, (0,)), max_fanin=3)

    def test_empty_program(self):
        p = prog()
        assert len(p) == 0 and p.instructions == ()
        assert p.cols_required == 1 and to_text(p) == ""
        assert NorProgram((), outputs=(ColRange("x", 3, 4),)).cols_required == 7
        state = ArrayState(np.eye(3, dtype=bool))
        final, cycles = run(p, state)
        assert cycles == 0 and final == state and final is not state


@st.composite
def move_stretches(draw):
    """A stretch of VMoves with one offset and rows stepping by one.

    Both offset signs and both row directions are drawn (only rows that
    step by -sign(offset) have the shape rule's form), lengths across word
    boundaries, stretches that start and end inside a word, offsets just
    below, at and above one and two words, mixed or shared column ranges,
    crossing moves at the ends, and a NOR before the stretch.
    """
    rows = draw(st.sampled_from([63, 64, 65, 130, 200, 256, 257]))
    cols = draw(st.integers(1, 5))
    offset = draw(st.sampled_from([-1, 1, -2, 3, -63, 63, -64, 64, -65, 65, -70, 70,
                                   -128, 128, -129, 129])
                  | st.integers(-rows, rows).filter(bool))
    step = draw(st.sampled_from([-1, 1]))
    length = draw(st.sampled_from([1, 2, 63, 64, 65, 130]) | st.integers(1, rows))
    start = draw(st.sampled_from([5, 70, rows - 6]) | st.integers(0, rows - 1))
    lo = draw(st.integers(0, cols - 1))
    hi = draw(st.integers(lo, cols - 1))
    mixed = draw(st.booleans()) and cols > 1
    moves = []
    for i in range(length):
        row = start + step * i
        src_in, dst_in = 0 <= row < rows, 0 <= row + offset < rows
        if not (src_in or dst_in):
            continue
        if mixed:
            lo = draw(st.integers(0, cols - 1))
            hi = draw(st.integers(lo, cols - 1))
        moves.append(VMove(offset, lo, hi, row, crosses_array=not (src_in and dst_in)))
    ends = [VMove(-1, 0, cols - 1, 0, crosses_array=True),
            VMove(1, 0, cols - 1, rows - 1, crosses_array=True)]
    moves = draw(st.lists(st.sampled_from(ends), max_size=2)) + moves
    moves += draw(st.lists(st.sampled_from(ends), max_size=2))
    if cols > 1 and draw(st.booleans()):
        # a NOR writes ones into the padding bits past the last row of its
        # destination (its source's padding is zero) before the moves run
        dest = draw(st.integers(0, cols - 1))
        moves.insert(0, Nor(dest, ((dest + 1) % cols,)))
    seed = draw(st.integers(0, 2**32 - 1))
    bits = np.random.default_rng(seed).integers(0, 2, (rows, cols)).astype(bool)
    return prog(*moves), bits


class TestShapeRule:
    @settings(max_examples=300, deadline=None)
    @given(move_stretches())
    def test_run_equals_instruction_by_instruction(self, case):
        program, bits = case
        final, cycles = run(program, ArrayState(bits))
        want, want_cycles = reference_run(program, bits)
        assert cycles == want_cycles
        assert np.array_equal(final.bits, want)
        assert final == ArrayState(want)

    @pytest.mark.parametrize("offset,step", [(-1, 1), (1, -1), (-70, 1), (70, -1)])
    def test_stretch_of_the_form_skips_the_hazard_split(self, monkeypatch, offset, step):
        rows = 130
        start = -offset if step == 1 else rows - 1 - offset
        moves = [VMove(offset, 1, 2, start + step * i) for i in range(rows - abs(offset))]
        bits = np.random.default_rng(3).integers(0, 2, (rows, 4)).astype(bool)

        def no_split(*_):
            raise AssertionError("the hazard split ran")

        monkeypatch.setattr(simulator, "_hazard_free_runs", no_split)
        final, _ = run(prog(*moves), ArrayState(bits))
        assert np.array_equal(final.bits, reference_run(prog(*moves), bits)[0])

    def test_ascending_rows_with_a_positive_offset_take_the_general_path(self):
        # sequential execution copies row 0 through the whole range
        bits = np.zeros((65, 1), dtype=bool)
        bits[0] = True
        moves = [VMove(1, 0, 0, r) for r in range(64)]
        final, _ = run(prog(*moves), ArrayState(bits))
        assert final.bits[:, 0].all()
