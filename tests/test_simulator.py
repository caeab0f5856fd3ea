import dataclasses
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitlet.catalog import OPS, OpKind, OpSpec, microprogram_of
from bitlet.layout import LayoutSpec, relocation_program
from bitlet.machine import PimMachine
from bitlet.simulator import (OP_HMOVE, OP_NOR, OP_VMOVE, ArrayState, ColRange, HMove,
                              InvalidProgram, Nor, NorProgram, VMove, _runs, compose,
                              pack_ints, run, unpack_ints)
from reference import (BadOp, apply_instr, bits_of, from_objects as prog, program_form,
                       rebuilt, reference_error, reference_run, same_state, sources_are_padded,
                       state_of)


class TestNorSemantics:
    @pytest.mark.parametrize("a,b,expect", [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0)])
    def test_two_input_truth_table(self, a, b, expect):
        state = state_of(np.array([[a, b, 0]], dtype=bool))
        final, cycles = run(prog(Nor(2, (0, 1))), state)
        assert cycles == 1
        assert bits_of(final)[0, 2] == bool(expect)

    def test_single_input_is_inverter(self):
        state = state_of(np.array([[0, 0], [1, 0]], dtype=bool))
        final, _ = run(prog(Nor(1, (0,))), state)
        assert bits_of(final)[:, 1].tolist() == [True, False]

    def test_duplicate_sources_allowed(self):
        state = state_of(np.array([[1, 0]], dtype=bool))
        final, _ = run(prog(Nor(1, (0, 0))), state)
        assert bits_of(final)[0, 1] == False  # noqa: E712

    def test_applies_to_all_rows_at_once(self, rng):
        bits = rng.integers(0, 2, (64, 3)).astype(bool)
        final, _ = run(prog(Nor(2, (0, 1))), state_of(bits.copy()))
        assert np.array_equal(bits_of(final)[:, 2], ~(bits[:, 0] | bits[:, 1]))


class TestMoves:
    def test_hmove_copies_whole_column(self, rng):
        bits = rng.integers(0, 2, (32, 4)).astype(bool)
        final, cycles = run(prog(HMove(3, 1)), state_of(bits.copy()))
        assert cycles == 1
        assert np.array_equal(bits_of(final)[:, 3], bits[:, 1])
        assert np.array_equal(bits_of(final)[:, :3], bits[:, :3])

    def test_vmove_moves_one_row_range(self, rng):
        bits = rng.integers(0, 2, (8, 6)).astype(bool)
        final, _ = run(prog(VMove(-1, 2, 4, 3)), state_of(bits.copy()))
        assert np.array_equal(bits_of(final)[2, 2:5], bits[3, 2:5])
        # everything else untouched, including the source row
        mask = np.ones_like(bits)
        mask[2, 2:5] = False
        assert np.array_equal(bits_of(final)[mask], bits[mask])

    def test_cross_array_vmove_costs_a_cycle_but_changes_nothing(self, rng):
        bits = rng.integers(0, 2, (4, 3)).astype(bool)
        outgoing = VMove(-1, 0, 2, 0, crosses_array=True)   # leaves the array
        incoming = VMove(-1, 0, 2, 4, crosses_array=True)   # arrives from outside
        final, cycles = run(prog(outgoing, incoming), state_of(bits.copy()))
        assert cycles == 2
        assert np.array_equal(bits_of(final), bits)


EDGE_ROWS = (1, 63, 64, 65, 130)
# the word edges, and any row count in between
ROWS = st.sampled_from(EDGE_ROWS) | st.integers(1, 130)


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
    rows = draw(ROWS)
    cols = draw(st.integers(2, 10))
    instr = vmove(rows, cols) | vmove(rows, cols) | nor_or_hmove(cols)
    program = prog(*draw(st.lists(instr, max_size=40)), max_fanin=4)
    seed = draw(st.integers(0, 2**32 - 1))
    bits = np.random.default_rng(seed).integers(0, 2, (rows, cols)).astype(bool)
    return program, bits


class TestPackedEngineMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(random_programs())
    def test_run_equals_instruction_by_instruction(self, case):
        program, bits = case
        final, cycles = run(program, state_of(bits))
        want, want_cycles = reference_run(program, bits)
        assert cycles == want_cycles
        assert np.array_equal(bits_of(final), want)
        assert same_state(final, state_of(want))   # padding bits compare equal too

    @settings(max_examples=50, deadline=None)
    @given(random_programs())
    def test_validate_returns_the_op_code_runs(self, case):
        # `run` executes from these runs instead of working them out again
        program, bits = case
        segments = program.validate(*bits.shape)
        assert [(a, b) for _, a, b in segments] == _runs(program.op)
        assert [kind for kind, _, _ in segments] == [int(program.op[a])
                                                     for _, a, _ in segments]

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
        final, _ = run(program, state_of(bits))
        assert np.array_equal(bits_of(final), reference_run(program, bits)[0])

    def test_unpacked_values_are_a_copy(self):
        # a read of a state hands out new values: writing them changes no cell
        state = ArrayState.zeros(3, 2)
        unpack_ints(state, 0, 2)[0] = 3
        assert same_state(state, ArrayState.zeros(3, 2))

    def test_padding_never_leaks(self):
        # NOR of a zero column sets every bit of the plane, padding included
        final, _ = run(prog(Nor(1, (0,))), ArrayState.zeros(65, 3))
        assert bits_of(final).shape == (65, 3)
        assert bits_of(final)[:, 1].all() and not bits_of(final)[:, [0, 2]].any()
        assert np.array_equal(unpack_ints(final, 1, 1), np.ones(65, dtype=np.int64))
        assert same_state(final, state_of(np.tile([False, True, False], (65, 1))))


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
        state = state_of(bits)
        bad = prog(Nor(2, (0,)), Nor(9, (0,)))
        with pytest.raises(InvalidProgram):
            run(bad, state)
        assert np.array_equal(bits_of(state), np.ones((2, 3), dtype=bool))

    def test_max_fanin_range(self):
        with pytest.raises(InvalidProgram):
            prog(max_fanin=0)
        with pytest.raises(InvalidProgram):
            prog(max_fanin=5)


class TestProgramProperties:
    def test_empty_program_costs_no_cycles(self):
        _, cycles = run(prog(), ArrayState.zeros(4, 1))
        assert cycles == len(prog()) == 0

    def test_count_matches_run(self, rng):
        p = microprogram_of(OpSpec(OpKind.AND, 16))
        assert len(p) == 48
        _, cycles = run(p, ArrayState.zeros(4, p.cols_required))
        assert cycles == 48

    def test_run_allocates_a_small_fraction_of_the_planes(self):
        # run works in place: it copies no plane, and per NOR it makes only
        # views and Python ints
        p = microprogram_of(OpSpec(OpKind.ADD, 32))
        rows = 65536
        state = ArrayState.zeros(rows, p.cols_required)
        planes_bytes = p.cols_required * rows // 8
        tracemalloc.start()
        try:
            run(p, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * planes_bytes

    def test_determinism(self, rng):
        # run works in place, so each run gets its own copy of one state
        p = microprogram_of(OpSpec(OpKind.ADD, 8))
        state = state_of(rng.integers(0, 2, (32, p.cols_required)).astype(bool))
        first = state.copy()
        a, _ = run(p, first)
        b, _ = run(p, state.copy())
        assert a is first and same_state(a, b) and not same_state(a, state)

    def test_row_independence(self, rng):
        # no VMove: permuting input rows permutes output rows identically
        p = microprogram_of(OpSpec(OpKind.XOR, 8))
        bits = rng.integers(0, 2, (50, p.cols_required)).astype(bool)
        perm = rng.permutation(50)
        straight, _ = run(p, state_of(bits.copy()))
        shuffled, _ = run(p, state_of(bits[perm].copy()))
        assert np.array_equal(bits_of(straight)[perm], bits_of(shuffled))

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
        assert prog(inputs=(ColRange("a", 0, 4),)).cols_required == 4

    def test_range_lookup(self):
        p = prog(inputs=(ColRange("a", 0, 4),), outputs=(ColRange("out", 4, 4),))
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
        assert bits_of(state)[0].tolist() == [False, False,
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

    @pytest.mark.parametrize("width", [1, 5, 8, 12, 64])
    def test_consecutive_blocks_equal_one_block_at_a_time(self, rng, width):
        rows, blocks = 70, 3
        values = rng.integers(-2**63, 2**63 - 1, (blocks, rows), dtype=np.int64)
        together, one_by_one = ArrayState.zeros(rows, 200), ArrayState.zeros(rows, 200)
        pack_ints(together, 2, width, values)
        for i, block in enumerate(values):
            pack_ints(one_by_one, 2 + i * width, width, block)
        assert same_state(together, one_by_one)
        got = unpack_ints(together, 2, width, blocks)
        assert got.shape == (blocks, rows)
        for i in range(blocks):
            assert np.array_equal(got[i], unpack_ints(together, 2 + i * width, width))
        with pytest.raises(ValueError):
            pack_ints(together, 200 - 2 * width, width, values)
        with pytest.raises(ValueError):
            pack_ints(together, 0, width, values[None])

    @settings(max_examples=100, deadline=None)
    @given(rows=ROWS, width=st.integers(0, 64),
           col_lo=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_matches_bitwise_layout(self, rows, width, col_lo, seed):
        values = np.random.default_rng(seed).integers(-2**63, 2**63 - 1, rows,
                                                      dtype=np.int64)
        state = ArrayState.zeros(rows, col_lo + width + 2)
        pack_ints(state, col_lo, width, values)
        shifts = np.arange(width, dtype=np.int64)
        want_bits = ((values[:, None] >> shifts) & 1).astype(bool)
        assert np.array_equal(bits_of(state)[:, col_lo:col_lo + width], want_bits)
        rest = np.delete(bits_of(state), np.s_[col_lo:col_lo + width], axis=1)
        assert not rest.any()
        assert np.array_equal(unpack_ints(state, col_lo, width),
                              want_bits.astype(np.int64) @ (np.int64(1) << shifts))


def test_large_array_run_is_fast():
    # a multiply-sized instruction stream over a full array stays well
    # under the ten-second budget
    cols = 1024
    instrs = [Nor((i + 7) % cols, (i % cols, (i + 3) % cols)) for i in range(3104)]
    program = prog(*instrs)
    state = ArrayState.zeros(1024, cols)
    start = time.monotonic()
    _, cycles = run(program, state)
    elapsed = time.monotonic() - start
    assert cycles == 3104
    assert elapsed < 10.0


# -- the columnar program form ------------------------------------------------

@st.composite
def bad_instruction(draw, rows, cols, max_fanin):
    """One instruction that breaks a rule of validation."""
    col = st.integers(0, cols - 1)
    outside = st.sampled_from([-1, cols, cols + 7])
    rule = draw(st.sampled_from(["column", "dest_is_src", "fanin", "offset", "flag",
                                 "range", "neither", "hmove", "op_code"]))
    if rule == "op_code":
        return BadOp(draw(st.sampled_from([-128, -1, 3, 127]) | st.integers(-128, 127)
                          .filter(lambda op: op not in (OP_NOR, OP_HMOVE, OP_VMOVE))))
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
    rows = draw(ROWS)
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
    @example(([Nor(1, (0,)), BadOp(3), Nor(2, (0,))], 4, 3, 2))   # inside a run of NORs
    @example(([Nor(9, (0,)), BadOp(-1)], 4, 3, 2))        # refused before validation
    # at the int32 extremes: row + offset must not wrap (into row 0 here)
    @example(([VMove(2**31 - 1, 0, 0, 2**31 - 1)], 4, 3, 2))
    @example(([VMove(-2**31, 0, 0, -2**31)], 4, 3, 2))
    @example(([VMove(-1, 0, 2**31 - 1, 1)], 4, 3, 2))
    def test_error_text_is_that_of_the_first_bad_instruction(self, case):
        # an unknown op code is refused by the constructor, any other rule
        # by validate
        instrs, rows, cols, max_fanin = case
        want = reference_error(instrs, rows, cols, max_fanin)
        assert want is not None
        with pytest.raises(InvalidProgram) as err:
            prog(*instrs, max_fanin=max_fanin).validate(rows, cols)
        assert str(err.value) == want

    @settings(max_examples=100, deadline=None)
    @given(random_programs())
    def test_legal_programs_pass(self, case):
        program, bits = case
        assert reference_error(program.instructions, *bits.shape, program.max_fanin) is None
        program.validate(*bits.shape)

    @pytest.mark.parametrize("op", [3, -1])
    def test_unknown_op_code_is_rejected(self, op):
        # no such program is built, so nothing reads the op code as one of
        # the three kinds
        with pytest.raises(InvalidProgram) as err:
            NorProgram(np.array([OP_NOR, op], np.int8), [2, 1], [[0], [0]])
        assert str(err.value) == f"instruction 1: op code {op} is not NOR, HMOVE or VMOVE"

    def test_hmove_source_is_checked_whatever_its_fanin(self):
        # srcs[:, 0] is the source an HMove copies, even where the fan-in
        # inferred from a -1 source is 0
        p = NorProgram(OP_HMOVE, [1], [-1])
        assert p.fanin.tolist() == [0]
        with pytest.raises(InvalidProgram, match=r"^instruction 0: HMove\(dest=1, src=-1\): "
                                                 r"column -1 out of range$"):
            run(p, ArrayState.zeros(2, 3))


class TestColumnarForm:
    INSTRS = (Nor(2, (0, 1)), Nor(3, (2,)), HMove(4, 3), Nor(5, (0, 1, 2, 3)),
              VMove(-1, 0, 3, 1), VMove(1, 2, 4, 7, crosses_array=True))

    def test_columns(self):
        p = prog(*self.INSTRS, max_fanin=4)
        assert p.op.tolist() == [OP_NOR, OP_NOR, OP_HMOVE, OP_NOR, OP_VMOVE, OP_VMOVE]
        assert p.srcs.shape == (6, 4)
        assert p.srcs[1].tolist() == [2, -1, -1, -1]
        assert p.fanin.tolist() == [2, 1, 1, 4, 0, 0]
        assert p.crosses.tolist() == [False] * 5 + [True]
        with pytest.raises(ValueError):
            p.dest[0] = 7                       # the columns are read-only

    def test_instructions_are_rebuilt_as_plain_objects(self):
        p = prog(*self.INSTRS, max_fanin=4)
        got = tuple(p.instructions)
        assert got == self.INSTRS
        assert [type(i) for i in got] == [type(i) for i in self.INSTRS]
        for ins in got:
            for field in dataclasses.fields(ins):
                value = getattr(ins, field.name)
                for v in value if isinstance(value, tuple) else (value,):
                    assert type(v) in (int, bool)
        assert repr(got[0]) == "Nor(dest=2, srcs=(0, 1))"

    def test_columns_equal_the_object_form(self):
        p = NorProgram(
            [OP_NOR, OP_NOR, OP_HMOVE, OP_NOR, OP_VMOVE, OP_VMOVE],
            [2, 3, 4, 5, -1, -1],
            [[0, 1, -1, -1], [2, -1, -1, -1], [3, -1, -1, -1], [0, 1, 2, 3],
             [-1] * 4, [-1] * 4],
            offset=[0, 0, 0, 0, -1, 1], col_lo=[0, 0, 0, 0, 0, 2],
            col_hi=[0, 0, 0, 0, 3, 4], row=[0, 0, 0, 0, 1, 7],
            crosses=[False] * 5 + [True], max_fanin=4)
        q = prog(*self.INSTRS, max_fanin=4)
        assert program_form(p) == program_form(q)
        assert tuple(p.instructions) == self.INSTRS
        assert p.cols_required == q.cols_required == 6

    def test_fanin_column_keeps_out_of_range_sources(self):
        # a source of -1 is a source, not padding: validation must see it
        p = prog(Nor(1, (-1,)))
        assert p.fanin.tolist() == [1]
        with pytest.raises(InvalidProgram, match=r"^instruction 0: Nor\(dest=1, "
                                                 r"srcs=\(-1,\)\): column -1 out of range$"):
            p.validate(1, 3)

    def test_programs_compare_by_instructions_and_interface(self):
        def form(dest=1, width=1, max_fanin=2):
            return program_form(prog(Nor(dest, (0,)), outputs=(ColRange("out", 1, width),),
                                     max_fanin=max_fanin))

        assert form() == form()
        assert form() not in (form(dest=2), form(width=2), form(max_fanin=3),
                              program_form(prog(Nor(1, (0,)))))

    def test_constructor_takes_over_owned_columns_and_copies_the_rest(self):
        op = np.full(3, OP_NOR, dtype=np.int8)
        dest = np.array([2, 3, 4], dtype=np.int32)
        srcs = np.array([[0, 1], [1, -1], [2, 3]], dtype=np.int32)
        fanin = np.array([2, 1, 2], dtype=np.int32)
        crosses = np.zeros(3, dtype=bool)
        owned = {"op": op, "dest": dest, "srcs": srcs, "fanin": fanin, "crosses": crosses}
        view = np.arange(9, dtype=np.int32)[::3]           # base is not None
        wrong = np.array([0, 1, 2], dtype=np.int64)        # not int32
        wide = np.array([[0, 1, -1], [1, -1, -1], [2, 3, -1]])   # wider than any fan-in
        kept = {name: a.copy() for name, a in {**owned, "view": view, "wrong": wrong}.items()}
        p = NorProgram(op, dest, srcs, fanin, offset=view, col_lo=wrong, crosses=crosses)
        q = NorProgram(op.copy(), dest.copy(), wide)
        for name, given in owned.items():
            assert getattr(p, name) is given and not given.flags.writeable
        for given, column in ((view, p.offset), (wrong, p.col_lo), (wide, q.srcs)):
            assert not np.shares_memory(given, column) and given.flags.writeable
        assert q.srcs.shape == (3, 2) and q.srcs.tolist() == srcs.tolist()
        assert p.offset.tolist() == [0, 3, 6] and p.col_lo.tolist() == [0, 1, 2]
        assert p.col_lo.dtype == q.srcs.dtype == np.int32
        # running the program writes no column and no caller array
        run(p, ArrayState.zeros(5, 5))
        run(q, ArrayState.zeros(5, 5))
        for name, given in {**owned, "view": view, "wrong": wrong}.items():
            assert np.array_equal(given, kept[name]), name
        assert wide[:, 2].tolist() == [-1, -1, -1]

    @pytest.mark.parametrize("scalars", [True, False], ids=["scalars", "lists"])
    def test_scalar_and_list_columns_are_read_only(self, scalars):
        if scalars:
            p = NorProgram(OP_VMOVE, [-1, -1], [-1, -1], 0, -1, 1, 2, 5, False)
        else:
            p = NorProgram([OP_VMOVE] * 2, [-1, -1], [[-1], [-1]], [0, 0],
                           [-1, -1], [1, 1], [2, 2], [5, 6], [False, True])
        assert next(p.instructions) == VMove(-1, 1, 2, 5)
        for name in ("op", "dest", "srcs", "fanin", "offset", "col_lo", "col_hi", "row",
                     "crosses"):
            column = getattr(p, name)
            assert len(column) == 2 and not column.flags.writeable, name
            with pytest.raises(ValueError):
                column[0] = 1

    def test_omitted_move_fields_are_read_only_zeros(self):
        p = NorProgram(OP_NOR, [2, 3], [[0, 1], [2, -1]])
        for name in ("offset", "col_lo", "col_hi", "row", "crosses"):
            column = getattr(p, name)
            assert column.tolist() == [0, 0] and not column.flags.writeable, name
        assert p.fanin.tolist() == [2, 1] and p.srcs.shape == (2, 2)

    def test_empty_program(self):
        p = prog()
        assert len(p) == 0 and tuple(p.instructions) == ()
        assert p.cols_required == 1
        assert prog(outputs=(ColRange("x", 3, 4),)).cols_required == 7
        state = state_of(np.eye(3, dtype=bool))
        final, cycles = run(p, state)
        assert cycles == 0 and final is state
        assert same_state(final, state_of(np.eye(3, dtype=bool)))

    def test_columns_of_another_length_are_refused(self):
        # an array column must match dest's length, not broadcast from one
        # entry (a scalar still broadcasts)
        with pytest.raises(InvalidProgram, match=r"^column srcs has shape \(1, 1\), not 2 rows$"):
            NorProgram(OP_NOR, [1, 2], [[0]])
        legal = {"op": [OP_VMOVE] * 2, "dest": [-1, -1], "srcs": [-1, -1], "fanin": [0, 0],
                 "offset": [-1, -1], "col_lo": [0, 0], "col_hi": [0, 0], "row": [1, 2],
                 "crosses": [False, False]}
        for name in ("op", "fanin", "offset", "col_lo", "col_hi", "row", "crosses"):
            for entries in (legal[name][:1], legal[name] * 2):
                with pytest.raises(InvalidProgram, match=rf"^column {name} has shape "
                                                         rf"\({len(entries)},\), not \(2,\)$"):
                    NorProgram(**{**legal, name: entries})
        assert tuple(NorProgram(**{**legal, "offset": -1}).instructions) == (
            VMove(-1, 0, 0, 1), VMove(-1, 0, 0, 2))
        # srcs narrower than the widest fan-in
        with pytest.raises(InvalidProgram, match=r"^column srcs has shape \(1, 1\), not \(1, 2\)$"):
            NorProgram(OP_NOR, [2], [[0]], fanin=[2])

    INT_COLUMNS = ("dest", "srcs", "fanin", "offset", "col_lo", "col_hi", "row")

    @pytest.mark.parametrize("given", [[2**31], [-2**31 - 1], np.array([2**32 + 1], np.int64)],
                             ids=["2**31", "-2**31-1", "int64 2**32+1"])
    @pytest.mark.parametrize("name", INT_COLUMNS)
    def test_entries_outside_int32_are_refused_not_wrapped(self, name, given):
        # narrowed to int32, 2**32 + 1 would read as 1 and 2**31 as -2**31
        columns = {"op": OP_VMOVE, "dest": [-1], "srcs": [[-1]], "fanin": [0],
                   "offset": [-1], "col_lo": [0], "col_hi": [0], "row": [1],
                   name: [given] if name == "srcs" else given}
        with pytest.raises(InvalidProgram, match=rf"^column {name} holds {int(given[0])}, "
                                                 rf"outside the int32 range$"):
            NorProgram(**columns)

    # (a fan-in of 2**31 - 1 would need as many srcs columns)
    @pytest.mark.parametrize("name", [c for c in INT_COLUMNS if c != "fanin"])
    def test_int32_extremes_are_kept(self, name):
        for value in (2**31 - 1, -2**31):
            p = NorProgram(**{"op": OP_VMOVE, "dest": [-1], "srcs": [[-1]], "fanin": [0],
                              name: np.array([value] if name != "srcs" else [[value]])})
            assert getattr(p, name).ravel().tolist() == [value]


def long_program(k, cuts, ops, seed):
    """A k-instruction program whose op code is ops[i] from cuts[i - 1] on;
    the other columns are random and need not be valid."""
    rng = np.random.default_rng(seed)
    fanin = rng.integers(1, 5, k)
    srcs = np.where(np.arange(4) < fanin[:, None], rng.integers(0, 8, (k, 4)), -1)
    op = np.repeat(ops, np.diff([0, *cuts, k]))
    return NorProgram(op, rng.integers(0, 8, k), srcs, offset=rng.integers(-3, 4, k),
                      col_lo=rng.integers(0, 4, k), col_hi=rng.integers(4, 8, k),
                      row=rng.integers(0, 9, k), crosses=rng.integers(0, 2, k).astype(bool),
                      max_fanin=4)


@st.composite
def chunk_edge_programs(draw):
    """Programs about one or two 1024-instruction chunks long, with op-code
    runs that often change near, or run across, a chunk edge."""
    k = draw(st.sampled_from([1023, 1024, 1025, 2049]))
    near_edge = st.sampled_from([1024, 2048]).flatmap(
        lambda edge: st.integers(edge - 3, edge + 3))
    cuts = sorted({c for c in draw(st.lists(near_edge | st.integers(1, k - 1), max_size=4))
                   if 0 < c < k})
    ops = draw(st.lists(st.sampled_from([OP_NOR, OP_HMOVE, OP_VMOVE]),
                        min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    return long_program(k, cuts, ops, draw(st.integers(0, 2**32 - 1)))


class TestInstructionView:
    """Each access of ``NorProgram.instructions`` walks the objects forward."""

    @settings(max_examples=60, deadline=None)
    @given(random_programs().map(lambda case: case[0]) | chunk_edge_programs())
    def test_a_walk_equals_the_whole_program_built_at_once(self, p):
        assert tuple(p.instructions) == p._materialize(0, len(p))

    def test_each_access_is_a_new_forward_walk(self):
        p = prog(*TestColumnarForm.INSTRS, max_fanin=4)
        walk, other = p.instructions, p.instructions
        assert iter(walk) is walk
        assert next(walk) == TestColumnarForm.INSTRS[0]
        assert tuple(other) == TestColumnarForm.INSTRS       # not moved on by walk
        assert tuple(walk) == TestColumnarForm.INSTRS[1:]
        assert tuple(walk) == () and tuple(other) == ()      # exhausted walks yield nothing
        assert next(p.instructions) is not next(p.instructions)   # new objects each walk
        assert tuple(prog().instructions) == ()


@st.composite
def stretch_moves(draw, rows, cols):
    """The VMoves of one stretch with one offset and rows stepping by one.

    Both offset signs and both row directions are drawn (only rows that
    step by -sign(offset) have the shape rule's form), lengths across word
    boundaries, stretches that start and end inside a word, offsets just
    below, at and above one and two words, mixed or shared column ranges,
    and crossing moves at the ends or in the middle.
    """
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
            VMove(1, 0, cols - 1, rows - 1, crosses_array=True),
            # the stretch's own offset and columns, only the flag differs
            VMove(offset, lo, hi, 0 if offset < 0 else rows - 1, crosses_array=True)]
    for _ in range(draw(st.integers(0, 2))):
        moves.insert(draw(st.integers(0, len(moves))), draw(st.sampled_from(ends)))
    moves = draw(st.lists(st.sampled_from(ends), max_size=2)) + moves
    return moves + draw(st.lists(st.sampled_from(ends), max_size=2))


@st.composite
def move_stretches(draw, stretches=st.just(1)):
    """``stretch_moves`` stretches back to back, on one array, after an
    optional NOR that dirties the padding bits."""
    rows = draw(st.sampled_from([63, 64, 65, 130, 200, 256, 257]))
    cols = draw(st.integers(1, 5))
    moves = []
    for _ in range(draw(stretches)):
        moves += draw(stretch_moves(rows, cols))
    if cols > 1 and draw(st.booleans()):
        # a NOR writes ones into the padding bits past the last row of its
        # destination (its source's padding is zero) before the moves run
        dest = draw(st.integers(0, cols - 1))
        moves.insert(0, Nor(dest, ((dest + 1) % cols,)))
    seed = draw(st.integers(0, 2**32 - 1))
    bits = np.random.default_rng(seed).integers(0, 2, (rows, cols)).astype(bool)
    return prog(*moves), bits


@st.composite
def hmove_stretches(draw):
    """Runs of HMoves whose dest and src both step by one, with dest - src
    drawn on both sides of zero, inside and outside 1..len - 1 (where a move
    reads a column an earlier move of the run wrote), and with a NOR or a
    lone move between runs."""
    rows = draw(ROWS)
    cols = draw(st.integers(3, 12))
    instrs = []
    for _ in range(draw(st.integers(1, 3))):
        length = draw(st.integers(1, cols - 1))
        delta = draw(st.integers(length - cols, cols - length).filter(bool))
        first = draw(st.integers(max(0, -delta), min(cols - length, cols - length - delta)))
        instrs += [HMove(first + delta + t, first + t) for t in range(length)]
        if draw(st.booleans()):
            instrs.append(draw(nor_or_hmove(cols)))
    seed = draw(st.integers(0, 2**32 - 1))
    bits = np.random.default_rng(seed).integers(0, 2, (rows, cols)).astype(bool)
    return prog(*instrs, max_fanin=4), bits


class TestHMoveStretches:
    @settings(max_examples=200, deadline=None)
    @given(hmove_stretches())
    def test_run_equals_instruction_by_instruction(self, case):
        program, bits = case
        final, cycles = run(program, state_of(bits))
        want, want_cycles = reference_run(program, bits)
        assert cycles == want_cycles
        assert same_state(final, state_of(want))

    def test_a_run_reading_what_it_wrote_is_not_one_copy(self):
        # column 0 is copied through columns 1..3 one move at a time
        bits = np.zeros((5, 4), dtype=bool)
        bits[:, 0] = True
        final, _ = run(prog(HMove(1, 0), HMove(2, 1), HMove(3, 2)), state_of(bits))
        assert bits_of(final).all()


class TestShapeRule:
    @settings(max_examples=300, deadline=None)
    @given(move_stretches())
    def test_run_equals_instruction_by_instruction(self, case):
        program, bits = case
        final, cycles = run(program, state_of(bits))
        want, want_cycles = reference_run(program, bits)
        assert cycles == want_cycles
        assert np.array_equal(bits_of(final), want)
        assert same_state(final, state_of(want))

    @settings(max_examples=50, deadline=None)
    @given(move_stretches(st.integers(1, 4)))
    def test_stretches_back_to_back_equal_instruction_by_instruction(self, case):
        program, bits = case
        final, cycles = run(program, state_of(bits))
        want, want_cycles = reference_run(program, bits)
        assert cycles == want_cycles
        assert np.array_equal(bits_of(final), want)
        assert same_state(final, state_of(want))

    @pytest.mark.parametrize("offset,step", [(-1, 1), (1, -1), (-70, 1), (70, -1)])
    def test_stretch_of_the_form_is_one_word_shift(self, shift_calls, offset, step):
        rows = 130
        start = -offset if step == 1 else rows - 1 - offset
        moves = [VMove(offset, 1, 2, start + step * i) for i in range(rows - abs(offset))]
        bits = np.random.default_rng(3).integers(0, 2, (rows, 4)).astype(bool)
        final, _ = run(prog(*moves), state_of(bits))
        assert len(shift_calls) == 1
        assert np.array_equal(bits_of(final), reference_run(prog(*moves), bits)[0])

    # 640 rows are 10 words; the 120 source rows of each stretch lie clear of
    # both end words, or its read of n + 1 source words starts before word 0
    # or runs past word 9, which the read clips to the end word
    @pytest.mark.parametrize("first,offset", [(200, -70), (319, 70), (119, 70), (520, -70)],
                             ids=["inside-up", "inside-down", "before-first-word",
                                  "past-last-word"])
    def test_stretch_inside_or_at_an_end_word_is_one_word_shift(self, shift_calls, first,
                                                                offset):
        rows, step = 640, -np.sign(offset)
        moves = [VMove(offset, 1, 2, first + step * i) for i in range(120)]
        bits = np.random.default_rng(5).integers(0, 2, (rows, 4)).astype(bool)
        final, _ = run(prog(*moves), state_of(bits))
        assert shift_calls == [(min(first, first + step * 119),
                                max(first, first + step * 119) + 1, offset)]
        assert np.array_equal(bits_of(final), reference_run(prog(*moves), bits)[0])

    def test_ascending_rows_with_a_positive_offset_copy_the_first_row_through(self):
        # sequential execution copies row 0 through the whole range
        bits = np.zeros((65, 1), dtype=bool)
        bits[0] = True
        moves = [VMove(1, 0, 0, r) for r in range(64)]
        final, _ = run(prog(*moves), state_of(bits))
        assert bits_of(final)[:, 0].all()


# -- composition -----------------------------------------------------------------

@st.composite
def composed_parts(draw):
    """2-4 parts on one row count: catalog programs of small widths,
    relocation programs and ``random_programs``' instructions, all at fan-in
    limit 4, placed at disjoint offsets with gaps between them."""
    rows = draw(ROWS)
    parts = []
    for _ in range(draw(st.integers(2, 4))):
        source = draw(st.sampled_from(["catalog", "relocation", "random"]))
        if source == "catalog":
            kind = draw(st.sampled_from([k for k, op in OPS.items() if op.generator]))
            n = draw(st.integers(2 if kind is OpKind.MPY else 1, 4))
            part = microprogram_of(OpSpec(kind, n))
        elif source == "relocation":
            layout = LayoutSpec(draw(st.integers(1, 4)), draw(st.integers(0, min(rows, 3))),
                                draw(st.booleans()))
            part = relocation_program(layout, PimMachine(rows=rows))
        else:
            cols = draw(st.integers(2, 6))
            instr = vmove(rows, cols) | nor_or_hmove(cols)
            part = prog(*draw(st.lists(instr, max_size=12)))
        parts.append(rebuilt(part, max_fanin=4))
    offsets, col = [], 0
    for part in parts:
        col += draw(st.integers(0, 3))
        offsets.append(col)
        col += part.cols_required
    seed = draw(st.integers(0, 2**32 - 1))
    bits = np.random.default_rng(seed).integers(0, 2, (rows, col + 2)).astype(bool)
    return parts, offsets, bits


class TestCompose:
    @settings(max_examples=60, deadline=None)
    @given(composed_parts())
    def test_each_part_runs_as_it_would_alone_on_its_slice(self, case):
        parts, offsets, bits = case
        composed = compose(parts, offsets)
        assert sources_are_padded(composed)
        final, cycles = run(composed, state_of(bits))
        assert cycles == sum(map(len, parts))
        untouched = np.ones(bits.shape[1], dtype=bool)
        for part, off in zip(parts, offsets):
            part_cols = slice(off, off + part.cols_required)
            alone, _ = run(part, state_of(bits[:, part_cols]))
            assert np.array_equal(bits_of(final)[:, part_cols], bits_of(alone))
            untouched[part_cols] = False
        assert np.array_equal(bits_of(final)[:, untouched], bits[:, untouched])

    def test_what_shifts_and_what_does_not(self):
        first = prog(Nor(2, (0,)), VMove(-1, 0, 1, 3), Nor(-3, (1,)))
        second = prog(Nor(3, (0, 1)), HMove(1, 0), max_fanin=2)
        c = compose([first, second], [10, 20])
        # the -1 padding, a VMove's dest and the bad column -3 stay as they are
        assert c.dest.tolist() == [12, -1, -3, 23, 21]
        assert c.srcs.tolist() == [[10, -1], [-1, -1], [11, -1], [20, 21], [20, -1]]
        assert sources_are_padded(c)
        assert (c.col_lo.tolist(), c.col_hi.tolist()) == ([0, 10, 0, 0, 0], [0, 11, 0, 0, 0])
        assert tuple(c.instructions) == (Nor(12, (10,)), VMove(-1, 10, 11, 3), Nor(-3, (11,)),
                                         Nor(23, (20, 21)), HMove(21, 20))
        # so a part that is invalid alone stays invalid
        with pytest.raises(InvalidProgram, match=r"^instruction 2: .*column -3 out of range$"):
            c.validate(8, 64)

    def test_ranges_are_declared_shifted_in_order(self):
        pim = PimMachine(rows=8)
        parts = [relocation_program(LayoutSpec(2, 1), pim), microprogram_of(OpSpec(OpKind.OR, 2))]
        c = compose(parts, [0, 5])
        assert c.inputs == (ColRange("source_0", 0, 2), ColRange("a", 5, 2), ColRange("b", 7, 2))
        assert c.outputs == (ColRange("target_0", 2, 2), ColRange("out", 9, 2))

    @pytest.mark.parametrize("part", [
        microprogram_of(OpSpec(OpKind.ADD_FANIN4, 3)), microprogram_of(OpSpec(OpKind.MPY, 2)),
        relocation_program(LayoutSpec(3, 2, True), PimMachine(rows=9)), prog()])
    def test_one_part_at_zero_is_the_part(self, part):
        c = compose([part], [0])
        assert program_form(c) == program_form(part)

    def test_mixed_fanin_limits_are_refused(self):
        parts = [microprogram_of(OpSpec(OpKind.ADD_FANIN4, 1)), microprogram_of(OpSpec(OpKind.OR, 1))]
        with pytest.raises(InvalidProgram, match=r"^parts differ in max_fanin: \[2, 4\]$"):
            compose(parts, [0, 20])

    def test_a_column_past_int32_is_refused_by_the_constructor(self):
        with pytest.raises(InvalidProgram, match=r"^column dest holds 2147483649, "
                                                 r"outside the int32 range$"):
            compose([prog(Nor(2, (0,)))], [2**31 - 1])
        # a VMove has no dest to shift: its column range is named
        with pytest.raises(InvalidProgram, match=r"^column col_lo holds 2147483648, "
                                                 r"outside the int32 range$"):
            compose([prog(VMove(-1, 1, 2, 3))], [2**31 - 1])

    def test_a_count_mismatch_is_refused(self):
        with pytest.raises(ValueError, match=r"^2 programs but 1 offsets$"):
            compose([prog(), prog()], [0])
