import numpy as np
import pytest

import bitlet
from bitlet import PimMachine, WorkloadPoint, perf_pim
from bitlet.layout import (ColumnOverflow, LayoutSpec, RowOverflow,
                           default_assignment, pac_of, relocation_program,
                           subset_of_row)
from bitlet.simulator import (ArrayState, ColRange, HMove, NorProgram, VMove, count_cycles,
                              pack_ints, run, to_text, unpack_ints)
from test_simulator import reference_run


def layout(n=16, k=0, vertical=False, **kw):
    return LayoutSpec(element_width_bits=n, misaligned_subsets=k,
                      needs_vertical_relocation=vertical, **kw)


class TestPacFormula:
    def test_shifted_operand_vector(self, pim):
        # one group of 16-bit elements, unaligned and on the wrong rows
        assert pac_of(layout(16, 1, True), pim) == 1040

    def test_alignment_only(self, pim):
        assert pac_of(layout(16, 1, False), pim) == 16

    def test_perfect_layout_is_free(self, pim):
        assert pac_of(layout(16, 0, False), pim) == 0

    def test_three_groups_with_relocation(self, pim):
        assert pac_of(layout(16, 3, True), pim) == 3 * 16 + 1024

    def test_overrides_bypass_formula(self, pim):
        priced = layout(16, 3, True, hmove_override=5, vmove_override=7)
        assert pac_of(priced, pim) == 12

    def test_monotone_in_groups_and_width(self, pim):
        for vertical in (False, True):
            costs = [pac_of(layout(8, k, vertical), pim) for k in range(6)]
            assert costs == sorted(costs)
            widths = [pac_of(layout(n, 2, vertical), pim) for n in (1, 2, 4, 8, 16)]
            assert widths == sorted(widths)

    def test_relative_throughput_loss(self, pim):
        base = perf_pim(pim, WorkloadPoint(144, 0)).ops_per_second
        moved = perf_pim(pim, WorkloadPoint(144, 1040)).ops_per_second
        aligned = perf_pim(pim, WorkloadPoint(144, 16)).ops_per_second
        assert moved / base == pytest.approx(0.121621, abs=1e-6)
        assert 1 - aligned / base == pytest.approx(0.10, abs=1e-9)


class TestLayoutSpecValidation:
    def test_override_pair_rule(self):
        with pytest.raises(ValueError):
            layout(16, hmove_override=4)
        with pytest.raises(ValueError):
            layout(16, vmove_override=4)
        with pytest.raises(ValueError):
            layout(16, hmove_override=-1, vmove_override=0)

    def test_field_bounds(self):
        with pytest.raises(ValueError):
            LayoutSpec(element_width_bits=0)
        with pytest.raises(ValueError):
            LayoutSpec(element_width_bits=4, misaligned_subsets=-1)


class TestRelocationProgram:
    def test_shifted_operand_program_shape(self, pim):
        prog = relocation_program(layout(16, 1, True), pim)
        hmoves = [i for i in prog.instructions if isinstance(i, HMove)]
        vmoves = [i for i in prog.instructions if isinstance(i, VMove)]
        assert len(hmoves) == 16 and len(vmoves) == 1024
        assert count_cycles(prog) == 1040 == pac_of(layout(16, 1, True), pim)
        assert sum(v.crosses_array for v in vmoves) == 1

    def test_alignment_only_program(self, pim):
        prog = relocation_program(layout(16, 1, False), pim)
        assert count_cycles(prog) == 16
        assert all(isinstance(i, HMove) for i in prog.instructions)

    def test_identity_layout_is_empty(self, pim):
        assert count_cycles(relocation_program(layout(16, 0, False), pim)) == 0

    def test_overridden_layouts_have_no_program(self, pim):
        with pytest.raises(ValueError, match="verbatim"):
            relocation_program(layout(16, 1, hmove_override=3, vmove_override=0), pim)

    def test_count_matches_formula_small_grid(self):
        pim = PimMachine(rows=64, cols=512)
        for k in range(5):
            for n in (1, 3, 8, 32):
                for vertical in (False, True):
                    spec = layout(n, k, vertical)
                    assert count_cycles(relocation_program(spec, pim)) == \
                        pac_of(spec, pim)

    def test_relocation_moves_neighbour_elements_down(self, rng):
        # the canonical pattern: row r must end up with row r+1's element
        pim = PimMachine(rows=8, cols=64)
        spec = layout(n=4, k=1, vertical=True)
        assignment = default_assignment(spec)
        prog = relocation_program(spec, pim, assignment)
        state = ArrayState.zeros(8, 64)
        values = rng.integers(0, 16, 8, dtype=np.int64)
        pack_ints(state, assignment.source_starts[0], 4, values)
        final, cycles = run(prog, state)
        assert cycles == 4 + 8
        landed = unpack_ints(final, assignment.target_starts[0], 4)
        assert np.array_equal(landed[:-1], values[1:])
        # sources untouched by the move program
        assert np.array_equal(unpack_ints(final, assignment.source_starts[0], 4),
                              values)

    def test_two_groups_align_into_their_own_regions(self, rng):
        pim = PimMachine(rows=8, cols=64)
        spec = layout(n=4, k=2, vertical=False)
        assignment = default_assignment(spec)
        prog = relocation_program(spec, pim, assignment)
        state = ArrayState.zeros(8, 64)
        group_values = [rng.integers(0, 16, 8, dtype=np.int64) for _ in range(2)]
        for g in range(2):
            pack_ints(state, assignment.source_starts[g], 4, group_values[g])
        final, _ = run(prog, state)
        for row in range(8):
            g = subset_of_row(row, 8, 2)
            got = int(unpack_ints(final, assignment.target_starts[g], 4)[row])
            assert got == int(group_values[g][row])

    def test_positive_offset_moves_rows_up(self, rng):
        pim = PimMachine(rows=6, cols=32)
        spec = layout(n=4, k=0, vertical=True)
        assignment = default_assignment(spec, vertical_offset=1)
        prog = relocation_program(spec, pim, assignment)
        state = ArrayState.zeros(6, 32)
        values = rng.integers(0, 16, 6, dtype=np.int64)
        pack_ints(state, 0, 4, values)
        final, cycles = run(prog, state)
        assert cycles == 6
        landed = unpack_ints(final, 0, 4)
        assert np.array_equal(landed[1:], values[:-1])
        assert landed[0] == values[0]  # boundary row: neighbour data not modelled

    @pytest.mark.parametrize("rows", [5, 8, 13])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("offset", [-3, -1, 1, 2, 20])
    def test_each_vmove_uses_its_rows_region(self, rows, k, offset):
        # the region is the subset's target region of the source row, or of
        # the destination row when the source lies in a neighbouring array
        spec = layout(n=2, k=k, vertical=True)
        assignment = default_assignment(spec, vertical_offset=offset)
        prog = relocation_program(spec, PimMachine(rows=rows, cols=64), assignment)
        moves = [ins for ins in prog.instructions if isinstance(ins, VMove)]
        assert len(moves) == rows
        assert sorted(m.row + m.offset for m in moves) == list(range(rows))
        for m in moves:
            assert m.crosses_array == (not 0 <= m.row < rows)
            local = m.row + m.offset if m.crosses_array else m.row
            want = (assignment.target_starts[subset_of_row(local, rows, k)] if k
                    else assignment.aligned_start)
            assert (m.col_lo, m.col_hi) == (want, want + 1)

    def test_column_overflow(self):
        pim = PimMachine(rows=8, cols=16)
        with pytest.raises(ColumnOverflow):
            relocation_program(layout(n=16, k=1), pim)

    def test_one_column_overflow_class(self):
        # catching the package-level name also catches the layout's overflow
        pim = PimMachine(rows=8, cols=16)
        with pytest.raises(bitlet.ColumnOverflow):
            relocation_program(layout(n=16, k=1), pim)

    def test_row_overflow(self):
        pim = PimMachine(rows=4, cols=512)
        with pytest.raises(RowOverflow):
            relocation_program(layout(n=4, k=5), pim)

    def test_assignment_region_count_must_match(self, pim):
        wrong = default_assignment(layout(4, 2))
        with pytest.raises(ValueError, match="regions"):
            relocation_program(layout(4, 3), pim, wrong)


def reference_relocation(spec, pim, assignment):
    """The move program built one object per move, as before programs were
    columnar."""
    n, k, rows = spec.element_width_bits, spec.misaligned_subsets, pim.rows
    instrs = [HMove(t + j, s + j) for s, t in zip(assignment.source_starts,
                                                  assignment.target_starts)
              for j in range(n)]
    if spec.needs_vertical_relocation:
        off = assignment.vertical_offset
        region = [assignment.target_starts[subset_of_row(r, rows, k)] if k
                  else assignment.aligned_start for r in range(rows)]
        dests = range(rows) if off < 0 else range(rows - 1, -1, -1)
        inside = max(rows - abs(off), 0)
        instrs += [VMove(off, region[d - off], region[d - off] + n - 1, d - off)
                   for d in dests[:inside]]
        instrs += [VMove(off, region[d], region[d] + n - 1, d - off, crosses_array=True)
                   for d in dests[inside:]]
    inputs = tuple(ColRange(f"source_{g}", s, n)
                   for g, s in enumerate(assignment.source_starts))
    outputs = tuple(ColRange(f"target_{g}", t, n)
                    for g, t in enumerate(assignment.target_starts))
    if k == 0:
        outputs = (ColRange("aligned", assignment.aligned_start, n),)
    return NorProgram(tuple(instrs), inputs=inputs, outputs=outputs)


class TestColumnarRelocation:
    @pytest.mark.parametrize("offset", [-1, 1, -3, 3, -70, 70])
    @pytest.mark.parametrize("rows", [64, 13])
    def test_array_built_programs_equal_the_object_built_reference(self, rows, offset):
        # every layout of the validation suite's PAC agreement check
        pim = PimMachine(rows=rows, cols=512)
        for k in range(5):
            for n in (1, 2, 3, 4, 8, 16, 32):
                for vertical in (False, True):
                    spec = layout(n, k, vertical)
                    assignment = default_assignment(spec, vertical_offset=offset)
                    prog = relocation_program(spec, pim, assignment)
                    ref = reference_relocation(spec, pim, assignment)
                    assert to_text(prog) == to_text(ref), (k, n, vertical)
                    assert len(prog) == len(ref) == pac_of(spec, pim)
                    assert prog.cols_required == ref.cols_required
                    assert prog.max_fanin == ref.max_fanin
                    assert prog == ref

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_tall_relocation_runs_one_word_shift_per_subset(self, shift_calls, rng, k):
        # each subset's block of rows is one stretch of the shape rule's form
        pim = PimMachine(rows=4096, cols=32 * k)
        prog = relocation_program(layout(n=16, k=k, vertical=True), pim)
        bits = rng.integers(0, 2, (4096, 32 * k)).astype(bool)
        final, cycles = run(prog, ArrayState(bits))
        assert cycles == 16 * k + 4096
        assert len(shift_calls) == k
        assert final == ArrayState(reference_run(prog, bits)[0])
