import tracemalloc

import numpy as np
import pytest

import bitlet
from bitlet import FieldError, InputError, PimMachine, WorkloadPoint
from bitlet.layout import ColumnOverflow, LayoutSpec, RowOverflow, pac_of, relocation_program
from bitlet.simulator import ArrayState, ColRange, HMove, VMove, pack_ints, run, unpack_ints
from reference import (from_objects, perf_pim, program_form, reference_run, same_state,
                       sources_are_padded, state_of, subset_of_row)


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
        with pytest.raises(FieldError, match=r"^element_width_bits: must be an integer, got True$"):
            LayoutSpec(element_width_bits=True, misaligned_subsets=True)
        with pytest.raises(FieldError, match=r"^hmove_override: must be an integer, got 2\.5$"):
            layout(16, hmove_override=2.5, vmove_override=1)


class TestRelocationProgram:
    def test_shifted_operand_program_shape(self, pim):
        prog = relocation_program(layout(16, 1, True), pim)
        hmoves = [i for i in prog.instructions if isinstance(i, HMove)]
        vmoves = [i for i in prog.instructions if isinstance(i, VMove)]
        assert len(hmoves) == 16 and len(vmoves) == 1024
        assert len(prog) == 1040 == pac_of(layout(16, 1, True), pim)
        assert sum(v.crosses_array for v in vmoves) == 1

    def test_alignment_only_program(self, pim):
        prog = relocation_program(layout(16, 1, False), pim)
        assert len(prog) == 16
        assert all(isinstance(i, HMove) for i in prog.instructions)

    def test_identity_layout_is_empty(self, pim):
        assert len(relocation_program(layout(16, 0, False), pim)) == 0

    def test_overridden_layouts_have_no_program(self, pim):
        with pytest.raises(ValueError, match="verbatim"):
            relocation_program(layout(16, 1, hmove_override=3, vmove_override=0), pim)

    def test_count_matches_formula_small_grid(self):
        pim = PimMachine(rows=64, cols=512)
        for k in range(5):
            for n in (1, 3, 8, 32):
                for vertical in (False, True):
                    spec = layout(n, k, vertical)
                    assert len(relocation_program(spec, pim)) == \
                        pac_of(spec, pim)

    @pytest.mark.parametrize("vertical", [False, True])
    @pytest.mark.parametrize("k", range(5))
    def test_sources_past_the_fanin_are_padding(self, k, vertical):
        pim = PimMachine(rows=64, cols=512)
        assert sources_are_padded(relocation_program(layout(8, k, vertical), pim))

    def test_relocation_moves_neighbour_elements_down(self, rng):
        # the canonical pattern: row r must end up with row r+1's element
        pim = PimMachine(rows=8, cols=64)
        prog = relocation_program(layout(n=4, k=1, vertical=True), pim)
        source, target = prog.range("source_0"), prog.range("target_0")
        state = ArrayState.zeros(8, 64)
        values = rng.integers(0, 16, 8, dtype=np.int64)
        pack_ints(state, source.start, 4, values)
        final, cycles = run(prog, state)
        assert cycles == 4 + 8
        landed = unpack_ints(final, target.start, 4)
        assert np.array_equal(landed[:-1], values[1:])
        # sources untouched by the move program
        assert np.array_equal(unpack_ints(final, source.start, 4), values)

    def test_two_groups_align_into_their_own_regions(self, rng):
        pim = PimMachine(rows=8, cols=64)
        prog = relocation_program(layout(n=4, k=2, vertical=False), pim)
        state = ArrayState.zeros(8, 64)
        group_values = [rng.integers(0, 16, 8, dtype=np.int64) for _ in range(2)]
        for g in range(2):
            pack_ints(state, prog.range(f"source_{g}").start, 4, group_values[g])
        final, _ = run(prog, state)
        for row in range(8):
            g = subset_of_row(row, 8, 2)
            got = int(unpack_ints(final, prog.range(f"target_{g}").start, 4)[row])
            assert got == int(group_values[g][row])

    @pytest.mark.parametrize("rows,k", [(rows, k) for rows in (1, 2, 5, 8, 13)
                                        for k in range(min(rows, 4) + 1)])
    def test_each_vmove_uses_its_rows_region(self, rows, k):
        # VMove d moves row d+1's element in that row's output region; the
        # last one reads the neighbouring array and uses its own row's
        spec = layout(n=2, k=k, vertical=True)
        prog = relocation_program(spec, PimMachine(rows=rows, cols=64))
        moves = [ins for ins in prog.instructions if isinstance(ins, VMove)]
        assert [(m.row, m.offset) for m in moves] == [(d + 1, -1) for d in range(rows)]
        for d, m in enumerate(moves):
            assert m.crosses_array == (d == rows - 1)
            want = prog.outputs[subset_of_row(min(d + 1, rows - 1), rows, k)].start
            assert (m.col_lo, m.col_hi) == (want, want + 1)

    @pytest.mark.parametrize("vertical", [False, True])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_declared_interface(self, k, vertical):
        # sources side by side from column 0, then the targets; with nothing
        # to align, the elements sit in one region at column 0
        prog = relocation_program(layout(n=4, k=k, vertical=vertical),
                                  PimMachine(rows=16, cols=64))
        assert prog.inputs == tuple(ColRange(f"source_{g}", 4 * g, 4) for g in range(k))
        assert prog.outputs == (tuple(ColRange(f"target_{g}", 4 * (k + g), 4)
                                      for g in range(k)) or (ColRange("aligned", 0, 4),))

    def test_column_overflow(self):
        pim = PimMachine(rows=8, cols=16)
        with pytest.raises(ColumnOverflow) as err:
            relocation_program(layout(n=16, k=1), pim)
        assert isinstance(err.value, InputError) and isinstance(err.value, ValueError)

    def test_one_column_overflow_class(self):
        # catching the package-level name also catches the layout's overflow
        pim = PimMachine(rows=8, cols=16)
        with pytest.raises(bitlet.ColumnOverflow):
            relocation_program(layout(n=16, k=1), pim)

    def test_row_overflow(self):
        pim = PimMachine(rows=4, cols=512)
        with pytest.raises(RowOverflow) as err:
            relocation_program(layout(n=4, k=5), pim)
        assert isinstance(err.value, InputError) and isinstance(err.value, ValueError)


def reference_relocation(spec, pim):
    """The move program built one object per move, as before programs were
    columnar: subset g moves from column g*n to (k+g)*n, then every row
    takes the element of the row below, region by region."""
    n, k, rows = spec.element_width_bits, spec.misaligned_subsets, pim.rows
    sources = [g * n for g in range(k)]
    targets = [(k + g) * n for g in range(k)] or [0]
    instrs = [HMove(t + j, s + j) for s, t in zip(sources, targets) for j in range(n)]
    if spec.needs_vertical_relocation:
        region = [targets[subset_of_row(r, rows, k)] for r in range(rows)]
        instrs += [VMove(-1, region[d + 1], region[d + 1] + n - 1, d + 1)
                   for d in range(rows - 1)]
        instrs.append(VMove(-1, region[-1], region[-1] + n - 1, rows, crosses_array=True))
    inputs = tuple(ColRange(f"source_{g}", s, n) for g, s in enumerate(sources))
    outputs = tuple(ColRange(f"target_{g}", t, n) for g, t in enumerate(targets[:k]))
    return from_objects(*instrs, inputs=inputs,
                        outputs=outputs or (ColRange("aligned", 0, n),))


class TestColumnarRelocation:
    @pytest.mark.parametrize("rows,k", [(rows, k) for rows in (1, 2, 3, 5, 8, 13, 64)
                                        for k in range(min(rows, 5) + 1)]
                             + [(4096, k) for k in range(1, 5)])
    def test_array_built_programs_equal_the_object_built_reference(self, rows, k):
        # the widths of the validation suite's PAC agreement check
        pim = PimMachine(rows=rows, cols=512)
        for n in (1, 2, 3, 4, 8, 16, 32):
            for vertical in (False, True):
                spec = layout(n, k, vertical)
                prog = relocation_program(spec, pim)
                ref = reference_relocation(spec, pim)
                assert program_form(prog) == program_form(ref), (n, vertical)
                assert len(prog) == len(ref) == pac_of(spec, pim)
                assert prog.cols_required == ref.cols_required

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_tall_relocation_runs_one_word_shift_per_subset(self, shift_calls, rng, k):
        # each subset's block of rows is one stretch of the shape rule's form
        pim = PimMachine(rows=4096, cols=32 * k)
        prog = relocation_program(layout(n=16, k=k, vertical=True), pim)
        bits = rng.integers(0, 2, (4096, 32 * k)).astype(bool)
        final, cycles = run(prog, state_of(bits))
        assert cycles == 16 * k + 4096
        assert len(shift_calls) == k
        assert same_state(final, state_of(reference_run(prog, bits)[0]))


def _peak_bytes(fn, *args):
    """(result, peak bytes traced while fn(*args) runs)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTallRelocationMemory:
    # the benchmark's shifted-operand layout on a 65536-row array: 16 HMoves
    # and 65536 VMoves
    ROWS = 65536
    SHIFTED = layout(n=16, k=1, vertical=True)

    def test_program_peaks_at_its_columns(self):
        # nine columns take 30 B per instruction (op and crosses 1 B each,
        # the seven int32 ones 4 B each); building them makes no other
        # full-length temporary
        pim = PimMachine(rows=self.ROWS, cols=32)
        prog, peak = _peak_bytes(relocation_program, self.SHIFTED, pim)
        assert len(prog) == 16 + self.ROWS
        assert peak <= 32 * len(prog)

    def test_run_peaks_below_half_the_program(self):
        # run works in place: validation's masks, one int64 row + offset and
        # the stretch cuts are all it allocates per instruction
        pim = PimMachine(rows=self.ROWS, cols=32)
        prog = relocation_program(self.SHIFTED, pim)
        state = ArrayState.zeros(self.ROWS, pim.cols)
        (final, cycles), peak = _peak_bytes(run, prog, state)
        assert final is state and cycles == len(prog)
        assert peak <= 16 * len(prog)
