import numpy as np
import pytest

from bitlet import cli, validation
from bitlet.catalog import OpKind, microprogram_of
from bitlet.layout import LayoutSpec, pac_of, relocation_program
from bitlet.machine import PimMachine
from bitlet.simulator import OP_HMOVE, OP_VMOVE, Nor, run
from bitlet.validation import PAC_LAYOUTS, _subsets, run_validation
from reference import from_objects, rebuilt, relocation_agreement, subset_of_row


def test_every_self_check_passes():
    # runs every catalog program and every move program through the simulator
    checks = run_validation("all")
    assert len(checks) == 16
    assert [c for c in checks if not c.passed] == []


@pytest.mark.parametrize("k", range(1, 6))
def test_subset_lookup_equals_subset_of_row(k):
    for rows in range(1, 131):
        want = [subset_of_row(r, rows, k) for r in range(rows)]
        assert _subsets(np.arange(rows), rows, k).tolist() == want


# -- the suite catches faults ---------------------------------------------------
# Each mutation breaks one generator through the names validation calls; the
# suite must report exactly the checks that the fault breaks, and the CLI
# must exit 1.

def _failing(checks):
    return {c.name: c.detail for c in checks if not c.passed}


def _patch_generator(monkeypatch, kind, mutate):
    def mutated(spec):
        prog = microprogram_of(spec)
        if spec.kind is not kind:
            return prog
        return from_objects(*mutate(prog, list(prog.instructions)), inputs=prog.inputs,
                            outputs=prog.outputs, max_fanin=prog.max_fanin)
    monkeypatch.setattr(validation, "microprogram_of", mutated)


def _validate_exit_code(capsys):
    code = cli.main(["validate"])
    capsys.readouterr()
    return code


def test_a_generator_that_drops_its_last_gate_fails_its_count(monkeypatch, capsys):
    _patch_generator(monkeypatch, OpKind.XOR, lambda prog, instrs: instrs[:-1])
    failing = _failing(run_validation("all"))
    # the last gate writes the top output bit, so the function check fails too
    assert set(failing) == {"count[XOR]", "function[XOR]"}
    assert failing["count[XOR]"] == "n=1: program 4 vs catalog 5"
    assert _validate_exit_code(capsys) == cli.EXIT_VALIDATION


def test_a_generator_with_one_source_swapped_fails_its_function(monkeypatch, capsys):
    def swap(prog, instrs):
        first = instrs[0]           # NOR(a_0) into scratch reads b_0 instead
        instrs[0] = Nor(first.dest, (prog.range("b").start,))
        return instrs
    _patch_generator(monkeypatch, OpKind.AND, swap)
    failing = _failing(run_validation("all"))
    assert set(failing) == {"function[AND]"}
    assert failing["function[AND]"].startswith("n=1 row ")
    assert _validate_exit_code(capsys) == cli.EXIT_VALIDATION


def test_a_multiplier_that_drops_its_last_gate_fails_its_function(monkeypatch, capsys):
    # the multiplier's check runs through the same loop as the other kinds,
    # so a failure names its first wrong row
    _patch_generator(monkeypatch, OpKind.MPY, lambda prog, instrs: instrs[:-1])
    failing = _failing(run_validation("all"))
    assert set(failing) == {"function[MPY]"}
    assert failing["function[MPY]"].startswith("n=4 row ")
    assert _validate_exit_code(capsys) == cli.EXIT_VALIDATION


def _hmoves_off_by_one(layout, prog):
    return rebuilt(prog, dest=prog.dest + (prog.op == OP_HMOVE))


def _last_vmove_dropped(layout, prog):
    return rebuilt(prog, -1) if layout.needs_vertical_relocation else prog


def _one_hmove_misread(layout, prog):
    # in one horizontal-only layout the last bit is copied from column 0
    if (layout.misaligned_subsets, layout.element_width_bits,
            layout.needs_vertical_relocation) != (2, 3, False):
        return prog
    srcs = prog.srcs.copy()
    srcs[-1] = 0
    return rebuilt(prog, srcs=srcs)


def _one_vmove_short(layout, prog):
    # in one vertical layout the move into row 40 takes only the lowest bit
    if (layout.misaligned_subsets, layout.element_width_bits,
            layout.needs_vertical_relocation) != (3, 8, True):
        return prog
    col_hi = prog.col_hi.copy()
    move = np.flatnonzero(prog.op == OP_VMOVE)[40]
    col_hi[move] = prog.col_lo[move]
    return rebuilt(prog, col_hi=col_hi)


def _patch_relocation(monkeypatch, fault):
    def faulty(layout, pim):
        return fault(layout, relocation_program(layout, pim))
    monkeypatch.setattr(validation, "relocation_program", faulty)
    return faulty


def test_hmove_destinations_off_by_one_fail_pac_agreement(monkeypatch, capsys):
    _patch_relocation(monkeypatch, _hmoves_off_by_one)
    failing = _failing(run_validation("all"))
    assert set(failing) == {"pac-agreement[64-row array]"}
    assert failing["pac-agreement[64-row array]"].endswith("(k=1, n=1, vertical=False)")
    assert _validate_exit_code(capsys) == cli.EXIT_VALIDATION


# -- the 64-row layouts run as one composed program -----------------------------
# The reference runs each layout's program alone on its own array, as the
# check did before it was batched; under every fault both give the same text.

@pytest.mark.parametrize("fault, where", [
    (_hmoves_off_by_one, "(k=1, n=1, vertical=False)"),
    (_last_vmove_dropped, "(k=0, n=1, vertical=True)"),
    (_one_hmove_misread, "(k=2, n=3, vertical=False)"),
    (_one_vmove_short, "(k=3, n=8, vertical=True)"),
], ids=["hmove-off-by-one", "last-vmove-dropped", "horizontal-cell", "vertical-cell"])
def test_pac_agreement_equals_the_one_layout_at_a_time_reference(monkeypatch, fault, where):
    faulty = _patch_relocation(monkeypatch, fault)
    check = run_validation("pac")[0]
    want = relocation_agreement(faulty)
    assert (check.passed, check.detail) == want
    assert not check.passed and check.detail.endswith(where)


def test_pac_agreement_passes_as_the_reference_does():
    check = run_validation("pac")[0]
    assert (check.passed, check.detail) == relocation_agreement(relocation_program)
    assert check.detail == "70 layouts: counts exact, cells verified"


def test_a_region_off_the_blocks_fails_pac_agreement(monkeypatch):
    # the batched check packs and reads whole n-column blocks, so a declared
    # region between two is reported, not read across them
    def moved_up(layout, prog):
        if layout.element_width_bits != 2:
            return prog
        up = [[r._replace(start=r.start + 1) for r in side] for side in (prog.inputs, prog.outputs)]
        return rebuilt(prog, inputs=up[0], outputs=up[1])
    _patch_relocation(monkeypatch, moved_up)
    check = run_validation("pac")[0]
    assert check.detail == "region 1 is not at a multiple of 2 columns (k=0, n=2, vertical=False)"


def test_the_64_row_layouts_run_in_one_call(monkeypatch):
    lengths = []

    def counted(program, state):
        lengths.append(len(program))
        return run(program, state)
    monkeypatch.setattr(validation, "run", counted)
    run_validation("pac")
    pim = PimMachine(rows=64, cols=512)
    assert lengths == [sum(pac_of(LayoutSpec(n, k, vertical), pim)
                           for k, n, vertical in PAC_LAYOUTS)]
