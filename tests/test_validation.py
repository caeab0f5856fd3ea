import numpy as np
import pytest

from bitlet import cli, validation
from bitlet.catalog import OpKind, microprogram_of
from bitlet.layout import relocation_program, subset_of_row
from bitlet.simulator import OP_HMOVE, Nor, NorProgram
from bitlet.validation import _subsets, run_validation
from reference import from_objects


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


def test_hmove_destinations_off_by_one_fail_pac_agreement(monkeypatch, capsys):
    def shifted(layout, pim):
        prog = relocation_program(layout, pim)
        return NorProgram(
            prog.op, prog.dest + (prog.op == OP_HMOVE), prog.srcs, prog.fanin,
            prog.offset, prog.col_lo, prog.col_hi, prog.row, prog.crosses,
            inputs=prog.inputs, outputs=prog.outputs)
    monkeypatch.setattr(validation, "relocation_program", shifted)
    failing = _failing(run_validation("all"))
    assert set(failing) == {"pac-agreement[64-row array]"}
    assert failing["pac-agreement[64-row array]"].endswith("(k=1, n=1, vertical=False)")
    assert _validate_exit_code(capsys) == cli.EXIT_VALIDATION
