import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bitlet
from bitlet import (CpuMachine, FieldError, InputError, LayoutSpec, OpKind, OpSpec, PimMachine,
                    PowerBudget, WorkloadPoint)
from bitlet.analysis import Workload, sweep
from bitlet.machine import TBPS
from bitlet.model import TIE_REL_TOL, Evaluation, Points, evaluate
from reference import (crossover_oc, energy_breakeven_oc, energy_per_op_cpu, energy_per_op_pim,
                       perf_cpu, perf_pim, pl_perf_cpu, pl_perf_pim)


def _log_floats(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def capped_scenarios(draw):
    pim = PimMachine(rows=draw(st.integers(1, 4096)), mats=draw(st.integers(1, 16384)),
                     cycle_time_ns=draw(_log_floats(0.1, 100.0)),
                     energy_per_cycle_pj=draw(_log_floats(0.01, 10.0)))
    cpu = CpuMachine(bandwidth_bps=draw(_log_floats(1e9, 1e14)),
                     energy_per_bit_pj=draw(_log_floats(0.1, 100.0)))
    point = WorkloadPoint(draw(st.integers(1, 100_000)), draw(st.integers(0, 10_000)),
                          draw(st.integers(1, 512)))
    return pim, cpu, point, PowerBudget(draw(_log_floats(1e-3, 1e3)))


def at(pim, cpu, point, power=None) -> Evaluation:
    """Every model column at one workload point, as Python scalars."""
    ev = evaluate(pim, cpu, Points(point.oc_cycles, point.pac_cycles, point.dio_bits), power)
    return Evaluation(*(column.item() for column in ev))


class TestCrossover:
    def test_reference_points(self, pim):
        assert crossover_oc(pim, CpuMachine(bandwidth_bps=4 * TBPS), 24) == \
            pytest.approx(614.4, rel=1e-12)
        assert crossover_oc(pim, CpuMachine(bandwidth_bps=1 * TBPS), 24) == \
            pytest.approx(2457.6, rel=1e-12)
        assert crossover_oc(pim, CpuMachine(bandwidth_bps=1 * TBPS), 48) == \
            pytest.approx(4915.2, rel=1e-12)

    def test_pac_consumes_the_whole_budget(self, pim, cpu):
        # budget = ROW*MAT*DIO / (BW*CT): 1024*1024*40 / (4*1024e9 * 10e-9)
        # = 1024.0 exactly, so a PAC of 1024 cycles leaves no room for OC
        budget = pim.rows * pim.mats * 40 / (cpu.bandwidth_bps * pim.cycle_time_s)
        assert budget == 1024.0
        assert crossover_oc(pim, cpu, 40, pac_cycles=1024) == \
            pytest.approx(0.0, abs=1e-9)
        # at DIO 24 the budget is 614.4, which no integer PAC reaches:
        # the crossover changes sign between PAC 614 and 615 instead
        assert crossover_oc(pim, cpu, 24, pac_cycles=614) > 0
        assert crossover_oc(pim, cpu, 24, pac_cycles=615) < 0

    def test_strict_ordering_around_the_crossover(self, pim, cpu):
        oc_star = crossover_oc(pim, cpu, 24)  # 614.4, not integral
        below = WorkloadPoint(int(oc_star), 0, 24)
        above = WorkloadPoint(int(oc_star) + 1, 0, 24)
        assert perf_pim(pim, below).ops_per_second > \
            perf_cpu(cpu, below).ops_per_second
        assert perf_pim(pim, above).ops_per_second < \
            perf_cpu(cpu, above).ops_per_second

    def test_algebraic_scalings(self, pim, cpu):
        base = crossover_oc(pim, cpu, 24)
        assert crossover_oc(pim, cpu, 48) == pytest.approx(2 * base)
        twice_bw = CpuMachine(bandwidth_bps=cpu.bandwidth_bps * 2)
        assert crossover_oc(pim, twice_bw, 24) == pytest.approx(base / 2)
        twice_mats = PimMachine(mats=pim.mats * 2)
        assert crossover_oc(twice_mats, cpu, 24) == pytest.approx(2 * base)

    def test_may_be_non_positive(self, cpu):
        tiny = PimMachine(rows=1, cols=1, mats=1)
        assert crossover_oc(tiny, cpu, 24, pac_cycles=100) < 0


class TestEnergyBreakeven:
    def test_reference_points(self, pim, cpu):
        assert energy_breakeven_oc(pim, cpu, 48) == pytest.approx(7200.0, rel=1e-9)
        unit = energy_breakeven_oc(PimMachine(energy_per_cycle_pj=15.0),
                                   cpu, 1)
        assert unit == pytest.approx(1.0, rel=1e-9)

    def test_pac_shifts_the_break_even(self, pim, cpu):
        assert energy_breakeven_oc(pim, cpu, 48, pac_cycles=200) == \
            pytest.approx(7000.0, rel=1e-9)


class TestLitmus:
    def test_low_complexity_op_prefers_memory_side(self, pim, cpu):
        w = Workload("or16", 48, op=OpSpec(OpKind.OR, 16))
        v = at(pim, cpu, w.resolve(pim))
        assert v.winner == "PIM"
        assert v.pim_gops == pytest.approx(3276.8, rel=1e-12)
        assert v.cpu_gops == pytest.approx(85.3333333, rel=1e-6)
        assert v.pl_pim_gops == v.pim_gops and v.pl_cpu_gops == v.cpu_gops

    def test_multiply_prefers_cpu_at_high_bandwidth(self, pim, cpu):
        w = Workload("mpy16", 48, op=OpSpec(OpKind.MPY, 16))
        v = at(pim, cpu, w.resolve(pim))
        assert v.winner == "CPU"
        assert v.pim_gops == pytest.approx(33.78144, rel=1e-6)
        assert v.speedup < 1

    def test_multiply_flips_at_low_bandwidth(self, pim):
        w = Workload("mpy16", 48, op=OpSpec(OpKind.MPY, 16))
        v = at(pim, CpuMachine(bandwidth_bps=1 * TBPS), w.resolve(pim))
        assert v.winner == "PIM"
        assert v.cpu_gops == pytest.approx(21.3333333, rel=1e-6)

    def test_layout_cost_included(self, pim, cpu):
        moved = Workload("add16", 48, op=OpSpec(OpKind.ADD, 16),
                         layout=LayoutSpec(16, 1, True))
        point = moved.resolve(pim)
        assert point.pac_cycles == 1040
        v = at(pim, cpu, point)
        assert v.pim_gops == pytest.approx(88.5621, rel=1e-5)

    def test_exact_tie_detection(self):
        # rows*mats/(oc*ct) == bw/dio by construction
        pim = PimMachine(rows=1, cols=1, mats=100, cycle_time_ns=1.0)
        cpu = CpuMachine(bandwidth_bps=1e9)
        v = at(pim, cpu, WorkloadPoint(100, 0, 1))
        assert v.winner == "TIE"
        assert v.speedup == 1.0

    def test_power_budget_changes_the_verdict(self, pim):
        # a 0.5 Tbps CPU and OC 4096 at DIO 24: the crossover is
        # 1024*1024*24 / (512e9 * 10e-9) = 4915.2 and the energy break-even
        # 15*24 / 0.1 = 3600, so OC lies between them. Raw, the memory side
        # is ahead (1024*1024 / (4096 * 10 ns) = 25.6 vs 512e9/24 = 21.33
        # GOPS); under 1 W each side runs at TDP / pJ-per-op, and the CPU
        # spends less energy per op (360 vs 409.6 pJ), so it wins
        cpu = CpuMachine(bandwidth_bps=0.5 * TBPS)
        w = Workload("oc4096", 24, oc_override=4096).resolve(pim)
        raw = at(pim, cpu, w)
        assert raw.winner == "PIM"
        assert raw.pim_gops == pytest.approx(25.6, rel=1e-12)
        assert raw.cpu_gops == pytest.approx(512 / 24, rel=1e-12)
        capped = at(pim, cpu, w, PowerBudget(1.0))
        assert capped.pl_pim_gops == pytest.approx(1.0 / 409.6e-12 / 1e9, rel=1e-12)
        assert capped.pl_cpu_gops == pytest.approx(1.0 / 360e-12 / 1e9, rel=1e-12)
        assert capped.pl_pim_gops < capped.pl_cpu_gops
        assert capped.winner == "CPU"
        # raw columns are still reported alongside
        assert capped.pim_gops == raw.pim_gops

    def test_power_budget_keeps_a_cheaper_memory_side_ahead(self, pim):
        # OR16 (OC 32) at DIO 24 on a 16 Tbps CPU: raw, the memory side is
        # ahead (3276.8 vs 682.7 GOPS) and it spends 112.5x less energy per
        # op (3.2 vs 360 pJ). Capped at 1 W each side runs at TDP / pJ-per-op,
        # so the memory side stays ahead by the same 112.5x
        cpu = CpuMachine(bandwidth_bps=16 * TBPS)
        w = Workload("or16", 24, op=OpSpec(OpKind.OR, 16)).resolve(pim)
        raw = at(pim, cpu, w)
        assert raw.winner == "PIM"
        capped = at(pim, cpu, w, PowerBudget(1.0))
        assert capped.pl_pim_gops == pytest.approx(312.5, rel=1e-12)
        assert capped.pl_cpu_gops == pytest.approx(1.0 / 360e-12 / 1e9, rel=1e-12)  # 2.7778
        assert capped.winner == "PIM"
        assert capped.speedup == pytest.approx(112.5, rel=1e-12)
        assert capped.energy_ratio == pytest.approx(112.5, rel=1e-12)

    def test_verdict_carries_analysis_numbers(self, pim, cpu):
        v = at(pim, cpu, Workload("nor1", 3, oc_override=1).resolve(pim))
        assert v.energy_ratio == pytest.approx(450.0, rel=1e-9)
        assert v.crossover_oc == pytest.approx(
            crossover_oc(pim, cpu, 3), rel=1e-12)

    def test_winner_matches_crossover_side(self, pim, cpu, rng):
        for _ in range(300):
            point = WorkloadPoint(int(rng.integers(1, 32768)), 0,
                                  int(rng.integers(1, 128)))
            v = at(pim, cpu, point)
            star = crossover_oc(pim, cpu, point.dio_bits)
            if point.oc_cycles < star and v.winner != "TIE":
                assert v.winner == "PIM"
            elif point.oc_cycles > star and v.winner != "TIE":
                assert v.winner == "CPU"

    @settings(max_examples=300, deadline=None)
    @given(capped_scenarios())
    @example((PimMachine(), CpuMachine(bandwidth_bps=16 * TBPS), WorkloadPoint(32, 0, 24),
              PowerBudget(1.0)))
    @example((PimMachine(), CpuMachine(bandwidth_bps=0.5 * TBPS), WorkloadPoint(4096, 0, 24),
              PowerBudget(1.0)))
    def test_capped_verdict_follows_energy_per_op(self, scenario):
        # each side is capped at min(raw, TDP / pJ-per-op), so a budget can
        # never overturn a memory side that is both faster raw and cheaper
        # per op, and once both caps bind the cheaper side wins
        pim, cpu, point, power = scenario
        raw = at(pim, cpu, point)
        capped = at(pim, cpu, point, power)
        e_pim = energy_per_op_pim(pim, point)
        e_cpu = energy_per_op_cpu(cpu, point)
        if raw.winner == "PIM" and e_pim <= e_cpu:
            assert capped.winner != "CPU"
        if (capped.pl_pim_gops < capped.pim_gops
                and capped.pl_cpu_gops < capped.cpu_gops):
            if capped.winner == "TIE":
                assert e_pim == pytest.approx(e_cpu, rel=2 * TIE_REL_TOL)
            else:
                assert capped.winner == ("PIM" if e_pim < e_cpu else "CPU")


class TestPublicApi:
    # a stale export fails here, not at a user's import; the scalar closed
    # forms are the tests' reference (reference.py), not package API
    REMOVED = ("Verdict", "Winner", "litmus", "crossover_oc", "energy_breakeven_oc",
               "perf_pim", "pl_perf_pim", "perf_cpu", "pl_perf_cpu",
               "energy_per_op_pim", "energy_per_op_cpu", "SweepSpec", "to_text")

    def test_exports_resolve_and_removed_names_stay_gone(self):
        assert [name for name in bitlet.__all__ if not hasattr(bitlet, name)] == []
        for name in self.REMOVED:
            assert name not in bitlet.__all__
            with pytest.raises(ImportError):
                exec(f"from bitlet import {name}", {})


class TestWorkload:
    def test_requires_op_or_override(self):
        with pytest.raises(ValueError):
            Workload("empty", 48)

    @pytest.mark.parametrize("name", ["", None, 7])
    def test_requires_a_non_empty_name(self, name):
        with pytest.raises(FieldError) as err:
            Workload(name, 48, oc_override=1)
        assert str(err.value) == "name: every workload needs a non-empty name"

    @pytest.mark.parametrize("kwargs,text", [
        ({"dio_bits": 4.5, "oc_override": 3}, "dio_bits: must be an integer, got 4.5"),
        ({"dio_bits": 8, "oc_override": True}, "oc_override: must be an integer, got True"),
    ], ids=["dio_bits", "oc_override"])
    def test_integer_fields_refuse_fractions_and_bools(self, kwargs, text):
        with pytest.raises(FieldError) as err:
            Workload("w", **kwargs)
        assert str(err.value) == text

    def test_override_beats_catalog(self, pim):
        w = Workload("odd", 48, op=OpSpec(OpKind.ADD, 16), oc_override=500)
        assert w.resolve(pim).oc_cycles == 500

    def test_resolve_combines_layout(self, pim):
        w = Workload("x", 24, oc_override=7, layout=LayoutSpec(8, 2, False))
        point = w.resolve(pim)
        assert (point.oc_cycles, point.pac_cycles, point.dio_bits) == (7, 16, 24)


X, PIM, CPU, PL_PIM, PL_CPU = range(5)   # the columns of a sweep table
POINT = WorkloadPoint(144, 0, 48)


class TestSweep:
    def sweep(self, pim, cpu, param, grid, power=None, points=(POINT,)):
        return sweep(param, grid, pim, cpu, list(points), power)

    def test_single_point_equals_direct_evaluation(self, pim, cpu, budget):
        table = self.sweep(pim, cpu, "OC", (144,), budget)
        assert table.shape == (1, 5)
        r = table[0]
        assert r[PIM] == perf_pim(pim, POINT).gops
        assert r[CPU] == perf_cpu(cpu, POINT).gops
        assert r[PL_PIM] == pl_perf_pim(pim, POINT, budget).gops
        assert r[PL_CPU] == pl_perf_cpu(cpu, POINT, budget).gops

    def test_oc_sweep_is_decreasing_on_the_memory_side(self, pim, cpu):
        table = self.sweep(pim, cpu, "OC", tuple(2 ** k for k in range(15)))
        pim_col = table[:, PIM].tolist()
        assert pim_col == sorted(pim_col, reverse=True)
        assert len(set(table[:, CPU].tolist())) == 1  # CPU flat in OC

    def test_mat_sweep_plateaus_at_power_cap(self, pim, cpu, budget):
        table = self.sweep(pim, cpu, "MAT", (1024, 1953, 1954, 4096, 16384), budget)
        capped = table[table[:, X] >= 1954, PL_PIM]
        assert len(set(capped.tolist())) == 1
        assert table[0, PL_PIM] == table[0, PIM]  # below cap: raw

    def test_each_parameter_is_sweepable(self, pim, cpu, budget):
        for param, grid in [("OC", (1, 2)), ("PAC", (1, 1040)),
                            ("MAT", (1, 16384)), ("DIO", (24, 48)),
                            ("BW", (1024e9, 16 * 1024e9)), ("TDP", (20.0, 160.0))]:
            table = self.sweep(pim, cpu, param, grid, budget)
            assert table[:, X].tolist() == list(grid)

    def test_without_budget_capped_equals_raw(self, pim, cpu):
        table = self.sweep(pim, cpu, "OC", (32, 144))
        assert (table[:, PIM] == table[:, PL_PIM]).all()
        assert (table[:, CPU] == table[:, PL_CPU]).all()

    def test_grid_validation(self, pim, cpu):
        with pytest.raises(InputError, match="^unknown sweep parameter 'FREQ'; expected "):
            self.sweep(pim, cpu, "FREQ", (1,))
        with pytest.raises(InputError, match="^sweep grid must not be empty$"):
            self.sweep(pim, cpu, "OC", ())
        with pytest.raises(InputError, match="^OC grid values must round to >= 1$"):
            self.sweep(pim, cpu, "OC", (0,))

    def test_case_insensitive_param(self, pim, cpu):
        assert self.sweep(pim, cpu, "oc", (144,))[0, X] == 144

    def test_rows_reproducible_pointwise(self, pim, cpu, budget, rng):
        grid = tuple(int(x) for x in rng.integers(1, 32768, 25))
        for r in self.sweep(pim, cpu, "OC", grid, budget):
            w = WorkloadPoint(int(r[X]), 0, 48)
            assert r[PIM] == perf_pim(pim, w).gops
            assert r[PL_PIM] == pl_perf_pim(pim, w, budget).gops

    def test_pac_grid_may_include_the_default_layout(self, pim, cpu, budget):
        table = self.sweep(pim, cpu, "PAC", (0, 5, 1040), budget)
        assert table[:, X].tolist() == [0, 5, 1040]
        assert table[0, PIM] == perf_pim(pim, POINT).gops
        assert table[0, PL_CPU] == pl_perf_cpu(cpu, POINT, budget).gops

    def test_integer_grids_round_half_to_even_and_deduplicate(self, pim, cpu):
        table = self.sweep(pim, cpu, "OC", (3.5, 4.5, 5.5, 6.5, 7.5, 4, 2.6))
        assert table[:, X].tolist() == [4.0, 6.0, 8.0, 3.0]
        assert str(self.sweep(pim, cpu, "PAC", (-0.4,))[0, X]) == "0.0"  # not -0.0
        # real-valued parameters keep every value
        assert self.sweep(pim, cpu, "TDP", (1.0, 1.0))[:, X].tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("param,low,ok", [
        ("OC", 0.4, 0.6), ("MAT", 0.5, 0.51), ("DIO", -3, 1),
        ("PAC", -0.6, -0.4), ("BW", 0.0, 1e-300), ("TDP", -1.0, 1e-3)])
    def test_lower_bound_per_parameter(self, cpu, param, low, ok):
        # a 10 s cycle keeps the crossover OC at 1e-300 bits/s below the
        # largest double; the grid check itself does not look at the machine
        pim = PimMachine(cycle_time_ns=1e10)
        assert len(self.sweep(pim, cpu, param, (ok,))) == 1
        with pytest.raises(InputError, match=f"^{param} grid values must"):
            self.sweep(pim, cpu, param, (ok, low))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_grid_values_are_rejected(self, pim, cpu, bad):
        for param in ("OC", "BW"):
            with pytest.raises(InputError, match="^sweep grid values must be finite$"):
                self.sweep(pim, cpu, param, (1.0, bad))

    @pytest.mark.parametrize("param,grid", [
        ("OC", (1, 7, 144, 3000)), ("PAC", (0, 5, 1040)), ("MAT", (1, 1953, 16384)),
        ("BW", (1e9, 4 * 1024e9)), ("DIO", (1, 24, 512)), ("TDP", (0.5, 20.0, 1e4))])
    def test_many_points_equal_one_point_sweeps(self, pim, cpu, budget, param, grid):
        points = (POINT, WorkloadPoint(7, 1040, 24), WorkloadPoint(3000, 16, 96))
        table = self.sweep(pim, cpu, param, grid, budget, points)
        assert table.shape == (len(points) * len(grid), 5)
        alone = np.vstack([self.sweep(pim, cpu, param, grid, budget, (p,)) for p in points])
        assert table.tobytes() == alone.tobytes()
        assert self.sweep(pim, cpu, param, grid, budget, ()).shape == (0, 5)
