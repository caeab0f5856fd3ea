import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitlet import CpuMachine, PimMachine, PowerBudget, WorkloadPoint
from bitlet.machine import TBPS
from bitlet.model import NonFiniteResult, Points, evaluate, mat_power_cap
from reference import (energy_per_op_cpu, energy_per_op_pim, perf_cpu, perf_pim, pl_perf_cpu,
                       pl_perf_pim, reference_columns)


def w(oc, pac=0, dio=48):
    return WorkloadPoint(oc_cycles=oc, pac_cycles=pac, dio_bits=dio)


class TestPerfPim:
    # 1024 rows x 1024 arrays finishing every OC+PAC cycles of 10 ns
    @pytest.mark.parametrize("oc,pac,gops", [
        (144, 0, 728.1777777777778),
        (32, 0, 3276.8),
        (3104, 0, 33.78144329896907),
        (144, 1040, 88.56216216216216),
        (144, 16, 655.36),
    ])
    def test_reference_points(self, pim, oc, pac, gops):
        assert perf_pim(pim, w(oc, pac)).gops == pytest.approx(gops, rel=1e-12)

    def test_unit_case(self):
        tiny = PimMachine(rows=1, cols=1, mats=1, cycle_time_ns=1.0)
        assert perf_pim(tiny, w(1)).gops == pytest.approx(1.0)

    def test_depends_only_on_cycle_sum(self, pim):
        assert perf_pim(pim, w(144, 1040)).ops_per_second == \
            perf_pim(pim, w(1184, 0)).ops_per_second

    def test_linear_in_rows_and_mats(self, pim):
        base = perf_pim(pim, w(100)).ops_per_second
        for k in (2, 3, 7):
            scaled = PimMachine(rows=pim.rows, cols=pim.cols, mats=pim.mats * k)
            assert perf_pim(scaled, w(100)).ops_per_second == pytest.approx(k * base)
        taller = PimMachine(rows=pim.rows * 4, cols=pim.cols, mats=pim.mats)
        assert perf_pim(taller, w(100)).ops_per_second == pytest.approx(4 * base)

    def test_strictly_decreasing_in_cycles(self, pim):
        values = [perf_pim(pim, w(oc)).ops_per_second for oc in range(1, 200)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_ignores_cpu_parameters(self, pim):
        assert perf_pim(pim, w(144, 0, 24)).ops_per_second == \
            perf_pim(pim, w(144, 0, 4800)).ops_per_second


class TestPowerLimitedPim:
    def test_cap_branch_wins_at_high_mat_count(self, budget):
        pim = PimMachine(mats=16384)
        raw = perf_pim(pim, w(144)).gops
        capped = pl_perf_pim(pim, w(144), budget).gops
        assert raw == pytest.approx(11650.844444444445, rel=1e-12)
        assert capped == pytest.approx(1388.8888888888889, rel=1e-12)

    def test_raw_branch_wins_below_cap(self, pim, budget):
        # 1024 arrays sit under the 1953-array power cap
        assert pl_perf_pim(pim, w(144), budget).gops == \
            pytest.approx(728.1777777777778, rel=1e-12)

    def test_unbounded_budget_is_raw(self, pim):
        loose = PowerBudget(tdp_watts=1e12)
        assert pl_perf_pim(pim, w(144), loose).ops_per_second == \
            perf_pim(pim, w(144)).ops_per_second

    def test_never_exceeds_either_branch(self, pim, budget, rng):
        for _ in range(200):
            point = w(int(rng.integers(1, 32768)), int(rng.integers(0, 2048)))
            value = pl_perf_pim(pim, point, budget).ops_per_second
            assert value <= perf_pim(pim, point).ops_per_second * (1 + 1e-12)
            cap = budget.tdp_watts / (pim.energy_per_cycle_j
                                       * (point.oc_cycles + point.pac_cycles))
            assert value <= cap * (1 + 1e-12)

    def test_power_identity_when_capped(self, budget):
        # at the cap, throughput times energy per op equals the budget
        pim = PimMachine(mats=16384)
        point = w(144)
        value = pl_perf_pim(pim, point, budget).ops_per_second
        assert value < perf_pim(pim, point).ops_per_second
        watts = value * energy_per_op_pim(pim, point) * 1e-12
        assert watts == pytest.approx(budget.tdp_watts, rel=1e-9)


class TestMatPowerCap:
    def test_reference_points(self, pim):
        assert mat_power_cap(pim, PowerBudget(20)) == 1953
        assert mat_power_cap(pim, PowerBudget(40)) == 3906

    def test_linear_in_budget(self, pim):
        base = mat_power_cap(pim, PowerBudget(10))
        assert mat_power_cap(pim, PowerBudget(20)) == pytest.approx(2 * base, abs=1)

    def test_exact_integer_cap_does_not_floor_short(self):
        # 1 W * 10 ns / (0.1 pJ * 1000 rows) is exactly 100 arrays
        pim = PimMachine(rows=1000)
        assert mat_power_cap(pim, PowerBudget(1)) == 100

    def test_saturation_beyond_cap(self, pim, budget):
        cap = mat_power_cap(pim, budget)
        point = w(144)
        plateau = pl_perf_pim(PimMachine(mats=cap + 1), point, budget).ops_per_second
        for m in (cap + 2, 2 * cap, 10 * cap):
            assert pl_perf_pim(PimMachine(mats=m), point, budget).ops_per_second \
                == plateau
        at_cap = pl_perf_pim(PimMachine(mats=cap), point, budget).ops_per_second
        assert at_cap <= plateau
        assert at_cap == pytest.approx(plateau, rel=1.0 / cap)

    def test_independent_of_workload(self, pim, budget):
        # the cap is where both branches meet, for any OC+PAC
        assert mat_power_cap(pim, budget) == 1953
        for point in (w(1), w(144, 1040), w(32768)):
            below = pl_perf_pim(PimMachine(mats=1953), point, budget)
            assert below.ops_per_second == \
                perf_pim(PimMachine(mats=1953), point).ops_per_second


class TestPerfCpu:
    @pytest.mark.parametrize("tbps,dio,gops", [
        (4, 48, 85.33333333333333),
        (1, 48, 21.333333333333332),
        (16, 24, 682.6666666666666),
    ])
    def test_reference_points(self, tbps, dio, gops):
        cpu = CpuMachine(bandwidth_bps=tbps * TBPS)
        assert perf_cpu(cpu, w(1, 0, dio)).gops == pytest.approx(gops, rel=1e-12)

    def test_ignores_pim_parameters(self, cpu):
        assert perf_cpu(cpu, w(1, 0, 48)).ops_per_second == \
            perf_cpu(cpu, w(32768, 1024, 48)).ops_per_second


class TestPowerLimitedCpu:
    @pytest.mark.parametrize("tdp,gops", [
        (20, 55.55555555555556),
        (40, 111.11111111111111),
        (160, 444.44444444444446),
    ])
    def test_reference_points(self, tdp, gops):
        cpu = CpuMachine(bandwidth_bps=16 * TBPS)
        value = pl_perf_cpu(cpu, w(1, 0, 24), PowerBudget(tdp))
        assert value.gops == pytest.approx(gops, rel=1e-12)

    def test_unbounded_budget_is_raw(self, cpu):
        point = w(1, 0, 48)
        assert pl_perf_cpu(cpu, point, PowerBudget(1e12)).ops_per_second == \
            perf_cpu(cpu, point).ops_per_second

    def test_never_exceeds_raw(self, cpu, budget, rng):
        for _ in range(200):
            point = w(1, 0, int(rng.integers(1, 4096)))
            assert pl_perf_cpu(cpu, point, budget).ops_per_second <= \
                perf_cpu(cpu, point).ops_per_second * (1 + 1e-12)


class TestEnergyPerOp:
    def test_pim_reference_points(self, pim):
        assert energy_per_op_pim(pim, w(1)) == pytest.approx(0.1)
        assert energy_per_op_pim(pim, w(144, 1040)) == pytest.approx(118.4)
        doubled = PimMachine(energy_per_cycle_pj=0.2)
        assert energy_per_op_pim(doubled, w(1)) == pytest.approx(0.2)

    def test_cpu_reference_points(self, cpu):
        assert energy_per_op_cpu(cpu, w(1, 0, 3)) == pytest.approx(45.0)
        assert energy_per_op_cpu(cpu, w(1, 0, 48)) == pytest.approx(720.0)
        assert energy_per_op_cpu(CpuMachine(energy_per_bit_pj=1.0),
                                 w(1, 0, 1)) == pytest.approx(1.0)


def _log_floats(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def kernel_scenarios(draw):
    """Machines, a budget (or none) and 1-8 points that each set all six
    coordinates; per-point TDPs, when drawn, replace the budget."""
    pim = PimMachine(rows=draw(st.integers(1, 4096)),
                     cycle_time_ns=draw(_log_floats(0.1, 100.0)),
                     energy_per_cycle_pj=draw(_log_floats(0.01, 10.0)))
    cpu = CpuMachine(energy_per_bit_pj=draw(_log_floats(0.1, 100.0)))
    power = draw(st.none() | _log_floats(1e-3, 1e3).map(PowerBudget))
    tdp = _log_floats(1e-3, 1e3) if draw(st.booleans()) else st.none()
    coords = draw(st.lists(st.tuples(
        st.integers(1, 100_000), st.integers(0, 10_000), st.integers(1, 512),
        st.integers(1, 16384), _log_floats(1e9, 1e14), tdp), min_size=1, max_size=8))
    return pim, cpu, power, coords


def _points(coords, tdp_scale=1.0) -> Points:
    """The drawn coordinates as the kernel's points, the TDPs (if drawn)
    scaled by `tdp_scale`."""
    oc, pac, dio, mats, bw, tdp = (np.array(c) for c in zip(*coords))
    return Points(oc, pac, dio, mats=mats.astype(float), bandwidth_bps=bw,
                  tdp_watts=None if tdp[0] is None else tdp.astype(float) * tdp_scale)


# 1024 rows x 3 arrays at 1 ns and OC 1 against this bandwidth at DIO 1: the
# gap is exactly TIE_REL_TOL times the faster side (a tie), and one ulp less
# bandwidth makes it a memory-side win
TIE_BW = 3071999996928.0
TIE_AT_TOLERANCE = (PimMachine(rows=1024, cycle_time_ns=1.0), CpuMachine(), None,
                    [(1, 0, 1, 3, TIE_BW, None),
                     (1, 0, 1, 3, math.nextafter(TIE_BW, 0), None)])
# 1 W * 10 ns / (0.1 pJ * 1000 rows) is exactly 100 arrays: at MAT 100 the
# raw and capped branches meet
AT_MAT_POWER_CAP = (PimMachine(rows=1000), CpuMachine(), PowerBudget(1.0),
                    [(144, 0, 48, 100, 4 * 1024e9, None),
                     (1, 0, 48, 100, 4 * 1024e9, None)])
MAT_1E30 = (PimMachine(), CpuMachine(), PowerBudget(20.0),
            [(144, 1040, 48, int(1e30), 4 * 1024e9, None)])
# the crossover is 614.4 at DIO 24: OC 614 is a memory-side win, 615 a CPU one
AROUND_CROSSOVER = (PimMachine(), CpuMachine(), None,
                    [(614, 0, 24, 1024, 4 * 1024e9, None),
                     (615, 0, 24, 1024, 4 * 1024e9, None)])


class TestEvaluateKernel:
    @settings(max_examples=300, deadline=None)
    @given(kernel_scenarios())
    @example(TIE_AT_TOLERANCE)
    @example(AT_MAT_POWER_CAP)
    @example(MAT_1E30)
    @example(AROUND_CROSSOVER)
    def test_every_column_equals_the_closed_forms(self, scenario):
        pim, cpu, power, coords = scenario
        ev = evaluate(pim, cpu, _points(coords), power)
        for i, coord in enumerate(coords):
            got = {name: column[i].item() for name, column in ev._asdict().items()}
            assert got == reference_columns(pim, cpu, power, coord)

    def test_examples_sit_where_they_claim(self):
        def winners(scenario):
            pim, cpu, power, coords = scenario
            return [reference_columns(pim, cpu, power, c)["winner"] for c in coords]
        assert winners(TIE_AT_TOLERANCE) == ["TIE", "PIM"]
        assert winners(AROUND_CROSSOVER) == ["PIM", "CPU"]
        assert mat_power_cap(AT_MAT_POWER_CAP[0], AT_MAT_POWER_CAP[2]) == 100

    def test_scalars_broadcast_against_arrays(self, pim, cpu, budget):
        ev = evaluate(pim, cpu, Points(np.array([[1.0], [2.0]]), 0, 48,
                                       mats=np.array([1, 16, 256])), budget)
        assert all(column.shape == (2, 3) for column in ev)
        assert (ev.cpu_gops == perf_cpu(cpu, w(1)).gops).all()
        assert ev.pim_gops[1, 2] == perf_pim(replace(pim, mats=256), w(2)).gops

    @settings(max_examples=25, deadline=None)
    @given(kernel_scenarios(), st.integers(-16, 16))
    def test_same_power_of_two_on_mat_and_bw_keeps_the_verdict(self, scenario, k):
        # both raw throughputs and the crossover's numerator and denominator
        # scale by 2**k, which rounds nothing
        pim, cpu, _, coords = scenario
        unbudgeted = [(*c[:5], None) for c in coords]
        scaled = [(oc, pac, dio, mats * 2.0 ** k, bw * 2.0 ** k, None)
                  for oc, pac, dio, mats, bw, _ in unbudgeted]
        base = evaluate(pim, cpu, _points(unbudgeted))
        moved = evaluate(pim, cpu, _points(scaled))
        for name in ("winner", "speedup", "crossover_oc"):
            assert getattr(moved, name).tolist() == getattr(base, name).tolist()

    @settings(max_examples=25, deadline=None)
    @given(kernel_scenarios(), _log_floats(1.0, 1e3))
    def test_raising_tdp_never_lowers_a_capped_column(self, scenario, factor):
        pim, cpu, power, coords = scenario
        budgeted = [c if c[5] is not None else (*c[:5], power.tdp_watts if power else 1.0)
                    for c in coords]
        low = evaluate(pim, cpu, _points(budgeted))
        high = evaluate(pim, cpu, _points(budgeted, tdp_scale=factor))
        assert (high.pl_pim_gops >= low.pl_pim_gops).all()
        assert (high.pl_cpu_gops >= low.pl_cpu_gops).all()

    @settings(max_examples=25, deadline=None)
    @given(kernel_scenarios())
    def test_no_capped_column_exceeds_its_raw_one(self, scenario):
        pim, cpu, power, coords = scenario
        ev = evaluate(pim, cpu, _points(coords), power)
        assert (ev.pl_pim_gops <= ev.pim_gops).all()
        assert (ev.pl_cpu_gops <= ev.cpu_gops).all()

    def test_overflow_raises_one_exception_class(self):
        huge = PimMachine(mats=10 ** 15, cycle_time_ns=1e-300)
        with pytest.raises(NonFiniteResult, match="pim_gops is inf at OC=1 "):
            evaluate(huge, CpuMachine(), Points(1, 0, 1))
        assert issubclass(NonFiniteResult, ValueError)

    def test_mat_power_cap_overflow_raises_the_same_class(self):
        with pytest.raises(NonFiniteResult, match="mat_power_cap is inf"):
            mat_power_cap(PimMachine(cycle_time_ns=1e10), PowerBudget(1e300))
