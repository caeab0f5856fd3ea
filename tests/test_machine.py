import dataclasses
import math

import numpy as np
import pytest

from bitlet import CpuMachine, FieldError, PimMachine, PowerBudget, Throughput, WorkloadPoint
from bitlet.machine import GBPS, TBPS


def test_unit_conventions():
    assert GBPS == 1e9
    assert TBPS == 1024e9  # binary terabit, deliberately not 1e12


def test_pim_defaults_and_si_accessors():
    pim = PimMachine()
    assert (pim.rows, pim.cols, pim.mats) == (1024, 1024, 1024)
    assert pim.cycle_time_s == pytest.approx(10e-9)
    assert pim.energy_per_cycle_j == pytest.approx(0.1e-12)


@pytest.mark.parametrize("kwargs", [
    {"rows": 0}, {"cols": 0}, {"mats": 0}, {"rows": -5},
    {"cycle_time_ns": 0}, {"cycle_time_ns": -1}, {"energy_per_cycle_pj": 0},
])
def test_pim_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        PimMachine(**kwargs)


def test_cpu_constructors():
    assert CpuMachine(bandwidth_bps=4 * TBPS).bandwidth_bps == 4 * 1024e9
    assert CpuMachine.from_gbps(4096).bandwidth_bps == 4096e9
    assert CpuMachine.from_gbps(1).bandwidth_bps == 1e9
    assert CpuMachine.from_gbps() == CpuMachine() == CpuMachine(bandwidth_bps=4 * TBPS)
    assert CpuMachine.from_gbps(1, energy_per_bit_pj=2.0).energy_per_bit_pj == 2.0
    with pytest.raises(ValueError):
        CpuMachine(bandwidth_bps=0)
    with pytest.raises(ValueError):
        CpuMachine(energy_per_bit_pj=-1)


@pytest.mark.parametrize("kwargs", [
    {"oc_cycles": 0}, {"oc_cycles": -1}, {"oc_cycles": 1.5},
    {"oc_cycles": 1, "pac_cycles": -1},
    {"oc_cycles": 1, "dio_bits": 0},
])
def test_workload_rejects_bad_values(kwargs):
    kwargs.setdefault("oc_cycles", 1)
    with pytest.raises(ValueError):
        WorkloadPoint(**kwargs)


# the rules a config can break are pinned, key by key, in test_config.py
@pytest.mark.parametrize("make,text", [
    (lambda: PimMachine(cols=-10 ** 100),
     "cols: must be >= 1, got -1" + "0" * 58 + "… (102 characters)"),
    (lambda: PimMachine(cycle_time_ns=math.nan), "cycle_time_ns: must be > 0, got nan"),
    (lambda: CpuMachine(bandwidth_bps=0), "bandwidth_bps: must be > 0, got 0"),
    (lambda: WorkloadPoint(oc_cycles=1.5), "oc_cycles: must be an integer, got 1.5"),
    (lambda: WorkloadPoint(oc_cycles=1, pac_cycles=-1), "pac_cycles: must be >= 0, got -1"),
    # a bool, a fraction or a numpy integer is no integer field's value
    (lambda: WorkloadPoint(oc_cycles=True), "oc_cycles: must be an integer, got True"),
    (lambda: PimMachine(rows=64.5), "rows: must be an integer, got 64.5"),
    (lambda: PimMachine(cols=True), "cols: must be an integer, got True"),
    (lambda: PimMachine(mats=np.int64(4)), "mats: must be an integer, got np.int64(4)"),
], ids=["cut", "nan", "bps", "integer", "pac", "bool", "rows", "cols", "numpy"])
def test_a_broken_rule_names_its_field(make, text):
    with pytest.raises(FieldError) as err:
        make()
    assert str(err.value) == text


def test_power_budget_positive():
    assert PowerBudget(20).tdp_watts == 20
    with pytest.raises(ValueError):
        PowerBudget(0)


def test_throughput_gops_and_bounds():
    assert Throughput(1e9).gops == 1.0
    assert "GOPS" in str(Throughput(728.1778e9))
    with pytest.raises(ValueError):
        Throughput(-1.0)
    with pytest.raises(ValueError):
        Throughput(math.inf)


def test_types_are_immutable(pim, cpu):
    for obj in (pim, cpu, WorkloadPoint(1), PowerBudget(1), Throughput(0.0)):
        field = dataclasses.fields(obj)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, 1)
