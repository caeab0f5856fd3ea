import numpy as np
import pytest

from bitlet import CpuMachine, PimMachine, PowerBudget, simulator


@pytest.fixture
def pim():
    return PimMachine()  # 1024 x 1024 cells, 1024 arrays, 10 ns, 0.1 pJ


@pytest.fixture
def cpu():
    return CpuMachine()  # 4 Tbps, 15 pJ/bit


@pytest.fixture
def budget():
    return PowerBudget(tdp_watts=20.0)


@pytest.fixture
def rng():
    return np.random.default_rng(0xB17B17)


@pytest.fixture
def shift_calls(monkeypatch):
    """The (first row, end row, offset) of each word shift a run makes."""
    calls = []
    shift = simulator._shift_rows

    def counted(planes, s0, s1, off):
        calls.append((s0, s1, off))
        shift(planes, s0, s1, off)

    monkeypatch.setattr(simulator, "_shift_rows", counted)
    return calls
