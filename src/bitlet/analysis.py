"""Workloads and sweeps over the throughput model.

A `Workload` names an operation, its data layout and its traffic, and
resolves to the point the model evaluates. `sweep` answers how the curves
behave when one parameter sweeps across a grid; it is a view of
`model.evaluate`, whose columns also hold the break-evens and the verdict
of each point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import OpSpec, oc_of
from .layout import LayoutSpec, pac_of
from .machine import (CpuMachine, FieldError, InputError, PimMachine, PowerBudget,
                      WorkloadPoint, at_least, integers)
from .model import Points, evaluate


@dataclass(frozen=True)
class Workload:
    """A named workload: an operation plus its data layout and traffic.

    The operation complexity comes from the catalog unless oc_override is
    given; the layout (optional) prices the placement/alignment cycles.
    """

    name: str
    dio_bits: int
    op: OpSpec | None = None
    layout: LayoutSpec | None = None
    oc_override: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise FieldError("name", "every workload needs a non-empty name")
        integers(dio_bits=self.dio_bits)
        at_least(1, dio_bits=self.dio_bits)
        if self.oc_override is not None:
            integers(oc_override=self.oc_override)
            at_least(1, oc_override=self.oc_override)
        elif self.op is None:
            raise FieldError("op", "required when the workload has no oc_override")

    def resolve(self, pim: PimMachine) -> WorkloadPoint:
        oc = self.oc_override if self.oc_override is not None else oc_of(self.op)
        pac = pac_of(self.layout, pim) if self.layout is not None else 0
        return WorkloadPoint(oc_cycles=oc, pac_cycles=pac, dio_bits=self.dio_bits)


# sweep parameter -> the `Points` coordinate it sets
_COORDINATES = {"OC": "oc_cycles", "PAC": "pac_cycles", "MAT": "mats",
                "BW": "bandwidth_bps", "DIO": "dio_bits", "TDP": "tdp_watts"}
SWEEP_PARAMS = tuple(_COORDINATES)
# lowest grid value of each integer-valued parameter (PAC 0 is the cost of
# the default layout); the others, BW and TDP, need only be > 0
_LOWEST = {"OC": 1, "PAC": 0, "MAT": 1, "DIO": 1}
INTEGER_PARAMS = frozenset(_LOWEST)


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter over a value grid, everything else fixed.

    The grid is checked and normalised here, once: values must be finite;
    those of integer-valued parameters (OC, PAC, MAT, DIO) are rounded to
    integers, half to even, and de-duplicated in first-seen order. OC,
    MAT and DIO must then be >= 1 and PAC >= 0; BW (bits/s) and TDP
    (watts) must be > 0. `grid` holds the values evaluated, as floats.
    """

    param: str
    grid: tuple
    pim: PimMachine
    cpu: CpuMachine
    workload: WorkloadPoint
    power: PowerBudget | None = None

    def __post_init__(self) -> None:
        param = self.param.upper()
        if param not in SWEEP_PARAMS:
            raise InputError(f"unknown sweep parameter {self.param!r}; "
                             f"expected one of {', '.join(SWEEP_PARAMS)}")
        grid = np.array(self.grid, dtype=np.float64).ravel()
        if not grid.size:
            raise InputError("sweep grid must not be empty")
        if not np.isfinite(grid).all():
            raise InputError("sweep grid values must be finite")
        if param in INTEGER_PARAMS:
            grid = np.rint(grid) + 0.0   # + 0.0 turns a rounded -0.0 into 0.0
            grid = grid[np.sort(np.unique(grid, return_index=True)[1])]
            if grid.min() < _LOWEST[param]:
                raise InputError(f"{param} grid values must round to >= {_LOWEST[param]}")
        elif grid.min() <= 0:
            raise InputError(f"{param} grid values must be > 0")
        object.__setattr__(self, "param", param)
        object.__setattr__(self, "grid", tuple(grid.tolist()))


def sweep(spec: SweepSpec) -> np.recarray:
    """Evaluate all four throughput columns at every grid point.

    Returns a record array, one record per grid point, with fields x (the
    value evaluated; see `SweepSpec` for rounding), pim_gops, cpu_gops,
    pl_pim_gops and pl_cpu_gops. Without a power budget, and unless TDP is
    swept, the capped columns equal the raw ones.
    """
    x = np.array(spec.grid)
    w = spec.workload
    points = Points(w.oc_cycles, w.pac_cycles, w.dio_bits)
    ev = evaluate(spec.pim, spec.cpu, points._replace(**{_COORDINATES[spec.param]: x}),
                  spec.power)
    return np.rec.fromarrays((x, ev.pim_gops, ev.cpu_gops, ev.pl_pim_gops, ev.pl_cpu_gops),
                             names=("x", "pim_gops", "cpu_gops", "pl_pim_gops", "pl_cpu_gops"))
