"""Workloads and sweeps over the throughput model.

A `Workload` names an operation, its data layout and its traffic, and
resolves to the point the model evaluates. `sweep` answers how the curves
of several workload points behave when one parameter sweeps across a
grid: it checks the grid once and evaluates every point at every value in
one call of `model.evaluate`, whose columns also hold the break-evens and
the verdict of each point.
"""

from __future__ import annotations

from collections.abc import Sequence
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


def sweep(param: str, grid, pim: PimMachine, cpu: CpuMachine,
          points: Sequence[WorkloadPoint], power: PowerBudget | None = None) -> np.ndarray:
    """All four throughput columns of every workload point at every grid value.

    `param` (any case) is swept, everything else fixed. The grid is checked
    and normalised once: values must be finite; those of integer-valued
    parameters (OC, PAC, MAT, DIO) are rounded to integers, half to even,
    and de-duplicated in first-seen order. OC, MAT and DIO must then be
    >= 1 and PAC >= 0; BW (bits/s) and TDP (watts) must be > 0.

    One `evaluate` call runs the points down axis 0 against the grid along
    axis 1. Returns a float64 table of len(points) * G rows, workload-major
    (G values evaluated per point), with the columns x (the value
    evaluated), pim_gops, cpu_gops, pl_pim_gops and pl_cpu_gops. Without a
    power budget, and unless TDP is swept, the capped columns equal the
    raw ones.
    """
    name = param.upper()
    if name not in SWEEP_PARAMS:
        raise InputError(f"unknown sweep parameter {param!r}; "
                         f"expected one of {', '.join(SWEEP_PARAMS)}")
    grid = np.array(grid, dtype=np.float64).ravel()
    if not grid.size:
        raise InputError("sweep grid must not be empty")
    if not np.isfinite(grid).all():
        raise InputError("sweep grid values must be finite")
    if name in _LOWEST:
        grid = np.rint(grid) + 0.0   # + 0.0 turns a rounded -0.0 into 0.0
        grid = grid[np.sort(np.unique(grid, return_index=True)[1])]
        if grid.min() < _LOWEST[name]:
            raise InputError(f"{name} grid values must round to >= {_LOWEST[name]}")
    elif grid.min() <= 0:
        raise InputError(f"{name} grid values must be > 0")
    if not points:
        return np.empty((0, 5))
    # Python values, one row per point, so that evaluate names an integer
    # past the largest double
    at = Points(*([[getattr(p, field)] for p in points] for field in Points._fields[:3]))
    ev = evaluate(pim, cpu, at._replace(**{_COORDINATES[name]: grid}), power)
    x = np.broadcast_to(grid, ev.pim_gops.shape)
    return np.stack((x, ev.pim_gops, ev.cpu_gops, ev.pl_pim_gops, ev.pl_cpu_gops),
                    axis=-1).reshape(-1, 5)
