"""The evaluation kernel of the bitlet model.

The memory side computes one operation per row per (OC + PAC) cycles,
across all rows of all arrays at once; the CPU side is bandwidth-bound
and pays DIO transferred bits per operation. Both sides can additionally
be capped by a power budget through their per-operation energy.

`evaluate` states these equations once: one call computes every column of
the model over numpy arrays of points, and every analysis and CLI command
runs it. The tests hold it, bit for bit, to the scalar closed forms of the
paper (``tests/reference.py``); it repeats their operation order exactly
and works in float64 throughout, never in fixed-width integers, which
would wrap. `mat_power_cap` is the one quantity outside the kernel.

Machine and workload types validate themselves, but valid parameters can
still overflow double precision (a 1e-300 ns cycle, say): the kernel and
`mat_power_cap` then raise `NonFiniteResult`.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .machine import GOPS, CpuMachine, InputError, PimMachine, PowerBudget, WorkloadPoint

TIE_REL_TOL = 1e-9  # relative throughput gap treated as a dead heat


class NonFiniteResult(InputError):
    """A model result is infinite or not a number for valid parameters."""


class Points(NamedTuple):
    """Where `evaluate` runs: a value or an array per parameter.

    OC, PAC and DIO are the workload's coordinates. MAT, BW (bits/s) and
    TDP (watts), when given, replace the machine's and the budget's own
    values; a TDP applies a budget even when `evaluate` gets none. All
    values broadcast against each other.
    """

    oc_cycles: object
    pac_cycles: object
    dio_bits: object
    mats: object = None
    bandwidth_bps: object = None
    tdp_watts: object = None

    @classmethod
    def of(cls, points: Sequence[WorkloadPoint]) -> "Points":
        """One entry per workload point, in order."""
        return cls([p.oc_cycles for p in points], [p.pac_cycles for p in points],
                   [p.dio_bits for p in points])


class Evaluation(NamedTuple):
    """Every column of the model, as float64 arrays of one broadcast shape."""

    pim_gops: np.ndarray
    cpu_gops: np.ndarray
    pl_pim_gops: np.ndarray       # the raw column again without a budget
    pl_cpu_gops: np.ndarray
    pim_pj_per_op: np.ndarray
    cpu_pj_per_op: np.ndarray
    # OC at which the raw pair is equal; <= 0 when the memory side never
    # wins. The cycle budget ROW*MAT*DIO / (BW*CT) is in general not an
    # integer (614.4 for the default machines at DIO 24), so an integer PAC
    # leaves `budget - PAC`, not 0: the column changes sign between the two
    # integers around the budget
    crossover_oc: np.ndarray
    energy_breakeven_oc: np.ndarray   # OC at which both sides spend equal pJ per op
    winner: np.ndarray            # "PIM", "CPU" or "TIE" (str array)
    speedup: np.ndarray           # memory side over CPU side, on the deciding pair
    energy_ratio: np.ndarray      # CPU pJ/op over memory-side pJ/op


def evaluate(pim: PimMachine, cpu: CpuMachine, points: Points,
             power: PowerBudget | None = None) -> Evaluation:
    """All model columns at every point, in one pass of array operations.

    Under a budget the winner and speedup come from the capped pair,
    otherwise from the raw one; a relative gap within TIE_REL_TOL is a tie
    with speedup 1.

    Each side is capped at min(raw, TDP / energy-per-op). When both caps
    bind, the side with the lower energy per op wins, whatever the raw
    numbers. A memory side that is ahead raw and no dearer per op therefore
    never falls behind under any budget; a budget can turn a raw
    memory-side win into a CPU win only when OC+PAC exceeds the energy
    break-even (the `energy_breakeven_oc` column at PAC 0).

    Raises NonFiniteResult naming an input past the largest double, or the
    first column and point that overflow double precision.
    """
    def f64(name, value):
        try:
            return np.asarray(value, dtype=np.float64)
        except OverflowError:              # a Python integer past the largest double
            raise NonFiniteResult(f"{name} is past the largest double: the "
                                  f"parameters overflow double precision") from None

    oc, pac = f64("OC", points.oc_cycles), f64("PAC", points.pac_cycles)
    dio = f64("DIO", points.dio_bits)
    mats = f64("MAT", pim.mats if points.mats is None else points.mats)
    bw = f64("BW", cpu.bandwidth_bps if points.bandwidth_bps is None else points.bandwidth_bps)
    tdp = points.tdp_watts if points.tdp_watts is not None else (
        power.tdp_watts if power is not None else None)
    rows = float(pim.rows)
    with np.errstate(all="ignore"):
        cycles = oc + pac
        pim_ops = rows * mats / (cycles * pim.cycle_time_s)
        cpu_ops = bw / dio
        if tdp is None:
            pl_pim_ops, pl_cpu_ops = pim_ops, cpu_ops
        else:
            tdp = f64("TDP", tdp)
            pl_pim_ops = np.minimum(pim_ops, tdp / (pim.energy_per_cycle_j * cycles))
            pl_cpu_ops = np.minimum(cpu_ops, tdp / (cpu.energy_per_bit_j * dio))
        pim_pj = pim.energy_per_cycle_pj * cycles
        cpu_pj = cpu.energy_per_bit_pj * dio
        gap = np.abs(pl_pim_ops - pl_cpu_ops)
        tie = gap <= TIE_REL_TOL * np.maximum(pl_pim_ops, pl_cpu_ops)
        columns = Evaluation(
            pim_gops=pim_ops / GOPS,
            cpu_gops=cpu_ops / GOPS,
            pl_pim_gops=pl_pim_ops / GOPS,
            pl_cpu_gops=pl_cpu_ops / GOPS,
            pim_pj_per_op=pim_pj,
            cpu_pj_per_op=cpu_pj,
            # ROW*DIO first: that product is exact, so the one rounding is
            # that of the scalar form's exact integer ROW*MAT*DIO
            crossover_oc=rows * dio * mats / (bw * pim.cycle_time_s) - pac,
            energy_breakeven_oc=cpu.energy_per_bit_pj * dio / pim.energy_per_cycle_pj - pac,
            winner=np.where(tie, "TIE", np.where(pl_pim_ops > pl_cpu_ops, "PIM", "CPU")),
            speedup=np.where(tie, 1.0, pl_pim_ops / pl_cpu_ops),
            energy_ratio=cpu_pj / pim_pj,
        )
    inputs = {"OC": oc, "PAC": pac, "DIO": dio, "MAT": mats, "BW": bw}
    if tdp is not None:
        inputs["TDP"] = tdp
    shape = np.broadcast_shapes(*(c.shape for c in columns), *(v.shape for v in inputs.values()))
    columns = Evaluation(*(c if c.shape == shape else np.broadcast_to(c, shape)
                           for c in columns))
    for name, column in zip(Evaluation._fields, columns):
        if name != "winner" and not np.isfinite(column).all():
            at = np.unravel_index(np.argmin(np.isfinite(column)), shape)
            where = " ".join(f"{k}={np.broadcast_to(v, shape)[at]:.6g}"
                             for k, v in inputs.items())
            raise NonFiniteResult(f"{name} is {column[at]} at {where}: the "
                                  f"parameters overflow double precision")
    return columns


def mat_power_cap(pim: PimMachine, power: PowerBudget) -> int:
    """Largest array count the budget can keep fully active.

    Algebraically TDP*CT / (E_cycle * ROW): the point where the raw and
    power-limited memory-side branches of `evaluate` meet. Independent of
    the workload, because both branches scale identically with (OC+PAC).
    """
    try:
        exact = (power.tdp_watts * pim.cycle_time_s
                 / (pim.energy_per_cycle_j * pim.rows))
    except ZeroDivisionError:              # the energy per cycle underflows to 0 J
        exact = math.inf
    # one-ulp guard so an analytically-integer cap never floors one short
    guarded = exact * (1.0 + 1e-12) + 1e-12
    if not math.isfinite(guarded):
        raise NonFiniteResult(f"mat_power_cap is {guarded}: the parameters "
                              f"overflow double precision")
    return int(math.floor(guarded))
