"""Machine and workload parameter types for the bitlet model.

All types are immutable and validated on construction, so every function
that consumes them is total: there is no "invalid machine" state to check
for at evaluation time. Each range rule is stated once, in the type that
holds the value, and a broken one raises `FieldError`.

Unit conventions (pinned once, here):
  * 1 Gbps = 10^9 bits/s and 1 Tbps = 1024 Gbps (binary terabit).
  * 1 GOPS = 10^9 operations/s.
  * Cycle times are stored in nanoseconds, energies in picojoules; the
    properties `cycle_time_s`, `energy_per_cycle_j` and `energy_per_bit_j`
    expose SI values for the throughput math.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

GBPS = 1e9                # bits/s per Gbps
TBPS = 1024 * GBPS        # bits/s per Tbps (binary convention)
GOPS = 1e9                # ops/s per GOPS
NS = 1e-9                 # seconds per nanosecond
PJ = 1e-12                # joules per picojoule


class InputError(ValueError):
    """Bad user input, which `cli.main` reports as one line with exit 2."""


class FieldError(InputError):
    """Parameter `field` broke `rule` of its type; the text is "<field>: <rule>"."""

    def __init__(self, field: str, rule: str):
        self.field, self.rule = field, rule
        super().__init__(f"{field}: {rule}")


def _shown(value) -> str:
    """`repr(value)` for an error line, cut after 60 characters."""
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:60]}… ({len(text)} characters)"


def at_least(low: int, **values) -> None:
    """Raise FieldError for the first of the `field=value` pairs below `low`."""
    for field, value in values.items():
        if not value >= low:
            raise FieldError(field, f"must be >= {low}, got {_shown(value)}")


def positive(**values) -> None:
    """Raise FieldError for the first of the `field=value` pairs not above 0."""
    for field, value in values.items():
        if not value > 0:
            raise FieldError(field, f"must be > 0, got {_shown(value)}")


def integers(**values) -> None:
    """Raise FieldError for the first of the `field=value` pairs not an int.

    A bool is not taken for an integer, and neither is a numpy integer.
    """
    for field, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise FieldError(field, f"must be an integer, got {_shown(value)}")


@dataclass(frozen=True)
class PimMachine:
    """A bank of memory arrays computing with row-parallel NOR cycles.

    rows/cols describe one array; `mats` arrays run in lockstep.
    `energy_per_cycle_pj` is the energy of a single one-cycle row-group
    operation, i.e. the cost of a unit-complexity operation.
    """

    rows: int = 1024
    cols: int = 1024
    mats: int = 1024
    cycle_time_ns: float = 10.0
    energy_per_cycle_pj: float = 0.1

    def __post_init__(self) -> None:
        integers(rows=self.rows, cols=self.cols, mats=self.mats)
        at_least(1, rows=self.rows, cols=self.cols, mats=self.mats)
        positive(cycle_time_ns=self.cycle_time_ns, energy_per_cycle_pj=self.energy_per_cycle_pj)

    @property
    def cycle_time_s(self) -> float:
        return self.cycle_time_ns * NS

    @property
    def energy_per_cycle_j(self) -> float:
        return self.energy_per_cycle_pj * PJ


@dataclass(frozen=True)
class CpuMachine:
    """CPU side of the comparison, reduced to its memory traffic costs."""

    bandwidth_bps: float = 4 * TBPS
    energy_per_bit_pj: float = 15.0

    def __post_init__(self) -> None:
        positive(bandwidth_bps=self.bandwidth_bps, energy_per_bit_pj=self.energy_per_bit_pj)

    @classmethod
    def from_gbps(cls, gbps: float | None = None, **fields) -> "CpuMachine":
        """A machine of `gbps` bandwidth, or of the default one when None;
        `fields` are its other fields."""
        if gbps is None:
            return cls(**fields)
        positive(bandwidth_gbps=gbps)   # named in the unit it is given in
        return cls(bandwidth_bps=gbps * GBPS, **fields)

    @property
    def energy_per_bit_j(self) -> float:
        return self.energy_per_bit_pj * PJ


@dataclass(frozen=True)
class WorkloadPoint:
    """One operation's cost coordinates.

    oc_cycles:  NOR cycles to compute the operation on one row (OC).
    pac_cycles: data placement/alignment move cycles paid before compute (PAC).
    dio_bits:   bits moved between CPU and memory per operation (DIO).
    """

    oc_cycles: int
    pac_cycles: int = 0
    dio_bits: int = 48

    def __post_init__(self) -> None:
        integers(oc_cycles=self.oc_cycles, pac_cycles=self.pac_cycles, dio_bits=self.dio_bits)
        at_least(1, oc_cycles=self.oc_cycles, dio_bits=self.dio_bits)
        at_least(0, pac_cycles=self.pac_cycles)


@dataclass(frozen=True)
class PowerBudget:
    """Thermal design power cap applied to one side of the comparison."""

    tdp_watts: float

    def __post_init__(self) -> None:
        positive(tdp_watts=self.tdp_watts)


@dataclass(frozen=True)
class Throughput:
    """Operations per second, kept at full precision until presentation."""

    ops_per_second: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.ops_per_second) and self.ops_per_second >= 0):
            raise ValueError(f"ops_per_second must be finite and >= 0, "
                             f"got {self.ops_per_second}")

    @property
    def gops(self) -> float:
        return self.ops_per_second / GOPS

    def __str__(self) -> str:
        return f"{self.gops:.6g} GOPS"
