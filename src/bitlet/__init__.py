"""Bitlet: an analytical throughput and energy model for bit-serial
processing-in-memory, with an executable NOR microprogram simulator that
backs the model's cycle counts.

The library splits into:

    machine     parameter types (arrays, CPU, workload point, power budget);
                each states its own ranges and raises FieldError on a
                broken one
    model       the evaluation kernel
    catalog     (operation, width) -> cycles, NOR program generators, ``execute``
    simulator   NOR/move programs held as columns, their row-parallel
                execution on packed bit planes (``ArrayState``), and ``compose``
    layout      placement and alignment cycle pricing and move programs
    analysis    workloads and sweeps
    validation  oracle suite tying catalog numbers to simulated programs
    cli         the ``bitlet`` command
"""

from .analysis import Workload, sweep
from .catalog import (OpKind, OpSpec, UnsupportedOperation, UnsupportedWidth,
                      catalog_table, execute, microprogram_of, oc_of)
from .layout import ColumnOverflow, LayoutSpec, pac_of, relocation_program
from .machine import (CpuMachine, FieldError, InputError, PimMachine, PowerBudget,
                      Throughput, WorkloadPoint)
from .model import Evaluation, NonFiniteResult, Points, evaluate, mat_power_cap
from .simulator import (ArrayState, ColRange, HMove, InvalidProgram, Nor, NorProgram, VMove,
                        compose, run)

__version__ = "0.1.0"

__all__ = [
    "ArrayState", "ColRange", "ColumnOverflow", "CpuMachine", "Evaluation",
    "FieldError", "HMove", "InputError", "InvalidProgram", "LayoutSpec",
    "NonFiniteResult", "Nor", "NorProgram", "OpKind", "OpSpec", "PimMachine",
    "Points", "PowerBudget", "Throughput", "UnsupportedOperation",
    "UnsupportedWidth", "VMove", "Workload", "WorkloadPoint", "catalog_table",
    "compose", "evaluate", "execute", "mat_power_cap", "microprogram_of", "oc_of",
    "pac_of", "relocation_program", "run", "sweep",
]
