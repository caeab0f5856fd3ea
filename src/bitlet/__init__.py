"""Bitlet: an analytical throughput and energy model for bit-serial
processing-in-memory, with an executable NOR microprogram simulator that
backs the model's cycle counts.

The library splits into:

    machine     parameter types (arrays, CPU, workload point, power budget);
                each states its own ranges and raises FieldError on a
                broken one
    model       the evaluation kernel and the closed-form equations it
                is checked against
    catalog     (operation, width) -> cycles, NOR program generators, ``execute``
    simulator   row-parallel execution of NOR/move programs, and ``compose``
    layout      placement and alignment cycle pricing and move programs
    analysis    crossover, energy break-even, litmus verdicts, sweeps
    validation  oracle suite tying catalog numbers to simulated programs
    cli         the ``bitlet`` command
"""

from .analysis import (SweepSpec, Verdict, Winner, Workload, crossover_oc,
                       energy_breakeven_oc, litmus, sweep)
from .catalog import (OpKind, OpSpec, UnsupportedOperation, UnsupportedWidth,
                      catalog_table, execute, microprogram_of, oc_of)
from .layout import LayoutSpec, pac_of, relocation_program
from .machine import (CpuMachine, FieldError, InputError, PimMachine, PowerBudget,
                      Throughput, WorkloadPoint)
from .model import (Evaluation, NonFiniteResult, Points, energy_per_op_cpu,
                    energy_per_op_pim, evaluate, mat_power_cap, perf_cpu,
                    perf_pim, pl_perf_cpu, pl_perf_pim)
from .simulator import (ArrayState, ColRange, ColumnOverflow, HMove,
                        InvalidProgram, Nor, NorProgram, VMove, compose, run, to_text)

__version__ = "0.1.0"

__all__ = [
    "ArrayState", "ColRange", "ColumnOverflow", "CpuMachine", "Evaluation",
    "FieldError", "HMove", "InputError", "InvalidProgram", "LayoutSpec",
    "NonFiniteResult", "Nor", "NorProgram", "OpKind", "OpSpec", "PimMachine",
    "Points", "PowerBudget", "SweepSpec", "Throughput", "UnsupportedOperation",
    "UnsupportedWidth", "VMove", "Verdict", "Winner", "Workload", "WorkloadPoint",
    "catalog_table", "compose", "crossover_oc", "energy_breakeven_oc", "energy_per_op_cpu",
    "energy_per_op_pim", "evaluate", "execute", "litmus", "mat_power_cap",
    "microprogram_of", "oc_of", "pac_of", "perf_cpu", "perf_pim", "pl_perf_cpu",
    "pl_perf_pim", "relocation_program", "run", "sweep", "to_text",
]
