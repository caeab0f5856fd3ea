"""Placement and alignment cost model.

Before row-parallel compute can run, misplaced or unaligned operands must
be moved inside the array. Two move kinds exist, each one cycle:

  * horizontal moves shift one column for all rows at once, so aligning a
    whole n-bit element vector costs n cycles; a group of rows needing a
    different shift amount pays its own n cycles (k groups -> k*n);
  * vertical moves relocate one element per cycle, so fixing row
    misplacement costs one cycle per row, ROW cycles in total, regardless
    of how many column groups exist. The boundary elements that would
    arrive from a neighbouring array are billed but not simulated.

The resulting cycle count feeds straight into the throughput model as the
PAC term. Explicit overrides let callers price layouts the closed form
cannot express; overridden layouts have no generated move program.
"""

from __future__ import annotations

from dataclasses import dataclass

from .machine import PimMachine
from .simulator import ColRange, ColumnOverflow, HMove, Instr, NorProgram, VMove


class RowOverflow(ValueError):
    """The move plan asks for more row groups than the array has rows."""


@dataclass(frozen=True)
class LayoutSpec:
    """Data placement descriptor resolving to alignment and relocation cost.

    misaligned_subsets counts row groups that each need their own shift
    amount; groups sharing a shift align in parallel for free and do not
    count. Overrides must be given as a pair and bypass the formula.
    """

    element_width_bits: int
    misaligned_subsets: int = 0
    needs_vertical_relocation: bool = False
    hmove_override: int | None = None
    vmove_override: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.element_width_bits, int) or self.element_width_bits < 1:
            raise ValueError(f"element_width_bits must be >= 1, "
                             f"got {self.element_width_bits!r}")
        if not isinstance(self.misaligned_subsets, int) or self.misaligned_subsets < 0:
            raise ValueError(f"misaligned_subsets must be >= 0, "
                             f"got {self.misaligned_subsets!r}")
        if (self.hmove_override is None) != (self.vmove_override is None):
            raise ValueError("hmove_override and vmove_override come as a pair")
        if self.hmove_override is not None:
            if self.hmove_override < 0 or self.vmove_override < 0:
                raise ValueError("move overrides must be non-negative")

    @property
    def has_override(self) -> bool:
        return self.hmove_override is not None


PERFECT_LAYOUT = LayoutSpec(element_width_bits=1)


def pac_of(layout: LayoutSpec, pim: PimMachine) -> int:
    """Placement and alignment cycles for a layout on a machine."""
    if layout.has_override:
        return layout.hmove_override + layout.vmove_override
    cycles = layout.misaligned_subsets * layout.element_width_bits
    if layout.needs_vertical_relocation:
        cycles += pim.rows
    return cycles


@dataclass(frozen=True)
class RelocationAssignment:
    """Column and row plan realizing a layout's moves on a concrete array.

    Subset g's elements start at source_starts[g] and are aligned into
    target_starts[g] (regions pairwise disjoint, handled per subset since
    a horizontal move always shifts a full column across every row). Rows
    are split into contiguous blocks, one per subset. When vertical
    relocation is needed, every row's aligned element then moves to
    row + vertical_offset; rows whose partner falls outside the array
    exchange with a neighbouring array and are billed as ordinary moves.
    """

    source_starts: tuple[int, ...]
    target_starts: tuple[int, ...]
    aligned_start: int = 0          # element region when no alignment is needed
    vertical_offset: int = -1

    def __post_init__(self) -> None:
        object.__setattr__(self, "source_starts", tuple(self.source_starts))
        object.__setattr__(self, "target_starts", tuple(self.target_starts))
        if len(self.source_starts) != len(self.target_starts):
            raise ValueError("need one target region per source region")
        if self.vertical_offset == 0:
            raise ValueError("vertical_offset must be non-zero")


def default_assignment(layout: LayoutSpec, vertical_offset: int = -1
                       ) -> RelocationAssignment:
    """Pack subset regions side by side: sources first, then targets."""
    n, k = layout.element_width_bits, layout.misaligned_subsets
    return RelocationAssignment(
        source_starts=tuple(g * n for g in range(k)),
        target_starts=tuple((k + g) * n for g in range(k)),
        aligned_start=0,
        vertical_offset=vertical_offset,
    )


def subset_of_row(row: int, rows: int, k: int) -> int:
    """Contiguous-block row partition: which subset owns this row."""
    return min(row * k // rows, k - 1) if k > 0 else 0


def relocation_program(layout: LayoutSpec, pim: PimMachine,
                       assignment: RelocationAssignment | None = None
                       ) -> NorProgram:
    """Emit the move-only program realizing a layout's relocation.

    The instruction count always equals pac_of(layout, pim). Overridden
    layouts have no canonical move decomposition and are rejected.
    """
    if layout.has_override:
        raise ValueError("overridden layouts carry verbatim cycle counts; "
                         "there is no move program to generate")
    if assignment is None:
        assignment = default_assignment(layout)
    n, k = layout.element_width_bits, layout.misaligned_subsets
    rows, cols = pim.rows, pim.cols
    if k > rows:
        raise RowOverflow(f"{k} row groups need at least {k} rows, array has {rows}")
    if len(assignment.source_starts) != k:
        raise ValueError(f"assignment has {len(assignment.source_starts)} regions, "
                         f"layout declares {k} subsets")

    regions = list(zip(assignment.source_starts, assignment.target_starts))
    for lo in [c for pair in regions for c in pair] + [assignment.aligned_start]:
        if lo < 0 or lo + n > cols:
            raise ColumnOverflow(f"element region [{lo}, {lo + n}) exceeds "
                                 f"{cols} columns")

    instrs: list[Instr] = [HMove(dst + j, src + j) for src, dst in regions
                           for j in range(n)]
    if layout.needs_vertical_relocation:
        off = assignment.vertical_offset
        # element region of each row: one contiguous block of rows per subset
        if k == 0:
            region = [assignment.aligned_start] * rows
        else:
            bounds = [-(-g * rows // k) for g in range(k + 1)]
            region = [t for g, t in enumerate(assignment.target_starts)
                      for _ in range(bounds[g + 1] - bounds[g])]
        # destinations in an order where no move reads a row already written;
        # the last |off| of them take their element from the neighbouring array
        dests = range(rows) if off < 0 else range(rows - 1, -1, -1)
        inside = max(rows - abs(off), 0)
        instrs += [VMove(off, region[d - off], region[d - off] + n - 1, d - off)
                   for d in dests[:inside]]
        instrs += [VMove(off, region[d], region[d] + n - 1, d - off, crosses_array=True)
                   for d in dests[inside:]]

    inputs = tuple(ColRange(f"source_{g}", s, n)
                   for g, s in enumerate(assignment.source_starts))
    outputs = tuple(ColRange(f"target_{g}", t, n)
                    for g, t in enumerate(assignment.target_starts))
    if k == 0:
        outputs = (ColRange("aligned", assignment.aligned_start, n),)
    return NorProgram(tuple(instrs), inputs=inputs, outputs=outputs)
