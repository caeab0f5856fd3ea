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

The resulting cycle count is the throughput model's PAC term, backed by the
simulated move program of `relocation_program`. Explicit overrides price
layouts the closed form cannot express; they have no generated move program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .machine import FieldError, InputError, PimMachine, at_least, integers
from .simulator import OP_HMOVE, OP_VMOVE, ColRange, NorProgram


class ColumnOverflow(InputError):
    """The move plan does not fit the array's columns."""


class RowOverflow(InputError):
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
        integers(element_width_bits=self.element_width_bits,
                 misaligned_subsets=self.misaligned_subsets)
        at_least(1, element_width_bits=self.element_width_bits)
        at_least(0, misaligned_subsets=self.misaligned_subsets)
        given = [key for key in ("hmove_override", "vmove_override")
                 if getattr(self, key) is not None]
        overrides = {key: getattr(self, key) for key in given}
        integers(**overrides)
        at_least(0, **overrides)
        if len(given) == 1:
            raise FieldError(given[0], "hmove_override and vmove_override come as a pair")

    @property
    def has_override(self) -> bool:
        return self.hmove_override is not None


def pac_of(layout: LayoutSpec, pim: PimMachine) -> int:
    """Placement and alignment cycles for a layout on a machine."""
    if layout.has_override:
        return layout.hmove_override + layout.vmove_override
    cycles = layout.misaligned_subsets * layout.element_width_bits
    if layout.needs_vertical_relocation:
        cycles += pim.rows
    return cycles


def relocation_program(layout: LayoutSpec, pim: PimMachine) -> NorProgram:
    """Emit the move-only program realizing a layout's relocation.

    The layout is fixed, and the program's declared ranges are the only
    record of it. Subset g of k is aligned from column g*n (input
    ``source_g``) to (k+g)*n (output ``target_g``), one HMove per bit, as a
    horizontal move shifts a whole column across every row; with k = 0 the
    elements sit at column 0 (output ``aligned``). Each output owns one
    contiguous block of rows. Vertical relocation then moves every row's
    element up one row, the last row's arriving from the neighbouring array.
    The instruction count always equals pac_of(layout, pim). Overridden
    layouts have no canonical move decomposition and are rejected.
    """
    if layout.has_override:
        raise ValueError("overridden layouts carry verbatim cycle counts; "
                         "there is no move program to generate")
    n, k = layout.element_width_bits, layout.misaligned_subsets
    rows = pim.rows
    if k > rows:
        raise RowOverflow(f"{k} row groups need at least {k} rows, array has {rows}")
    inputs = tuple([ColRange(f"source_{g}", g * n, n) for g in range(k)])
    outputs = (tuple([ColRange(f"target_{g}", (k + g) * n, n) for g in range(k)])
               or (ColRange("aligned", 0, n),))
    if outputs[-1].stop > pim.cols:  # report the lowest; later sources lie below target_0
        r = next(r for r in inputs[:1] + outputs if r.stop > pim.cols)
        raise ColumnOverflow(f"element region [{r.start}, {r.stop}) exceeds "
                             f"{pim.cols} columns")

    # one HMove per bit of each subset: columns 0..kn-1 to kn..2kn-1
    h = k * n
    if not layout.needs_vertical_relocation:
        return NorProgram(OP_HMOVE, np.arange(h, 2 * h, dtype=np.int32),
                          np.arange(h, dtype=np.int32)[:, None].copy(), 1,
                          inputs=inputs, outputs=outputs)
    # then one VMove per destination row d, ascending, from row d+1, so none
    # reads a row already written. VMove d moves the region of row
    # min(d+1, rows-1): the last one reads the neighbouring array, so its
    # region is its own row's. Each column is allocated once, and no ufunc
    # takes a Python int, which it would convert on every call.
    m = h + rows
    op = np.empty(m, dtype=np.int8)
    op[:h], op[h:] = OP_HMOVE, OP_VMOVE
    srcs = np.arange(m, dtype=np.int32)[:, None].copy()     # HMove i reads column i
    srcs[h:] = -1
    dest = np.arange(h, h + m, dtype=np.int32)                # and writes column h + i
    dest[h:] = -1
    fanin = np.zeros(m, dtype=np.int32)
    fanin[:h] = 1
    offset = np.zeros(m, dtype=np.int32)
    offset[h:] = -1
    row = np.arange(1 - h, 1 + rows, dtype=np.int32)   # VMove h + d reads row d + 1
    row[:h] = 0
    crosses = np.zeros(m, dtype=bool)
    crosses[-1] = True
    col_lo, col_hi = np.zeros(m, dtype=np.int32), np.zeros(m, dtype=np.int32)
    # block g owns rows [first[g], first[g + 1]): its VMoves are those d
    # with d + 1 in it
    first = [-(-b * rows // len(outputs)) for b in range(len(outputs) + 1)]
    for g, out in enumerate(outputs):
        moves = slice(h + max(first[g] - 1, 0), h + first[g + 1] - 1)
        col_lo[moves], col_hi[moves] = out.start, out.stop - 1
    col_lo[-1], col_hi[-1] = outputs[-1].start, outputs[-1].stop - 1
    return NorProgram(op, dest, srcs, fanin, offset, col_lo, col_hi, row, crosses,
                      inputs=inputs, outputs=outputs)
