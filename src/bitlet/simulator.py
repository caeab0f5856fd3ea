"""Row-parallel NOR microprogram simulator.

Models computation inside one memory array of ROW x COL bit cells, operated
on by three instruction kinds, each costing exactly one cycle:

  * ``Nor``    writes NOR of 1..max_fanin source columns into a destination
               column, in every row at once.
  * ``HMove``  copies one whole column into another (row-parallel move).
  * ``VMove``  relocates one row's cell range to ``row + offset`` (per-element
               serial move). A move whose source or destination row falls
               outside the array must be flagged ``crosses_array``; it still
               costs one cycle but no local cells change (neighbouring arrays
               are not simulated).

Programs are static: they are validated in full against the array dimensions
before any cell is touched, and the cycle count of a run always equals the
instruction count. Rows never interact except through explicit ``VMove``.

Storage. A MAGIC NOR writes one column of every row at once, so the state is
held column-major and bit-packed: one plane of ceil(ROW / 64) 64-bit words
per column, row r at bit r % 64 of word r // 64. A NOR ORs its source planes
into the destination plane and inverts it in place; an HMove copies one
plane. Padding bits past the last row may take any value while a program
runs and are cleared before ``run`` returns, so they are never seen. The
``bool`` matrix form exists only at the boundary: the ``ArrayState``
constructor, the read-only ``ArrayState.bits`` and ``apply_instr``, which
states the reference semantics the tests hold the packed engine to.

Operands. ``pack_ints``/``unpack_ints`` move one int64 per row in and out
of a block of up to 64 columns. Each row takes a lane of 1, 2, 4 or 8
bytes, the smallest that holds the block, staged in one word array with a
word per lane byte and group of 8 rows. Each word holds an 8 x 8 bit block
(8 rows by 8 bits of the value, or 8 planes by 8 rows once transposed),
turned over in place by three delta swaps. Byte b of every value is copied
in one strided pass, and each plane's bytes in another, so no copy works
one 2- to 8-byte row at a time and no full-size temporary is made twice.

Program form. A ``NorProgram`` is a set of read-only columns, one entry
per instruction: ``op`` (``OP_NOR``, ``OP_HMOVE`` or ``OP_VMOVE``), ``dest``,
``srcs`` (k x w, padded with -1, where w is the widest fan-in and at least
1), ``fanin``, and the VMove fields ``offset``, ``col_lo``, ``col_hi``,
``row`` and ``crosses``. An HMove keeps its source in ``srcs[:, 0]`` with
fan-in 1; a VMove has ``dest`` -1 and fan-in 0. Generators build the
columns directly (``NorProgram.from_arrays``). The ``Nor``/``HMove``/
``VMove`` objects are the public reference form: a program built from them
is converted to columns once, and ``NorProgram.instructions`` builds them
back on each access. Validation is one boolean mask per rule, over each
run of VMoves or of NORs and HMoves for the rules of that kind; the first
instruction any mask flags is materialized and described by ``_problem``.

Execution. ``run`` splits a program where the op code changes. NOR and
HMove segments loop over the columns as Python ints; a VMove segment is
executed from its column arrays. Crossing moves in it change nothing. The
rest split into runs, and a run executes as one gather per distinct
(col_lo, col_hi) on the unpacked columns and words it touches: every
source is read before any destination is written. A run ends before the
first move that reads or writes a row that an earlier move of the same run
wrote (the hazard condition), so each read sees what sequential execution
would show it and no row is written twice.

Shape rule. A segment whose in-array moves share one offset and one
(col_lo, col_hi), with rows stepping by exactly -sign(offset), is
hazard-free by construction and skips the split. With offset < 0 the rows
ascend: move i writes row r0 + i + offset, below every row r0 + j (j > i)
that a later move reads. With offset > 0 they descend, and the write
r0 - i + offset lies above every later read r0 - j. The rows written are
distinct, so no write repeats either. Such a segment is one word shift:
the words holding the source rows of the column planes are copied, shifted
by the offset across word boundaries and merged into the planes under a
mask of the destination rows, so no bit outside them changes. Rows that
ascend with a positive offset (or descend with a negative one) are not of
this shape: sequential execution then copies the first row through the
whole range, so they take the general path. The ROW-long vertical
relocation has exactly this shape; its crossing moves sit at the ends of
the stretch and are sliced off, not filtered out.

A line-oriented text form is provided for golden files::

    NOR dest src1 [src2 src3 src4]
    HMOVE dest src
    VMOVE offset col_lo col_hi row [x]     (trailing "x" marks crosses_array)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InvalidProgram(ValueError):
    """A program failed static validation against the array dimensions."""


class ColumnOverflow(ValueError):
    """A generated program or move plan does not fit the available columns."""


@dataclass(frozen=True, slots=True)
class Nor:
    """One NOR cycle: dest <- NOR(src columns), applied to all rows."""

    dest: int
    srcs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "srcs", tuple(self.srcs))


@dataclass(frozen=True, slots=True)
class HMove:
    """One horizontal move cycle: column src copied to column dest, all rows."""

    dest: int
    src: int


@dataclass(frozen=True, slots=True)
class VMove:
    """One vertical move cycle: row's cells [col_lo, col_hi] go to row+offset."""

    offset: int
    col_lo: int
    col_hi: int
    row: int
    crosses_array: bool = False


Instr = Nor | HMove | VMove


@dataclass(frozen=True)
class ColRange:
    """A named block of columns [start, start+width)."""

    name: str
    start: int
    width: int

    @property
    def stop(self) -> int:
        return self.start + self.width


OP_NOR, OP_HMOVE, OP_VMOVE = 0, 1, 2


def _check_max_fanin(max_fanin: int) -> None:
    if not 1 <= max_fanin <= 4:
        raise InvalidProgram(f"max_fanin must be in 1..4, got {max_fanin}")


def _column(values, dtype, shape) -> np.ndarray:
    """`values` (an array or a scalar) as a read-only column of `shape`.

    An array of that dtype and shape that owns its data is taken over, not
    copied; anything else is copied.
    """
    if not (isinstance(values, np.ndarray) and values.dtype == dtype
            and values.shape == shape and values.base is None):
        col, values = values, np.empty(shape, dtype=dtype)
        values[...] = col
    values.flags.writeable = False
    return values


class NorProgram:
    """An ordered instruction sequence plus its declared column interface.

    The instructions are held as read-only columns (see the module
    docstring). ``instructions`` is a view: each access builds a new tuple
    of ``Nor``, ``HMove`` and ``VMove`` objects from the columns. A program
    is built from such objects, or from columns by ``from_arrays``.
    """

    __slots__ = ("op", "dest", "srcs", "fanin", "offset", "col_lo", "col_hi",
                 "row", "crosses", "inputs", "outputs", "max_fanin")

    def __init__(self, instructions=(), inputs=(), outputs=(), max_fanin: int = 2):
        """Build from ``Nor``/``HMove``/``VMove`` objects; any other object
        raises InvalidProgram."""
        _check_max_fanin(max_fanin)
        cols = []
        for i, ins in enumerate(instructions):
            if isinstance(ins, Nor):
                cols.append((OP_NOR, ins.dest, ins.srcs, len(ins.srcs), 0, 0, 0, 0, False))
            elif isinstance(ins, HMove):
                cols.append((OP_HMOVE, ins.dest, (ins.src,), 1, 0, 0, 0, 0, False))
            elif isinstance(ins, VMove):
                cols.append((OP_VMOVE, -1, (), 0, ins.offset, ins.col_lo, ins.col_hi,
                             ins.row, ins.crosses_array))
            else:
                raise InvalidProgram(f"instruction {i}: {ins!r}: unknown instruction type")
        op, dest, srcs, fanin, *moves = zip(*cols) if cols else [()] * 9
        w = max(fanin, default=1) or 1
        srcs = [s + (-1,) * (w - len(s)) for s in srcs]
        self._set(op, dest, np.array(srcs, dtype=np.int64).reshape(len(cols), w),
                  fanin, *moves, inputs, outputs, max_fanin)

    @classmethod
    def from_arrays(cls, op, dest, srcs, fanin=None, offset=0, col_lo=0, col_hi=0,
                    row=0, crosses=False, *, inputs=(), outputs=(),
                    max_fanin: int = 2) -> "NorProgram":
        """Build a program from its columns.

        ``dest`` fixes the instruction count; every other column is an array
        of that length or a scalar. ``srcs`` is k x w, or k for one source
        each, padded at the end of each row with -1. ``fanin`` defaults to the
        number of non-negative entries of each row of ``srcs``. A column given
        as an array of its own dtype (``int8`` for ``op``, ``bool`` for
        ``crosses``, ``int64`` for the others) and shape that owns its data
        is taken over and made read-only instead of copied.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        srcs = srcs[:, None] if srcs.ndim == 1 else srcs
        if fanin is None:
            fanin = (srcs >= 0).sum(axis=1)
        _check_max_fanin(max_fanin)
        program = cls.__new__(cls)
        program._set(op, dest, srcs, fanin, offset, col_lo, col_hi, row, crosses,
                     inputs, outputs, max_fanin)
        return program

    def _set(self, op, dest, srcs, fanin, offset, col_lo, col_hi, row, crosses,
             inputs, outputs, max_fanin) -> None:
        k = (len(dest),)
        self.op = _column(op, np.int8, k)
        self.dest = _column(dest, np.int64, k)
        self.fanin = _column(fanin, np.int64, k)
        w = max(int(self.fanin.max(initial=0)), 1)
        self.srcs = _column(srcs if srcs.shape[1] == w else srcs[:, :w], np.int64, (*k, w))
        self.offset = _column(offset, np.int64, k)
        self.col_lo = _column(col_lo, np.int64, k)
        self.col_hi = _column(col_hi, np.int64, k)
        self.row = _column(row, np.int64, k)
        self.crosses = _column(crosses, bool, k)
        self.inputs, self.outputs = tuple(inputs), tuple(outputs)
        self.max_fanin = max_fanin

    def __len__(self) -> int:
        return len(self.op)

    def __repr__(self) -> str:
        return (f"NorProgram(<{len(self)} instructions>, inputs={self.inputs!r}, "
                f"outputs={self.outputs!r}, max_fanin={self.max_fanin})")

    def _key(self):
        return to_text(self), self.inputs, self.outputs, self.max_fanin

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NorProgram):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def instructions(self) -> tuple[Instr, ...]:
        """Every instruction as an object, built anew on each access."""
        return self._materialize(0, len(self))

    def _segments(self, start: int, stop: int) -> list[tuple[int, int, int]]:
        """(op, first, end) of each run of one op code within start..stop-1."""
        return [(int(self.op[a]), a, b) for a, b in _runs(self.op[start:stop], start)]

    def _materialize(self, start: int, stop: int) -> tuple[Instr, ...]:
        """Instructions start..stop-1 as objects holding Python ints."""
        out: list[Instr] = []
        for kind, a, b in self._segments(start, stop):
            dest = self.dest[a:b]
            if kind == OP_VMOVE:
                out += map(VMove, self.offset[a:b].tolist(), self.col_lo[a:b].tolist(),
                           self.col_hi[a:b].tolist(), self.row[a:b].tolist(),
                           self.crosses[a:b].tolist())
            elif kind == OP_HMOVE:
                out += map(HMove, dest.tolist(), self.srcs[a:b, 0].tolist())
            else:
                out += [Nor(d, tuple(s[:f])) for d, s, f in zip(
                    dest.tolist(), self.srcs[a:b].tolist(), self.fanin[a:b].tolist())]
        return tuple(out)

    def range(self, name: str) -> ColRange:
        for r in self.inputs + self.outputs:
            if r.name == name:
                return r
        raise KeyError(name)

    def _sources(self, a: int = 0, b: int | None = None) -> np.ndarray:
        """Mask of the ``srcs`` entries of instructions a..b-1 that are
        sources (within each fan-in)."""
        return np.arange(self.srcs.shape[1]) < self.fanin[a:b, None]

    @property
    def cols_required(self) -> int:
        """Smallest column count this program fits in."""
        moves = self.op == OP_VMOVE
        return 1 + max(int(self.dest.max(where=~moves, initial=0)),
                       int(self.srcs.max(where=self._sources(), initial=0)),
                       int(self.col_hi.max(where=moves, initial=0)),
                       *(r.stop - 1 for r in self.inputs + self.outputs))

    def validate(self, rows: int, cols: int) -> None:
        """Raise InvalidProgram unless every instruction is legal for rows x cols."""
        moves = self.op == OP_VMOVE
        for a, b in _runs(moves):
            bad = (self._illegal_moves(a, b, rows, cols) if moves[a]
                   else self._illegal_cells(a, b, cols))
            if bad.any():
                i = a + int(bad.argmax())
                ins = self._materialize(i, i + 1)[0]
                problem = _problem(ins, rows, cols, self.max_fanin)
                raise InvalidProgram(f"instruction {i}: {ins!r}: {problem}")

    def _illegal_cells(self, a: int, b: int, cols: int) -> np.ndarray:
        """Mask of the NORs and HMoves a..b-1 that break a rule of ``_problem``."""
        dest, srcs, fanin = self.dest[a:b], self.srcs[a:b], self.fanin[a:b]
        used = self._sources(a, b)
        outside = (srcs < 0) | (srcs >= cols)
        bad = ((srcs == dest[:, None]) & used).any(axis=1)
        bad |= (dest < 0) | (dest >= cols) | (outside & used).any(axis=1)
        bad |= (self.op[a:b] == OP_NOR) & ((fanin < 1) | (fanin > self.max_fanin))
        return bad

    def _illegal_moves(self, a: int, b: int, rows: int, cols: int) -> np.ndarray:
        """Mask of the VMoves a..b-1 that break a rule of ``_problem``."""
        row, offset, lo, hi = self.row[a:b], self.offset[a:b], self.col_lo[a:b], self.col_hi[a:b]
        dst = row + offset
        src_in = (row >= 0) & (row < rows)
        dst_in = (dst >= 0) & (dst < rows)
        return ((offset == 0) | (lo < 0) | (lo > hi) | (hi >= cols)
                | ~(src_in | dst_in) | (self.crosses[a:b] == (src_in & dst_in)))


def _runs(values: np.ndarray, start: int = 0) -> list[tuple[int, int]]:
    """(first, end) of each run of equal entries of `values`, numbered from start."""
    if not len(values):
        return []
    cuts = [0, *(np.flatnonzero(values[1:] != values[:-1]) + 1).tolist(), len(values)]
    return [(start + a, start + b) for a, b in zip(cuts, cuts[1:])]


def _problem(ins: Instr, rows: int, cols: int, max_fanin: int) -> str | None:
    """Why one instruction is illegal for rows x cols, or None if it is legal."""
    if isinstance(ins, Nor):
        if not 1 <= len(ins.srcs) <= max_fanin:
            return f"fan-in {len(ins.srcs)} exceeds limit {max_fanin}"
        if ins.dest in ins.srcs:
            return "destination is also a source"
        for c in (ins.dest, *ins.srcs):
            if not 0 <= c < cols:
                return f"column {c} out of range"
    elif isinstance(ins, HMove):
        if ins.dest == ins.src:
            return "destination equals source"
        for c in (ins.dest, ins.src):
            if not 0 <= c < cols:
                return f"column {c} out of range"
    elif isinstance(ins, VMove):
        if ins.offset == 0:
            return "zero row offset"
        if not 0 <= ins.col_lo <= ins.col_hi < cols:
            return "bad column range"
        src_in = 0 <= ins.row < rows
        dst_in = 0 <= ins.row + ins.offset < rows
        if not (src_in or dst_in):
            return "neither endpoint is inside the array"
        if ins.crosses_array == (src_in and dst_in):
            return (f"crosses_array flag does not match endpoints "
                    f"(src in={src_in}, dest in={dst_in})")
    else:
        return "unknown instruction type"
    return None


WORD_BITS = 64
_WORD = np.dtype("<u8")  # little-endian: byte b of word w holds rows 64w+8b..64w+8b+7


def _words(rows: int) -> int:
    return -(-rows // WORD_BITS)


class ArrayState:
    """Bit state of one memory array: one packed bit plane per column.

    Built from a rows x cols ``bool`` matrix; ``bits`` unpacks it again.
    """

    def __init__(self, bits: np.ndarray):
        bits = np.asarray(bits, dtype=bool)
        if bits.ndim != 2:
            raise ValueError("bits must be a 2-D matrix")
        rows, cols = bits.shape
        self._rows = rows
        self._planes = np.zeros((cols, _words(rows)), dtype=_WORD)
        packed = np.packbits(bits.T, axis=1, bitorder="little")
        self._bytes()[:, :packed.shape[1]] = packed

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ArrayState":
        return cls._from_planes(rows, np.zeros((cols, _words(rows)), dtype=_WORD))

    @classmethod
    def _from_planes(cls, rows: int, planes: np.ndarray) -> "ArrayState":
        state = cls.__new__(cls)
        state._rows, state._planes = rows, planes
        return state

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._planes.shape[0]

    @property
    def bits(self) -> np.ndarray:
        """The rows x cols ``bool`` matrix, unpacked on each access; read-only."""
        bits = np.unpackbits(self._bytes(), axis=1, count=self._rows,
                             bitorder="little").view(bool).T
        bits.flags.writeable = False
        return bits

    def _bytes(self) -> np.ndarray:
        """The planes as cols x (8 * words) bytes; byte j of a plane holds rows 8j..8j+7."""
        return self._planes.view(np.uint8)

    def copy(self) -> "ArrayState":
        return ArrayState._from_planes(self._rows, self._planes.copy())

    def __eq__(self, other: object) -> bool:
        # padding bits are zero outside run(), so the planes compare directly
        return (isinstance(other, ArrayState) and self._rows == other._rows
                and np.array_equal(self._planes, other._planes))


def apply_instr(bits: np.ndarray, ins: Instr) -> None:
    """Reference semantics: apply one validated instruction to a bool matrix.

    ``run`` does not call this; the tests compare the packed engine with it.
    """
    if isinstance(ins, Nor):
        bits[:, ins.dest] = ~bits[:, list(ins.srcs)].any(axis=1)
    elif isinstance(ins, HMove):
        bits[:, ins.dest] = bits[:, ins.src]
    else:
        rows = bits.shape[0]
        src, dst = ins.row, ins.row + ins.offset
        if 0 <= src < rows and 0 <= dst < rows:
            bits[dst, ins.col_lo:ins.col_hi + 1] = bits[src, ins.col_lo:ins.col_hi + 1]
        # cross-array endpoint: cycle is paid, no local cells change


def _hazard_free_runs(src: np.ndarray, dst: np.ndarray) -> list[int]:
    """Start indices of the runs a stretch of in-array VMoves splits into.

    A run ends before the first move that reads or writes a row an earlier
    move of the same run wrote, so each run may read all its sources before
    it writes any destination.
    """
    n = len(src)
    order = np.arange(n)
    writes = np.sort(dst * n + order)          # (row, index) of every write

    def last_write_before(rows: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(writes, rows * n + order) - 1
        key = writes[np.maximum(pos, 0)]
        return np.where((pos >= 0) & (key // n == rows), key % n, -1)

    hazard = np.maximum(last_write_before(src), last_write_before(dst))
    starts = [0]
    for i in np.flatnonzero(hazard >= 0).tolist():
        if hazard[i] >= starts[-1]:
            starts.append(i)
    return starts


def _move_rows(planes: np.ndarray, offset: np.ndarray, lo: np.ndarray,
               hi: np.ndarray, row: np.ndarray, crosses: np.ndarray) -> None:
    """Execute a stretch of consecutive VMoves, given as column arrays.

    Crossing moves change nothing; those at the ends of the stretch are
    sliced off, any others dropped. A stretch of the shape rule's form is
    one word shift of its column planes; any other splits into hazard-free
    runs, each of which unpacks the column range and word span it touches
    once and gathers every distinct (col_lo, col_hi) from that snapshot
    before it writes any row back.
    """
    a = int(crosses.argmin())              # the first move inside the array
    if crosses[a]:
        return                             # every move crosses
    b = a + len(crosses) - np.count_nonzero(crosses)
    if crosses[a:b].any():                 # not every crossing move is at an end
        keep = ~crosses
        offset, lo, hi, row = offset[keep], lo[keep], hi[keep], row[keep]
    else:
        offset, lo, hi, row = offset[a:b], lo[a:b], hi[a:b], row[a:b]
    off, c0, c1 = int(offset[0]), int(lo[0]), int(hi[0]) + 1
    if ((offset == off).all() and (lo == c0).all() and (hi == c1 - 1).all()
            and (row[1:] - row[:-1] == (-1 if off > 0 else 1)).all()):
        first, last = sorted((int(row[0]), int(row[-1])))
        _shift_rows(planes[c0:c1], first, last + 1, off)
        return
    dst = row + offset
    bounds = _hazard_free_runs(row, dst) + [len(row)]
    for a, b in zip(bounds, bounds[1:]):
        _gather_run(planes, lo[a:b], hi[a:b], row[a:b], dst[a:b])


_ONES = np.uint64(2**64 - 1)


def _shift_rows(planes: np.ndarray, s0: int, s1: int, off: int) -> None:
    """Copy rows s0..s1-1 of every plane to rows s0+off..s1+off-1.

    Every source bit is read before any is written, and only the words
    holding source rows are read. Bits outside the destination rows keep
    their values.
    """
    w0, w1 = s0 // WORD_BITS, (s1 - 1) // WORD_BITS + 1
    src = np.zeros((len(planes), w1 - w0 + 2), dtype=_WORD)
    src[:, 1:-1] = planes[:, w0:w1]        # a zero word on either side
    d0, d1 = (s0 + off) // WORD_BITS, (s1 + off - 1) // WORD_BITS + 1
    # destination word d0 starts at bit p of src: row 64 * d0 - off
    p = WORD_BITS * (d0 - w0 + 1) - off
    i, r = p // WORD_BITS, p % WORD_BITS
    moved = src[:, i:i + d1 - d0]
    if r:
        moved = moved >> np.uint64(r)
        moved |= src[:, i + 1:i + 1 + d1 - d0] << np.uint64(WORD_BITS - r)
    mask = np.full(d1 - d0, _ONES)
    mask[0] &= _ONES << np.uint64((s0 + off) % WORD_BITS)
    mask[-1] &= _ONES >> np.uint64(-(s1 + off) % WORD_BITS)
    dest = planes[:, d0:d1]
    dest ^= (dest ^ moved) & mask


def _gather_run(planes: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                src: np.ndarray, dst: np.ndarray) -> None:
    """Execute one hazard-free run of in-array VMoves, given as index arrays.

    The columns and words the run touches are unpacked to one byte per cell,
    every source is gathered from that snapshot, and then every destination
    is written and the block packed back.
    """
    c0, c1 = int(lo.min()), int(hi.max()) + 1
    w0 = int(min(src.min(), dst.min())) // WORD_BITS
    w1 = int(max(src.max(), dst.max())) // WORD_BITS + 1
    block = np.unpackbits(planes[c0:c1, w0:w1].view(np.uint8), axis=1, bitorder="little")
    src = src - w0 * WORD_BITS
    dst = dst - w0 * WORD_BITS
    span = c1 - c0
    ranges, which = np.unique((lo - c0) * span + (hi - c0), return_inverse=True)
    gathered = []
    for g, key in enumerate(ranges.tolist()):
        cols = slice(key // span, key % span + 1)
        sel = which == g
        gathered.append((cols, dst[sel], block[cols][:, src[sel]]))
    for cols, rows, values in gathered:
        block[cols, rows] = values
    planes[c0:c1, w0:w1] = np.packbits(block, axis=1, bitorder="little").view(_WORD)


def run(program: NorProgram, initial: ArrayState) -> tuple[ArrayState, int]:
    """Execute a program on a copy of `initial`; return (final state, cycles)."""
    program.validate(initial.rows, initial.cols)
    state = initial.copy()
    # one view per plane up to the highest column any dest or srcs entry
    # holds: a bound on what the NORs and HMoves name (VMoves hold -1)
    top = max(int(program.dest.max(initial=-1)), int(program.srcs.max(initial=-1)))
    planes = list(state._planes[:top + 1])
    for kind, a, b in program._segments(0, len(program)):
        if kind == OP_VMOVE:
            _move_rows(state._planes, program.offset[a:b], program.col_lo[a:b],
                       program.col_hi[a:b], program.row[a:b], program.crosses[a:b])
        elif kind == OP_HMOVE:
            for dest, src in zip(program.dest[a:b].tolist(),
                                 program.srcs[a:b, 0].tolist()):
                planes[dest][...] = planes[src]
        else:
            for dest, srcs, fanin in zip(program.dest[a:b].tolist(),
                                         program.srcs[a:b].tolist(),
                                         program.fanin[a:b].tolist()):
                out = planes[dest]
                if fanin == 1:
                    np.invert(planes[srcs[0]], out=out)
                    continue
                np.bitwise_or(planes[srcs[0]], planes[srcs[1]], out=out)
                for s in srcs[2:fanin]:
                    np.bitwise_or(out, planes[s], out=out)
                np.invert(out, out=out)
    tail = state.rows % WORD_BITS
    if tail:                               # clear the padding NOR wrote
        state._planes[:, -1] &= np.uint64((1 << tail) - 1)
    return state, len(program)


def count_cycles(program: NorProgram) -> int:
    """Cycle cost of a program: one cycle per instruction."""
    return len(program)


# -- operand packing helpers -------------------------------------------------

def _column_bytes(state: ArrayState, col_lo: int, width: int) -> np.ndarray:
    """Byte view of the planes of columns col_lo..col_lo+width-1."""
    if not 0 <= width <= 64:
        raise ValueError(f"width must be in 0..64, got {width}")
    if not 0 <= col_lo <= col_lo + width <= state.cols:
        raise ValueError(f"columns [{col_lo}, {col_lo + width}) exceed "
                         f"{state.cols} columns")
    return state._bytes()[col_lo:col_lo + width]


# (shift, mask) steps that transpose the 8x8 bit matrix held in a uint64
_TRANSPOSE8 = tuple((np.uint64(shift), np.uint64(mask)) for shift, mask in (
    (7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)))


def _bit_transpose(x: np.ndarray) -> None:
    """Transpose, in place, the 8x8 bit matrix held in each word of `x`.

    Byte k of a word is row k of its matrix, bit j of the byte column j.
    """
    t = np.empty_like(x)
    for shift, mask in _TRANSPOSE8:        # delta swaps
        np.right_shift(x, shift, out=t)
        t ^= x
        t &= mask
        x ^= t
        t <<= shift
        x ^= t


# bytes per row that hold 8 * i bits (entry i): the smallest of 1, 2, 4 or 8
_LANE_BYTES = (1, 1, 2, 4, 4, 8, 8, 8, 8)


def _operand(state: ArrayState, col_lo: int, width: int):
    """The staging of a `width`-bit block of columns for pack and unpack.

    Returns a zeroed word array with one word per byte of the row's lane
    (the smallest of 1, 2, 4 or 8 bytes that holds `width` bits) and per
    group of 8 rows, and the pairs of (word bytes, plane bytes) that hold
    the same bits while the words are transposed: byte k of word (b, q) is
    byte q of plane 8b + k.
    """
    planes = _column_bytes(state, col_lo, width)
    groups = planes.shape[1]
    words = np.zeros((_LANE_BYTES[-(-width // 8)], groups), dtype=_WORD)
    cells = words.view(np.uint8).reshape(len(words), groups, 8).transpose(0, 2, 1)
    full = width // 8
    pairs = [(cells[:full], planes[:8 * full].reshape(full, 8, groups))]
    if width % 8:
        pairs.append((cells[full, :width % 8], planes[8 * full:]))
    return words, pairs


def pack_ints(state: ArrayState, col_lo: int, width: int, values) -> None:
    """Store values[r] little-endian into row r, columns col_lo..col_lo+width-1.

    Each value is taken as a two's-complement int64 and only its low
    `width` bits are stored: a negative value or one wider than `width`
    wraps modulo 2**width.
    """
    values = np.asarray(values, dtype="<i8")
    if values.shape != (state.rows,):
        raise ValueError(f"need one value per row ({state.rows}), got {values.shape}")
    words, pairs = _operand(state, col_lo, width)
    row_bytes = words.view(np.uint8)
    value_bytes = np.ascontiguousarray(values).view(np.uint8).reshape(-1, 8)
    for b in range(len(words)):            # byte b of every value into words[b]
        row_bytes[b, :state.rows] = value_bytes[:, b]
    _bit_transpose(words)
    for cells, planes in pairs:
        planes[...] = cells


def unpack_ints(state: ArrayState, col_lo: int, width: int) -> np.ndarray:
    """Read one little-endian integer per row from a column block.

    The `width` bits are read as an unsigned number, except that a 64-bit
    block is read as a two's-complement int64, so that ``pack_ints``
    followed by ``unpack_ints`` returns every value modulo 2**width.
    """
    words, pairs = _operand(state, col_lo, width)
    for cells, planes in pairs:
        cells[...] = planes
    _bit_transpose(words)
    values = np.zeros(state.rows, dtype="<i8")
    row_bytes = words.view(np.uint8)
    value_bytes = values.view(np.uint8).reshape(-1, 8)
    for b in range(len(words)):            # words[b] is byte b of every row
        value_bytes[:, b] = row_bytes[b, :state.rows]
    return values.astype(np.int64, copy=False)


# -- text serialization ------------------------------------------------------

def to_text(program: NorProgram) -> str:
    """Serialize instructions, one per line (interface ranges are not stored)."""
    k, w = program.srcs.shape
    moves = program.op == OP_VMOVE
    cells = np.zeros((k, max(w + 1, 4)), dtype=np.int64)
    cells[:, 0], cells[:, 1:w + 1] = program.dest, program.srcs
    cells[moves, :4] = np.column_stack((program.offset, program.col_lo,
                                        program.col_hi, program.row))[moves]
    used = np.arange(cells.shape[1]) < np.where(moves, 4, program.fanin + 1)[:, None]
    patterns = ["NOR" + " %d" * (1 + f) + "\n" for f in range(w + 1)]
    patterns += ["HMOVE %d %d\n", "VMOVE %d %d %d %d\n", "VMOVE %d %d %d %d x\n"]
    which = np.where(program.op == OP_NOR, program.fanin,
                     np.where(moves, w + 2 + program.crosses, w + 1))
    return "".join([patterns[i] for i in which.tolist()]) % tuple(cells[used].tolist())


def from_text(text: str, max_fanin: int | None = None) -> NorProgram:
    """Parse the line format back into a program.

    Blank lines and lines starting with ``#`` are ignored. When max_fanin
    is not given it is inferred as max(2, widest NOR in the program).
    """
    instrs: list[Instr] = []
    widest = 1
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        op, args = parts[0].upper(), parts[1:]
        try:
            if op == "NOR":
                if len(args) < 2:
                    raise ValueError("NOR needs a destination and at least one source")
                instrs.append(Nor(int(args[0]), tuple(int(a) for a in args[1:])))
                widest = max(widest, len(args) - 1)
            elif op == "HMOVE":
                if len(args) != 2:
                    raise ValueError("HMOVE needs exactly 2 arguments")
                instrs.append(HMove(int(args[0]), int(args[1])))
            elif op == "VMOVE":
                crosses = False
                if len(args) == 5 and args[4].lower() == "x":
                    crosses = True
                    args = args[:4]
                if len(args) != 4:
                    raise ValueError("VMOVE needs 4 arguments plus optional 'x'")
                off, lo, hi, row = (int(a) for a in args)
                instrs.append(VMove(off, lo, hi, row, crosses_array=crosses))
            else:
                raise ValueError(f"unknown instruction {op!r}")
        except ValueError as exc:
            raise InvalidProgram(f"line {ln}: {exc}") from None
    if max_fanin is None:
        max_fanin = max(2, widest)
    return NorProgram(tuple(instrs), max_fanin=max_fanin)
