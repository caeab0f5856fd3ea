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
plane. Padding bits past the last row may take any value once a NOR has
run and are then cleared before ``run`` returns, so they are never seen. A
state starts as ``ArrayState.zeros``; ``pack_ints``, ``unpack_ints`` and
``run`` write and read its cells.

Operands. ``pack_ints``/``unpack_ints`` move one int64 per row in and out
of a block of up to 64 columns. Each row takes a lane of 1, 2, 4 or 8
bytes, the smallest that holds the block, staged in one word array with a
word per lane byte and group of 8 rows. Each word holds an 8 x 8 bit block
(8 rows by 8 bits of the value, or 8 planes by 8 rows once transposed),
turned over in place by three delta swaps. Byte b of every value is copied
in one strided pass, and each plane's bytes in another, so no copy works
one 2- to 8-byte row at a time and no full-size temporary is made twice.
Consecutive blocks of one width are staged, transposed and copied together:
``pack_ints`` takes a (blocks, rows) array, ``unpack_ints`` a block count.

Program form. A ``NorProgram`` is a set of read-only columns, one entry
per instruction: ``op`` (int8: ``OP_NOR``, ``OP_HMOVE`` or ``OP_VMOVE``),
``dest``, ``srcs`` (k x w, padded with -1, where w is the widest fan-in
and at least 1), ``fanin``, and the VMove fields ``offset``, ``col_lo``,
``col_hi``, ``row`` and ``crosses`` (bool). The other columns are int32,
so a 65536-move relocation takes 30 bytes per instruction. An HMove keeps
its source in ``srcs[:, 0]`` with fan-in 1; a VMove has ``dest`` -1 and
fan-in 0. The constructor takes the columns, and it is the only way in.
It refuses what no column can hold: an array column of another length, an
entry outside its column's dtype (narrowing would wrap it) and an op code
none of the three. The ``Nor``/``HMove``/``VMove`` objects are a
read-only view: each access of ``NorProgram.instructions`` starts a new
forward walk over them, which builds new ones from the columns 1024 at a
time, so it holds one chunk of objects: about 0.16 MB over the 65552
moves of a 65536-row relocation, whose tuple takes 10 MB. An error text
prints one. Validation states each rule once, as a boolean mask over a
run of one op code and the message of an instruction it flags. It reads
the int32 columns through uint32 views and sums ``row + offset`` in
int64, so no rule sees a wrapped value.

Execution. ``run`` executes on the state it is given, in place, and
returns that state: a caller that needs the initial state afterwards
passes a copy. It validates the whole program before it touches a cell,
and splits it where the op code changes. A NOR segment loops over its
columns as Python ints. An HMove segment is cut into stretches whose dest
and src both step by one, each one block copy of planes unless a move of
it reads a column an earlier one wrote. A VMove segment is executed from
its column arrays and cut into stretches of the shape rule's form: a
stretch ends where the offset, the column range or the crossing flag
changes, or where the rows do not step by -sign(offset). A stretch of
crossing moves changes nothing; every other stretch is one word shift.
Each stretch leaves the array as its own sequential execution would, so
running the stretches in order is sequential execution.

Composition. ``compose(programs, offsets)`` concatenates programs into one,
each part moved to start at its column offset, so that many small programs
run in one ``run`` call on disjoint column slots of one array. A part's
``dest``, its ``srcs`` entries >= 0 and its VMoves' ``col_lo``/``col_hi``
shift; a negative entry (the -1 padding, a VMove's ``dest``, a bad column)
does not, so a part that is invalid alone stays invalid. ``op``,
``fanin``, ``offset``, ``row`` and ``crosses`` are concatenated as they
are, and every part's declared ranges are declared, shifted. The parts
must share one ``max_fanin``. Rows are shared, but a VMove moves only its
own column range, so a part whose slot holds its ``cols_required``
columns leaves that slot as it would leave an array of its own.

Fixed cost. Most programs are small (the validation suite builds about
300, on at most 1000 rows), so what a call costs before it touches a row
matters as much as its row bandwidth, and the same code serves both:
  * the constructor takes over every column its caller built as an owned
    array of the right dtype, so a generator that does (``catalog``,
    ``layout``) pays one flag per column and no copy or range check, and
    the VMove fields a program leaves out share one zero column. It reads
    the widest fan-in and the largest op code with ``argmax`` before it
    makes the columns read-only (numpy copies a read-only array for
    ``argmax``, and ``max`` costs several times more), and a column given
    as 0 is one zeroed allocation. It is still the largest share of a
    small generated program: about a third of ``microprogram_of`` and a
    third to a half of ``relocation_program`` at 64 rows;
  * ``run`` copies no plane, and what it and ``validate`` allocate per
    instruction (masks, one int64 sum, the stretch cuts) stays below half
    the program's own columns: a tall array's memory is touched once, not
    zero-filled again by the kernel on every run;
  * no mask is reduced along a short last axis (``_any_per_row``): numpy
    pays a loop setup per row there, far more than an OR per column;
  * constant operands of ufunc calls are 0-d arrays (``_TRANSPOSE8``,
    ``_SHIFTS``), which skip the conversion a numpy scalar costs per call;
  * ``validate`` and ``run`` do per op-code run only the work of that
    kind; ``validate`` returns the runs it found, ``run`` executes from
    them, and makes plane views only for a program with NORs;
  * each delta swap of ``pack_ints``/``unpack_ints`` is five in-place
    ufunc calls, and ``_shift_rows`` reads its source words by one
    ``take``, a copy one word per plane larger than the shifted block it
    builds anyway.

Shape rule. In a stretch of in-array moves with one offset and one
(col_lo, col_hi), whose rows step by exactly -sign(offset), no move reads
or writes a row that an earlier move of the stretch wrote, so every source
may be read before any destination is written. With offset < 0 the rows
ascend: move i writes row r0 + i + offset, below every row r0 + j (j > i)
that a later move reads. With offset > 0 they descend, and the write
r0 - i + offset lies above every later read r0 - j. The rows written are
distinct, so no write repeats either. A stretch is thus one word shift:
the words holding the source rows of the column planes are shifted by the
offset across word boundaries into a new array and written back, the
first and the last destination word under a mask of the destination
rows, so no bit outside them changes. Rows that
ascend with a positive offset (or descend with a negative one) break the
rule at every move, so each move is a stretch of its own and sequential
execution copies the first row through the whole range. The ROW-long
vertical relocation is one stretch per subset's block of rows, followed
by its crossing moves: k word shifts for k misaligned subsets.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np


class InvalidProgram(ValueError):
    """A program failed static validation against the array dimensions."""


@dataclass(frozen=True, slots=True)
class Nor:
    """One NOR cycle: dest <- NOR(src columns), applied to all rows."""

    dest: int
    srcs: tuple[int, ...]


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


class ColRange(NamedTuple):
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


_INT8, _INT32, _BOOL = np.dtype(np.int8), np.dtype(np.int32), np.dtype(bool)
_LIMITS = {_BOOL: (0, 1), **{t: (int(np.iinfo(t).min), int(np.iinfo(t).max))
                             for t in (_INT8, _INT32)}}


def _column(values, dtype: np.dtype, shape: tuple, name: str) -> np.ndarray:
    """`values` (an array or a scalar) as the column `name` of `shape`.

    An array of that dtype and shape that owns its data is taken over, not
    copied. Anything else is copied, once it is known to be a scalar or an
    array of that shape holding no entry the column's dtype cannot (an
    integer one would wrap; a bool column takes 0 and 1). The constructor
    makes every column read-only once it has checked them all.
    """
    if not (isinstance(values, np.ndarray) and values.base is None
            and values.dtype == dtype and values.shape == shape):
        if isinstance(values, int):                 # a Python int or bool
            given = lo = hi = values
        else:
            given = np.asarray(values)
            if given.ndim and given.shape != shape:
                raise InvalidProgram(f"column {name} has shape {given.shape}, not {shape}")
            lo = hi = 0
            if given.dtype != dtype and given.size:
                lo, hi = given.min(), given.max()
        least, most = _LIMITS[dtype]
        if lo < least or hi > most:
            raise InvalidProgram(f"column {name} holds {lo if lo < least else hi}, "
                                 f"outside the {dtype} range")
        if isinstance(given, int) and not given:    # 0 or False: allocated zeroed
            values = np.zeros(shape, dtype=dtype)
        else:
            values = np.empty(shape, dtype=dtype)
            values[...] = given
    return values


def _top(column: np.ndarray) -> int:
    """The largest entry of a 1-D column, or 0 if it is empty.

    ``argmax`` costs a fifth of ``max``, but copies a read-only array
    first, so the constructor calls this before it makes a column read-only.
    """
    return int(column[column.argmax()]) if len(column) else 0


_CHUNK = 1024      # instructions a walk of ``instructions`` builds at a time


class NorProgram:
    """An ordered instruction sequence plus its declared column interface.

    The instructions are held as read-only columns (see the module
    docstring). Each access of ``instructions`` is a new forward walk over
    them as ``Nor``, ``HMove`` and ``VMove`` objects, built from the
    columns one chunk of 1024 at a time, so it holds one chunk of
    objects, never the whole program.
    """

    __slots__ = ("op", "dest", "srcs", "fanin", "offset", "col_lo", "col_hi",
                 "row", "crosses", "inputs", "outputs", "max_fanin")

    def __init__(self, op, dest, srcs, fanin=None, offset=None, col_lo=None,
                 col_hi=None, row=None, crosses=None, *, inputs=(), outputs=(),
                 max_fanin: int = 2):
        """Build a program from its columns.

        ``dest`` fixes the instruction count k; every other column is an
        array of that length or a scalar. ``srcs`` is k x w, or k for one
        source each, padded at the end of each row with -1. ``fanin``
        defaults to the number of non-negative entries of each row of
        ``srcs``. The VMove fields default to 0 (``crosses`` to False), and
        the int ones left out share one zero column. A column given as an
        array of its own dtype (``int8`` for ``op``, ``bool`` for
        ``crosses``, ``int32`` for the others) and shape that owns its data
        is taken over and made read-only instead of copied.

        Raises InvalidProgram, naming the column, for an array column of
        another length (or ``srcs`` narrower than its widest fan-in) and
        for an entry outside the column's dtype (an ``int64`` 2**32 + 1 is
        refused, never read as 1), and, naming the first such instruction,
        for an op code other than ``OP_NOR``, ``OP_HMOVE`` and ``OP_VMOVE``.
        """
        _check_max_fanin(max_fanin)
        k = (len(dest),)
        srcs = np.asarray(srcs)
        srcs = srcs[:, None] if srcs.ndim == 1 else srcs
        if srcs.ndim != 2 or len(srcs) != k[0]:
            raise InvalidProgram(f"column srcs has shape {srcs.shape}, not {k[0]} rows")
        if fanin is None:
            fanin = np.zeros(k, dtype=_INT32)
            for column in srcs.T:              # see _any_per_row
                fanin += column >= 0
        self.op = _column(op, _INT8, k, "op")
        # seen as uint8 a negative op code exceeds OP_VMOVE too; a scalar
        # one is checked as a Python int
        if (not (isinstance(op, int) and OP_NOR <= op <= OP_VMOVE)
                and _top(self.op.view(np.uint8)) > OP_VMOVE):
            j = int((self.op.view(np.uint8) > OP_VMOVE).argmax())
            raise InvalidProgram(f"instruction {j}: op code {self.op[j]} is not "
                                 f"NOR, HMOVE or VMOVE")
        self.dest = _column(dest, _INT32, k, "dest")
        self.fanin = _column(fanin, _INT32, k, "fanin")
        w = max(_top(self.fanin), 1)
        self.srcs = _column(srcs if srcs.shape[1] == w else srcs[:, :w], _INT32, (*k, w), "srcs")
        zeros = None
        if offset is None or col_lo is None or col_hi is None or row is None:
            zeros = _column(0, _INT32, k, "")
        self.offset = zeros if offset is None else _column(offset, _INT32, k, "offset")
        self.col_lo = zeros if col_lo is None else _column(col_lo, _INT32, k, "col_lo")
        self.col_hi = zeros if col_hi is None else _column(col_hi, _INT32, k, "col_hi")
        self.row = zeros if row is None else _column(row, _INT32, k, "row")
        self.crosses = _column(False if crosses is None else crosses, _BOOL, k, "crosses")
        for column in (self.op, self.dest, self.srcs, self.fanin, self.offset, self.col_lo,
                       self.col_hi, self.row, self.crosses):
            column.setflags(False)      # write=False: by position, no keyword to parse
        self.inputs, self.outputs = tuple(inputs), tuple(outputs)
        self.max_fanin = max_fanin

    def __len__(self) -> int:
        return len(self.op)

    def __repr__(self) -> str:
        return (f"NorProgram(<{len(self)} instructions>, inputs={self.inputs!r}, "
                f"outputs={self.outputs!r}, max_fanin={self.max_fanin})")

    @property
    def instructions(self) -> Iterator[Instr]:
        """Every instruction as an object, in order: a new walk on each access."""
        for start in range(0, len(self), _CHUNK):
            yield from self._materialize(start, min(start + _CHUNK, len(self)))

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

    @property
    def cols_required(self) -> int:
        """Smallest column count this program fits in."""
        # a VMove reaches column col_hi, a NOR or an HMove its dest and
        # sources; the srcs entries past a fan-in are -1 and raise no maximum
        reach = np.where(self.op == OP_VMOVE, self.col_hi, self.dest)
        return 1 + max(int(reach.max(initial=0)), int(self.srcs.max(initial=0)),
                       *(r.stop - 1 for r in self.inputs + self.outputs))

    def validate(self, rows: int, cols: int) -> list[tuple[int, int, int]]:
        """Raise InvalidProgram unless every instruction is legal for rows x cols.

        The first instruction that breaks a rule is reported, with the first
        rule of its kind that it breaks. Returns the (op, first, end) runs of
        one op code that it checked, from which ``run`` executes the program.
        """
        segments = self._segments(0, len(self))
        for kind, a, b in segments:
            rules = self._rules(kind, a, b, rows, cols)
            bad = rules[0][0] | rules[1][0]
            for mask, _ in rules[2:]:
                bad |= mask
            j = int(bad.argmax())
            if bad[j]:
                message = next(message for mask, message in rules if mask[j])
                ins = self._materialize(a + j, a + j + 1)[0]
                raise InvalidProgram(f"instruction {a + j}: {ins!r}: {message(j)}")
        return segments

    def _rules(self, kind: int, a: int, b: int, rows: int, cols: int) -> list:
        """Each rule of op code `kind`, in the order they are reported, as
        (mask of the instructions a..b-1 that break it, message of a + j)."""
        # seen as uint32 a negative index exceeds every bound, so one compare
        # checks both ends of a range
        if kind == OP_VMOVE:
            offset, row = self.offset[a:b], self.row[a:b]
            hi = self.col_hi[a:b].view(np.uint32)
            src_in = np.less(row.view(np.uint32), rows)
            # row + offset may leave the int32 range: it is summed in int64
            dst_in = np.less(np.add(row, offset, dtype=np.int64).view(np.uint64), rows)
            return [(offset == 0, lambda j: "zero row offset"),
                    ((self.col_lo[a:b].view(np.uint32) > hi) | (hi >= cols),
                     lambda j: "bad column range"),
                    (~(src_in | dst_in), lambda j: "neither endpoint is inside the array"),
                    (self.crosses[a:b] == (src_in & dst_in), lambda j: (
                        f"crosses_array flag does not match endpoints "
                        f"(src in={src_in[j]}, dest in={dst_in[j]})"))]
        dest = self.dest[a:b]
        dest_out = dest.view(np.uint32) >= cols
        if kind == OP_HMOVE:
            src = self.srcs[a:b, 0]
            return [(dest == src, lambda j: "destination equals source"),
                    (dest_out | (src.view(np.uint32) >= cols),
                     lambda j: f"column {dest[j] if dest_out[j] else src[j]} out of range")]
        srcs, fanin = self.srcs[a:b], self.fanin[a:b]
        # the sources (the srcs entries within each fan-in) out of range, and
        # those that are the dest
        cells = np.empty((2, *srcs.shape), dtype=bool)
        np.greater_equal(srcs.view(np.uint32), cols, out=cells[0])
        np.equal(srcs, dest[:, None], out=cells[1])
        cells &= np.arange(srcs.shape[1], dtype=_INT32) < fanin[:, None]
        srcs_out, same = _any_per_row(cells)
        # fan-in in 1..max_fanin, so fan-in - 1 as uint32 is below max_fanin
        # (-2**31 - 1 wraps to 2**31 - 1, above it too)
        return [((fanin - 1).view(np.uint32) >= self.max_fanin,
                 lambda j: f"fan-in {fanin[j]} exceeds limit {self.max_fanin}"),
                (same, lambda j: "destination is also a source"),
                (dest_out | srcs_out, lambda j: (
                    f"column {dest[j] if dest_out[j] else srcs[j][cells[0, j]][0]} out of range"))]


def _any_per_row(mask: np.ndarray) -> np.ndarray:
    """``mask.any(axis=-1)`` as one OR per column.

    A numpy reduction along a short last axis pays a loop setup per row,
    several times the cost of an OR per column for a few hundred rows and
    for 65536 alike.
    """
    out = mask[..., 0].copy()
    for i in range(1, mask.shape[-1]):
        out |= mask[..., i]
    return out


def _runs(values: np.ndarray, start: int = 0) -> list[tuple[int, int]]:
    """(first, end) of each run of equal entries of `values`, numbered from start."""
    if not len(values):
        return []
    cuts = [start + c + 1 for c in (values[1:] != values[:-1]).nonzero()[0].tolist()]
    return list(zip([start, *cuts], [*cuts, start + len(values)]))


WORD_BITS = 64
_WORD = np.dtype("<u8")  # little-endian: byte b of word w holds rows 64w+8b..64w+8b+7


def _words(rows: int) -> int:
    return -(-rows // WORD_BITS)


class ArrayState:
    """Bit state of one memory array: one packed bit plane per column, made
    by ``zeros`` or ``copy``."""

    def __init__(self, rows: int, planes: np.ndarray):
        self._rows, self._planes = rows, planes

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ArrayState":
        return cls(rows, np.zeros((cols, _words(rows)), dtype=_WORD))

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._planes.shape[0]

    def copy(self) -> "ArrayState":
        return ArrayState(self._rows, self._planes.copy())


def _move_rows(planes: np.ndarray, offset: np.ndarray, lo: np.ndarray,
               hi: np.ndarray, row: np.ndarray, crosses: np.ndarray) -> None:
    """Execute a segment of consecutive VMoves, given as column arrays.

    The segment is cut into the shape rule's stretches: a stretch ends
    before a move whose offset, column range or crossing flag differs from
    the previous move's, or whose row is not the previous move's row minus
    sign(offset). A crossing stretch changes nothing; any other is one
    ``_shift_rows``.
    """
    # a stretch starts at move 0 and wherever row[i] + sign(offset[i]) !=
    # row[i - 1] or a field differs from move i - 1's
    step = np.sign(offset[1:])
    step += row[1:]
    head = np.empty(len(row), dtype=bool)
    head[0] = True
    cut = np.not_equal(step, row[:-1], out=head[1:])
    differ = np.empty_like(cut)
    for col in (offset, lo, hi, crosses):
        cut |= np.not_equal(col[1:], col[:-1], out=differ)
    heads = head.nonzero()[0]
    ends = heads[1:].tolist() + [len(row)]
    for a, b, off, c_lo, c_hi, first, out in zip(
            heads.tolist(), ends, offset[heads].tolist(), lo[heads].tolist(),
            hi[heads].tolist(), row[heads].tolist(), crosses[heads].tolist()):
        if not out:
            # the b - a rows step by -sign(off) from the first move's row,
            # which is the lowest with off < 0 and the highest with off > 0
            s0 = first if off < 0 else first - (b - a - 1)
            _shift_rows(planes[c_lo:c_hi + 1], s0, s0 + b - a, off)


_ONES = 2**64 - 1
_SHIFTS = tuple(np.array(s, dtype=_WORD) for s in range(WORD_BITS))   # see _TRANSPOSE8


def _shift_rows(planes: np.ndarray, s0: int, s1: int, off: int) -> None:
    """Copy rows s0..s1-1 of every plane to rows s0+off..s1+off-1.

    The source words are copied out, by one ``take``, before any is
    written. The destination words between the first and the last are
    overwritten whole; those two keep their bits outside the destination
    rows, under masks built from two Python ints.
    """
    d0, d1 = (s0 + off) // WORD_BITS, (s1 + off - 1) // WORD_BITS + 1
    n = d1 - d0
    # bit 0 of destination word d0 is bit r of source word q; the n + 1
    # words from q on are read, and a word past an end of the array reads
    # as that end's word: the bits it lends fall outside the destination rows
    q, r = divmod(WORD_BITS * d0 - off, WORD_BITS)
    src = planes.take(np.arange(q, q + n + 1), axis=1, mode="clip")
    if r:
        moved = src[:, :-1] >> _SHIFTS[r]
        moved |= src[:, 1:] << _SHIFTS[WORD_BITS - r]
    else:             # src is a copy already
        moved = src[:, :-1]
    first = (_ONES << (s0 + off) % WORD_BITS) & _ONES
    last = _ONES >> -(s1 + off) % WORD_BITS
    masks = np.array([first, last] if n > 1 else [first & last], dtype=_WORD)
    dest = planes[:, d0:d1]
    ends = slice(0, None, max(n - 1, 1))   # the first and the last word
    edge, kept = moved[:, ends], dest[:, ends]
    edge ^= kept
    edge &= masks
    edge ^= kept
    dest[...] = moved


def _copy_columns(planes: np.ndarray, dests: list[int], srcs: list[int]) -> None:
    """Execute a segment of consecutive HMoves, dests[i] <- srcs[i] in order.

    A stretch of moves whose dest and src both step by one is one block
    copy, as long as no move of it reads a column an earlier one wrote:
    that needs dest - src outside 1..len - 1 (numpy reads an overlapping
    block in full before writing it).
    """
    i, end = 0, len(dests)
    while i < end:
        delta, j = dests[i] - srcs[i], i + 1
        while (j < end and dests[j] == dests[j - 1] + 1 and srcs[j] == srcs[j - 1] + 1
               and not 0 < delta <= j - i):
            j += 1
        planes[dests[i]:dests[i] + j - i] = planes[srcs[i]:srcs[i] + j - i]
        i = j


def run(program: NorProgram, state: ArrayState) -> tuple[ArrayState, int]:
    """Execute a program on `state` in place; return (state, cycles).

    The returned state is `state` itself. The program is validated in full
    first, so an invalid one raises InvalidProgram with `state` unchanged.
    A caller that still needs the initial state runs on ``state.copy()``.
    """
    segments = program.validate(state.rows, state.cols)
    planes = None        # per-column plane views, made at the first NOR
    bitwise_or, invert = np.bitwise_or, np.invert
    for kind, a, b in segments:
        if kind == OP_VMOVE:
            _move_rows(state._planes, program.offset[a:b], program.col_lo[a:b],
                       program.col_hi[a:b], program.row[a:b], program.crosses[a:b])
            continue
        if kind == OP_HMOVE:
            _copy_columns(state._planes, program.dest[a:b].tolist(),
                          program.srcs[a:b, 0].tolist())
            continue
        if planes is None:
            # one view per plane up to the highest column any dest or srcs
            # entry holds: a bound on what the NORs name
            top = max(int(program.dest.max()), int(program.srcs.max()))
            planes = list(state._planes[:top + 1])
        for dest, srcs, fanin in zip(program.dest[a:b].tolist(),
                                     program.srcs[a:b].tolist(),
                                     program.fanin[a:b].tolist()):
            out = planes[dest]
            if fanin == 1:
                invert(planes[srcs[0]], out)
                continue
            bitwise_or(planes[srcs[0]], planes[srcs[1]], out)
            if fanin > 2:
                for s in srcs[2:fanin]:
                    bitwise_or(out, planes[s], out)
            invert(out, out)
    tail = state.rows % WORD_BITS
    if tail and planes is not None:        # clear the padding a NOR wrote
        last = state._planes[:, -1]
        np.bitwise_and(last, (1 << tail) - 1, out=last)
    return state, len(program)


def compose(programs, offsets) -> NorProgram:
    """One program that runs `programs` in order, each moved to start at
    its column offset.

    A part's ``dest``, its ``srcs`` entries that are >= 0 and its VMoves'
    ``col_lo`` and ``col_hi`` are shifted by its offset; a negative entry
    (the -1 padding, a VMove's ``dest``, a bad column) is not, so a part
    that is invalid alone stays invalid. The other columns are
    concatenated as they are, ``srcs`` padded with -1 to the widest part.
    The program declares every part's ranges, shifted, in order. The
    columns are summed in int64 and the constructor refuses an entry
    outside int32, naming its column.

    Raises ValueError when the counts of programs and offsets differ, and
    InvalidProgram when the parts' ``max_fanin`` differ.
    """
    programs, offsets = list(programs), [operator.index(o) for o in offsets]
    if len(programs) != len(offsets):
        raise ValueError(f"{len(programs)} programs but {len(offsets)} offsets")
    fanins = sorted({p.max_fanin for p in programs})
    if len(fanins) > 1:
        raise InvalidProgram(f"parts differ in max_fanin: {fanins}")
    if not programs:
        return NorProgram([], [], [])
    # every entry is shifted in int64, where no offset wraps it
    shift = np.repeat(np.array(offsets, dtype=np.int64), [len(p) for p in programs])
    srcs = np.full((len(shift), max(p.srcs.shape[1] for p in programs)), -1, dtype=np.int64)
    i = 0
    for p in programs:
        srcs[i:i + len(p), :p.srcs.shape[1]] = p.srcs
        i += len(p)
    srcs += shift[:, None] * (srcs >= 0)

    def cat(name: str) -> np.ndarray:
        return np.concatenate([getattr(p, name) for p in programs])

    def moved(name: str, where=True) -> np.ndarray:
        """Column `name` with its entries >= 0 (of the instructions in `where`) shifted."""
        values = cat(name).astype(np.int64)
        values += shift * (where & (values >= 0))
        return values

    op = cat("op")
    is_move = op == OP_VMOVE
    inputs, outputs = ([ColRange(r.name, r.start + off, r.width)
                        for p, off in zip(programs, offsets) for r in getattr(p, side)]
                       for side in ("inputs", "outputs"))
    return NorProgram(op, moved("dest"), srcs, cat("fanin"), cat("offset"),
                      moved("col_lo", is_move), moved("col_hi", is_move), cat("row"),
                      cat("crosses"), inputs=inputs, outputs=outputs, max_fanin=fanins[0])


# -- operand packing helpers -------------------------------------------------

# (shift, mask, 1 + 2**shift) of the delta swaps that transpose the 8x8 bit
# matrix held in a uint64, as 0-d arrays: a numpy scalar operand costs a
# conversion on every ufunc call, a 0-d array does not
_TRANSPOSE8 = tuple(tuple(np.array(v, dtype=_WORD) for v in (shift, mask, 1 + (1 << shift)))
                    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
                                        (28, 0x00000000F0F0F0F0)))


def _bit_transpose(x: np.ndarray) -> None:
    """Transpose, in place, the 8x8 bit matrix held in each word of `x`.

    Byte k of a word is row k of its matrix, bit j of the byte column j.
    Each delta swap is five in-place ufunc calls on one scratch array: the
    swapped bits t are merged back as x ^= t * (1 + 2**shift), which is
    x ^ t ^ (t << shift) because t and t << shift never share a bit.
    """
    t = np.empty_like(x)
    for shift, mask, spread in _TRANSPOSE8:
        np.right_shift(x, shift, t)
        t ^= x
        t &= mask
        t *= spread
        x ^= t


# bytes per row that hold 8 * i bits (entry i): the smallest of 1, 2, 4 or 8
_LANE_BYTES = (1, 1, 2, 4, 4, 8, 8, 8, 8)


def _operand(state: ArrayState, col_lo: int, width: int, blocks: int):
    """The staging of `blocks` consecutive `width`-bit blocks of columns
    for pack and unpack.

    Returns a zeroed word array with, per block, one word per byte of the
    row's lane (the smallest of 1, 2, 4 or 8 bytes that holds `width` bits)
    and per group of 8 rows, its bytes (byte b of row r of block i at
    [i, b, r]), and the pairs of (word bytes, plane bytes) that hold the
    same bits while the words are transposed: byte k of word (i, b, q) is
    byte q of plane 8b + k of block i.
    """
    if not 0 <= width <= 64:
        raise ValueError(f"width must be in 0..64, got {width}")
    stop = col_lo + blocks * width
    if not 0 <= col_lo <= stop <= state.cols:
        raise ValueError(f"columns [{col_lo}, {stop}) exceed {state.cols} columns")
    groups = 8 * state._planes.shape[1]       # bytes per plane; byte q: rows 8q..8q+7
    planes = state._planes[col_lo:stop].view(np.uint8).reshape(blocks, width, groups)
    words = np.zeros((blocks, _LANE_BYTES[-(-width // 8)], groups), dtype=_WORD)
    row_bytes = words.view(np.uint8)
    cells = row_bytes.reshape(*words.shape, 8).transpose(0, 1, 3, 2)
    full, part = divmod(width, 8)
    pairs = []
    if full:
        pairs.append((cells[:, :full], planes[:, :8 * full].reshape(blocks, full, 8, groups)))
    if part:
        pairs.append((cells[:, full, :part], planes[:, 8 * full:]))
    return words, row_bytes, pairs


def pack_ints(state: ArrayState, col_lo: int, width: int, values) -> None:
    """Store values[r] little-endian into row r, columns col_lo..col_lo+width-1.

    Each value is taken as a two's-complement int64 and only its low
    `width` bits are stored: a negative value or one wider than `width`
    wraps modulo 2**width. A (blocks, rows) array of values fills that many
    consecutive blocks of `width` columns, row i of it the i-th block.
    """
    values = np.asarray(values, dtype="<i8")
    if values.shape[-1:] != (state.rows,) or values.ndim > 2:
        raise ValueError(f"need one value per row ({state.rows}), got {values.shape}")
    words, row_bytes, pairs = _operand(state, col_lo, width,
                                       len(values) if values.ndim == 2 else 1)
    value_bytes = np.ascontiguousarray(values).view(np.uint8).reshape(
        len(words), state.rows, 8)
    # byte b of every value into row_bytes[:, b], in one strided copy
    row_bytes[:, :, :state.rows] = value_bytes[:, :, :words.shape[1]].transpose(0, 2, 1)
    _bit_transpose(words)
    for cells, planes in pairs:
        planes[...] = cells


def unpack_ints(state: ArrayState, col_lo: int, width: int,
                blocks: int | None = None) -> np.ndarray:
    """Read one little-endian integer per row from a column block.

    The `width` bits are read as an unsigned number, except that a 64-bit
    block is read as a two's-complement int64, so that ``pack_ints``
    followed by ``unpack_ints`` returns every value modulo 2**width. Given
    a number of `blocks`, it reads that many consecutive blocks of `width`
    columns into a (blocks, rows) array.
    """
    words, row_bytes, pairs = _operand(state, col_lo, width, 1 if blocks is None else blocks)
    for cells, planes in pairs:
        cells[...] = planes
    _bit_transpose(words)
    values = np.zeros((len(words), state.rows), dtype="<i8")
    value_bytes = values.view(np.uint8).reshape(len(words), state.rows, 8)
    for b in range(words.shape[1]):        # row_bytes[:, b] is byte b of every row
        value_bytes[:, :, b] = row_bytes[:, b, :state.rows]
    values = values.astype(np.int64, copy=False)
    return values[0] if blocks is None else values

