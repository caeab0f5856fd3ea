"""In-memory span tracer that wraps functions from outside the program.

``Tracer.patch`` replaces a function at every place it can be looked up:
the attribute it is defined as, and every other module attribute that
refers to the same object (names imported with ``from x import y``).
``Tracer.restore`` puts every original back. The program's source is not
touched.

A span is (name, start, end, parent). Spans live in flat arrays while the
run goes on and are written out once, by ``save``, after it. A span's self
time is its duration minus the durations of its direct children, so the
self times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from functools import wraps

import numpy as np


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Self time of every span: its duration minus its direct children's."""
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested],
                           minlength=len(duration))
    return duration - children


class Tracer:
    """Records spans and counts; installs and removes function wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def take_counts(self) -> dict[str, int]:
        """Return the counts recorded since the last call and reset them."""
        counts, self.counts = self.counts, {}
        return counts

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of the caller's own code."""
        i = len(self.name_id)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, after=None):
        """Wrap ``fn`` in a span.

        ``name`` is the span name, or a function of the call's arguments
        that returns it. ``after(result, *args, **kwargs)`` runs once the
        span has ended, so its cost lands in the caller's span.
        """
        clock = time.perf_counter
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, ident = self._stack, self._id
        fixed = ident(name) if isinstance(name, str) else None

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = fixed if fixed is not None else ident(name(*args, **kwargs))
            i = len(name_id)
            name_id.append(sid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def counted(self, fn, key: str):
        """Wrap ``fn`` so that each call only adds one to count ``key``."""
        @wraps(fn)
        def counting(*args, **kwargs):
            self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counting

    def patch(self, owner, attr: str, make, modules=()) -> bool:
        """Replace ``owner.attr`` by ``make(original)`` wherever it is found.

        ``owner`` is a module or a class. For a module, every attribute of
        ``modules`` bound to the same object is replaced as well. Returns
        False, changing nothing, when ``owner`` has no such attribute.
        """
        original = vars(owner).get(attr)
        if original is None:
            return False
        wrapper = make(original)
        places = [(owner, attr)]
        if not isinstance(owner, type):
            places += [(m, a) for m in modules if m is not owner
                       for a, v in vars(m).items() if v is original]
        for obj, a in places:
            self._patches.append((obj, a, original))
            setattr(obj, a, wrapper)
        return True

    def restore(self) -> None:
        """Put back every original replaced by ``patch``."""
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span to an ``.npz`` file (names plus four arrays)."""
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())
