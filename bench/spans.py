"""In-memory span tracer that instruments lcreg from the outside.

During a traced run every target (a public function of an lcreg module, a
method of a class, or a ``Tape`` kernel) is replaced, by module attribute,
with a wrapper that records one span per call: name, start, end and the
span that was open when the call began. Spans live in flat arrays; once no
span is open and the buffer is large they are folded into per-name totals
(calls, inclusive time, self time), so memory stays bounded on long runs.

Self time of a span is its duration minus the time its child spans cover.
Calls in this process are sequential, so the children of a span never
overlap and that covered time is the sum of their durations.

A target that no longer exists is recorded in ``missing`` instead of
raising, so the benchmark keeps running against a refactored package.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Tape methods that only build leaves or read results; everything else
# public on Tape is a recorded kernel.
TAPE_NON_KERNELS = frozenset({"backward", "grad", "constant", "use", "stop_gradient"})


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the summed durations of its children.

    ``parent[i]`` is the index of the span open when span i began, or -1.
    """
    dur = end - start
    covered = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def sibling_gaps(name: np.ndarray, parent: np.ndarray, start: np.ndarray,
                 target: int) -> np.ndarray:
    """Start-to-start intervals between consecutive ``target`` spans that
    share a parent span; with one target call per training step these are
    the step times."""
    sel = np.flatnonzero(name == target)
    if len(sel) < 2:
        return np.zeros(0)
    same = parent[sel[1:]] == parent[sel[:-1]]
    gaps = np.diff(start[sel])
    return gaps[same & (parent[sel[1:]] >= 0)]


def _file_bytes(path) -> int:
    path = os.fspath(path)
    if os.path.isdir(path):
        return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path)
                   if os.path.isfile(os.path.join(path, f)))
    return os.path.getsize(path) if os.path.exists(path) else 0


# Byte counters at the storage boundary, keyed by span name.
BYTE_COUNTERS = {
    "tensorio.save": ("tensorio.bytes", lambda args, result: _file_bytes(result)),
    "tensorio.load": ("tensorio.bytes", lambda args, result: _file_bytes(args[0])),
    "data.save": ("data.bytes", lambda args, result: _file_bytes(result)),
    "data.load": ("data.bytes", lambda args, result: _file_bytes(args[0])),
}


class Tracer:
    """Span recorder plus the patches that feed it."""

    FOLD_AT = 200_000

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.calls = np.zeros(0)
        self.total = np.zeros(0)
        self.self_time = np.zeros(0)
        self.counters: dict[str, float] = {}
        self.gaps: dict[str, list[np.ndarray]] = {}
        self.gap_targets: set[str] = set()
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int) -> int:
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(self.clock())
        return idx

    def exit(self, idx: int) -> None:
        self._end[idx] = self.clock()
        self._stack.pop()
        if not self._stack and len(self._start) >= self.FOLD_AT:
            self.fold()

    @contextmanager
    def span(self, name: str):
        idx = self.enter(self.name_id(name))
        try:
            yield
        finally:
            self.exit(idx)

    def add_span(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a finished span directly (used by tests and replays)."""
        idx = len(self._start)
        self._name.append(self.name_id(name))
        self._parent.append(parent)
        self._start.append(start)
        self._end.append(end)
        return idx

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def fold(self) -> None:
        """Move closed spans into the per-name totals; needs no open span."""
        if self._stack:
            raise RuntimeError("Tracer.fold: spans still open")
        n_names = len(self.names)
        for attr in ("calls", "total", "self_time"):
            cur = getattr(self, attr)
            if len(cur) < n_names:
                setattr(self, attr, np.concatenate([cur, np.zeros(n_names - len(cur))]))
        if not len(self._start):
            return
        name = np.frombuffer(self._name, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self._start, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        self.calls += np.bincount(name, minlength=n_names)
        self.total += np.bincount(name, weights=end - start, minlength=n_names)
        self.self_time += np.bincount(name, weights=self_times(parent, start, end),
                                      minlength=n_names)
        for target in self.gap_targets:
            if target in self._ids:
                found = sibling_gaps(name, parent, start, self._ids[target])
                self.gaps.setdefault(target, []).append(found)
        del name, parent, start, end
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")

    def stats(self, name: str) -> tuple[float, float, float]:
        """(calls, inclusive seconds, self seconds) folded so far for ``name``."""
        nid = self._ids.get(name)
        if nid is None or nid >= len(self.calls):
            return 0.0, 0.0, 0.0
        return float(self.calls[nid]), float(self.total[nid]), float(self.self_time[nid])

    def gap_values(self, name: str) -> np.ndarray:
        parts = self.gaps.get(name, [])
        return np.concatenate(parts) if parts else np.zeros(0)

    # -- instrumentation ---------------------------------------------------

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        counter = BYTE_COUNTERS.get(name)
        tracer = self

        if name == "diffcore.backward":
            def wrapper(tape, *args, **kwargs):
                entries = getattr(tape, "_entries", None)
                if entries is not None:
                    tracer.count("diffcore.replayed_entries", len(entries))
                idx = tracer.enter(nid)
                try:
                    return fn(tape, *args, **kwargs)
                finally:
                    tracer.exit(idx)
        elif counter is not None:
            key, measure = counter

            def wrapper(*args, **kwargs):
                idx = tracer.enter(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.exit(idx)
                tracer.count(key, measure(args, result))
                return result
        else:
            def wrapper(*args, **kwargs):
                idx = tracer.enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.exit(idx)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, targets, package: str = "lcreg") -> None:
        """Wrap each ``(module, "attr" or "Class.attr", span name)`` target.

        A module function is replaced in every ``package`` module that holds
        it, since ``from x import f`` copies the reference.
        """
        for module_name, attr, name in targets:
            label = f"{package}.{module_name}.{attr}"
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                self.missing.append(label)
                continue
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None or not callable(fn):
                self.missing.append(label)
                continue
            wrapped = self.wrap(name, fn)
            if owner_name:
                self._patch(owner, leaf, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)


def tape_kernel_names(tape_cls) -> list[str]:
    return sorted(
        name for name, value in vars(tape_cls).items()
        if callable(value) and not name.startswith("_") and name not in TAPE_NON_KERNELS
    )
