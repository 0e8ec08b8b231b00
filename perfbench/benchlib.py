"""Generic helpers for the verblab benchmark: statistics, metric names,
function patching, and an in-memory span tracer.

Nothing here knows about verblab's workloads; ``run.py`` wires these pieces
to the package's public functions.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import resource
import sys
import time

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def valid_metric_name(name: str) -> bool:
    """Letters, digits, ``_``, ``.`` and ``-``; starts with a letter or digit; at most 64 long."""
    return isinstance(name, str) and _NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return isinstance(unit, str) and _UNIT_RE.fullmatch(unit) is not None


# ---------------------------------------------------------------------------
# statistics


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile of n samples.  Rounding
    first keeps 99.9% of 10000 at 9990, not 9991."""
    return max(math.ceil(round(p / 100.0 * n, 9)), 1)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie strictly above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> float:
    """The highest candidate percentile with at least ten samples beyond it
    in a run of n samples (the median when even that is out of reach)."""
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= TAIL_MIN_BEYOND:
            return p
    return TAIL_CANDIDATES[-1]


# ---------------------------------------------------------------------------
# spans and self time


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Self time per span id.

    ``spans`` holds (id, name, start, end, parent, bulk) records, where
    ``bulk`` is time spent in un-recorded leaf calls made directly under the
    span.  A span's self time is its duration minus the part of its interval
    that its child spans cover, minus its bulk leaf time.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _name, start, end, parent, _bulk in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _name, start, end, _parent, bulk in spans:
        covered = covered_length(children.get(sid, ()), start, end)
        out[sid] = max(0.0, (end - start) - covered - bulk)
    return out


class Tracer:
    """Records spans in memory; hot leaf calls are accumulated in bulk.

    A span is one recorded call: (id, name, start, end, parent, bulk).  A
    leaf is a call that makes no instrumented calls of its own; it is only
    counted and timed in aggregate, and its time is charged to the enclosing
    span's ``bulk`` so that self times still add up.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self.leaf_time: dict[str, float] = {}
        self.leaf_calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self._in_leaf = False

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def inside(self, name: str) -> bool:
        """True while a span named ``name`` is open."""
        return any(rec[1] == name for rec in self._stack)

    def open_span(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        rec = [len(self.spans), name, time.perf_counter(), 0.0, parent, 0.0]
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def close_span(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not rec:
            raise RuntimeError(f"span {rec[1]!r} closed out of order")

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so that each call is a recorded span named ``name``;
        ``after(tracer, args, kwargs, result)`` may record counts."""

        def wrapper(*args, **kwargs):
            if self._in_leaf:
                return fn(*args, **kwargs)
            rec = self.open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close_span(rec)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def leaf(self, name: str, fn, after=None):
        """Wrap ``fn`` as a bulk-counted leaf call."""

        def wrapper(*args, **kwargs):
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._in_leaf = False
                self.leaf_time[name] = self.leaf_time.get(name, 0.0) + dt
                self.leaf_calls[name] = self.leaf_calls.get(name, 0) + 1
                if self._stack:
                    self._stack[-1][5] += dt
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def counter(self, key: str, fn):
        """Wrap ``fn`` so each call only bumps ``counts[key]``."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        """Per-name call counts and self seconds over spans and leaves."""
        calls: dict[str, int] = dict(self.leaf_calls)
        self_s: dict[str, float] = dict(self.leaf_time)
        own = self_times(self.spans)
        for sid, name, *_ in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own[sid]
        return {"calls": calls, "self_s": self_s}

    def write(self, fh) -> None:
        """Write spans to an open text file, one JSON array per line (id,
        name, start, end, parent, bulk leaf seconds), then one line with the
        leaf and count totals."""
        for rec in self.spans:
            fh.write(json.dumps(rec) + "\n")
        fh.write(json.dumps({"leaf_calls": self.leaf_calls, "leaf_time": self.leaf_time,
                             "counts": self.counts}) + "\n")


# ---------------------------------------------------------------------------
# patching


class Patches:
    """Replace functions wherever a set of modules binds them; undo in reverse.

    A package often imports a function into several modules by name, so a
    wrapper has to replace every binding to see every call.
    """

    def __init__(self, modules):
        self.modules = list(modules)
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module, attr: str, make_wrapper) -> None:
        current = getattr(module, attr)
        wrapper = make_wrapper(current)
        for mod in self.modules:
            for name, value in list(vars(mod).items()):
                if value is current:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def method(self, cls, attr: str, make_wrapper) -> None:
        current = cls.__dict__[attr]
        self._undo.append((cls, attr, current))
        setattr(cls, attr, make_wrapper(current))

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.undo()
        return False


# ---------------------------------------------------------------------------
# files and machine facts


def tree_digest(root) -> str:
    """sha256 over the relative paths and bytes of every file under ``root``."""
    h = hashlib.sha256()
    paths = []
    for dirpath, _dirs, files in os.walk(root):
        for f in files:
            paths.append(os.path.relpath(os.path.join(dirpath, f), root))
    for rel in sorted(paths):
        h.update(rel.encode("utf-8") + b"\0")
        with open(os.path.join(root, rel), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
    }
