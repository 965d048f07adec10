"""In-memory span tracing from outside the program.

The benchmark never edits ``src/``: for a traced run it rebinds the
public functions of each layer to timing wrappers, and restores every
original binding when the run ends.  A function imported by name into
other modules (``from repro.core.storage import load_columnar``) is
rebound in every ``repro`` module that holds it, so callers that look
it up through their own globals are traced too.

Each span records its name, start, end, parent span and run id.  Spans
of one run share the run id.  Spans opened in an executor thread with
no open span of their own are parented to the run's root span.  Under
the simulator's forked process pool, spans recorded in a worker ride
back to the parent on the worker's result object and are merged there;
``time.perf_counter`` is the system-wide monotonic clock on Linux, so
their start and end times are comparable with the parent's.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Attribute a forked worker's result carries its spans home on.
SPANS_ATTR = "_perfbench_spans"


@dataclass(frozen=True)
class Span:
    id: str
    name: str
    start: float
    end: float
    parent: Optional[str]
    run_id: str
    pid: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and per-name call counts for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        #: name -> (returned value, time it returned), for ``stamp`` targets.
        self.stamps: Dict[str, List[Tuple[Any, float]]] = {}
        self.root_id: Optional[str] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + 1

    def stamp(self, name: str, item: Any) -> None:
        with self._lock:
            self.stamps.setdefault(name, []).append((item, time.perf_counter()))

    @contextmanager
    def span(self, name: str) -> Iterator[str]:
        stack = self._stack()
        parent = stack[-1] if stack else self.root_id
        span_id = f"{os.getpid()}.{next(self._ids)}"
        if parent is None and self.root_id is None:
            self.root_id = span_id
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(span_id, name, start, end, parent, self.run_id, os.getpid())
                )
                self.counts[name] = self.counts.get(name, 0) + 1

    def merge(self, spans: Sequence[Span]) -> None:
        """Adopt spans recorded in a forked worker."""
        with self._lock:
            self.spans.extend(spans)
            for s in spans:
                self.counts[s.name] = self.counts.get(s.name, 0) + 1

    # ------------------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))

    def self_times(self) -> Dict[str, float]:
        """Span id -> duration minus the part of it its children cover."""
        children: Dict[str, List[Tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        return {
            s.id: s.seconds - _covered(s.start, s.end, children.get(s.id, []))
            for s in self.spans
        }

    def self_total(self, name: str) -> float:
        own = self.self_times()
        return sum(own[s.id] for s in self.named(name))

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(s)) + "\n")


def _covered(start: float, end: float, intervals: List[Tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            covered += b - a
            cursor = b
    return covered


# ----------------------------------------------------------------------
# wrapping and restoring bindings
# ----------------------------------------------------------------------
def _span_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name):
            return fn(*args, **kwargs)

    return traced


def _count_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def counted(*args: Any, **kwargs: Any) -> Any:
        tracer.count(name)
        return fn(*args, **kwargs)

    return counted


def _stamp_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """An async getter: remember each item it hands out and when."""

    @functools.wraps(fn)
    async def stamped(*args: Any, **kwargs: Any) -> Any:
        item = await fn(*args, **kwargs)
        tracer.stamp(name, item)
        return item

    return stamped


def _shard_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``run_shard``: in a forked worker, send the worker's new spans
    home on the result object."""

    @functools.wraps(fn)
    def traced_shard(*args: Any, **kwargs: Any) -> Any:
        before = len(tracer.spans)
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if os.getpid() != tracer.pid:
            setattr(result, SPANS_ATTR, tracer.spans[before:])
        return result

    return traced_shard


def _pool_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``run_shards``: merge the spans the workers sent home."""

    @functools.wraps(fn)
    def traced_pool(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name):
            results = fn(*args, **kwargs)
        for result in results:
            spans = result.__dict__.pop(SPANS_ATTR, None)
            if spans:
                tracer.merge(spans)
        return results

    return traced_pool


WRAPPERS = {
    "span": _span_wrapper,
    "count": _count_wrapper,
    "stamp": _stamp_wrapper,
    "shard": _shard_wrapper,
    "pool": _pool_wrapper,
}


@dataclass(frozen=True)
class Target:
    """One public function or method to trace.

    ``where`` is ``"module:function"`` or ``"module:Class.method"``.
    """

    where: str
    name: str
    mode: str = "span"


class Bindings:
    """Rebinds traced targets and restores the originals."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, tracer: Tracer, targets: Sequence[Target]) -> None:
        for target in targets:
            module_name, _, qual = target.where.partition(":")
            module = importlib.import_module(module_name)
            make = WRAPPERS[target.mode]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(make(tracer, target.name, raw.__func__))
                else:
                    wrapped = make(tracer, target.name, raw)
                self._set(cls, attr, wrapped)
                continue
            original = getattr(module, qual)
            wrapped = make(tracer, target.name, original)
            for holder in list(sys.modules.values()):
                holder_name = getattr(holder, "__name__", "") or ""
                if holder_name != "repro" and not holder_name.startswith("repro."):
                    continue
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._set(holder, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@contextmanager
def traced(tracer: Tracer, targets: Sequence[Target]) -> Iterator[Bindings]:
    """Install the wrappers for the duration of the block."""
    bindings = Bindings()
    try:
        bindings.install(tracer, targets)
        yield bindings
    finally:
        bindings.restore()
