"""Span/trace runtime: nested timing spans and a JSONL trace-event sink.

A span is a ``with`` block around one pipeline phase::

    with obs.span("simjoin.vectorized.block", rows=512):
        ...

On exit the span records its duration into the shared ``span_seconds``
histogram (label ``span`` = the dotted span name) and, when a trace sink is
attached, appends one JSON line describing the span — name, wall-clock
timestamp, duration, nesting depth, parent span id, attributes, and the
exception type if the block raised. Exceptions always propagate; the span
still records.  The innermost open span is kept in a :mod:`contextvars`
variable, so every thread *and every asyncio task* nests its own spans: a
span held open across an ``await`` never becomes the parent of another
request's spans, and leaving a span restores exactly what was current when
it was entered.

The runtime belongs to one process; nothing in this package forks.  A new
thread starts with an empty context, so code that hands work to one runs
it through ``contextvars.copy_context().run`` to keep the span ancestry
(:func:`repro.simjoin.parallel.join_blocks` and
:meth:`repro.service.shards.ShardExecutor.submit` do).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextvars import ContextVar, Token
from typing import Any, Dict, IO, Mapping, Optional

from .metrics import MetricsRegistry

#: Trace-file schema version, bumped on incompatible event changes.
TRACE_FORMAT_VERSION = 1

SPAN_HISTOGRAM = "span_seconds"
SPAN_HISTOGRAM_HELP = "Duration of instrumented pipeline spans, by span name."

#: The innermost open span of the current context (thread or asyncio task).
_CURRENT_SPAN: ContextVar[Optional["Span"]] = ContextVar("repro_obs_current_span", default=None)


class TraceSink:
    """Append-only JSONL writer for trace events (single process, locked)."""

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._lock = threading.Lock()
        self._handle: Optional[IO[str]] = open(self.path, "w", encoding="utf-8")
        self.emit({"type": "trace_start", "version": TRACE_FORMAT_VERSION, "pid": os.getpid()})

    def emit(self, event: Dict[str, Any]) -> None:
        with self._lock:
            if self._handle is None:
                return
            self._handle.write(json.dumps(event, separators=(",", ":"), sort_keys=True))
            self._handle.write("\n")

    def flush(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class NoopSpan:
    """Shared do-nothing span returned while observability is disabled."""

    __slots__ = ()

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = NoopSpan()


class Span:
    """A live timing span; use via ``obs.span(...)`` as a context manager."""

    __slots__ = (
        "_runtime", "name", "attrs", "span_id", "parent_id", "depth", "_start", "_token",
    )

    def __init__(self, runtime: "ObsRuntime", name: str, attrs: Mapping[str, Any]) -> None:
        self._runtime = runtime
        self.name = name
        self.attrs = dict(attrs)
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self.depth = 0
        self._start = 0.0
        self._token: Optional[Token] = None

    def __enter__(self) -> "Span":
        self.span_id = next(self._runtime._span_ids)
        parent = _CURRENT_SPAN.get()
        if parent is not None:
            self.parent_id, self.depth = parent.span_id, parent.depth + 1
        self._token = _CURRENT_SPAN.set(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        seconds = time.perf_counter() - self._start
        _CURRENT_SPAN.reset(self._token)
        self._runtime.record_span(self, seconds, exc_type)
        return False


class ObsRuntime:
    """One process's metrics registry plus optional trace sink."""

    def __init__(self, trace_path: Optional[str] = None) -> None:
        self.registry = MetricsRegistry()
        self.sink: Optional[TraceSink] = TraceSink(trace_path) if trace_path else None
        self._span_ids = itertools.count(1)

    def attach_sink(self, trace_path: str) -> None:
        if self.sink is None:
            self.sink = TraceSink(trace_path)

    @staticmethod
    def current_span() -> Optional[Span]:
        """The innermost span open in the calling thread or asyncio task."""
        return _CURRENT_SPAN.get()

    def span(self, name: str, attrs: Mapping[str, Any]) -> Span:
        return Span(self, name, attrs)

    def record_span(self, span: Span, seconds: float, exc_type) -> None:
        self.registry.histogram(SPAN_HISTOGRAM, SPAN_HISTOGRAM_HELP).observe(
            seconds, span=span.name
        )
        if exc_type is not None:
            self.registry.counter(
                "span_errors_total", "Spans that exited with an exception."
            ).inc(1, span=span.name)
        if self.sink is not None:
            event: Dict[str, Any] = {
                "type": "span",
                "name": span.name,
                "ts": time.time(),
                "seconds": seconds,
                "span_id": span.span_id,
                "depth": span.depth,
            }
            if span.parent_id is not None:
                event["parent_id"] = span.parent_id
            if span.attrs:
                event["attrs"] = span.attrs
            if exc_type is not None:
                event["error"] = exc_type.__name__
            self.sink.emit(event)

    def inc(self, name: str, value: float, labels: Mapping[str, Any], help: str = "") -> None:
        self.registry.counter(name, help).inc(value, **labels)
        if self.sink is not None:
            event: Dict[str, Any] = {"type": "counter", "name": name, "value": value}
            if labels:
                event["labels"] = {key: str(val) for key, val in labels.items()}
            self.sink.emit(event)

    def observe(self, name: str, value: float, labels: Mapping[str, Any], help: str = "") -> None:
        self.registry.histogram(name, help).observe(value, **labels)

    def set_gauge(self, name: str, value: float, labels: Mapping[str, Any], help: str = "") -> None:
        self.registry.gauge(name, help).set(value, **labels)
        if self.sink is not None:
            event: Dict[str, Any] = {"type": "gauge", "name": name, "value": value}
            if labels:
                event["labels"] = {key: str(val) for key, val in labels.items()}
            self.sink.emit(event)

    def close(self) -> None:
        """Flush a final metrics snapshot into the trace and close the sink."""
        if self.sink is not None:
            self.sink.emit({"type": "snapshot", "metrics": self.registry.snapshot().to_dict()})
            self.sink.close()
            self.sink = None
