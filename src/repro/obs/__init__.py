"""``repro.obs`` — metrics, tracing and cost accounting for the pipeline.

The module-level API is the whole integration surface; instrumented code
does::

    from repro import obs

    obs.inc("hits_issued_total", batch.hit_count)
    with obs.span("streaming.batch.join", batch=event_id):
        ...

Observability is **off by default**: until :func:`activate` is called every
entry point returns immediately after one ``None`` check, and ``span``
returns a shared no-op context manager, so instrumented hot paths cost
nothing measurable when disabled (the CI gate holds ``bench_streaming``
regression under 2%). Activation is process-global — one registry, one
optional JSONL trace sink — and fork-aware: a forked child inherits an
inert copy that never double-counts.

The process activates it — the CLI's ``--metrics`` / ``--trace`` /
``--metrics-out`` flags, or an explicit :func:`activate` — never a session:
a :class:`~repro.core.config.WorkflowConfig` carries no observability knob.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)
from .trace import NOOP_SPAN, NoopSpan, ObsRuntime, Span, TraceSink
from .export import to_prometheus, validate_prometheus_text
from .report import CostReport

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NoopSpan",
    "ObsRuntime",
    "Span",
    "TraceSink",
    "CostReport",
    "to_prometheus",
    "validate_prometheus_text",
    "activate",
    "deactivate",
    "enabled",
    "runtime",
    "span",
    "inc",
    "observe",
    "set_gauge",
    "snapshot",
    "merge_snapshot",
]

_runtime: Optional[ObsRuntime] = None


def activate(trace_path: Optional[str] = None) -> ObsRuntime:
    """Turn observability on for this process (idempotent).

    Creates the global runtime if absent; if one is already live, a
    ``trace_path`` attaches a sink only when none is attached yet. A runtime
    inherited across a ``fork`` is dead in the child and gets replaced.
    """
    global _runtime
    if _runtime is None or not _runtime.live():
        _runtime = ObsRuntime(trace_path)
    elif trace_path is not None:
        _runtime.attach_sink(trace_path)
    return _runtime


def deactivate() -> Optional[ObsRuntime]:
    """Turn observability off; flushes and closes the trace sink if any.

    Returns the retired runtime so callers can still read its final
    registry state (``deactivate().registry.snapshot()``).
    """
    global _runtime
    retired = _runtime
    _runtime = None
    if retired is not None and retired.live():
        retired.close()
    return retired


def enabled() -> bool:
    runtime_ = _runtime
    return runtime_ is not None and runtime_.live()


def runtime() -> Optional[ObsRuntime]:
    runtime_ = _runtime
    if runtime_ is not None and runtime_.live():
        return runtime_
    return None


def span(name: str, **attrs: Any) -> Union[Span, NoopSpan]:
    """Timing span context manager; no-op singleton while disabled."""
    runtime_ = _runtime
    if runtime_ is None or not runtime_.live():
        return NOOP_SPAN
    return runtime_.span(name, attrs)


def inc(name: str, value: float = 1.0, help: str = "", **labels: Any) -> None:
    """Increment counter ``name`` (created on first use)."""
    runtime_ = _runtime
    if runtime_ is None or not runtime_.live():
        return
    runtime_.inc(name, value, labels, help)


def observe(name: str, value: float, help: str = "", **labels: Any) -> None:
    """Record ``value`` into histogram ``name`` (default buckets)."""
    runtime_ = _runtime
    if runtime_ is None or not runtime_.live():
        return
    runtime_.observe(name, value, labels, help)


def set_gauge(name: str, value: float, help: str = "", **labels: Any) -> None:
    """Set gauge ``name`` to ``value``."""
    runtime_ = _runtime
    if runtime_ is None or not runtime_.live():
        return
    runtime_.set_gauge(name, value, labels, help)


def snapshot() -> Optional[MetricsSnapshot]:
    """Snapshot the live registry, or ``None`` while disabled."""
    runtime_ = _runtime
    if runtime_ is None or not runtime_.live():
        return None
    return runtime_.registry.snapshot()


def merge_snapshot(payload: Optional[dict]) -> bool:
    """Fold a stored snapshot dict into the live registry (restore path).

    Session restore passes the ``metrics`` meta a durable store mirrored
    before shutdown, so cumulative counters survive process restarts.
    No-op (returns ``False``) while disabled or for empty payloads.
    """
    runtime_ = _runtime
    if runtime_ is None or not runtime_.live() or not payload:
        return False
    runtime_.registry.merge_snapshot(MetricsSnapshot.from_dict(payload))
    return True
