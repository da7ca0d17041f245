"""``repro.obs`` — metrics, tracing and cost accounting for the pipeline.

The module-level API is the whole integration surface; instrumented code
does::

    from repro import obs

    obs.inc("hits_issued_total", batch.hit_count)
    with obs.span("streaming.batch.join", batch=event_id):
        ...

Observability is **off by default**: until :func:`activate` is called every
entry point returns immediately after one ``None`` check, and ``span``
returns a shared no-op context manager.  ``tests/test_obs.py`` checks that
switching it on changes no result (the bit-identity test, both storage
backends), and the end-to-end harness measures with it off.  Activation
is process-global — one registry, one optional JSONL trace sink — and the
counters count what this process did: they start at zero with it, and no
session store carries or restores them.

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
]

_runtime: Optional[ObsRuntime] = None


def activate(trace_path: Optional[str] = None) -> ObsRuntime:
    """Turn observability on for this process (idempotent).

    Creates the global runtime if absent; if one is already active, a
    ``trace_path`` attaches a sink only when none is attached yet.
    """
    global _runtime
    if _runtime is None:
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
    if retired is not None:
        retired.close()
    return retired


def enabled() -> bool:
    return _runtime is not None


def runtime() -> Optional[ObsRuntime]:
    return _runtime


def span(name: str, **attrs: Any) -> Union[Span, NoopSpan]:
    """Timing span context manager; no-op singleton while disabled."""
    runtime_ = _runtime
    if runtime_ is None:
        return NOOP_SPAN
    return runtime_.span(name, attrs)


def inc(name: str, value: float = 1.0, help: str = "", **labels: Any) -> None:
    """Increment counter ``name`` (created on first use)."""
    runtime_ = _runtime
    if runtime_ is None:
        return
    runtime_.inc(name, value, labels, help)


def observe(name: str, value: float, help: str = "", **labels: Any) -> None:
    """Record ``value`` into histogram ``name`` (default buckets)."""
    runtime_ = _runtime
    if runtime_ is None:
        return
    runtime_.observe(name, value, labels, help)


def set_gauge(name: str, value: float, help: str = "", **labels: Any) -> None:
    """Set gauge ``name`` to ``value``."""
    runtime_ = _runtime
    if runtime_ is None:
        return
    runtime_.set_gauge(name, value, labels, help)


def snapshot() -> Optional[MetricsSnapshot]:
    """Snapshot the live registry, or ``None`` while disabled."""
    runtime_ = _runtime
    if runtime_ is None:
        return None
    return runtime_.registry.snapshot()
