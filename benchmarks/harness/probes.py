"""External layer probes: time calls into each layer's public functions.

Nothing in ``src/`` is edited.  :class:`Tracer` replaces a named public
callable (a method, classmethod, coroutine method or module function) with
a wrapper that records a span, and puts the original back on
:meth:`Tracer.uninstall`.  Spans ``{name, start, end, parent, thread, pass}``
are kept in memory on a per-thread stack and written out only at the end
(:meth:`Tracer.dump`), so tracing does no I/O while a pass is timed.

A span's **self time** is its duration minus the part its direct child
spans cover; summed over all spans of a thread it equals the root span's
duration exactly, which is what makes ``harness.unattributed_ratio``
meaningful.  Three span kinds:

* regular — pushed on the calling thread's stack, so nested probed calls
  become children;
* ``leaf=True`` — for callables hit ~10^5 times per pass
  (``SqliteStore.execute``): no span object, only a per-name
  ``[calls, seconds]`` total, still subtracted from the parent's self time;
* coroutine functions — a request's coroutine interleaves with others on
  the event-loop thread, so its span is recorded without touching the
  stack (no parent, no children; its duration includes awaited waiting).
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import importlib
import json
import threading
from time import perf_counter as _now
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: A counter hook: (args, kwargs, result) -> {counter: increment}.
CountFn = Callable[[tuple, dict, Any], Dict[str, float]]

_INHERITED = object()


class Span:
    """One timed call (``end`` stays ``None`` while it is open)."""

    __slots__ = ("name", "start", "end", "parent", "thread", "pass_id",
                 "children_s", "error", "counts")

    def __init__(self, name: str, start: float, parent: Optional[int],
                 thread: int, pass_id: int) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.thread = thread
        self.pass_id = pass_id
        self.children_s = 0.0
        self.error = False
        self.counts: Optional[Dict[str, float]] = None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s

    def to_dict(self, index: int) -> Dict[str, object]:
        return {
            "id": index, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "thread": self.thread, "pass": self.pass_id,
            "self_s": self.self_s, "error": self.error, "counts": self.counts or {},
        }


class Tracer:
    """Span recorder plus the install/uninstall bookkeeping of the probes."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.pass_id = 0
        #: (name, pass) -> [calls, seconds] of ``leaf=True`` probes.
        self.leaves: Dict[Tuple[str, int], List[float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, stacked: bool) -> int:
        stack = self._stack() if stacked else None
        span = Span(
            name, 0.0, stack[-1] if stack else None,
            threading.get_ident(), self.pass_id,
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        if stack is not None:
            stack.append(index)
        span.start = _now()
        return index

    def _close(self, index: int, stacked: bool, error: bool) -> None:
        end = _now()
        span = self.spans[index]
        span.end = end
        span.error = error
        if stacked:
            stack = self._stack()
            # An exception may have skipped inner closes; unwind to this span.
            while stack and stack.pop() != index:
                pass
            if span.parent is not None:
                self.spans[span.parent].children_s += end - span.start

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record a span around a block of the benchmark's own code."""
        index = self._open(name, stacked=True)
        error = True
        try:
            yield self.spans[index]
            error = False
        finally:
            self._close(index, stacked=True, error=error)

    # ------------------------------------------------------------- wrapping
    def wrap(self, fn: Callable, name: str, count: Optional[CountFn] = None,
             leaf: bool = False) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``."""
        if asyncio.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_coroutine(*args, **kwargs):
                index = self._open(name, stacked=False)
                error = True
                try:
                    result = await fn(*args, **kwargs)
                    error = False
                    if count is not None:
                        self.spans[index].counts = count(args, kwargs, result)
                    return result
                finally:
                    self._close(index, stacked=False, error=error)
            return traced_coroutine

        if leaf:
            @functools.wraps(fn)
            def traced_leaf(*args, **kwargs):
                started = _now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = _now() - started
                    total = self.leaves.setdefault((name, self.pass_id), [0, 0.0])
                    total[0] += 1
                    total[1] += elapsed
                    stack = self._stack()
                    if stack:
                        self.spans[stack[-1]].children_s += elapsed
            return traced_leaf

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name, stacked=True)
            error = True
            try:
                result = fn(*args, **kwargs)
                error = False
                if count is not None:
                    self.spans[index].counts = count(args, kwargs, result)
                return result
            finally:
                self._close(index, stacked=True, error=error)
        return traced

    def install(self, owner: object, attr: str, name: str,
                count: Optional[CountFn] = None, leaf: bool = False) -> None:
        """Replace ``owner.attr`` (class or module attribute) with a probe."""
        own = attr in vars(owner)
        raw = vars(owner)[attr] if own else getattr(owner, attr)
        if isinstance(raw, classmethod):
            probe: object = classmethod(self.wrap(raw.__func__, name, count, leaf))
        elif isinstance(raw, staticmethod):
            probe = staticmethod(self.wrap(raw.__func__, name, count, leaf))
        else:
            probe = self.wrap(raw, name, count, leaf)
        # An inherited attribute is shadowed, not replaced: uninstall deletes it.
        self._installed.append((owner, attr, raw if own else _INHERITED))
        setattr(owner, attr, probe)

    def install_table(self, table) -> None:
        """Install ``(module, class_or_None, attr, span_name, count, leaf)`` rows."""
        for module_name, class_name, attr, name, count, leaf in table:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            self.install(owner, attr, name, count, leaf)

    def uninstall(self) -> None:
        """Put every original callable back, newest first."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            if raw is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # ------------------------------------------------------------ reporting
    def summary(self, pass_id: Optional[int] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds, errors, summed counters."""
        rows: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            if span.end is not None and pass_id in (None, span.pass_id):
                _add(rows, span.name, 1, span.duration, span.self_s, span.error, span.counts)
        for (name, leaf_pass), (calls, seconds) in self.leaves.items():
            if pass_id in (None, leaf_pass):
                _add(rows, name, calls, seconds, seconds, False, None)
        return rows

    def dump(self, path: str) -> None:
        """Write every span (and the leaf totals) as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps(span.to_dict(index), sort_keys=True) + "\n")
            for (name, leaf_pass), (calls, seconds) in sorted(self.leaves.items()):
                handle.write(json.dumps(
                    {"leaf": name, "pass": leaf_pass, "calls": calls, "self_s": seconds},
                    sort_keys=True,
                ) + "\n")


def _add(rows: Dict[str, Dict[str, float]], name: str, calls: int, total_s: float,
         self_s: float, error: bool, counts: Optional[Dict[str, float]]) -> None:
    entry = rows.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
    entry["calls"] += calls
    entry["total_s"] += total_s
    entry["self_s"] += self_s
    entry["errors"] += 1 if error else 0
    for key, value in (counts or {}).items():
        entry[key] = entry.get(key, 0) + value


def load_summary(path: str, window: Tuple[float, float]) -> Dict[str, Dict[str, float]]:
    """Summarise a dumped span file, cut to spans that started inside ``window``.

    This is how a server process's spans are cut to a client-timed pass.
    Leaf totals carry no timestamps and are skipped: the probed server
    installs no leaf probes.
    """
    rows: Dict[str, Dict[str, float]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            item = json.loads(line)
            if "leaf" in item or item["end"] is None:
                continue
            if window[0] <= item["start"] <= window[1]:
                _add(rows, item["name"], 1, item["end"] - item["start"], item["self_s"],
                     item["error"], item["counts"])
    return rows


# ---------------------------------------------------------------- the table
def _len_result(key: str) -> CountFn:
    return lambda args, kwargs, result: {key: len(result)}


def _count_generate(args, kwargs, result):
    return {"pairs": len(args[1]), "hits": result.hit_count}


def _count_publish(args, kwargs, result):
    return {"votes": len(result.votes), "assignments": result.assignment_count}


def _count_aggregate(args, kwargs, result):
    votes = args[1] if len(args) > 1 else kwargs["votes"]
    return {"votes_in": len(votes) if hasattr(votes, "__len__") else 0}


def _count_rank(args, kwargs, result):
    likelihoods = args[0] if args else kwargs["likelihoods"]
    return {"pairs": len(likelihoods)}


#: The probed layer boundaries of the engine (everything except the HTTP
#: service, whose probes :mod:`serve_probe` installs in the server process).
#: ``rank_candidates`` is imported by name into two modules, so both
#: references are replaced.
ENGINE_PROBES = [
    ("repro.core.workflow", "HybridWorkflow", "__init__", "workflow.init", None, False),
    ("repro.core.workflow", "HybridWorkflow", "resolve", "workflow.resolve", None, False),
    ("repro.simjoin.likelihood", "SimJoinLikelihood", "estimate", "simjoin.estimate",
     _len_result("candidates"), False),
    ("repro.streaming.incremental_join", "IncrementalSimJoin", "add_batch",
     "incremental_join.add_batch", _len_result("new_pairs"), False),
    ("repro.streaming.incremental_join", "IncrementalSimJoin", "retract",
     "incremental_join.retract", None, False),
    ("repro.hit.generator", "ClusterHITGenerator", "generate", "hit.generate",
     _count_generate, False),
    ("repro.hit.pair_generation", "PairHITGenerator", "generate", "hit.generate",
     _count_generate, False),
    ("repro.crowd.platform", "SimulatedCrowdPlatform", "publish", "crowd.publish",
     _count_publish, False),
    ("repro.aggregation.majority", "MajorityAggregator", "aggregate",
     "aggregation.aggregate", _count_aggregate, False),
    ("repro.aggregation.dawid_skene", "DawidSkeneAggregator", "aggregate",
     "aggregation.aggregate", _count_aggregate, False),
    ("repro.core.workflow", None, "rank_candidates", "ranking.rank", _count_rank, False),
    ("repro.streaming.session", None, "rank_candidates", "ranking.rank", _count_rank, False),
    ("repro.streaming.session", "StreamingResolver", "__init__", "session.init", None, False),
    ("repro.streaming.session", "StreamingResolver", "add_truth", "session.add_truth",
     None, False),
    ("repro.streaming.session", "StreamingResolver", "add_batch", "session.add_batch",
     None, False),
    ("repro.streaming.session", "StreamingResolver", "retract", "session.retract", None, False),
    ("repro.streaming.session", "StreamingResolver", "update", "session.update", None, False),
    ("repro.streaming.session", "StreamingResolver", "flush", "session.flush", None, False),
    ("repro.streaming.session", "StreamingResolver", "snapshot", "session.snapshot",
     None, False),
    ("repro.streaming.session", "StreamingResolver", "save", "storage.save", None, False),
    ("repro.streaming.session", "StreamingResolver", "restore", "storage.restore", None, False),
    ("repro.streaming.persistence", "SessionJournal", "append", "persistence.journal_append",
     None, False),
    ("repro.streaming.persistence", None, "write_snapshot", "persistence.snapshot_write",
     None, False),
    ("repro.storage.sqlite", "SqliteStore", "commit", "storage.commit", None, False),
    ("repro.storage.sqlite", "SqliteStore", "execute", "storage.mirror", None, True),
    ("repro.storage.sqlite", "SqliteStore", "executemany", "storage.mirror", None, True),
]


# ------------------------------------------------- spans -> per-layer metrics
def layer_metrics(summary: Dict[str, Dict[str, float]],
                  record: Dict[str, object]) -> Dict[str, float]:
    """Map a span summary of one traced pass to the declared per-layer metrics.

    Every ``*_s`` value is the layer's **self** time (so the values add up
    to the pass); container spans (``service.*`` totals) are durations.  A
    layer the workload bypasses reports exact zeros.
    """
    def self_s(*names: str) -> float:
        return sum(summary.get(name, {}).get("self_s", 0.0) for name in names)

    def total_s(*names: str) -> float:
        return sum(summary.get(name, {}).get("total_s", 0.0) for name in names)

    def count(name: str, key: str = "calls") -> float:
        return summary.get(name, {}).get(key, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    extras = record.get("extras", {})
    manager = [name for name in summary if name.startswith("service.manager.")]
    records = record["records"]
    return {
        "workflow.self_s": self_s("workflow.init", "workflow.resolve"),
        "simjoin.estimate_s": self_s("simjoin.estimate"),
        "simjoin.candidates": count("simjoin.estimate", "candidates"),
        "incremental_join.add_batch_s": self_s("incremental_join.add_batch"),
        "incremental_join.add_batch_calls": count("incremental_join.add_batch"),
        "incremental_join.new_pairs": count("incremental_join.add_batch", "new_pairs"),
        "incremental_join.retract_s": self_s("incremental_join.retract"),
        "hit.generate_s": self_s("hit.generate"),
        "hit.generate_calls": count("hit.generate"),
        "hit.hits_generated": count("hit.generate", "hits"),
        "hit.pairs_per_hit": ratio(count("hit.generate", "pairs"),
                                   count("hit.generate", "hits")),
        "crowd.publish_s": self_s("crowd.publish"),
        "crowd.publish_calls": count("crowd.publish"),
        "crowd.votes": count("crowd.publish", "votes"),
        "crowd.assignments": count("crowd.publish", "assignments"),
        "aggregation.aggregate_s": self_s("aggregation.aggregate"),
        "aggregation.calls": count("aggregation.aggregate"),
        "aggregation.votes_in": count("aggregation.aggregate", "votes_in"),
        "aggregation.reaggregation_ratio": ratio(
            count("aggregation.aggregate", "votes_in"), count("crowd.publish", "votes")),
        "ranking.rank_s": self_s("ranking.rank"),
        "ranking.pairs_ranked": count("ranking.rank", "pairs"),
        "ranking.rerank_ratio": ratio(count("ranking.rank", "pairs"), record["candidates"]),
        "session.snapshot_self_s": self_s("session.snapshot"),
        "session.add_batch_self_s": self_s("session.add_batch"),
        "session.flush_s": self_s("session.flush"),
        "session.other_self_s": self_s(
            "session.init", "session.add_truth", "session.retract", "session.update"),
        "persistence.journal_append_s": self_s("persistence.journal_append"),
        "persistence.journal_appends": count("persistence.journal_append"),
        "persistence.journal_bytes": extras.get("journal_bytes", 0),
        "persistence.snapshot_write_s": self_s("persistence.snapshot_write"),
        "persistence.snapshot_bytes": extras.get("snapshot_bytes", 0),
        "storage.commit_s": self_s("storage.commit"),
        "storage.commits": count("storage.commit"),
        "storage.mirror_s": self_s("storage.mirror"),
        "storage.mirror_calls": count("storage.mirror"),
        "storage.save_s": self_s("storage.save"),
        "storage.restore_s": self_s("storage.restore"),
        "storage.bytes_on_disk": extras.get("bytes_on_disk", 0),
        "storage.bytes_per_record": ratio(extras.get("bytes_on_disk", 0), records),
        "service.requests": count("client.request"),
        "service.request_bytes": count("client.http_send", "bytes"),
        "service.response_bytes": count("client.http_read", "bytes"),
        "service.manager_append_s": total_s("service.manager.append"),
        "service.shard_exec_s": total_s("service.shard_exec"),
        "service.queue_wait_s": total_s("service.submit") - total_s("service.shard_exec"),
        "service.encode_result_s": self_s("service.encode_result"),
        "service.http_overhead_s": (
            total_s("client.request") - total_s(*manager) if manager else 0.0),
    }


def unattributed_ratio(summary: Dict[str, Dict[str, float]]) -> float:
    """Share of the traced pass spent in no probed layer.

    The root span (``harness.pass``, or one ``client.session`` per client
    thread) contains every probed call of its thread, so its self time is
    exactly the time no probe accounts for.
    """
    roots = [summary[name] for name in ("harness.pass", "client.session") if name in summary]
    total = sum(root["total_s"] for root in roots)
    return sum(root["self_s"] for root in roots) / total if total else 0.0
