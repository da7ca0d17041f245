"""Per-session cost reports: HITs, votes, machine vs. crowd time split.

The paper's headline claims are cost claims, so this module turns raw
metrics into the numbers an operator actually asks for: how many HITs a
session issued, how many votes came back, what the simulated crowd cost,
and how the time divides between the machine pass (real wall-clock spent in
instrumented spans) and the simulated crowd (worker-seconds and round-trip
latency from the latency model).  The real seconds the process spends
*simulating* the crowd belong to neither side and are reported separately.

A report can be built from three sources (the CLI ``repro stats`` command
accepts all three):

* :meth:`CostReport.from_snapshot` — a live :class:`~repro.obs.metrics.MetricsSnapshot`
  (the process's counters: every session it ran);
* :meth:`CostReport.from_store` — a SQLite session store: that session's
  own crowd-side numbers, read from its state whether or not metrics were
  on; a store keeps no timings;
* :meth:`CostReport.from_trace` — a JSONL trace file written via
  ``obs.activate(trace_path=...)`` (the CLI's ``--trace``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .metrics import MetricsSnapshot

#: Top-level (never-nested) span names; their histogram totals sum to the
#: real wall-clock the machine spent resolving, without double-counting the
#: sub-spans nested inside them.
MACHINE_ROOT_SPANS = (
    "workflow.resolve",
    "streaming.batch",
    "streaming.retract",
    "streaming.flush",
    "streaming.restore",
)

#: Spans in which the process plays the crowd (the synchronous simulator
#: drawing votes).  They run nested inside the root spans above, but a real
#: deployment would spend that time waiting on people, not computing, so it
#: is reported on its own and taken out of the machine figure.
SIMULATOR_SPANS = ("crowd.publish",)


@dataclass
class CostReport:
    """One session's cost accounting, ready to render or serialise."""

    source: str = ""
    hits_issued: int = 0
    assignments: int = 0
    votes: int = 0
    crowd_cost_dollars: float = 0.0
    #: Simulated worker-seconds (sum of per-assignment durations).
    crowd_work_seconds: float = 0.0
    #: Simulated end-to-end crowd latency in minutes (latency-model output).
    crowd_elapsed_minutes: float = 0.0
    #: Async crowd robustness numbers (all zero for synchronous runs).
    crowd_retries: int = 0
    crowd_timeouts: int = 0
    crowd_reissued: int = 0
    crowd_duplicates_dropped: int = 0
    #: Real wall-clock seconds spent inside top-level machine spans, net of
    #: the crowd simulator nested in them; None without spans (a report
    #: built from a store, whose session's process kept the timings).
    machine_seconds: Optional[float] = None
    #: Real wall-clock seconds the process spent simulating the crowd
    #: (:data:`SIMULATOR_SPANS`); None exactly when ``machine_seconds`` is.
    simulator_seconds: Optional[float] = None
    #: Per-span ``(calls, total_seconds)`` breakdown, all spans.
    phase_seconds: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    #: Streaming counters of record (``streaming_*`` totals).
    counters: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "hits_issued": self.hits_issued,
            "assignments": self.assignments,
            "votes": self.votes,
            "crowd_cost_dollars": self.crowd_cost_dollars,
            "crowd_work_seconds": self.crowd_work_seconds,
            "crowd_elapsed_minutes": self.crowd_elapsed_minutes,
            "crowd_retries": self.crowd_retries,
            "crowd_timeouts": self.crowd_timeouts,
            "crowd_reissued": self.crowd_reissued,
            "crowd_duplicates_dropped": self.crowd_duplicates_dropped,
            "machine_seconds": self.machine_seconds,
            "simulator_seconds": self.simulator_seconds,
            "phase_seconds": {
                name: {"calls": calls, "seconds": seconds}
                for name, (calls, seconds) in sorted(self.phase_seconds.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }

    # ------------------------------------------------------------- builders
    @classmethod
    def from_snapshot(cls, snapshot: MetricsSnapshot, source: str = "snapshot") -> "CostReport":
        report = cls(source=source)
        report.hits_issued = int(snapshot.counter_total("hits_issued_total"))
        report.assignments = int(snapshot.counter_total("crowd_assignments_total"))
        report.votes = int(snapshot.counter_total("crowd_votes_total"))
        report.crowd_cost_dollars = snapshot.counter_total("crowd_cost_dollars_total")
        report.crowd_work_seconds = snapshot.counter_total("crowd_work_seconds_total")
        report.crowd_elapsed_minutes = snapshot.counter_total("crowd_elapsed_minutes_total")
        report.crowd_retries = int(snapshot.counter_total("crowd_retries_total"))
        report.crowd_timeouts = int(snapshot.counter_total("crowd_timeouts_total"))
        report.crowd_reissued = int(snapshot.counter_total("crowd_reissued_total"))
        report.crowd_duplicates_dropped = int(
            snapshot.counter_total("crowd_duplicates_dropped_total")
        )
        spans = snapshot.get("span_seconds")
        if spans is not None:
            for sample in spans["samples"]:
                name = sample["labels"].get("span", "")
                calls, seconds = report.phase_seconds.get(name, (0, 0.0))
                report.phase_seconds[name] = (
                    calls + sample["count"], seconds + sample["sum"]
                )
        report._split_wall_clock()
        for metric in snapshot.metrics:
            if metric["kind"] == "counter" and metric["name"].startswith("streaming_"):
                report.counters[metric["name"]] = sum(
                    sample["value"] for sample in metric["samples"]
                )
        return report

    def _split_wall_clock(self) -> None:
        """Derive machine and simulator seconds from ``phase_seconds``."""
        if not self.phase_seconds:
            return

        def total(names: Tuple[str, ...]) -> float:
            return sum(
                seconds for name, (_, seconds) in self.phase_seconds.items() if name in names
            )

        self.simulator_seconds = total(SIMULATOR_SPANS)
        # Clamped: a platform published to outside any root span (a bare
        # benchmark loop) has simulator time and no machine time at all.
        self.machine_seconds = max(0.0, total(MACHINE_ROOT_SPANS) - self.simulator_seconds)

    @classmethod
    def from_store(cls, path: str) -> "CostReport":
        """Build from a SQLite session store file (``store.sqlite``).

        Reads only the session's own state: its ``session`` meta (HITs,
        cost), its ``assignment_seconds`` table (assignments, worker
        seconds), its ledger's votes and the async platform's counters.
        Machine and simulator time are the process's numbers, not the
        session's, so they stay ``None``.
        """
        from repro.storage.sqlite import SqliteStore

        store = SqliteStore(path)
        try:
            if store.get_meta("version") is None:
                raise ValueError(f"{path} does not hold a resolution session")
            session = store.get_meta("session") or {}
            platform = (store.get_meta("async") or {}).get("platform") or {}
            assignment_seconds = store.load_assignment_seconds()
            store.load_ledger()
            votes = sum(len(pair_votes) for pair_votes in store.ledger.votes.values())
        finally:
            store.close()
        return cls(
            source=f"store {path}",
            hits_issued=int(session.get("hit_count", 0)),
            assignments=len(assignment_seconds),
            votes=votes,
            crowd_cost_dollars=float(session.get("cost", 0.0)),
            crowd_work_seconds=float(sum(assignment_seconds)),
            crowd_retries=int(platform.get("retries", 0)),
            crowd_timeouts=int(platform.get("timeouts", 0)),
            crowd_reissued=int(platform.get("reissued", 0)),
            crowd_duplicates_dropped=int(platform.get("duplicates_dropped", 0)),
        )

    @classmethod
    def from_trace(cls, path: str) -> "CostReport":
        """Build from a JSONL trace file (``obs.activate(trace_path=...)``).

        Prefers the final ``snapshot`` event a clean ``obs.deactivate()``
        appends; a truncated trace (crash, still-running session) falls
        back to replaying the counter and span events seen so far.
        """
        snapshot_payload: Optional[dict] = None
        counters: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
        spans: Dict[str, Tuple[int, float]] = {}
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line)
                kind = event.get("type")
                if kind == "snapshot":
                    snapshot_payload = event["metrics"]
                elif kind == "counter":
                    labels = tuple(sorted((event.get("labels") or {}).items()))
                    key = (event["name"], labels)
                    counters[key] = counters.get(key, 0.0) + event["value"]
                elif kind == "span":
                    calls, seconds = spans.get(event["name"], (0, 0.0))
                    spans[event["name"]] = (calls + 1, seconds + event["seconds"])
        if snapshot_payload is not None:
            return cls.from_snapshot(
                MetricsSnapshot.from_dict(snapshot_payload), source=f"trace {path}"
            )
        report = cls(source=f"trace {path} (no final snapshot; replayed events)")

        def total(name: str) -> float:
            return sum(value for (key, _), value in counters.items() if key == name)

        report.hits_issued = int(total("hits_issued_total"))
        report.assignments = int(total("crowd_assignments_total"))
        report.votes = int(total("crowd_votes_total"))
        report.crowd_cost_dollars = total("crowd_cost_dollars_total")
        report.crowd_work_seconds = total("crowd_work_seconds_total")
        report.crowd_elapsed_minutes = total("crowd_elapsed_minutes_total")
        report.crowd_retries = int(total("crowd_retries_total"))
        report.crowd_timeouts = int(total("crowd_timeouts_total"))
        report.crowd_reissued = int(total("crowd_reissued_total"))
        report.crowd_duplicates_dropped = int(total("crowd_duplicates_dropped_total"))
        report.phase_seconds = spans
        report._split_wall_clock()
        report.counters = {
            name: value
            for (name, _), value in sorted(counters.items())
            if name.startswith("streaming_")
        }
        return report

    # ------------------------------------------------------------ rendering
    def render(self) -> str:
        lines: List[str] = [f"Session cost report — {self.source}"]
        lines.append(f"  HITs issued            : {self.hits_issued}")
        lines.append(f"  assignments            : {self.assignments}")
        lines.append(f"  votes collected        : {self.votes}")
        lines.append(f"  crowd cost             : ${self.crowd_cost_dollars:.2f}")
        lines.append(
            f"  crowd work (simulated) : {self.crowd_work_seconds:.1f} worker-seconds"
        )
        if self.crowd_elapsed_minutes:
            lines.append(
                f"  crowd latency (simulated): {self.crowd_elapsed_minutes:.1f} min"
            )
        if self.crowd_retries or self.crowd_timeouts or self.crowd_reissued:
            # Reissues cost real money — their assignments are already part
            # of the crowd cost above; this line shows where it went.
            lines.append(
                f"  async robustness       : {self.crowd_timeouts} timeouts, "
                f"{self.crowd_retries} retries, {self.crowd_reissued} reissued, "
                f"{self.crowd_duplicates_dropped} duplicates dropped"
            )
        if self.machine_seconds is None:
            lines.append("  machine time           : n/a (timings come from a --trace file)")
        else:
            lines.append(f"  machine time           : {self.machine_seconds:.3f} s")
            lines.append(
                f"  crowd simulator time   : {self.simulator_seconds:.3f} s "
                "(real seconds spent playing the crowd; not machine time)"
            )
            simulated = self.crowd_work_seconds
            total_time = self.machine_seconds + simulated
            if total_time > 0:
                machine_pct = 100.0 * self.machine_seconds / total_time
                lines.append(
                    f"  machine vs crowd split : {machine_pct:.1f}% machine / "
                    f"{100.0 - machine_pct:.1f}% crowd (of "
                    f"{total_time:.1f} combined seconds)"
                )
        if self.counters:
            lines.append("  streaming counters:")
            for name, value in sorted(self.counters.items()):
                lines.append(f"    {name:<42} {value:g}")
        if self.phase_seconds:
            lines.append("  phase timings (wall-clock):")
            ranked = sorted(
                self.phase_seconds.items(), key=lambda item: -item[1][1]
            )
            for name, (calls, seconds) in ranked:
                lines.append(
                    f"    {name:<34} {seconds:9.4f} s over {calls} span(s)"
                )
        return "\n".join(lines)
