"""The asynchronous crowd platform: publish now, votes arrive later.

:class:`AsyncCrowdPlatform` wraps a per-pair-mode
:class:`~repro.crowd.platform.SimulatedCrowdPlatform` and turns its
synchronous publish into an asynchronous HIT lifecycle on a virtual integer
clock:

* :meth:`publish` enqueues every HIT's assignments and returns a receipt
  immediately (HIT count and base cost, no votes);
* :meth:`advance` moves the clock; due assignments become
  :class:`VoteDelivery` objects, assignments past their deadline are
  retried with exponential backoff + deterministic jitter, and retries
  beyond ``max_retries`` become paid HIT reissues;
* :meth:`poll` / :meth:`drain_ready` / :meth:`settle` hand the buffered
  deliveries to the caller (pull-style ingestion);
* duplicate and late-after-reissue deliveries are dropped idempotently,
  keyed by the HIT slot already served;
* a bounded in-flight HIT window applies backpressure: ``"block"``
  advances the clock until the window drains, ``"shed"`` raises
  :class:`BackpressureError` so the caller can defer the publish.

**Equivalence by construction.**  Assignment *slot* ``k`` of a HIT carries
the ``k``-th vote of the per-pair oracle
(:meth:`~repro.crowd.platform.SimulatedCrowdPlatform.pair_votes`) for every
pair the HIT exclusively covers, evaluated against the ground truth *at
publish time*.  A :class:`~repro.crowd.faults.FaultPlan` perturbs only
delivery timing — never vote content — so once every slot has arrived the
caller can reassemble each pair's votes in slot order and obtain exactly
the ledger entry a synchronous publish would have produced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro import obs
from repro.crowd.faults import AssignmentFate, FaultPlan
from repro.crowd.platform import CrowdRunResult, SimulatedCrowdPlatform, Vote
from repro.hit.base import HITBatch
from repro.records.pairs import canonical_pair

PairKey = Tuple[str, str]

#: Base of the exponential retry backoff: attempt ``n`` of a timed-out
#: assignment waits ``BACKOFF_TICKS * 2**(n-1)`` ticks plus deterministic
#: jitter.
BACKOFF_TICKS = 2

#: Exponent cap of the retry backoff (2**6 ticks is already a long wait on
#: the virtual clock; growing further only risks overflow-sized sleeps).
_MAX_BACKOFF_EXPONENT = 6

#: Simulated wall-clock seconds one virtual tick represents — only used to
#: scale the ``crowd_vote_latency_seconds`` histogram, never for results.
TICK_SECONDS = 30.0


class BackpressureError(RuntimeError):
    """Raised by ``publish`` when the in-flight window is full (policy "shed")."""


@dataclass
class VoteDelivery:
    """One accepted assignment submission: the slot's votes for its HIT.

    ``votes`` holds the slot-indexed oracle vote for every pair the HIT
    exclusively covers.  ``seconds`` is the latency-model completion time
    of the assignment.
    """

    hit_id: str
    slot: int
    assignment_id: str
    attempt: int
    votes: List[Vote] = field(default_factory=list)
    seconds: float = 0.0
    issued_tick: int = 0
    delivered_tick: int = 0

    def to_dict(self) -> dict:
        return {
            "hit_id": self.hit_id,
            "slot": self.slot,
            "assignment_id": self.assignment_id,
            "attempt": self.attempt,
            "votes": [[w, [k[0], k[1]], bool(a)] for w, k, a in self.votes],
            "seconds": self.seconds,
            "issued_tick": self.issued_tick,
            "delivered_tick": self.delivered_tick,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "VoteDelivery":
        return cls(
            hit_id=payload["hit_id"],
            slot=payload["slot"],
            assignment_id=payload["assignment_id"],
            attempt=payload["attempt"],
            votes=[(w, (k[0], k[1]), bool(a)) for w, k, a in payload["votes"]],
            seconds=payload["seconds"],
            issued_tick=payload["issued_tick"],
            delivered_tick=payload["delivered_tick"],
        )


@dataclass(frozen=True)
class AsyncCrowd:
    """``WorkflowConfig.crowd``: what an :class:`AsyncCrowdPlatform` reads.

    Parameters
    ----------
    vote_timeout:
        Ticks before an unanswered assignment times out and is retried.
    max_inflight_hits:
        Backpressure window: maximum HITs with undelivered slots
        (0 = unbounded).
    backpressure_policy:
        ``"block"`` advances the clock inside ``publish`` until the window
        has room; ``"shed"`` raises :class:`BackpressureError` instead.
    max_retries:
        Free retry budget per HIT slot; every further attempt is a paid
        reissue (``pricing.cost_per_assignment`` each).
    fault_plan:
        Optional :class:`~repro.crowd.faults.FaultPlan`; ``None`` delivers
        every assignment on the next tick, fault-free.
    """

    vote_timeout: int = 8
    max_inflight_hits: int = 64
    backpressure_policy: str = "block"
    max_retries: int = 3
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.vote_timeout < 1:
            raise ValueError("vote_timeout must be at least 1 tick")
        if self.max_inflight_hits < 0:
            raise ValueError("max_inflight_hits must be non-negative (0 = unbounded)")
        if self.backpressure_policy not in ("block", "shed"):
            raise ValueError("backpressure_policy must be 'block' or 'shed'")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "AsyncCrowd":
        """Inverse of ``dataclasses.asdict`` (the stored and HTTP shape)."""
        if not isinstance(payload, Mapping):
            raise ValueError(f"crowd must be an object of AsyncCrowd fields, got {payload!r}")
        fields = dict(payload)
        if fields.get("fault_plan") is not None:
            fields["fault_plan"] = FaultPlan.from_dict(fields["fault_plan"])
        return cls(**fields)


class AsyncCrowdPlatform:
    """Asynchronous HIT lifecycle over a deterministic vote oracle.

    Parameters
    ----------
    platform:
        The wrapped :class:`SimulatedCrowdPlatform`; must be in
        ``"per-pair"`` vote mode (the oracle the slot deliveries index).
    crowd:
        Its timeout, window, policy, retry budget and fault plan.
    """

    def __init__(self, platform: SimulatedCrowdPlatform, crowd: AsyncCrowd = AsyncCrowd()) -> None:
        if platform.vote_mode != "per-pair":
            raise ValueError(
                "AsyncCrowdPlatform needs a platform in 'per-pair' vote mode; "
                "sequential votes cannot be reassembled from async deliveries"
            )
        self.settings = crowd
        self.inner = platform
        self.clock = 0
        self.publish_count = 0
        #: hit_uid -> open-HIT record (pairs, truth-at-publish, ...).
        self._hits: Dict[str, dict] = {}
        #: outstanding assignment attempts (dict entries; JSON-shaped).
        self._pending: List[dict] = []
        #: deliveries buffered by internal advances, FIFO.
        self._ready: List[VoteDelivery] = []
        self.retries = 0
        self.timeouts = 0
        self.duplicates_dropped = 0
        self.reissued = 0
        self._extra_cost = 0.0

    # ------------------------------------------------------------- queries
    @property
    def open_hit_count(self) -> int:
        """HITs with at least one undelivered slot (the in-flight window)."""
        k = self.inner.assignments_per_hit
        return sum(1 for hit in self._hits.values() if len(hit["delivered"]) < k)

    @property
    def ready_count(self) -> int:
        return len(self._ready)

    def take_extra_cost(self) -> float:
        """Collect (and reset) the reissue cost accrued since the last call."""
        cost, self._extra_cost = self._extra_cost, 0.0
        return cost

    # ------------------------------------------------------------- publish
    def publish(
        self,
        batch: HITBatch,
        true_matches: Iterable[PairKey],
        candidate_pairs: Optional[Iterable[PairKey]] = None,
        force: bool = False,
    ) -> CrowdRunResult:
        """Enqueue every HIT of the batch; votes arrive via later polls.

        Returns a receipt-shaped :class:`CrowdRunResult` — HIT count,
        replication factor and base cost — with no votes and no assignment
        timings (those flow through :class:`VoteDelivery` objects).
        ``force`` bypasses the backpressure window (used to settle shed
        backlogs at flush time).
        """
        window = self.settings.max_inflight_hits
        if window and not force:
            if self.settings.backpressure_policy == "shed":
                if self.open_hit_count + batch.hit_count > window:
                    raise BackpressureError(
                        f"in-flight window full ({self.open_hit_count} open + "
                        f"{batch.hit_count} new > {window})"
                    )
            else:  # block: drain the window on the virtual clock
                guard = 0
                while self.open_hit_count > 0 and (
                    self.open_hit_count + batch.hit_count > window
                ):
                    self.advance(1)
                    guard += 1
                    if guard > 1_000_000:  # pragma: no cover - defensive
                        raise RuntimeError("backpressure block failed to drain")

        truth: Set[PairKey] = {canonical_pair(a, b) for a, b in true_matches}
        candidates = (
            {canonical_pair(a, b) for a, b in candidate_pairs}
            if candidate_pairs is not None
            else set(batch.candidate_pairs)
        )
        k = self.inner.assignments_per_hit
        claimed: Set[PairKey] = set()
        for hit, carried in zip(batch.hits, batch.carried_pairs(candidates)):
            seconds = self.inner.hit_assignment_seconds(hit)
            # Exclusive carrier assignment: overlapping HITs never deliver
            # the same pair twice, so slot reassembly is collision-free.
            pairs = sorted(carried - claimed)
            claimed.update(pairs)
            hit_uid = f"p{self.publish_count}:{hit.hit_id}"
            self._hits[hit_uid] = {
                "pairs": pairs,
                "truth": {key: key in truth for key in pairs},
                "seconds": seconds,
                "delivered": set(),
                "issued_tick": self.clock,
                "publish_index": self.publish_count,
            }
            for slot in range(k):
                self._enqueue_attempt(hit_uid, slot, attempt=0)
        self.publish_count += 1

        cost = self.inner.pricing.total_cost(batch.hit_count, k)
        if obs.enabled():
            obs.inc("hits_issued_total", batch.hit_count,
                    help="HITs published to the (simulated) crowd platform.")
            obs.inc("crowd_cost_dollars_total", cost,
                    help="Simulated crowd cost in dollars.")
            obs.set_gauge("crowd_hits_inflight", self.open_hit_count,
                          help="HITs published but not yet fully answered.")
        return CrowdRunResult(hit_count=batch.hit_count, assignments_per_hit=k, cost=cost)

    def _enqueue_attempt(self, hit_uid: str, slot: int, attempt: int,
                         not_before: int = 0) -> None:
        """Queue one assignment attempt, with its fate drawn from the plan."""
        assignment_id = f"{hit_uid}/s{slot}/a{attempt}"
        hit = self._hits[hit_uid]
        plan = self.settings.fault_plan
        fate = (
            plan.fate(hit_uid, assignment_id, attempt, hit["publish_index"])
            if plan is not None
            else AssignmentFate()
        )
        start = self.clock + not_before
        entry = {
            "hit": hit_uid,
            "slot": slot,
            "attempt": attempt,
            "assignment_id": assignment_id,
            "issued_tick": self.clock,
            "due_tick": None if fate.abandoned else start + fate.delay_ticks,
            "deadline_tick": start + self.settings.vote_timeout,
            "duplicate_of": None,
        }
        self._pending.append(entry)
        if fate.duplicate:
            self._pending.append({
                **entry,
                "due_tick": start + fate.delay_ticks + fate.duplicate_delay_ticks,
                "duplicate_of": assignment_id,
            })

    # ------------------------------------------------------------- advance
    def advance(self, ticks: int = 1) -> None:
        """Move the virtual clock; deliveries buffer into the ready queue."""
        for _ in range(max(0, ticks)):
            self.clock += 1
            self._deliver_due()
            self._retry_overdue()
            self._prune_settled()

    def _deliver_due(self) -> None:
        due = [entry for entry in self._pending
               if entry["due_tick"] is not None and entry["due_tick"] <= self.clock]
        if not due:
            return
        due.sort(key=lambda entry: (entry["due_tick"], entry["assignment_id"],
                                    entry["duplicate_of"] is not None))
        remaining = [entry for entry in self._pending if entry not in due]
        self._pending = remaining
        for entry in due:
            self._accept_or_drop(entry)

    def _accept_or_drop(self, entry: dict) -> None:
        hit = self._hits[entry["hit"]]
        assignment_id = entry["assignment_id"]
        if entry["duplicate_of"] is not None or entry["slot"] in hit["delivered"]:
            # Idempotent dedup: platform duplicates, and late originals
            # overtaken by a retry/reissue.  An assignment id is enqueued
            # once, and its HIT outlives every pending entry naming it, so
            # an accepted slot in ``delivered`` is all the memory needed.
            self.duplicates_dropped += 1
            if obs.enabled():
                obs.inc("crowd_duplicates_dropped_total", 1,
                        help="Duplicate or late-after-reissue crowd "
                             "deliveries dropped by idempotent dedup.")
            return
        hit["delivered"].add(entry["slot"])
        delivery = VoteDelivery(
            hit_id=entry["hit"],
            slot=entry["slot"],
            assignment_id=assignment_id,
            attempt=entry["attempt"],
            votes=[votes[entry["slot"]] for votes in self._oracle_votes(hit)],
            seconds=hit["seconds"],
            issued_tick=hit["issued_tick"],
            delivered_tick=self.clock,
        )
        self._ready.append(delivery)
        if obs.enabled():
            obs.inc("crowd_assignments_total", 1,
                    help="Completed crowd assignments (replicated HITs).")
            obs.inc("crowd_votes_total", len(delivery.votes),
                    help="Per-pair votes collected from the crowd.")
            obs.inc("crowd_work_seconds_total", delivery.seconds,
                    help="Simulated worker-seconds spent on assignments.")
            obs.observe(
                "crowd_vote_latency_seconds",
                (self.clock - delivery.issued_tick) * TICK_SECONDS,
                help="Publish-to-delivery latency of accepted assignments "
                     "(virtual ticks scaled to simulated seconds).",
            )
            obs.set_gauge("crowd_hits_inflight", self.open_hit_count,
                          help="HITs published but not yet fully answered.")

    def _oracle_votes(self, hit: dict) -> List[List[Vote]]:
        """The k oracle votes of every pair ``hit`` carries, asked once per HIT.

        Kept on the in-memory open-HIT record only — never in
        :meth:`state_dict` — so a restored HIT re-asks the (pure) oracle
        on its next delivery.
        """
        if "votes" not in hit:
            hit["votes"] = [
                self.inner.pair_votes(key, hit["truth"][key]) for key in hit["pairs"]
            ]
        return hit["votes"]

    def _retry_overdue(self) -> None:
        overdue = [entry for entry in self._pending
                   if entry["deadline_tick"] <= self.clock]
        if not overdue:
            return
        overdue.sort(key=lambda entry: entry["assignment_id"])
        self._pending = [entry for entry in self._pending if entry not in overdue]
        for entry in overdue:
            hit = self._hits[entry["hit"]]
            if entry["slot"] in hit["delivered"] or entry["duplicate_of"] is not None:
                # The slot was served by another copy; nothing to retry.
                continue
            attempt = entry["attempt"] + 1
            self.timeouts += 1
            self.retries += 1
            if attempt > self.settings.max_retries:
                # Retry budget exhausted: the HIT slot is reissued as a new
                # paid assignment (fresh id; the worker pool is asked again).
                self.reissued += 1
                self._extra_cost += self.inner.pricing.cost_per_assignment
                if obs.enabled():
                    obs.inc("crowd_reissued_total", 1,
                            help="HIT assignments reissued after the retry "
                                 "budget ran out (each costs one assignment).")
                    obs.inc("crowd_cost_dollars_total",
                            self.inner.pricing.cost_per_assignment)
            if obs.enabled():
                obs.inc("crowd_timeouts_total", 1,
                        help="Assignments that missed their vote deadline.")
                obs.inc("crowd_retries_total", 1,
                        help="Assignment retry attempts after a timeout.")
            backoff = BACKOFF_TICKS * (
                2 ** min(max(0, attempt - 1), _MAX_BACKOFF_EXPONENT)
            )
            jitter_rng = random.Random(
                f"{self.inner.seed}|backoff|{entry['hit']}|{entry['slot']}|{attempt}"
            )
            jitter = jitter_rng.randint(0, max(1, BACKOFF_TICKS))
            self._enqueue_attempt(entry["hit"], entry["slot"], attempt,
                                  not_before=backoff + jitter)

    def _prune_settled(self) -> None:
        """Drop fully delivered HITs no pending entry references anymore."""
        k = self.inner.assignments_per_hit
        referenced = {entry["hit"] for entry in self._pending}
        settled = [
            uid for uid, hit in self._hits.items()
            if len(hit["delivered"]) >= k and uid not in referenced
        ]
        for uid in settled:
            del self._hits[uid]

    # ----------------------------------------------------------- ingestion
    def drain_ready(self) -> List[VoteDelivery]:
        """Hand over every buffered delivery (FIFO, deterministic order)."""
        ready, self._ready = self._ready, []
        return ready

    def poll(self, ticks: int = 1) -> List[VoteDelivery]:
        """Advance the clock and return whatever arrived (pull ingestion)."""
        self.advance(ticks)
        return self.drain_ready()

    def settle(self, max_ticks: int = 1_000_000) -> List[VoteDelivery]:
        """Advance until nothing is outstanding; return all deliveries.

        Terminates for any :class:`FaultPlan` because attempts at
        ``max_faulty_attempts`` are always delivered.
        """
        ticks = 0
        while self._pending:
            self.advance(1)
            ticks += 1
            if ticks > max_ticks:  # pragma: no cover - defensive
                raise RuntimeError("async crowd failed to settle")
        return self.drain_ready()

    # -------------------------------------------------------- serialization
    def state_dict(self) -> Dict[str, object]:
        """JSON-serializable queue state (for session snapshots / page-in)."""
        return {
            "clock": self.clock,
            "publish_count": self.publish_count,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "duplicates_dropped": self.duplicates_dropped,
            "reissued": self.reissued,
            "extra_cost": self._extra_cost,
            "hits": [
                [uid, {
                    "pairs": [[a, b] for a, b in hit["pairs"]],
                    "truth": [[a, b, bool(t)] for (a, b), t in sorted(hit["truth"].items())],
                    "seconds": hit["seconds"],
                    "delivered": sorted(hit["delivered"]),
                    "issued_tick": hit["issued_tick"],
                    "publish_index": hit["publish_index"],
                }]
                for uid, hit in sorted(self._hits.items())
            ],
            "pending": [dict(entry) for entry in self._pending],
            "ready": [delivery.to_dict() for delivery in self._ready],
        }

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        self.clock = int(state["clock"])  # type: ignore[arg-type]
        self.publish_count = int(state["publish_count"])  # type: ignore[arg-type]
        self.retries = int(state["retries"])  # type: ignore[arg-type]
        self.timeouts = int(state["timeouts"])  # type: ignore[arg-type]
        self.duplicates_dropped = int(state["duplicates_dropped"])  # type: ignore[arg-type]
        self.reissued = int(state["reissued"])  # type: ignore[arg-type]
        self._extra_cost = float(state["extra_cost"])  # type: ignore[arg-type]
        self._hits = {
            uid: {
                "pairs": [(a, b) for a, b in payload["pairs"]],
                "truth": {(a, b): bool(t) for a, b, t in payload["truth"]},
                "seconds": payload["seconds"],
                "delivered": set(payload["delivered"]),
                "issued_tick": payload["issued_tick"],
                "publish_index": payload["publish_index"],
            }
            for uid, payload in state["hits"]  # type: ignore[union-attr]
        }
        self._pending = [dict(entry) for entry in state["pending"]]  # type: ignore[union-attr]
        self._ready = [
            VoteDelivery.from_dict(payload) for payload in state["ready"]  # type: ignore[union-attr]
        ]
