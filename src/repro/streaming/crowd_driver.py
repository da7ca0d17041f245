"""The crowd side of a streaming session: Figure 1's HIT generation → crowd.

:class:`CrowdDriver` takes *these pairs need votes* to *these pairs have
votes*.  It writes no session state: it reports what it did as a
:class:`CrowdStep`, and the session folds every step alike.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro import obs
from repro.aggregation.majority import Vote
from repro.core.config import WorkflowConfig
from repro.core.workflow import build_hit_generator, build_platform
from repro.crowd.async_platform import AsyncCrowdPlatform, BackpressureError, VoteDelivery
from repro.records.pairs import PairSet, RecordPair

logger = logging.getLogger(__name__)

PairKey = Tuple[str, str]


@dataclass
class CrowdStep:
    """What one driver call did.

    ``hits``: how many HITs it published.  ``completed``: every pair whose
    last vote arrived — ``(pair, its votes in per-pair oracle order)``.
    """

    hits: int = 0
    completed: List[Tuple[PairKey, List[Vote]]] = field(default_factory=list)


class CrowdDriver:
    """HIT generation, publish and vote collection for one session.

    Owns the platform (always in deterministic per-pair vote mode), the
    accumulated workload counters and everything in flight, and their
    stored form (:meth:`state_dict`).  With an async ``config.crowd`` the
    platform is wrapped in an :class:`~repro.crowd.async_platform.AsyncCrowdPlatform`:
    publishes enqueue HITs on a virtual clock and votes arrive later (with
    timeouts, retries, reissues, backpressure).  Both modes are one
    lifecycle — :meth:`request`, :meth:`tick`, :meth:`settle`,
    :meth:`forget` — and a pair is *completed* only once all of its vote
    slots have arrived, so the session's ledger sees the same either way:
    synchronous crowdsourcing is the lifecycle with nothing in flight
    (``request`` completes every pair it covered; ``tick`` and ``settle``
    find nothing to do).
    """

    def __init__(self, config: WorkflowConfig) -> None:
        self.config = config
        # Always per-pair: sequential votes cannot be kept across batches.
        self.platform = build_platform(replace(config, vote_mode="per-pair"))
        self.crowd: Optional[AsyncCrowdPlatform] = (
            None if config.crowd is None else AsyncCrowdPlatform(self.platform, config.crowd)
        )
        # Accumulated crowd workload across all events; the assignments as
        # {seconds: count}, all the latency figures read of them.
        self.hit_count = 0
        self.cost = 0.0
        self.assignment_seconds: Counter = Counter()
        self.pairs_per_hit_seen: Optional[int] = None
        self.generator_name = ""
        # Always empty in sync mode.  In flight: per published pair, the vote
        # slots delivered so far.  Starved: pairs whose publish was shed by
        # backpressure (retried by the next request, force-published by
        # settle).
        self.inflight: Dict[PairKey, Dict[int, Vote]] = {}
        self.starved: Set[PairKey] = set()

    # ------------------------------------------------------------ lifecycle
    def request(
        self,
        to_vote: Set[PairKey],
        likelihoods: Mapping[PairKey, Optional[float]],
        truth: Set[PairKey],
        force: bool = False,
    ) -> CrowdStep:
        """Batch ``to_vote`` (plus any shed backlog) into HITs and publish them.

        ``likelihoods`` is the session's candidate table (the ledger's
        ``pairs``), where every pair to vote on is looked up.  A pair is
        asked at most once at a time, so pairs already in flight are left
        out; a pair no HIT covers stays unvoted.  When backpressure sheds
        the publish the pairs join the backlog and the step is empty;
        ``force`` publishes past the window.
        """
        step = CrowdStep()
        if self.starved or self.inflight:
            to_vote = (to_vote | self.starved) - self.inflight.keys()
        if not to_vote:
            return step
        # Sorted-key order makes HIT grouping independent of arrival order.
        # The ledger's keys are canonical and its likelihoods were checked
        # when the join built the pair.
        batch = build_hit_generator(self.config).generate(PairSet(
            RecordPair.canonical(key, likelihoods[key]) for key in sorted(to_vote)
        ))
        asked = dict(true_matches=truth, candidate_pairs=to_vote)
        try:
            if self.crowd is None:
                run = self.platform.publish(batch, **asked)
            else:
                run = self.crowd.publish(batch, force=force, **asked)
        except BackpressureError:
            self.starved |= to_vote
            logger.debug("backpressure shed %d pairs (%d HITs)", len(to_vote), batch.hit_count)
            return step
        self.starved -= to_vote
        step.hits = run.hit_count
        # A sync publish returns every covered pair's votes; whatever it did
        # not return (async: everything) is in flight and arrives later.
        fresh: Dict[PairKey, List[Vote]] = {}
        for vote in run.votes:
            fresh.setdefault(vote[1], []).append(vote)
        step.completed = list(fresh.items())
        for key in set().union(*run.carried) - fresh.keys():
            self.inflight[key] = {}
        self.assignment_seconds.update(run.assignment_seconds)
        self.generator_name = batch.generator_name
        self.hit_count += run.hit_count
        self.cost += run.cost
        if self.config.hit_type == "pair" and batch.hits:
            self.pairs_per_hit_seen = max(self.pairs_per_hit_seen or 0, batch.max_hit_size())
        return step

    def tick(self) -> CrowdStep:
        """One applied event is one tick of the virtual clock: what arrived?"""
        if self.crowd is None:
            return CrowdStep()
        with obs.span(
            "crowd.await_votes", inflight=len(self.inflight), starved=len(self.starved)
        ):
            deliveries = self.crowd.poll(1)
        return self._deliver(deliveries, CrowdStep())

    def settle(
        self, likelihoods: Mapping[PairKey, Optional[float]], truth: Set[PairKey]
    ) -> CrowdStep:
        """Leave nothing in flight: publish the backlog, wait out every vote.

        The shed backlog is force-published past the backpressure window,
        then the virtual clock runs until every outstanding assignment
        (retries and reissues included) has delivered — which terminates for
        any fault plan because ``max_faulty_attempts`` bounds how long a
        slot can stay undelivered.
        """
        if self.crowd is None:
            return CrowdStep()
        step = self.request(set(), likelihoods, truth, force=True)
        return self._deliver(self.crowd.settle(), step)

    def forget(self, keys: Iterable[PairKey]) -> None:
        """Retraction: abandon the pairs' in-flight votes and shed publishes
        (:meth:`_deliver` ignores late deliveries for them)."""
        for key in keys:
            self.inflight.pop(key, None)
            self.starved.discard(key)

    def _deliver(self, deliveries: List[VoteDelivery], step: CrowdStep) -> CrowdStep:
        """Sort accepted deliveries into the vote slots; report completions.

        A delivery's votes only count toward pairs still in flight — late
        deliveries for retracted pairs are ignored (a pair's votes are a
        pure function of its key, so ignoring them loses nothing).  When a
        pair's every
        slot has arrived its votes are reported in slot order, which is
        exactly the per-pair oracle order a synchronous publish returns —
        the source of the async == sync equivalence.
        """
        replication = self.platform.assignments_per_hit
        for delivery in deliveries:
            for vote in delivery.votes:
                key = vote[1]
                slots = self.inflight.get(key)
                if slots is None or delivery.slot in slots:
                    continue
                slots[delivery.slot] = vote
                if len(slots) == replication:
                    votes = [slots[slot] for slot in range(replication)]
                    step.completed.append((key, votes))
                    del self.inflight[key]
        self.assignment_seconds.update(delivery.seconds for delivery in deliveries)
        self.cost += self.crowd.take_extra_cost()
        return step

    def workload(self) -> Dict[str, object]:
        """The accumulated crowd workload, as ``ResolutionResult`` fields."""
        latency = self.platform.latency.estimate(
            self.assignment_seconds,
            hit_type=self.config.hit_type,
            pairs_per_hit=self.pairs_per_hit_seen,
            qualification=self.platform.qualification is not None,
        )
        return dict(
            hit_count=self.hit_count, assignment_count=latency.assignment_count,
            cost=self.cost, latency=latency, generator_name=self.generator_name,
        )

    # -------------------------------------------------------- serialization
    def state_dict(self) -> Dict[str, object]:
        """The driver's state in its stored, JSON-safe form.

        ``session`` (the workload counters, the assignment durations as
        ``[seconds, count]`` pairs by ascending seconds among them) and
        ``async`` (the platform's queue and the in-flight bookkeeping;
        ``None`` in sync mode) are what a store keeps under the meta keys
        of those names.  Every in-flight pair has a ``slot_votes`` entry,
        its key not repeated inside each slot vote: ``[id_a, id_b, [[slot,
        worker, answer], ...]]``.
        """
        flight = None
        if self.crowd is not None:
            flight = {
                "platform": self.crowd.state_dict(),
                "slot_votes": [
                    [a, b, [[slot, vote[0], bool(vote[2])] for slot, vote in sorted(slots.items())]]
                    for (a, b), slots in sorted(self.inflight.items())
                ],
                "starved": [[a, b] for a, b in sorted(self.starved)],
            }
        return {
            "session": {
                "hit_count": self.hit_count,
                "cost": self.cost,
                "pairs_per_hit_seen": self.pairs_per_hit_seen,
                "generator_name": self.generator_name,
                "assignment_seconds": sorted(map(list, self.assignment_seconds.items())),
            },
            "async": flight,
        }

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        """Inverse of :meth:`state_dict`; parts a store lacks stay fresh."""
        counters = state.get("session") or {}
        self.hit_count = int(counters.get("hit_count", 0))
        self.cost = counters.get("cost", 0.0)
        self.pairs_per_hit_seen = counters.get("pairs_per_hit_seen")
        self.generator_name = counters.get("generator_name", "")
        stored = counters.get("assignment_seconds", ())
        self.assignment_seconds = Counter({float(seconds): count for seconds, count in stored})
        flight = state.get("async")
        if self.crowd is not None and flight:
            self.crowd.load_state_dict(flight["platform"])
            self.inflight = {
                (a, b): {slot: (worker, (a, b), bool(answer)) for slot, worker, answer in slots}
                for a, b, slots in flight.get("slot_votes", [])
            }
            self.starved = {(a, b) for a, b in flight.get("starved", [])}
