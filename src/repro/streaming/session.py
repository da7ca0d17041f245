"""The streaming incremental entity-resolution session.

:class:`StreamingResolver` keeps a resolution *session* open while record
batches arrive, maintaining every stage of the CrowdER pipeline
incrementally instead of recomputing it from scratch:

1. **Machine pass** — an :class:`~repro.streaming.incremental_join.IncrementalSimJoin`
   joins each batch against the persistent token/CSR index (new-vs-old plus
   new-vs-new only); resident pairs are never re-scored.
2. **Component maintenance** — every new candidate pair is a union in an
   :class:`~repro.graph.union_find.IncrementalUnionFind`; components touched
   by a new record or pair become *dirty*, all others stay *clean*.
3. **HIT regeneration** — only dirty components get new HITs, batched
   through the configured pair/cluster generator over exactly the pairs
   that need votes under the re-crowd policy; clean components (and, under
   ``"never"``, already-voted dirty pairs) keep the HITs and votes they
   already paid for.
4. **Crowdsourcing** — the platform runs in deterministic per-pair vote
   mode.  Under the default ``recrowd_policy="never"`` each pair is asked
   exactly once, the first time a HIT covers it; ``"dirty"`` re-asks every
   pair of a dirty component with a fresh vote round.
5. **Aggregation** — with ``streaming_aggregation_scope="component"`` only
   dirty components are re-aggregated and clean components keep their cached
   posteriors bit-for-bit — and when the aggregator declares itself
   ``pair_independent`` (majority), only the dirty *pairs* whose votes
   changed; ``"global"`` re-runs the aggregator over all
   accumulated votes (the mode that reproduces one-shot Dawid-Skene
   exactly, since EM shares worker confusion estimates globally).
6. **Snapshot** — the candidates are kept in rank order
   (:class:`~repro.core.ranking.RankedIndex`) and re-placed only for the
   pairs whose likelihood or posterior the event changed.

On top of arrivals the session supports **retraction and update**
(:meth:`StreamingResolver.retract` / :meth:`StreamingResolver.update`):
every pair's provenance is tracked in a
:class:`~repro.streaming.provenance.ProvenanceLedger`, so removing a record
invalidates exactly the provenance-reachable pairs and components — their
votes, posteriors and HIT coverage are discarded, the surviving members are
re-connected from their surviving edges, and only that dirty region is
re-aggregated; every clean component is untouched.

Sessions can also be made **durable** (``WorkflowConfig.checkpoint_dir``),
but not by this module: the class below is the event → delta state machine
and the crowd driver, and does no I/O of its own.  Every public event method
validates its arguments and hands the event to the session's
:class:`~repro.streaming.persistence.Durability`, which logs the intent,
calls back into :meth:`StreamingResolver.apply` and closes the event's
boundary (state rows, outcome and checkpoint cadence in one commit);
:meth:`StreamingResolver.save` and :meth:`StreamingResolver.restore` are
one-line delegations.  A restored session is **bit-identical** to one that
never stopped (see :mod:`repro.streaming.persistence`).

**Equivalence.**  Because set similarity is pairwise, the union of join
deltas equals the full-store join; because per-pair votes are a pure
function of the pair key, vote sets agree with a one-shot
:class:`~repro.core.workflow.HybridWorkflow` run in ``vote_mode="per-pair"``;
and because ranking is shared (:mod:`repro.core.ranking`), the final match
set is *identical* to batch resolution for any arrival order under
``recrowd_policy="never"`` (with majority aggregation in any scope, or
Dawid-Skene in ``"global"`` scope).  The property tests in
``tests/test_streaming.py`` assert this across randomized arrival orders,
and ``tests/test_persistence.py`` asserts the crash-recovery property
across randomized event schedules and crash points.
"""

from __future__ import annotations

import logging
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.aggregation.majority import Vote
from repro.core.config import WorkflowConfig
from repro.core.ranking import RankedIndex, rank_candidates
from repro.core.results import ResolutionResult, StreamingDelta
from repro.core.workflow import build_aggregator, build_hit_generator
from repro.crowd.async_platform import (
    AsyncCrowdPlatform,
    BackpressureError,
    VoteDelivery,
)
from repro.crowd.faults import FaultPlan
from repro.crowd.latency import LatencyModel
from repro.crowd.platform import SimulatedCrowdPlatform
from repro.crowd.pricing import PricingModel
from repro.crowd.qualification import QualificationTest
from repro.crowd.worker import WorkerPool
from repro.datasets.base import Dataset
from repro.graph.union_find import IncrementalUnionFind
from repro.records.pairs import PairSet, canonical_pair
from repro.records.record import Record, RecordError, RecordStore
from repro.streaming import persistence
from repro.streaming.incremental_join import IncrementalSimJoin
from repro.streaming.provenance import ProvenanceLedger

logger = logging.getLogger(__name__)

PairKey = Tuple[str, str]

#: StreamingDelta fields whose per-event values are meaningful to *sum*
#: across events — surfaced as ``streaming_<field>_total`` counters.
#: (``batch_index`` and the point-in-time gauges like ``clean_components``
#: are deliberately absent: summing them means nothing.)
DELTA_COUNTER_FIELDS = (
    "new_records",
    "new_candidate_pairs",
    "dirty_components",
    "dirty_pairs",
    "regenerated_hits",
    "crowdsourced_pairs",
    "reused_vote_pairs",
    "stale_skipped_components",
    "invalidated_pairs",
    "retracted_records",
)

#: ``snapshot()`` re-ranks from scratch once an event touched more than one
#: candidate in this many: past half, one sort is cheaper than the bisects
#: (Dawid-Skene over one giant dirty component moves every posterior).
RERANK_SHARE = 2


class StreamingResolver:
    """An open entity-resolution session over arriving record batches.

    Parameters
    ----------
    config:
        Workflow configuration.  The streaming-specific knobs are
        ``recrowd_policy``, ``streaming_aggregation_scope``,
        ``staleness_epsilon`` and ``stream_batch_size``; ``join_workers``
        shards the incremental machine pass across the shared process pool
        (``join_backend`` only applies to the batch join — a session always
        joins through the kernel);
        ``checkpoint_dir`` / ``checkpoint_every_batches`` /
        ``storage_backend`` make the session durable (one SQLite file: its
        state and its write-ahead log — :mod:`repro.streaming.persistence`);
        ``vote_mode`` is forced to ``"per-pair"``
        (the sequential mode cannot preserve votes across batches).
    cross_sources:
        Restrict candidates to cross-source pairs (record linkage).
    platform:
        Optional pre-built crowd platform; must be in per-pair vote mode.

    Lifecycle: call :meth:`add_batch` for every arrival (it returns a
    delta-aware :class:`~repro.core.results.ResolutionResult` snapshot),
    :meth:`retract` / :meth:`update` when a record is withdrawn or revised,
    :meth:`snapshot` at any point for the current state without new data,
    :meth:`save` to checkpoint and :meth:`restore` to resume a durable
    session after a crash or restart.
    """

    def __init__(
        self,
        config: Optional[WorkflowConfig] = None,
        cross_sources: Optional[Tuple[str, str]] = None,
        platform: Optional[SimulatedCrowdPlatform] = None,
        worker_pool: Optional[WorkerPool] = None,
        pricing: Optional[PricingModel] = None,
        latency: Optional[LatencyModel] = None,
        _durability: Optional[persistence.Durability] = None,
    ) -> None:
        self.config = config or WorkflowConfig()
        self.cross_sources = cross_sources
        obs.activate_if_configured(self.config)
        if platform is not None:
            if platform.vote_mode != "per-pair":
                raise ValueError(
                    "StreamingResolver requires a platform in 'per-pair' vote "
                    "mode; sequential votes cannot be preserved across batches"
                )
            self.platform = platform
        else:
            qualification = QualificationTest() if self.config.use_qualification_test else None
            self.platform = SimulatedCrowdPlatform(
                pool=worker_pool or WorkerPool.build(seed=self.config.seed),
                assignments_per_hit=self.config.assignments_per_hit,
                qualification=qualification,
                pricing=pricing,
                latency=latency,
                seed=self.config.seed,
                vote_mode="per-pair",
            )
        # Async crowd mode: the same deterministic per-pair platform, but
        # publishes enqueue HITs on a virtual clock and votes arrive through
        # per-event polls (with timeouts, retries, reissues, backpressure).
        self.crowd: Optional[AsyncCrowdPlatform] = None
        if self.config.crowd_mode == "async":
            self.crowd = AsyncCrowdPlatform(
                self.platform,
                vote_timeout=self.config.vote_timeout,
                max_inflight_hits=self.config.max_inflight_hits,
                backpressure_policy=self.config.backpressure_policy,
                max_retries=self.config.crowd_max_retries,
                backoff_ticks=self.config.crowd_backoff_ticks,
                fault_plan=(
                    FaultPlan.from_dict(self.config.fault_plan)
                    if self.config.fault_plan is not None
                    else None
                ),
            )
        # Degraded-progress bookkeeping (async mode): partially delivered
        # vote slots per in-flight pair, the vote round each pair was
        # published under, and pairs whose publish was shed by backpressure
        # (retried on the next crowd event and force-published at flush).
        # A pair enters the ledger only when all of its slots have arrived,
        # so sync-mode ledger/digest semantics are untouched.
        self._slot_votes: Dict[PairKey, Dict[int, Vote]] = {}
        self._inflight_rounds: Dict[PairKey, int] = {}
        self._starved_pairs: Set[PairKey] = set()
        # Durability (the store, its event log, the checkpoint cadence) is an
        # adaptor handed in by restore() or opened here for a fresh session;
        # all accumulated state lives behind its storage backend.
        fresh = _durability is None
        self.durability = _durability or persistence.Durability.create(
            self.config, cross_sources
        )
        self.storage = self.durability.storage
        self.join = IncrementalSimJoin(
            threshold=self.config.likelihood_threshold,
            attributes=self.config.similarity_attributes,
            cross_sources=cross_sources,
            workers=self.config.join_workers or None,
            storage=self.storage,
        )
        self.store = RecordStore(name="stream", backing=self.storage)
        self.components = IncrementalUnionFind()
        self.candidates = PairSet()
        self.provenance = ProvenanceLedger(backing=self.storage)
        # The ranked candidates, re-placed per touched pair by snapshot().
        self._ranking = RankedIndex(self.config.decision_threshold)
        # Ground truth, its per-record index, and how many of its pairs have
        # both records resident (the recall ceiling's denominator).
        self._truth: Set[PairKey] = set()
        self._truth_partners: Dict[str, List[str]] = {}
        self._arrived_truth = 0
        # Accumulated crowd workload across all batches.
        self._hit_count = 0
        self._cost = 0.0
        self._assignment_seconds: List[float] = []
        self._pairs_per_hit_seen: Optional[int] = None
        self._generator_name = ""
        self._batch_index = 0
        self._last_delta = StreamingDelta()
        # Fresh votes folded in by the most recent applied event (what an
        # outcome record carries and a replay verifies).
        self._last_fresh_votes: Dict[PairKey, List[Vote]] = {}
        if fresh:
            self.durability.attach(self)

    # ----------------------------------------------------------- hot ledger
    # The vote/posterior/coverage state lives in the storage backend's
    # PairLedger.  Reads stay plain dict access through these views (the
    # session's inner loops touch them constantly); every mutation goes
    # through a ledger *method*, which the SQLite backend overrides to
    # mirror the post-state into its tables.
    @property
    def _ledger(self):
        return self.storage.ledger

    @property
    def _votes(self) -> Dict[PairKey, List[Vote]]:
        """Per-pair votes in oracle order (ledger view)."""
        return self.storage.ledger.votes

    @property
    def _vote_rounds(self) -> Dict[PairKey, int]:
        """Completed crowd rounds per pair, 0 = never asked (ledger view)."""
        return self.storage.ledger.vote_rounds

    @property
    def _pending_votes(self) -> Dict[PairKey, int]:
        """Votes gained per pair since its last aggregation (ledger view).

        Drives the bounded-staleness check (``config.staleness_epsilon``);
        zeroed per pair on aggregation, so a cached posterior is never more
        than epsilon votes behind the ledger of its component.
        """
        return self.storage.ledger.pending_votes

    @property
    def _posteriors(self) -> Dict[PairKey, float]:
        """The aggregated posterior cache (ledger view)."""
        return self.storage.ledger.posteriors

    @property
    def _covered(self) -> Set[PairKey]:
        """Pairs covered by at least one published HIT (ledger view)."""
        return self.storage.ledger.covered

    # -------------------------------------------------------------- queries
    @property
    def record_count(self) -> int:
        """Number of resident records."""
        return len(self.store)

    @property
    def candidate_count(self) -> int:
        """Number of candidate pairs discovered so far."""
        return len(self.candidates)

    @property
    def events_applied(self) -> int:
        """Logged events reflected in the current state (0 if not durable)."""
        return self.durability.events_applied

    def votes_for(self, id_a: str, id_b: str) -> List[Vote]:
        """The current vote ledger entry of one pair (empty if never asked)."""
        return list(self._votes.get(canonical_pair(id_a, id_b), ()))

    def covered_pairs(self) -> FrozenSet[PairKey]:
        """Candidate pairs covered by at least one published HIT so far."""
        return frozenset(self._covered)

    def state_digest(self) -> str:
        """Exact digest of the aggregated state (posteriors, cost, HITs).

        Recorded with every event's outcome and re-checked during replay,
        so a restore that diverged from the original session by even one
        float bit is detected instead of silently trusted.
        """
        return persistence.state_digest(self._posteriors, self._cost, self._hit_count)

    # ------------------------------------------------------------------ api
    def add_truth(self, true_matches: Iterable[PairKey]) -> None:
        """Register ground-truth matching pairs for the simulated crowd.

        The simulated workers look answers up in this set; pairs may
        reference records that have not arrived yet.
        """
        pairs = sorted({canonical_pair(a, b) for a, b in true_matches})
        self.durability.run(self, "truth", pairs)

    def add_batch(
        self,
        records: Sequence[Record],
        true_matches: Optional[Iterable[PairKey]] = None,
    ) -> ResolutionResult:
        """Ingest a batch of new records and return the updated snapshot.

        Runs the incremental machine pass, dirties the touched components,
        regenerates and publishes HITs for them, folds fresh votes into the
        ledger, re-aggregates what changed and snapshots the session.  For
        durable sessions the batch is made durable before any state changes.
        """
        batch = list(records)
        seen_batch: Set[str] = set()
        for record in batch:
            if record.record_id in self.join or record.record_id in seen_batch:
                raise RecordError(f"duplicate record id: {record.record_id!r}")
            seen_batch.add(record.record_id)
        truth_pairs = (
            sorted({canonical_pair(a, b) for a, b in true_matches})
            if true_matches is not None
            else None
        )
        return self.durability.run(self, "batch", batch, truth_pairs)

    def retract(self, record_id: str) -> ResolutionResult:
        """Withdraw a resident record and re-resolve only what it touched.

        Provenance makes the blast radius exact: the record's pairs (and
        nothing else) are invalidated — dropped from the candidate set, the
        vote ledger, the posterior cache and the HIT coverage — its rows
        are tombstoned out of the columnar index, and the component it
        lived in is re-formed from the surviving edges.  Only the resulting
        dirty components are re-aggregated (bypassing the staleness filter:
        after a retraction the cached posteriors of the touched region are
        wrong, not merely stale); every clean component is untouched, which
        the returned ``delta`` reports (``retracted_records``,
        ``invalidated_pairs``, ``dirty_components`` vs
        ``clean_components``).

        Retraction never publishes HITs — surviving pairs keep the votes
        they already paid for.  Raises
        :class:`~repro.records.record.RecordError` for unknown ids.
        """
        if record_id not in self.store:
            raise RecordError(f"unknown record id: {record_id!r}")
        return self.durability.run(self, "retract", record_id)

    def update(self, record: Record) -> ResolutionResult:
        """Replace a resident record with a revised version.

        Equivalent to :meth:`retract` followed by ingesting the new version
        as a one-record batch (one event, not two): the
        old version's provenance-reachable pairs are invalidated, the new
        version is joined against the resident store, and the touched
        components are re-crowdsourced/re-aggregated under the configured
        re-crowd policy.  The returned delta carries both sides —
        ``retracted_records`` / ``invalidated_pairs`` from the retraction
        and the regular arrival counters from the re-ingest.
        """
        if record.record_id not in self.store:
            raise RecordError(f"unknown record id: {record.record_id!r}")
        return self.durability.run(self, "update", record)

    def flush(self) -> ResolutionResult:
        """Fold every staleness-deferred component into the posterior cache.

        Bounded-staleness aggregation (``config.staleness_epsilon``) can
        leave components whose pending vote gain never crossed the bound;
        ``flush`` re-aggregates each such component in full (the same unit
        ``_aggregate`` uses) and returns the settled snapshot.  A no-op
        when nothing is pending — e.g. with the default epsilon of 0.
        """
        return self.durability.run(self, "flush")

    def save(self, path: Optional[str] = None):
        """Checkpoint the session; returns the path of its store file.

        Brings the store under ``path`` (default: ``config.checkpoint_dir``)
        up to the session's state — see
        :meth:`repro.streaming.persistence.Durability.save`.
        """
        return self.durability.save(self, path)

    @classmethod
    def restore(
        cls,
        path: str,
        config: Optional[WorkflowConfig] = None,
        verify: bool = True,
        resume_journal: bool = True,
        platform: Optional[SimulatedCrowdPlatform] = None,
        worker_pool: Optional[WorkerPool] = None,
        pricing: Optional[PricingModel] = None,
        latency: Optional[LatencyModel] = None,
    ) -> "StreamingResolver":
        """Resume a durable session from its checkpoint directory.

        Pages in the directory's store and replays the logged events it
        has not seen — see :func:`repro.streaming.persistence.restore` for
        the algorithm, ``verify``, ``resume_journal`` and what a ``config``
        override does (a changed result-bearing field re-joins the stored
        records under the new configuration).
        """
        return persistence.restore(
            cls,
            path,
            config=config,
            verify=verify,
            resume_journal=resume_journal,
            platform=platform,
            worker_pool=worker_pool,
            pricing=pricing,
            latency=latency,
        )

    # ------------------------------------------------------- event appliers
    def apply(self, kind: str, *arguments):
        """Apply one event to the state machine: no log, no boundary.

        ``kind`` is an event name of :data:`repro.streaming.persistence.EVENTS`
        and ``arguments`` what the public method of that name validated — the
        one entry point a live event and a replayed one share.
        """
        return getattr(self, f"_apply_{kind}")(*arguments)

    def _apply_truth(self, pairs: Iterable[Sequence[str]]) -> None:
        for pair in pairs:
            key = (pair[0], pair[1])
            if key in self._truth:
                continue
            self._truth.add(key)
            self._truth_partners.setdefault(key[0], []).append(key[1])
            self._truth_partners.setdefault(key[1], []).append(key[0])
            if key[0] in self.store and key[1] in self.store:
                self._arrived_truth += 1

    def _resident_truth_partners(self, record_id: str) -> int:
        """How many truth pairs of ``record_id`` have their other record resident."""
        return sum(
            1
            for partner in self._truth_partners.get(record_id, ())
            if partner in self.store
        )

    def _apply_batch(
        self,
        batch: List[Record],
        truth_pairs: Optional[Iterable[Sequence[str]]],
    ) -> ResolutionResult:
        self._ingest(batch, truth_pairs)
        return self.snapshot()

    def _apply_retract(self, record_id: str) -> ResolutionResult:
        self._withdraw(record_id)
        return self.snapshot()

    def _apply_update(self, record: Record) -> ResolutionResult:
        # Both halves emit their own spans and delta counters (so an update
        # accounts as one retraction plus one arrival); only the event count
        # is recorded here.
        if obs.enabled():
            obs.inc("streaming_updates_total", 1,
                    help="Record update events (retract + re-ingest).")
        invalidated = self._withdraw(record.record_id).invalidated_pairs
        # The event's delta: the ingest counters plus the retraction's
        # invalidation stats.
        delta = self._ingest([record], None)
        delta.retracted_records = 1
        delta.invalidated_pairs = invalidated
        return self.snapshot()

    def _ingest(
        self,
        batch: List[Record],
        truth_pairs: Optional[Iterable[Sequence[str]]],
    ) -> StreamingDelta:
        """The arrival half of an event: everything but the snapshot."""
        if truth_pairs is not None:
            self._apply_truth(truth_pairs)
        self._batch_index += 1
        delta = StreamingDelta(batch_index=self._batch_index, new_records=len(batch))
        self._last_fresh_votes = {}
        logger.debug("batch %d: %d records arriving", self._batch_index, len(batch))

        with obs.span("streaming.batch", batch=len(batch), index=self._batch_index):
            # Stage 1: incremental machine pass.
            with obs.span("streaming.batch.join", batch=len(batch)):
                new_pairs = self.join.add_batch(batch)
                for record in batch:
                    self.store.add(record)
                    self._arrived_truth += self._resident_truth_partners(record.record_id)
                    self.components.add(record.record_id)
                    self.provenance.add_record(record.record_id)
            delta.new_candidate_pairs = len(new_pairs)

            # Stage 2: component maintenance (and pair provenance).
            with obs.span("streaming.batch.components", pairs=len(new_pairs)):
                for pair in new_pairs:
                    self.candidates.add(pair)
                    self._ledger.add_pair(pair.key, pair.likelihood)
                    self.components.union(pair.id_a, pair.id_b)
                    self.provenance.record_pair(pair.id_a, pair.id_b, self._batch_index)

                dirty_pairs = self._dirty_region(delta)

            # Stages 3 + 4: regenerate HITs for dirty components and crowdsource.
            if dirty_pairs or (self.crowd is not None and self._starved_pairs):
                with obs.span("streaming.batch.crowd", pairs=len(dirty_pairs)):
                    self._crowdsource_dirty(dirty_pairs, delta)

            # Stage 4b (async mode): poll the platform — one virtual tick per
            # event — and fold completed pairs into the ledger; their whole
            # components re-aggregate alongside the batch's own dirty region.
            completed_pairs: Set[PairKey] = set()
            if self.crowd is not None:
                completed_pairs = self._ingest_async(delta)

            # Stage 5: re-aggregate what changed.
            aggregate_pairs = dirty_pairs | self._expand_components(completed_pairs)
            with obs.span("streaming.batch.aggregate", pairs=len(aggregate_pairs)):
                self._aggregate(aggregate_pairs, delta)

            self.components.clear_dirty()
        self._last_delta = delta
        self._emit_delta_metrics(delta)
        return delta

    def _withdraw(self, record_id: str) -> StreamingDelta:
        """The retraction half of an event: everything but the snapshot."""
        self._batch_index += 1
        delta = StreamingDelta(batch_index=self._batch_index, retracted_records=1)
        self._last_fresh_votes = {}
        logger.debug("event %d: retracting record %s", self._batch_index, record_id)

        with obs.span("streaming.retract", index=self._batch_index):
            # Provenance bounds the blast radius: exactly the record's pairs.
            impact = self.provenance.retract_record(record_id)
            self.join.retract(record_id)
            self.store.remove(record_id)
            self._arrived_truth -= self._resident_truth_partners(record_id)
            for key in impact.dropped_pairs:
                self.candidates.discard(*key)
                self._ledger.drop_pair(key)
                # Async bookkeeping: a retracted pair's in-flight votes are
                # abandoned (late deliveries for it will be ignored on
                # ingest) and its shed publishes are cancelled.
                self._inflight_rounds.pop(key, None)
                self._slot_votes.pop(key, None)
                self._starved_pairs.discard(key)
            delta.invalidated_pairs = len(impact.dropped_pairs)

            # Re-form the dissolved component from the surviving edges; the
            # survivors come back dirty, everything else stays clean.
            survivors = self.components.detach([record_id])
            for survivor in survivors:
                for key in self.provenance.pairs_of(survivor):
                    self.components.union(key[0], key[1])

            dirty_pairs = self._dirty_region(delta)

            # No crowdsourcing: retraction only removes evidence.  Re-aggregate
            # the dirty region unconditionally — its cached posteriors are
            # invalid, not merely stale, so the epsilon filter must not apply.
            self._aggregate(dirty_pairs, delta, force=True)

            self.components.clear_dirty()
        self._last_delta = delta
        self._emit_delta_metrics(delta)
        return delta

    def _apply_flush(self) -> ResolutionResult:
        self._last_fresh_votes = {}
        with obs.span("streaming.flush"):
            if self.crowd is not None:
                # Settle the async crowd first: force-publish shed pairs,
                # drain every outstanding delivery (retries included) and
                # fold the completions into the ledger.  The completed
                # pairs gain pending votes, so the staleness flush below
                # re-aggregates their components.
                self._flush_async()
            pending = [
                key
                for key, gained in self._pending_votes.items()
                if gained > 0 and key in self._votes
            ]
            if pending:
                aggregator = build_aggregator(self.config)
                self._reaggregate(
                    aggregator,
                    pending
                    if aggregator.pair_independent
                    else self._votes.keys() & self._expand_components(pending),
                )
        return self.snapshot()

    def _emit_delta_metrics(self, delta: StreamingDelta) -> None:
        """Fold one event's delta counters into the metrics registry.

        Only the accumulable fields (``DELTA_COUNTER_FIELDS``) become
        counters; update events rely on their two halves emitting here, so
        this must be called exactly once per applied retract/batch half.
        """
        if not obs.enabled():
            return
        values = delta.as_dict()
        for name in DELTA_COUNTER_FIELDS:
            value = values.get(name, 0)
            if value:
                obs.inc(f"streaming_{name}_total", value,
                        help=f"Sum of StreamingDelta.{name} across events.")

    # ------------------------------------------------------------ internals
    def _crowdsource_dirty(self, dirty_pairs: Set[PairKey], delta: StreamingDelta) -> None:
        """Regenerate HITs for the dirty pairs that need votes; collect them.

        Under ``recrowd_policy="never"`` only the never-voted pairs of the
        dirty components are re-batched — already-voted pairs keep their
        ledger entry and cost nothing more; ``"dirty"`` re-batches (and
        re-asks) every dirty pair with a fresh vote round.

        In async mode pairs whose votes are already in flight are excluded
        (a pair has exactly one outstanding crowd round at a time) and
        pairs shed by backpressure on an earlier event are retried.
        """
        if self.config.recrowd_policy == "dirty":
            to_vote = set(dirty_pairs)
        else:  # "never": only pairs that have no completed round yet
            to_vote = dirty_pairs - self._vote_rounds.keys()
        delta.reused_vote_pairs = len((dirty_pairs - to_vote) & self._votes.keys())
        if self.crowd is not None:
            to_vote |= self._starved_pairs
            to_vote -= self._inflight_rounds.keys()
        if not to_vote:
            return
        self._publish_hits(to_vote, delta)

    def _publish_hits(
        self,
        to_vote: Set[PairKey],
        delta: Optional[StreamingDelta],
        force: bool = False,
    ) -> bool:
        """Batch ``to_vote`` into HITs and publish them to the crowd.

        Sync mode folds the returned votes into the ledger immediately;
        async mode registers the covered pairs as in-flight (their votes
        arrive through later polls) and returns ``False`` when the publish
        was shed by backpressure — the pairs are then parked in the starved
        backlog instead.
        """
        # Sorted-key order makes HIT grouping independent of arrival order.
        vote_set = PairSet(
            self.candidates.get(id_a, id_b) for id_a, id_b in sorted(to_vote)
        )
        batch_hits = build_hit_generator(self.config).generate(vote_set)
        rounds = {key: self._vote_rounds.get(key, 0) for key in to_vote}

        if self.crowd is not None:
            try:
                crowd_run = self.crowd.publish(
                    batch_hits,
                    true_matches=self._truth,
                    candidate_pairs=to_vote,
                    vote_rounds=rounds,
                    force=force,
                )
            except BackpressureError:
                self._starved_pairs |= to_vote
                logger.debug(
                    "event %d: backpressure shed %d pairs (%d HITs)",
                    self._batch_index, len(to_vote), batch_hits.hit_count,
                )
                return False
        else:
            crowd_run = self.platform.publish(
                batch_hits,
                true_matches=self._truth,
                candidate_pairs=to_vote,
                vote_rounds=rounds,
            )
        self._generator_name = batch_hits.generator_name
        self._ledger.mark_covered(batch_hits.covered_pairs())
        # Pair provenance: which HITs of which batch covered each pair.
        claimed: Set[PairKey] = set()
        for hit in batch_hits.hits:
            hit_id = f"b{self._batch_index}:{hit.hit_id}"
            covered_here = hit.checkable_pairs() & to_vote
            claimed |= covered_here
            for key in sorted(covered_here):
                self.provenance.record_coverage(key, hit_id)

        if self.crowd is not None:
            # Votes arrive later; only pairs actually carried by a HIT go
            # in flight (a pair no HIT covered stays unvoted, like sync).
            self._starved_pairs -= to_vote
            for key in claimed:
                self._inflight_rounds[key] = rounds[key]
                self._slot_votes.setdefault(key, {})
        else:
            fresh: Dict[PairKey, List[Vote]] = {}
            for vote in crowd_run.votes:
                fresh.setdefault(vote[1], []).append(vote)
            for key, votes in fresh.items():
                self._ledger.record_fresh_votes(key, votes)
                self.provenance.record_votes(
                    key, self._batch_index, rounds.get(key, 0), len(votes)
                )
            self._last_fresh_votes = fresh
            self._assignment_seconds.extend(crowd_run.assignment_seconds)
            self.storage.append_assignment_seconds(crowd_run.assignment_seconds)
            if delta is not None:
                delta.crowdsourced_pairs = len(fresh)

        self._hit_count += crowd_run.hit_count
        self._cost += crowd_run.cost
        if self.config.hit_type == "pair" and batch_hits.hits:
            largest = batch_hits.max_hit_size()
            if self._pairs_per_hit_seen is None or largest > self._pairs_per_hit_seen:
                self._pairs_per_hit_seen = largest
        if delta is not None:
            delta.regenerated_hits += crowd_run.hit_count
        return True

    # ------------------------------------------------------- async ingestion
    def _ingest_async(self, delta: StreamingDelta) -> Set[PairKey]:
        """One async crowd step: advance the virtual clock, ingest arrivals.

        Every applied batch event is one tick of the virtual clock; the
        deliveries that came due are folded into the per-pair vote slots,
        and pairs whose last slot arrived are committed to the ledger.
        Returns the completed pairs (the batch re-aggregates their
        components).
        """
        assert self.crowd is not None
        with obs.span(
            "crowd.await_votes",
            inflight=len(self._inflight_rounds),
            starved=len(self._starved_pairs),
        ):
            deliveries = self.crowd.poll(1)
        completed = self._ingest_deliveries(deliveries)
        self._cost += self.crowd.take_extra_cost()
        delta.crowdsourced_pairs = len(completed)
        return completed

    def _ingest_deliveries(self, deliveries: List[VoteDelivery]) -> Set[PairKey]:
        """Fold accepted deliveries into the vote slots; commit completions.

        A delivery's votes only count toward pairs still in flight at the
        round they were published under — late deliveries for retracted or
        superseded pairs are ignored (their content is content-addressed by
        (pair, round), so ignoring them loses nothing).  When a pair's
        every slot has arrived, its votes enter the ledger in slot order,
        which is exactly the per-pair oracle order a synchronous publish
        records — the source of the async == sync equivalence.
        """
        completed: Set[PairKey] = set()
        replication = self.platform.assignments_per_hit
        for delivery in deliveries:
            self._assignment_seconds.append(delivery.seconds)
            self.storage.append_assignment_seconds([delivery.seconds])
            for vote in delivery.votes:
                key = vote[1]
                round_index = delivery.pair_rounds.get(key, 0)
                if self._inflight_rounds.get(key) != round_index:
                    continue
                slots = self._slot_votes.setdefault(key, {})
                if delivery.slot in slots:
                    continue
                slots[delivery.slot] = vote
                if len(slots) == replication:
                    votes = [slots[slot] for slot in range(replication)]
                    self._ledger.record_fresh_votes(key, votes)
                    self.provenance.record_votes(
                        key, self._batch_index, round_index, len(votes)
                    )
                    self._last_fresh_votes[key] = votes
                    del self._slot_votes[key]
                    del self._inflight_rounds[key]
                    completed.add(key)
        return completed

    def _expand_components(self, completed: Iterable[PairKey]) -> Set[PairKey]:
        """All provenance pairs of the components the given pairs touch.

        Late votes re-aggregate only the affected components: each
        completion dirties exactly its component, mirroring how a batch
        arrival dirties the components it touches.
        """
        return self._pairs_of_components(
            {self.components.find(key[0]) for key in completed}
        )

    def _pairs_of_components(self, roots: Iterable[str]) -> Set[PairKey]:
        """Every provenance pair of the components with the given roots.

        Only those components are enumerated (their member lists are
        maintained by the union-find); all others cost nothing here.
        """
        pairs: Set[PairKey] = set()
        for root in roots:
            for member in self.components.members(root):
                pairs.update(self.provenance.pairs_of(member))
        return pairs

    def _dirty_region(self, delta: StreamingDelta) -> Set[PairKey]:
        """The pairs of every dirty component, counted into ``delta``."""
        dirty_roots = self.components.dirty_roots()
        dirty_pairs = self._pairs_of_components(dirty_roots)
        delta.dirty_components = len(dirty_roots)
        delta.clean_components = self.components.component_count - len(dirty_roots)
        delta.dirty_pairs = len(dirty_pairs)
        return dirty_pairs

    def _flush_async(self) -> Set[PairKey]:
        """Settle the async crowd completely: nothing in flight afterwards.

        Force-publishes the starved backlog past the backpressure window,
        then advances the virtual clock until every outstanding assignment
        (retries and reissues included) has delivered, ingesting as it
        goes.  Terminates for any fault plan because the plan's
        ``max_faulty_attempts`` bounds how long a slot can stay undelivered.
        """
        assert self.crowd is not None
        completed: Set[PairKey] = set()
        guard = 0
        while True:
            if self._starved_pairs:
                self._publish_hits(set(self._starved_pairs), None, force=True)
            deliveries = self.crowd.settle()
            completed |= self._ingest_deliveries(deliveries)
            self._cost += self.crowd.take_extra_cost()
            if not self._starved_pairs and not self._inflight_rounds:
                break
            guard += 1
            if guard > 1000:  # pragma: no cover - defensive
                raise RuntimeError("async crowd flush failed to settle")
        return completed

    def _aggregate(
        self,
        dirty_pairs: Set[PairKey],
        delta: StreamingDelta,
        force: bool = False,
    ) -> None:
        """Fold fresh votes into the posterior cache.

        ``force`` bypasses the bounded-staleness filter — used by
        retraction, where the dirty region's cached posteriors are invalid
        rather than merely stale.

        Under a ``pair_independent`` aggregator (majority) a voted pair
        with no pending votes already holds the posterior a re-run would
        give it, so only the dirty pairs that gained votes are re-run —
        and only they reach ``set_posterior``, the ranked index and a
        persistent store's mirror.
        """
        aggregator = build_aggregator(self.config)
        if self.config.streaming_aggregation_scope == "global":
            votes = self._ledger_votes(self._votes.keys())
            self._ledger.replace_posteriors(
                dict(aggregator.aggregate(votes)) if votes else {}
            )
            self._ledger.clear_all_pending()
            return
        # Component scope: only the dirty region is re-aggregated; posteriors
        # of clean components are carried over untouched.
        settled = self._posteriors.keys() & dirty_pairs
        delta.preserved_posterior_pairs = len(self._posteriors) - len(settled)
        voted_dirty = self._votes.keys() & dirty_pairs
        if not force:
            voted_dirty = self._drop_stale_components(voted_dirty, delta)
        if aggregator.pair_independent:
            voted_dirty = (voted_dirty & self._pending_votes.keys()) | (
                voted_dirty - settled
            )
        if voted_dirty:
            self._reaggregate(aggregator, voted_dirty)

    def _reaggregate(self, aggregator, keys: Iterable[PairKey]) -> None:
        """Run ``aggregator`` over the ledger votes of ``keys``; cache the posteriors."""
        keys = sorted(keys)
        for key, posterior in aggregator.aggregate(self._ledger_votes(keys)).items():
            self._ledger.set_posterior(key, posterior)
        self._ledger.clear_pending(keys)

    def _drop_stale_components(
        self, voted_dirty: Set[PairKey], delta: StreamingDelta
    ) -> Set[PairKey]:
        """Bounded-staleness filter (``config.staleness_epsilon``).

        A dirty component whose vote ledger gained fewer than
        ``staleness_epsilon`` new votes *since its last aggregation* keeps
        its cached posteriors instead of paying another aggregator run.
        The pending counts accumulate across batches and are zeroed when a
        component is aggregated, so a cached posterior is never more than
        epsilon votes behind the ledger — the staleness really is bounded.
        The default epsilon of 0 disables the filter (every dirty component
        is re-aggregated, the exact pre-existing behavior).
        """
        epsilon = self.config.staleness_epsilon
        if epsilon <= 0 or not voted_dirty:
            return voted_dirty
        by_root: Dict[str, int] = {}
        for key in voted_dirty:
            root = self.components.find(key[0])
            by_root[root] = by_root.get(root, 0) + self._pending_votes.get(key, 0)
        stale_roots = {root for root, gained in by_root.items() if gained < epsilon}
        delta.stale_skipped_components = len(stale_roots)
        if not stale_roots:
            return voted_dirty
        return {
            key
            for key in voted_dirty
            if self.components.find(key[0]) not in stale_roots
        }

    def _ledger_votes(self, keys: Iterable[PairKey]) -> List[Vote]:
        """Ledger votes for the given pairs, sorted by pair key.

        Sorted-key order with per-pair oracle order inside reproduces the
        exact vote sequence a one-shot per-pair publish emits, which keeps
        Dawid-Skene EM bit-identical between streaming and batch runs.
        """
        votes: List[Vote] = []
        for key in sorted(set(keys)):
            votes.extend(self._votes.get(key, ()))
        return votes

    def snapshot(self) -> ResolutionResult:
        """The current resolution state as a delta-aware result object.

        Costs what changed since the previous snapshot: the ranked index is
        updated for the pairs the ledger reports touched and everything
        else is a copy.  When the ledger cannot say what changed, or it is
        a large share of the candidates, the order comes from
        :func:`~repro.core.ranking.rank_candidates` instead.
        """
        ledger = self._ledger
        # The join scores every pair it reports, so the ledger's
        # likelihoods are floats and the copy needs no None -> 0.0 pass.
        likelihoods: Dict[PairKey, float] = dict(ledger.pairs)
        posteriors = dict(ledger.posteriors)
        ranking = self._ranking
        touched = ledger.take_touched()
        if touched is None or len(touched) * RERANK_SHARE > len(likelihoods):
            ranked, matches = rank_candidates(
                likelihoods, posteriors, self.config.decision_threshold
            )
            ranking.load(ranked, likelihoods, posteriors)
        else:
            for key in touched:
                if key in likelihoods:
                    ranking.put(key, likelihoods[key], posteriors.get(key))
                else:
                    ranking.discard(key)
            ranked, matches = ranking.ranked(), ranking.matches()
        # A candidate's records are resident, so the truth pairs that
        # survived pruning are the truth pairs that are candidates.
        recall_ceiling = None
        if self._arrived_truth:
            recall_ceiling = len(self._truth & ledger.pairs.keys()) / self._arrived_truth
        latency = self.platform.latency.estimate(
            self._assignment_seconds,
            hit_type=self.config.hit_type,
            pairs_per_hit=self._pairs_per_hit_seen,
            qualification=self.platform.qualification is not None,
        )
        return ResolutionResult(
            ranked_pairs=ranked,
            matches=matches,
            posteriors=posteriors,
            likelihoods=likelihoods,
            candidate_count=len(self.candidates),
            hit_count=self._hit_count,
            assignment_count=len(self._assignment_seconds),
            cost=self._cost,
            latency=latency,
            recall_ceiling=recall_ceiling,
            generator_name=self._generator_name,
            delta=self._last_delta,
        )


def resolve_stream(
    dataset: Dataset,
    config: Optional[WorkflowConfig] = None,
    batch_size: Optional[int] = None,
    arrival_order: Optional[Sequence[str]] = None,
    **resolver_kwargs,
) -> ResolutionResult:
    """Replay a dataset through a streaming session batch by batch.

    Records arrive in store order (or ``arrival_order``, a permutation of
    record ids) in chunks of ``batch_size`` (default:
    ``config.stream_batch_size``); the full ground truth is registered up
    front so the simulated crowd can answer.  Returns the final snapshot —
    under ``recrowd_policy="never"`` its match set equals a one-shot
    ``HybridWorkflow(config).resolve(dataset)`` with per-pair votes.
    """
    config = config or WorkflowConfig()
    size = batch_size or config.stream_batch_size
    resolver = StreamingResolver(
        config=config, cross_sources=dataset.cross_sources, **resolver_kwargs
    )
    resolver.add_truth(dataset.ground_truth)
    if arrival_order is None:
        records = list(dataset.store)
    else:
        records = [dataset.store.get(record_id) for record_id in arrival_order]
        if len(records) != len(dataset.store):
            raise ValueError("arrival_order must cover every record exactly once")
    try:
        result = resolver.snapshot()
        for start in range(0, len(records), size):
            result = resolver.add_batch(records[start : start + size])
        return result
    finally:
        resolver.durability.close()
