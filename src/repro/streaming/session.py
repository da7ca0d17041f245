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
   posteriors bit-for-bit; ``"global"`` re-runs the aggregator over all
   accumulated votes (the mode that reproduces one-shot Dawid-Skene
   exactly, since EM shares worker confusion estimates globally).

On top of arrivals the session supports **retraction and update**
(:meth:`StreamingResolver.retract` / :meth:`StreamingResolver.update`):
every pair's provenance is tracked in a
:class:`~repro.streaming.provenance.ProvenanceLedger`, so removing a record
invalidates exactly the provenance-reachable pairs and components — their
votes, posteriors and HIT coverage are discarded, the surviving members are
re-connected from their surviving edges, and only that dirty region is
re-aggregated; every clean component is untouched.

Sessions can also be made **durable**: with
``WorkflowConfig.checkpoint_dir`` set, every event (batch, truth,
retraction, update, flush) is written to an fsynced write-ahead journal
*before* it is applied, fresh crowd votes and a state digest are journaled
after, and a compacted snapshot is written every
``checkpoint_every_batches`` events.  :meth:`StreamingResolver.save` forces
a snapshot; :meth:`StreamingResolver.restore` rebuilds a session from the
newest snapshot plus the journal tail, with results **bit-identical** to a
session that never stopped (see :mod:`repro.streaming.persistence`).

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
from dataclasses import asdict, replace
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.aggregation.majority import Vote
from repro.core.config import WorkflowConfig
from repro.core.ranking import rank_candidates
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
from repro.records.pairs import PairSet, RecordPair, canonical_pair
from repro.records.record import Record, RecordError, RecordStore
from repro.storage import STORE_FILENAME, SqliteStore, open_store
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

#: Config fields that change *what a session computes* (as opposed to how
#: fast or how durably).  Restoring a checkpoint under a config that
#: differs on any of these cannot be bit-identical, so restore() re-joins:
#: it harvests the records and truth from the old session, archives the
#: old artifacts and re-ingests everything under the new config.
RESULT_CONFIG_FIELDS = (
    "likelihood_threshold",
    "similarity_attributes",
    "hit_type",
    "cluster_size",
    "pairs_per_hit",
    "cluster_generator",
    "packing_method",
    "assignments_per_hit",
    "use_qualification_test",
    "aggregation",
    "decision_threshold",
    "recrowd_policy",
    "streaming_aggregation_scope",
    "staleness_epsilon",
    # The async crowd knobs are result-bearing because retry reissues cost
    # real (simulated) money: a different timeout/backoff/fault schedule
    # yields a different accumulated cost, and cost is part of the digest.
    "crowd_mode",
    "vote_timeout",
    "max_inflight_hits",
    "backpressure_policy",
    "crowd_max_retries",
    "crowd_backoff_ticks",
    "fault_plan",
    "seed",
)

#: Fields a stored configuration (snapshot, journal ``session`` event or
#: sqlite meta) written by an earlier release may still carry.  The knobs
#: are gone — ``join_pool`` selected a fork-per-batch pool that no longer
#: exists — so restore drops them instead of failing on an unknown field.
RETIRED_CONFIG_FIELDS = ("join_pool",)


class StreamingResolver:
    """An open entity-resolution session over arriving record batches.

    Parameters
    ----------
    config:
        Workflow configuration.  The streaming-specific knobs are
        ``recrowd_policy``, ``streaming_aggregation_scope``,
        ``staleness_epsilon`` and ``stream_batch_size``; ``join_workers``
        shards the incremental machine pass across the shared process pool
        (``join_backend`` only selects the batch engine — a session always
        joins through the CSR kernel);
        ``checkpoint_dir`` / ``checkpoint_every_batches`` make the session
        durable (write-ahead journal plus periodic snapshots);
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
        _resume_storage: bool = False,
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
        # Storage backend: every piece of accumulated state lives behind
        # it.  The memory backend is the pre-existing in-process state;
        # the sqlite backend mirrors each event into one WAL-mode file
        # (committed per event), which makes restore a page-in.
        storage_path = self.config.storage_path
        if (
            self.config.storage_backend == "sqlite"
            and storage_path is None
            and self.config.checkpoint_dir
        ):
            storage_path = str(Path(self.config.checkpoint_dir) / STORE_FILENAME)
        self.storage = open_store(self.config.storage_backend, storage_path)
        if (
            self.storage.persistent
            and not _resume_storage
            and self.storage.get_meta("version") is not None
        ):
            raise persistence.PersistenceError(
                f"store {storage_path} already holds a session; "
                "use StreamingResolver.restore() to resume it"
            )
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
        self._truth: Set[PairKey] = set()
        # Accumulated crowd workload across all batches.
        self._hit_count = 0
        self._cost = 0.0
        self._assignment_seconds: List[float] = []
        self._pairs_per_hit_seen: Optional[int] = None
        self._generator_name = ""
        self._batch_index = 0
        self._last_delta = StreamingDelta()
        # Fresh votes folded in by the most recent applied event (journaled
        # by the commit outcome record and verified during replay).  ``None``
        # is the page-in sentinel: a session rebuilt from a persistent store
        # cannot know which votes its last event folded in, so the first
        # replayed commit record is verified by digest only.
        self._last_fresh_votes: Optional[Dict[PairKey, List[Vote]]] = {}
        # Durability: write-ahead journal + snapshot cadence.
        self._journal: Optional[persistence.SessionJournal] = None
        self._events_applied = 0
        self._mutations_since_snapshot = 0
        self._replaying = False
        if self.config.checkpoint_dir:
            directory = Path(self.config.checkpoint_dir)
            journal = persistence.SessionJournal(
                directory, segment_events=self.config.journal_segment_events
            )
            if persistence.load_latest_snapshot(directory) is not None or journal.event_count:
                raise persistence.PersistenceError(
                    f"checkpoint directory {directory} already holds a session; "
                    "use StreamingResolver.restore() to resume it"
                )
            self._journal = journal
            self._journal_intent(
                "session",
                {
                    "version": persistence.FORMAT_VERSION,
                    "config": self._config_payload(),
                    "cross_sources": list(cross_sources) if cross_sources else None,
                },
            )
        if self.storage.persistent and not _resume_storage:
            self._mirror_config_meta()
            self._mirror_session_meta()
            self.storage.commit()

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
        """Journal events reflected in the current state (0 if not durable)."""
        return self._events_applied

    def votes_for(self, id_a: str, id_b: str) -> List[Vote]:
        """The current vote ledger entry of one pair (empty if never asked)."""
        return list(self._votes.get(canonical_pair(id_a, id_b), ()))

    def covered_pairs(self) -> FrozenSet[PairKey]:
        """Candidate pairs covered by at least one published HIT so far."""
        return frozenset(self._covered)

    def state_digest(self) -> str:
        """Exact digest of the aggregated state (posteriors, cost, HITs).

        Journaled by every commit record and re-checked during replay, so a
        restore that diverged from the original session by even one float
        bit is detected instead of silently trusted.
        """
        return persistence.state_digest(self._posteriors, self._cost, self._hit_count)

    # ------------------------------------------------------------------ api
    def add_truth(self, true_matches: Iterable[PairKey]) -> None:
        """Register ground-truth matching pairs for the simulated crowd.

        The simulated workers look answers up in this set; pairs may
        reference records that have not arrived yet.
        """
        pairs = sorted({canonical_pair(a, b) for a, b in true_matches})
        self._journal_intent("truth", {"pairs": [list(pair) for pair in pairs]})
        self._apply_truth(pairs)
        self._finish_event()
        if self._journal is not None and not self._replaying:
            self._journal.release_applied(self._events_applied)

    def add_batch(
        self,
        records: Sequence[Record],
        true_matches: Optional[Iterable[PairKey]] = None,
    ) -> ResolutionResult:
        """Ingest a batch of new records and return the updated snapshot.

        Runs the incremental machine pass, dirties the touched components,
        regenerates and publishes HITs for them, folds fresh votes into the
        ledger, re-aggregates what changed and snapshots the session.  For
        durable sessions the batch is journaled before any state changes.
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
        payload: Dict[str, object] = {
            "records": [persistence.encode_record(record) for record in batch]
        }
        if truth_pairs is not None:
            payload["truth"] = [list(pair) for pair in truth_pairs]
        self._journal_intent("batch", payload)
        result = self._apply_batch(batch, truth_pairs)
        self._finish_event()
        self._journal_commit()
        self._maybe_autosave()
        return result

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
        self._journal_intent("retract", {"record_id": record_id})
        result = self._apply_retract(record_id)
        self._finish_event()
        self._journal_commit()
        self._maybe_autosave()
        return result

    def update(self, record: Record) -> ResolutionResult:
        """Replace a resident record with a revised version.

        Equivalent to :meth:`retract` followed by ingesting the new version
        as a one-record batch (journaled as a single ``update`` event): the
        old version's provenance-reachable pairs are invalidated, the new
        version is joined against the resident store, and the touched
        components are re-crowdsourced/re-aggregated under the configured
        re-crowd policy.  The returned delta carries both sides —
        ``retracted_records`` / ``invalidated_pairs`` from the retraction
        and the regular arrival counters from the re-ingest.
        """
        if record.record_id not in self.store:
            raise RecordError(f"unknown record id: {record.record_id!r}")
        self._journal_intent("update", {"record": persistence.encode_record(record)})
        result = self._apply_update(record)
        self._finish_event()
        self._journal_commit()
        self._maybe_autosave()
        return result

    def flush(self) -> ResolutionResult:
        """Fold every staleness-deferred component into the posterior cache.

        Bounded-staleness aggregation (``config.staleness_epsilon``) can
        leave components whose pending vote gain never crossed the bound;
        ``flush`` re-aggregates each such component in full (the same unit
        ``_aggregate`` uses) and returns the settled snapshot.  A no-op
        when nothing is pending — e.g. with the default epsilon of 0.
        """
        self._journal_intent("flush", {})
        result = self._apply_flush()
        self._finish_event()
        self._journal_commit()
        self._maybe_autosave()
        return result

    # ------------------------------------------------------- event appliers
    def _apply_truth(self, pairs: Iterable[Sequence[str]]) -> None:
        self._truth.update((pair[0], pair[1]) for pair in pairs)
        if self.storage.persistent:
            self.storage.set_meta(
                "truth", sorted(list(pair) for pair in self._truth)
            )

    def _apply_batch(
        self,
        batch: List[Record],
        truth_pairs: Optional[Iterable[Sequence[str]]],
    ) -> ResolutionResult:
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

                # Only dirty components are enumerated (their member lists
                # are maintained by the union-find); clean components cost
                # nothing here.
                dirty_roots = self.components.dirty_roots()
                dirty_pairs: Set[PairKey] = set()
                for root in dirty_roots:
                    for member in self.components.members(root):
                        dirty_pairs.update(self.provenance.pairs_of(member))
            delta.dirty_components = len(dirty_roots)
            delta.clean_components = self.components.component_count - len(dirty_roots)
            delta.dirty_pairs = len(dirty_pairs)

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
        return self.snapshot()

    def _apply_retract(self, record_id: str) -> ResolutionResult:
        self._batch_index += 1
        delta = StreamingDelta(batch_index=self._batch_index, retracted_records=1)
        self._last_fresh_votes = {}
        logger.debug("event %d: retracting record %s", self._batch_index, record_id)

        with obs.span("streaming.retract", index=self._batch_index):
            # Provenance bounds the blast radius: exactly the record's pairs.
            impact = self.provenance.retract_record(record_id)
            self.join.retract(record_id)
            self.store.remove(record_id)
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

            dirty_roots = self.components.dirty_roots()
            dirty_pairs: Set[PairKey] = set()
            for root in dirty_roots:
                for member in self.components.members(root):
                    dirty_pairs.update(self.provenance.pairs_of(member))
            delta.dirty_components = len(dirty_roots)
            delta.clean_components = self.components.component_count - len(dirty_roots)
            delta.dirty_pairs = len(dirty_pairs)

            # No crowdsourcing: retraction only removes evidence.  Re-aggregate
            # the dirty region unconditionally — its cached posteriors are
            # invalid, not merely stale, so the epsilon filter must not apply.
            self._aggregate(dirty_pairs, delta, force=True)

            self.components.clear_dirty()
        self._last_delta = delta
        self._emit_delta_metrics(delta)
        return self.snapshot()

    def _apply_update(self, record: Record) -> ResolutionResult:
        # Both halves emit their own spans and delta counters (so an update
        # accounts as one retraction plus one arrival); only the event count
        # is recorded here.
        if obs.enabled():
            obs.inc("streaming_updates_total", 1,
                    help="Record update events (retract + re-ingest).")
        self._apply_retract(record.record_id)
        invalidated = self._last_delta.invalidated_pairs
        self._apply_batch([record], None)
        # Merge both halves into the event's delta: the ingest counters plus
        # the retraction's invalidation stats.
        self._last_delta.retracted_records = 1
        self._last_delta.invalidated_pairs = invalidated
        return self.snapshot()

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
                roots = {self.components.find(key[0]) for key in pending}
                keys: Set[PairKey] = set()
                for root in roots:
                    for member in self.components.members(root):
                        keys.update(self.provenance.pairs_of(member))
                voted = [key for key in sorted(keys) if key in self._votes]
                aggregator = build_aggregator(self.config)
                for key, posterior in aggregator.aggregate(
                    self._ledger_votes(voted)
                ).items():
                    self._ledger.set_posterior(key, posterior)
                self._ledger.clear_pending(voted)
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

    # ----------------------------------------------------------- durability
    def _config_payload(self) -> Dict[str, object]:
        payload = asdict(self.config)
        if payload.get("similarity_attributes") is not None:
            payload["similarity_attributes"] = list(payload["similarity_attributes"])
        return payload

    def _mirror_config_meta(self) -> None:
        """Write the session-identifying metadata into a persistent store."""
        self.storage.set_meta("version", persistence.FORMAT_VERSION)
        self.storage.set_meta("config", self._config_payload())
        self.storage.set_meta(
            "cross_sources", list(self.cross_sources) if self.cross_sources else None
        )
        self.storage.set_meta("truth", sorted(list(pair) for pair in self._truth))

    def _mirror_session_meta(self) -> None:
        """Mirror the crowd-workload counters and the journal position."""
        self.storage.set_meta(
            "session",
            {
                "hit_count": self._hit_count,
                "cost": self._cost,
                "batch_index": self._batch_index,
                "pairs_per_hit_seen": self._pairs_per_hit_seen,
                "generator_name": self._generator_name,
                "last_delta": self._last_delta.as_dict(),
            },
        )
        self.storage.set_meta("async", self._async_state_dict())
        self.storage.set_meta("events_applied", self._events_applied)

    def _finish_event(self) -> None:
        """Event boundary of a persistent store: counters plus one commit.

        All mirrored writes since the last boundary form one transaction;
        committing here means a crash mid-event rolls the store back to the
        previous event and the journal replays the interrupted one.
        """
        if not self.storage.persistent:
            return
        self._mirror_session_meta()
        if obs.enabled():
            # Mirror the live metrics snapshot so `repro stats --store` can
            # build a cost report from the store alone.  Purely additive
            # meta — restore and the state digest never read it.
            snapshot = obs.snapshot()
            if snapshot is not None:
                self.storage.set_meta("metrics", snapshot.to_dict())
        self.storage.commit()

    def _journal_intent(self, event_type: str, payload: Dict[str, object]) -> None:
        """Write-ahead rule: record the intent before touching state."""
        if self._journal is None or self._replaying:
            return
        self._events_applied = self._journal.append(event_type, payload)

    def _journal_commit(self) -> None:
        """Record an applied event's outcome: fresh votes, delta, digest."""
        if self._journal is None or self._replaying:
            return
        payload = {
            "delta": self._last_delta.as_dict(),
            "votes": [
                [key[0], key[1], persistence.encode_votes(votes)]
                for key, votes in sorted(self._last_fresh_votes.items())
            ],
            "digest": self.state_digest(),
        }
        self._events_applied = self._journal.append("commit", payload)
        # Applied events are never re-read from this live instance (restore
        # re-scans the files), so their payloads need not stay resident.
        self._journal.release_applied(self._events_applied)

    def _maybe_autosave(self) -> None:
        if self._journal is None or self._replaying:
            return
        every = self.config.checkpoint_every_batches
        self._mutations_since_snapshot += 1
        if every > 0 and self._mutations_since_snapshot >= every:
            self.save()

    def save(self, path: Optional[str] = None) -> Path:
        """Checkpoint the session and retire the journal it covers.

        With the in-memory backend this writes a compacted snapshot of the
        full session state: self-contained (it embeds the config), written
        atomically, tagged with the journal position it reflects — restoring
        loads it and replays only the journal tail.  ``path`` defaults to
        ``config.checkpoint_dir``.

        With a persistent storage backend there is nothing to snapshot —
        the store already holds every committed event — so ``save()``
        commits the store and returns its path instead.

        Either way, closed journal segments fully covered by the checkpoint
        are archived (:meth:`~repro.streaming.persistence.SessionJournal.compact_covered`),
        so the journal directory stops growing without bound.  Returns the
        snapshot (or store) path.
        """
        directory = Path(path) if path is not None else (
            Path(self.config.checkpoint_dir) if self.config.checkpoint_dir else None
        )
        if self.storage.persistent:
            self.storage.commit()
            if (
                directory is not None
                and self._journal is not None
                and directory == self._journal.directory
            ):
                self._mutations_since_snapshot = 0
                self._journal.compact_covered(
                    int(self.storage.get_meta("events_applied", 0))
                )
            return Path(self.storage.path)
        if directory is None:
            raise persistence.PersistenceError(
                "save() needs a path (or config.checkpoint_dir to be set)"
            )
        target = persistence.write_snapshot(
            directory, self.state_dict(), self._events_applied
        )
        if self._journal is not None and directory == self._journal.directory:
            self._mutations_since_snapshot = 0
            self._journal.compact_covered(self._events_applied)
        return target

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

        Loads the newest readable snapshot (if any) and replays the journal
        events it has not seen, re-deriving crowd votes through the
        deterministic per-pair oracle.  With ``verify`` (default) every
        replayed event is checked against its journaled ``commit`` record —
        vote-for-vote and digest-for-digest — so silent divergence raises
        :class:`~repro.streaming.persistence.JournalCorruptionError`
        instead of propagating.  The restored session is bit-identical to
        one that processed the same events without stopping, and (with
        ``resume_journal``) keeps journaling to the same directory.

        ``config`` overrides the stored configuration.  When the override
        differs on a field that changes *what the session computes* (see
        ``RESULT_CONFIG_FIELDS``), a bit-identical resume is impossible —
        instead of refusing, restore archives the old artifacts and
        **re-joins**: the stored records and truth are re-ingested from
        scratch under the new configuration (a fresh durable session in the
        same directory).
        """
        directory = Path(path)
        snapshot = persistence.load_latest_snapshot(directory)
        journal = (
            persistence.SessionJournal(directory)
            if persistence.journal_present(directory)
            else None
        )
        events = journal.events() if journal is not None else []
        store_path = directory / STORE_FILENAME
        store_config: Optional[Dict[str, object]] = None
        store_cross: Optional[Sequence[str]] = None
        if store_path.exists():
            probe = SqliteStore(store_path)
            try:
                store_config = probe.get_meta("config")  # type: ignore[assignment]
                store_cross = probe.get_meta("cross_sources")  # type: ignore[assignment]
            finally:
                probe.close()
        if snapshot is None and not events and store_config is None:
            raise persistence.PersistenceError(
                f"{directory} contains neither a snapshot, a journal nor a store"
            )

        state: Optional[Dict[str, object]] = None
        applied = 0
        stored_config: Optional[Dict[str, object]] = None
        cross_sources: Optional[Sequence[str]] = None
        if snapshot is not None:
            state, applied = snapshot
            stored_config = state["config"]  # type: ignore[assignment]
            cross_sources = state["cross_sources"]  # type: ignore[assignment]
        elif events and events[0].type == "session":
            stored_config = events[0].payload["config"]  # type: ignore[assignment]
            cross_sources = events[0].payload["cross_sources"]  # type: ignore[assignment]
        elif store_config is not None:
            stored_config = store_config
            cross_sources = store_cross
        if config is None:
            if stored_config is None:
                raise persistence.PersistenceError(
                    "no stored configuration found; pass config= explicitly"
                )
            config = WorkflowConfig(
                **{
                    name: value
                    for name, value in stored_config.items()
                    if name not in RETIRED_CONFIG_FIELDS
                }
            )
        elif stored_config is not None and cls._result_config_changed(
            config, stored_config
        ):
            return cls._restore_rejoin(
                directory,
                config,
                platform=platform,
                worker_pool=worker_pool,
                pricing=pricing,
                latency=latency,
            )

        resolver_config = replace(config, checkpoint_dir=None)
        if config.storage_backend == "sqlite" and config.storage_path is None:
            resolver_config = replace(resolver_config, storage_path=str(store_path))
        resolver = cls(
            config=resolver_config,
            cross_sources=tuple(cross_sources) if cross_sources else None,  # type: ignore[arg-type]
            platform=platform,
            worker_pool=worker_pool,
            pricing=pricing,
            latency=latency,
            _resume_storage=True,
        )
        # A persistent store that already holds the session wins over any
        # snapshot: it is committed per event, so it is always at least as
        # recent, and paging it in skips unpickling the whole state.
        if resolver.storage.persistent and resolver.storage.get_meta("version") is not None:
            resolver._page_in()
            applied = resolver._events_applied
        elif state is not None:
            resolver.load_state_dict(state)
            resolver._events_applied = applied

        resolver._replaying = True
        try:
            with obs.span("streaming.restore", events=len(events), applied=applied):
                for event in events:
                    if event.seq <= applied:
                        continue
                    resolver._apply_journal_event(event, verify=verify)
                    resolver._events_applied = event.seq
        finally:
            resolver._replaying = False
        logger.info(
            "restored session from %s at event %d", directory, resolver._events_applied
        )
        if resolver._last_fresh_votes is None:
            resolver._last_fresh_votes = {}

        if resume_journal:
            resolver.config = replace(resolver_config, checkpoint_dir=str(directory))
        else:
            resolver.config = replace(resolver_config, checkpoint_dir=None)
        if resolver.storage.persistent:
            resolver._mirror_config_meta()
        resolver._finish_event()
        if resume_journal:
            if journal is None:
                journal = persistence.SessionJournal(
                    directory,
                    start_seq=resolver._events_applied + 1,
                    segment_events=config.journal_segment_events,
                )
            else:
                journal.set_segment_events(config.journal_segment_events)
            resolver._journal = journal
        return resolver

    @staticmethod
    def _result_config_changed(
        new: WorkflowConfig, stored: Dict[str, object]
    ) -> bool:
        """True when ``new`` differs from ``stored`` on a result-bearing field."""
        payload = asdict(new)

        def norm(value: object) -> object:
            return list(value) if isinstance(value, (list, tuple)) else value

        return any(
            norm(payload.get(name)) != norm(stored.get(name))
            for name in RESULT_CONFIG_FIELDS
        )

    @classmethod
    def _restore_rejoin(
        cls,
        directory: Path,
        config: WorkflowConfig,
        platform: Optional[SimulatedCrowdPlatform] = None,
        worker_pool: Optional[WorkerPool] = None,
        pricing: Optional[PricingModel] = None,
        latency: Optional[LatencyModel] = None,
    ) -> "StreamingResolver":
        """Restore under a *changed* result config: harvest, archive, re-join.

        The old session is restored under its own stored configuration
        (digest verification still applies) just long enough to harvest its
        records, ground truth and source restriction; its artifacts —
        journal, segments, snapshots, store — move to
        ``archive/rejoin-<events>/``; then a fresh durable session in the
        same directory re-ingests everything under the new configuration in
        ``stream_batch_size`` chunks.
        """
        old = cls.restore(str(directory), verify=True, resume_journal=False)
        records = list(old.store)
        truth = sorted(old._truth)
        cross_sources = old.cross_sources
        applied = old._events_applied
        old.storage.close()

        bucket = directory / persistence.ARCHIVE_DIRNAME / f"rejoin-{applied:012d}"
        bucket.mkdir(parents=True, exist_ok=True)
        for item in sorted(directory.iterdir()):
            name = item.name
            if (
                name == persistence.JOURNAL_FILENAME
                or persistence.SEGMENT_PATTERN.match(name)
                or persistence.SNAPSHOT_PATTERN.match(name)
                or name == STORE_FILENAME
                or name.startswith(STORE_FILENAME + "-")
            ):
                item.replace(bucket / name)

        resolver = cls(
            config=replace(config, checkpoint_dir=str(directory)),
            cross_sources=cross_sources,
            platform=platform,
            worker_pool=worker_pool,
            pricing=pricing,
            latency=latency,
        )
        if truth:
            resolver.add_truth(truth)
        size = max(1, config.stream_batch_size)
        for start in range(0, len(records), size):
            resolver.add_batch(records[start : start + size])
        return resolver

    def _page_in(self) -> None:
        """Rebuild the session from a persistent store's committed state.

        The inverse of the per-event mirror writes: records and the ledger
        are already resident (the store loads its ledger dicts on open),
        so this re-derives only the in-process structures — the join
        substrate from its stored rows/vocabulary/CSR chunks, provenance
        from its table, candidates from the pair ledger, and the union-find
        forest from record arrival order plus the pair edges (roots only
        serve as grouping keys, so the rebuilt forest is behaviorally
        equivalent to the original).
        """
        storage = self.storage
        with obs.span("storage.page_in"):
            truth = storage.get_meta("truth") or []
            self._truth = {(pair[0], pair[1]) for pair in truth}
            self.join = IncrementalSimJoin.from_store(
                storage,
                threshold=self.config.likelihood_threshold,
                attributes=self.config.similarity_attributes,
                cross_sources=self.cross_sources,
                workers=self.config.join_workers or None,
            )
            self.provenance = ProvenanceLedger.from_store(storage)
            self.candidates = PairSet(
                RecordPair(key[0], key[1], likelihood=likelihood)
                for key, likelihood in storage.ledger.pairs.items()
            )
            self.components = IncrementalUnionFind()
            for record_id in storage.record_ids():
                self.components.add(record_id)
            for key in sorted(storage.ledger.pairs):
                self.components.union(key[0], key[1])
            self.components.clear_dirty()
        session_meta = storage.get_meta("session") or {}
        self._hit_count = int(session_meta.get("hit_count", 0))
        self._cost = session_meta.get("cost", 0.0)
        self._assignment_seconds = storage.load_assignment_seconds()
        self._pairs_per_hit_seen = session_meta.get("pairs_per_hit_seen")
        self._generator_name = session_meta.get("generator_name", "")
        self._batch_index = int(session_meta.get("batch_index", 0))
        self._last_delta = StreamingDelta(**session_meta.get("last_delta", {}))
        self._load_async_state(storage.get_meta("async"))
        self._events_applied = int(storage.get_meta("events_applied", 0))
        self._last_fresh_votes = None
        if obs.enabled():
            # Resume cumulative counters from the mirrored snapshot so a
            # restart doesn't reset `repro stats` to zero.
            obs.merge_snapshot(storage.get_meta("metrics"))

    def _apply_journal_event(self, event: "persistence.JournalEvent", verify: bool) -> None:
        """Replay one journal event against the current state."""
        payload = event.payload
        if event.type == "session":
            return
        if event.type == "truth":
            self._apply_truth([tuple(pair) for pair in payload["pairs"]])
            return
        if event.type == "batch":
            records = [persistence.decode_record(entry) for entry in payload["records"]]
            truth = payload.get("truth")
            self._apply_batch(
                records, [tuple(pair) for pair in truth] if truth is not None else None
            )
            return
        if event.type == "retract":
            self._apply_retract(payload["record_id"])
            return
        if event.type == "update":
            self._apply_update(persistence.decode_record(payload["record"]))
            return
        if event.type == "flush":
            self._apply_flush()
            return
        if event.type == "commit":
            if verify:
                # After a page-in the fresh votes of the last committed
                # event are unknowable (sentinel None) — the digest check
                # below still pins the full aggregated state.
                if self._last_fresh_votes is not None:
                    recorded = {
                        (entry[0], entry[1]): persistence.decode_votes(entry[2])
                        for entry in payload["votes"]
                    }
                    if recorded != self._last_fresh_votes:
                        raise persistence.JournalCorruptionError(
                            f"votes replayed for event {event.seq} differ from the journal"
                        )
                if payload["digest"] != self.state_digest():
                    raise persistence.JournalCorruptionError(
                        f"state digest after event {event.seq} differs from the journal"
                    )
            self._last_fresh_votes = {}
            return
        raise persistence.JournalCorruptionError(
            f"unknown journal event type {event.type!r} at sequence {event.seq}"
        )

    # -------------------------------------------------------- serialization
    def state_dict(self) -> Dict[str, object]:
        """Complete serializable session state.

        Everything a fresh process needs to continue bit-identically: the
        records and ground truth, the join index (vocabulary + CSR arrays),
        the union-find forest, the provenance ledger, the candidate pairs
        with their likelihoods, the vote ledger and posterior cache, and
        the accumulated crowd workload counters.
        """
        # Containers are shallow copies of the live state (elements are
        # immutable tuples/records), so snapshot construction is O(state)
        # with no per-element re-encoding — the save+restore round trip is
        # what the checkpoint benchmark gates against a cold re-resolve.
        return {
            "version": persistence.FORMAT_VERSION,
            "config": self._config_payload(),
            "cross_sources": list(self.cross_sources) if self.cross_sources else None,
            "records": list(self.store),
            "truth": set(self._truth),
            "join": self.join.state_dict(),
            "components": self.components.state_dict(),
            "provenance": self.provenance.state_dict(),
            "candidates": [
                (pair.id_a, pair.id_b, pair.likelihood) for pair in self.candidates
            ],
            "votes": {key: list(votes) for key, votes in self._votes.items()},
            "vote_rounds": dict(self._vote_rounds),
            "pending_votes": dict(self._pending_votes),
            "posteriors": dict(self._posteriors),
            "covered": set(self._covered),
            "hit_count": self._hit_count,
            "cost": self._cost,
            "assignment_seconds": list(self._assignment_seconds),
            "pairs_per_hit_seen": self._pairs_per_hit_seen,
            "generator_name": self._generator_name,
            "batch_index": self._batch_index,
            "last_delta": self._last_delta.as_dict(),
            # Async crowd queue + degraded-progress bookkeeping (None in
            # sync mode and absent in pre-async snapshots).
            "async": self._async_state_dict(),
            # Purely observational; absent/None in snapshots written while
            # metrics were off, and ignored by the state digest.
            "metrics": (
                obs.snapshot().to_dict() if obs.enabled() else None
            ),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Replace the session state with :meth:`state_dict` output.

        A persistent storage backend is wiped and fully re-mirrored: after
        the load its tables equal the loaded state exactly, as if the
        session had been stored there all along.
        """
        if state.get("version") != persistence.FORMAT_VERSION:
            raise persistence.PersistenceError(
                f"unsupported session state version {state.get('version')!r}"
            )
        self.storage.reset()
        self.store = RecordStore(name="stream", backing=self.storage)
        for record in state["records"]:  # type: ignore[union-attr]
            self.store.add(record)
        self._truth = set(state["truth"])  # type: ignore[arg-type]
        self.join = IncrementalSimJoin.from_state_dict(
            state["join"], storage=self.storage  # type: ignore[arg-type]
        )
        self.components = IncrementalUnionFind.from_state_dict(state["components"])  # type: ignore[arg-type]
        self.provenance = ProvenanceLedger.from_state_dict(
            state["provenance"], backing=self.storage  # type: ignore[arg-type]
        )
        self.candidates = PairSet(
            RecordPair(id_a, id_b, likelihood=likelihood)
            for id_a, id_b, likelihood in state["candidates"]  # type: ignore[union-attr]
        )
        self.storage.ledger.load_bulk(
            pairs={
                (id_a, id_b): likelihood
                for id_a, id_b, likelihood in state["candidates"]  # type: ignore[union-attr]
            },
            votes={key: list(votes) for key, votes in state["votes"].items()},  # type: ignore[union-attr]
            vote_rounds=dict(state["vote_rounds"]),  # type: ignore[arg-type]
            pending_votes=dict(state["pending_votes"]),  # type: ignore[arg-type]
            posteriors=dict(state["posteriors"]),  # type: ignore[arg-type]
            covered=set(state["covered"]),  # type: ignore[arg-type]
        )
        self._hit_count = state["hit_count"]  # type: ignore[assignment]
        self._cost = state["cost"]  # type: ignore[assignment]
        self._assignment_seconds = list(state["assignment_seconds"])  # type: ignore[arg-type]
        self.storage.append_assignment_seconds(self._assignment_seconds)
        self._pairs_per_hit_seen = state["pairs_per_hit_seen"]  # type: ignore[assignment]
        self._generator_name = state["generator_name"]  # type: ignore[assignment]
        self._batch_index = state["batch_index"]  # type: ignore[assignment]
        self._last_delta = StreamingDelta(**state["last_delta"])  # type: ignore[arg-type]
        self._load_async_state(state.get("async"))  # type: ignore[arg-type]
        self._last_fresh_votes = {}
        if obs.enabled():
            obs.merge_snapshot(state.get("metrics"))  # type: ignore[arg-type]
        if self.storage.persistent:
            self._mirror_config_meta()
            self._mirror_session_meta()
            self.storage.commit()

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
        else:  # "never": only pairs that have no votes yet
            to_vote = {key for key in dirty_pairs if self._vote_rounds.get(key, 0) == 0}
        delta.reused_vote_pairs = sum(
            1 for key in dirty_pairs - to_vote if key in self._votes
        )
        if self.crowd is not None:
            to_vote |= self._starved_pairs
            to_vote -= set(self._inflight_rounds)
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
                    if self._last_fresh_votes is not None:
                        self._last_fresh_votes[key] = votes
                    del self._slot_votes[key]
                    del self._inflight_rounds[key]
                    completed.add(key)
        return completed

    def _expand_components(self, completed: Set[PairKey]) -> Set[PairKey]:
        """All provenance pairs of the components the completed pairs touch.

        Late votes re-aggregate only the affected components: each
        completion dirties exactly its component, mirroring how a batch
        arrival dirties the components it touches.
        """
        if not completed:
            return set()
        expanded: Set[PairKey] = set()
        roots = {self.components.find(key[0]) for key in completed}
        for root in roots:
            for member in self.components.members(root):
                expanded.update(self.provenance.pairs_of(member))
        return expanded

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
                raise persistence.PersistenceError(
                    "async crowd flush failed to settle"
                )
        return completed

    def _async_state_dict(self) -> Optional[Dict[str, object]]:
        """JSON-friendly async crowd state (None in sync mode)."""
        if self.crowd is None:
            return None
        return {
            "platform": self.crowd.state_dict(),
            "slot_votes": persistence.encode_slot_votes(self._slot_votes),
            "inflight_rounds": persistence.encode_pair_map(self._inflight_rounds),
            "starved": [[key[0], key[1]] for key in sorted(self._starved_pairs)],
        }

    def _load_async_state(self, payload: Optional[Dict[str, object]]) -> None:
        """Inverse of :meth:`_async_state_dict` (tolerates pre-async state)."""
        self._slot_votes = {}
        self._inflight_rounds = {}
        self._starved_pairs = set()
        if self.crowd is None or not payload:
            return
        self.crowd.load_state_dict(payload["platform"])  # type: ignore[arg-type]
        self._slot_votes = persistence.decode_slot_votes(payload.get("slot_votes", []))  # type: ignore[arg-type]
        self._inflight_rounds = persistence.decode_pair_map(
            payload.get("inflight_rounds", [])  # type: ignore[arg-type]
        )
        self._starved_pairs = {
            (id_a, id_b) for id_a, id_b in payload.get("starved", [])  # type: ignore[union-attr]
        }

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
        voted_dirty = [key for key in sorted(dirty_pairs) if key in self._votes]
        delta.preserved_posterior_pairs = sum(
            1 for key in self._posteriors if key not in dirty_pairs
        )
        if not force:
            voted_dirty = self._drop_stale_components(voted_dirty, delta)
        if not voted_dirty:
            return
        votes = self._ledger_votes(voted_dirty)
        for key, posterior in aggregator.aggregate(votes).items():
            self._ledger.set_posterior(key, posterior)
        self._ledger.clear_pending(voted_dirty)

    def _drop_stale_components(
        self, voted_dirty: List[PairKey], delta: StreamingDelta
    ) -> List[PairKey]:
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
        return [
            key
            for key in voted_dirty
            if self.components.find(key[0]) not in stale_roots
        ]

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
        """The current resolution state as a delta-aware result object."""
        likelihoods: Dict[PairKey, float] = {
            pair.key: pair.likelihood or 0.0 for pair in self.candidates
        }
        ranked, matches = rank_candidates(
            likelihoods, self._posteriors, self.config.decision_threshold
        )
        recall_ceiling = None
        if self._truth:
            arrived = {
                key
                for key in self._truth
                if key[0] in self.store and key[1] in self.store
            }
            if arrived:
                surviving = self.candidates.intersection_keys(arrived)
                recall_ceiling = len(surviving) / len(arrived)
        latency = self.platform.latency.estimate(
            self._assignment_seconds,
            hit_type=self.config.hit_type,
            pairs_per_hit=self._pairs_per_hit_seen,
            qualification=self.platform.qualification is not None,
        )
        return ResolutionResult(
            ranked_pairs=ranked,
            matches=matches,
            posteriors=dict(self._posteriors),
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
    result = resolver.snapshot()
    for start in range(0, len(records), size):
        result = resolver.add_batch(records[start : start + size])
    return result
