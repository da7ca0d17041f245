"""The streaming incremental entity-resolution session.

:class:`StreamingResolver` keeps a resolution *session* open while record
batches arrive, maintaining every stage of the CrowdER pipeline
incrementally instead of recomputing it from scratch:

1. **Machine pass** — an :class:`~repro.streaming.incremental_join.IncrementalSimJoin`
   joins each batch against the resident token/CSR index (new-vs-old plus
   new-vs-new only); resident pairs are never re-scored.
2. **Component maintenance** — every new candidate pair is a union in an
   :class:`~repro.graph.union_find.IncrementalUnionFind`; components touched
   by a new record or pair become *dirty*, all others stay *clean*.  Each
   component tallies its pairs, voted pairs and posteriors (the ledger
   reports every change), so the event's *region counters* — the
   ``StreamingDelta`` fields about its dirty components — cost one lookup
   per dirty component, however many pairs those hold.
3. **HIT regeneration and crowdsourcing** — an event's *work set* is not
   its dirty region but the pairs it created or still owes: the session
   keeps the candidates that have no votes and are neither in flight nor
   shed (its *unvoted* set, which every new pair joins), and asks the crowd
   about those in dirty components, plus the driver's shed backlog.  Voted
   pairs keep the HITs and votes they already paid for.  The session hands
   the pairs to its :class:`~repro.streaming.crowd_driver.CrowdDriver`
   (HIT generation, publish and — in async crowd mode — everything in
   flight) and folds the pairs the driver reports completed into the vote
   ledger.
4. **Aggregation** — an
   :class:`~repro.streaming.aggregation_schedule.AggregationSchedule`
   re-aggregates what changed under ``streaming_aggregation_scope``.  In
   component scope a pair-independent aggregator (majority) re-runs exactly
   the pairs that got fresh votes — new pairs, and late completions each on
   its own — and every other posterior is kept bit-for-bit; Dawid-Skene,
   whose EM unit is the component, re-runs the voted pairs of the dirty
   components and of those late votes completed a pair in: the only
   aggregation that enumerates components.  ``"global"`` scope re-runs all
   votes.
5. **Ranking** — the candidates are kept in rank order
   (:class:`~repro.core.ranking.RankedIndex`) and re-placed, as one batch,
   only for the pairs whose likelihood or posterior the event changed; the
   event answers with its :class:`~repro.core.results.StreamingDelta`.

On top of arrivals the session supports **retraction and update**
(:meth:`StreamingResolver.retract` / :meth:`StreamingResolver.update`):
the pair ledger indexes every candidate pair by its two records
(:meth:`~repro.storage.base.PairLedger.pairs_of`), so removing a record
invalidates exactly the provenance-reachable pairs and components — their
votes, posteriors and HIT coverage are discarded, the surviving members are
re-connected (and re-tallied) from their surviving edges, and only an
aggregator that is not pair-independent re-runs that dirty region; every
clean component is untouched.

Sessions can also be made **durable** (``WorkflowConfig.checkpoint_dir``),
but not by this module: the class below is the event → delta state machine
over records, join, components, pair ledger, truth and ranking, and does no
I/O of its own.  Every public event method validates its arguments and
hands the event to the session's
:class:`~repro.streaming.persistence.Durability`, which logs the intent,
calls back into :meth:`StreamingResolver.apply` and closes the event's
boundary (its state rows and the deletion of its intent in one commit);
:meth:`StreamingResolver.save` and :meth:`StreamingResolver.restore` are
one-line delegations.  A restored session is **bit-identical** to one that
never stopped (see :mod:`repro.streaming.persistence`).

**Equivalence.**  Because set similarity is pairwise, the union of join
deltas equals the full-store join; because per-pair votes are a pure
function of the pair key, vote sets agree with a one-shot
:class:`~repro.core.workflow.HybridWorkflow` run in ``vote_mode="per-pair"``;
and because ranking is shared (:mod:`repro.core.ranking`), the final match
set is *identical* to batch resolution for any arrival order (with
majority aggregation in any scope, or Dawid-Skene in ``"global"`` scope).
The property tests in ``tests/test_streaming.py`` assert this across
randomized arrival orders, and ``tests/test_persistence.py`` asserts the
crash-recovery property across randomized event schedules and crash
points.
"""

from __future__ import annotations

import logging
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.aggregation.majority import Vote
from repro.core.config import WorkflowConfig
from repro.core.ranking import RankedIndex, rank_candidates
from repro.core.results import ResolutionResult, StreamingDelta
from repro.datasets.base import Dataset
from repro.graph.union_find import IncrementalUnionFind
from repro.records.pairs import CanonicalPairs, canonical_pair
from repro.records.record import Record, RecordError, RecordStore, check_attribute_values
from repro.storage.base import PAIRS, POSTERIORS, TALLY_COLUMNS, VOTED
from repro.streaming import persistence
from repro.streaming.aggregation_schedule import AggregationSchedule
from repro.streaming.crowd_driver import CrowdDriver, CrowdStep
from repro.streaming.incremental_join import IncrementalSimJoin

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
    "invalidated_pairs",
    "retracted_records",
)

#: An event re-ranks from scratch once it touched more than one
#: candidate in this many: past half, one sort is cheaper than re-placing
#: them (Dawid-Skene over one giant dirty component moves every posterior).
RERANK_SHARE = 2


class StreamingResolver:
    """An open entity-resolution session over arriving record batches.

    Parameters
    ----------
    config:
        Workflow configuration.  The streaming-specific knobs are
        ``streaming_aggregation_scope`` and ``stream_batch_size``;
        ``join_workers`` counts the threads the incremental machine pass
        scores an append's row blocks on (``join_backend`` only applies to
        the batch join — a session always joins through the kernel);
        ``checkpoint_dir`` makes the session durable (one SQLite file: its
        state and its write-ahead log, each event's changed rows written
        when it commits — :mod:`repro.streaming.persistence`);
        ``crowd`` makes the crowd asynchronous; ``vote_mode`` is forced to
        ``"per-pair"`` (the sequential mode cannot preserve votes across
        batches).
        Observability is not configured here: the process switches it on
        (:func:`repro.obs.activate`).
    cross_sources:
        Restrict candidates to cross-source pairs (record linkage).

    Lifecycle: :meth:`add_batch` for every arrival, :meth:`retract` /
    :meth:`update` when a record is withdrawn or revised (each returns its
    :class:`~repro.core.results.StreamingDelta`), :meth:`snapshot` or
    :meth:`ranked_page` for the resolution, :meth:`flush` to settle the
    crowd (returns the settled resolution), :meth:`save` to checkpoint and
    :meth:`restore` to resume a durable session after a crash or restart.
    """

    def __init__(
        self,
        config: Optional[WorkflowConfig] = None,
        cross_sources: Optional[Tuple[str, str]] = None,
        _durability: Optional[persistence.Durability] = None,
    ) -> None:
        self.config = config or WorkflowConfig()
        self.cross_sources = cross_sources
        # The crowd side: platform(s), HIT generation and publish, whatever
        # is in flight, and the accumulated workload counters.
        self.driver = CrowdDriver(self.config)
        # Durability (the store and its event log) is an adaptor handed in
        # by restore() or opened here for a fresh session.  The state lives
        # in this process; the store receives its writes.
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
        )
        self.store = RecordStore(name="stream")
        # Components, each tallying its pairs, voted pairs and posteriors
        # (the ledger reports every change), so an event's region counters
        # cost its dirty components, not their pairs.
        self.components = IncrementalUnionFind(width=len(TALLY_COLUMNS))
        self._ledger.tally = self.components.tally
        # Candidates with no votes that the driver has neither in flight nor
        # shed: with the new pairs, what an event may have to ask about.
        self._unvoted: Set[PairKey] = set()
        # The ranked candidates, re-placed per touched pair by every event.
        self._ranking = RankedIndex()
        # Ground truth, its per-record index, and how many of its pairs have
        # both records resident (the recall ceiling's denominator).
        self._truth: Set[PairKey] = CanonicalPairs()
        self._truth_partners: Dict[str, List[str]] = {}
        self._arrived_truth = 0
        self._aggregation = AggregationSchedule(self.config, self.storage.ledger)
        self._batch_index = 0
        # The pairs that gained votes in the event being applied, or the
        # last one: those whose posteriors the event must re-run.
        self._fresh_pairs: Set[PairKey] = set()
        if fresh:
            self.durability.attach(self)

    # ----------------------------------------------------------- hot ledger
    # The candidate pairs and their vote/posterior/coverage state live in
    # the store's PairLedger.  Reads are plain dict access; every
    # mutation goes through a ledger *method*, so a SQLite store knows which
    # keys' rows to write when the event commits.
    @property
    def _ledger(self):
        return self.storage.ledger

    # -------------------------------------------------------------- queries
    @property
    def record_count(self) -> int:
        """Number of resident records."""
        return len(self.store)

    @property
    def candidate_count(self) -> int:
        """Number of candidate pairs discovered so far."""
        return len(self._ledger.pairs)

    @property
    def match_count(self) -> int:
        """Number of pairs the current resolution matches, without building it."""
        self._sync_ranking()
        return self._ranking.match_count()

    @property
    def events_applied(self) -> int:
        """Logged events reflected in the current state (0 if not durable)."""
        return self.durability.events_applied

    def votes_for(self, id_a: str, id_b: str) -> List[Vote]:
        """The current vote ledger entry of one pair (empty if never asked)."""
        return list(self._ledger.votes.get(canonical_pair(id_a, id_b), ()))

    def covered_pairs(self) -> FrozenSet[PairKey]:
        """Candidate pairs covered by at least one published HIT so far."""
        return frozenset(self._ledger.covered)

    def state_digest(self) -> str:
        """Exact digest of the aggregated state (posteriors, cost, HITs).

        Nothing in a session reads it: it is what tests, the benchmark
        harness and ``examples/durable_streaming.py`` compare, so a restore
        that diverged from the original session by even one float bit shows.
        """
        return persistence.state_digest(
            self._ledger.posteriors, self.driver.cost, self.driver.hit_count
        )

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
    ) -> StreamingDelta:
        """Ingest a batch of new records and return what the batch changed.

        Runs the incremental machine pass, dirties the touched components,
        regenerates and publishes HITs for them, folds fresh votes into the
        ledger, re-aggregates what changed and re-ranks the touched pairs.
        For durable sessions the batch is made durable before any state
        changes.
        """
        batch = list(records)
        seen_batch: Set[str] = set()
        for record in batch:
            if record.record_id in self.join or record.record_id in seen_batch:
                raise RecordError(f"duplicate record id: {record.record_id!r}")
            check_attribute_values(record)
            seen_batch.add(record.record_id)
        truth_pairs = (
            sorted({canonical_pair(a, b) for a, b in true_matches})
            if true_matches is not None
            else None
        )
        return self.durability.run(self, "batch", batch, truth_pairs)

    def retract(self, record_id: str) -> StreamingDelta:
        """Withdraw a resident record and re-resolve only what it touched.

        Provenance makes the blast radius exact: the record's pairs (and
        nothing else) are invalidated — dropped from the candidate set, the
        vote ledger, the posterior cache and the HIT coverage — its rows
        are tombstoned out of the columnar index, and the component it
        lived in is re-formed from the surviving edges.  Only the resulting
        dirty components are re-aggregated; every clean component is
        untouched, which the returned ``delta`` reports
        (``retracted_records``, ``invalidated_pairs``, ``dirty_components``
        vs ``clean_components``).

        Retraction never publishes HITs — surviving pairs keep the votes
        they already paid for.  Raises
        :class:`~repro.records.record.RecordError` for unknown ids.
        """
        if record_id not in self.store:
            raise RecordError(f"unknown record id: {record_id!r}")
        return self.durability.run(self, "retract", record_id)

    def update(self, record: Record) -> StreamingDelta:
        """Replace a resident record with a revised version.

        Equivalent to :meth:`retract` followed by ingesting the new version
        as a one-record batch (one event, not two): the
        old version's provenance-reachable pairs are invalidated, the new
        version is joined against the resident store, and the touched
        components are re-crowdsourced (their never-voted pairs) and
        re-aggregated.  The returned delta carries both sides —
        ``retracted_records`` / ``invalidated_pairs`` from the retraction
        and the regular arrival counters from the re-ingest.
        """
        if record.record_id not in self.store:
            raise RecordError(f"unknown record id: {record.record_id!r}")
        check_attribute_values(record)
        return self.durability.run(self, "update", record)

    def flush(self) -> ResolutionResult:
        """Settle the session: no vote in flight, no posterior behind its votes.

        An asynchronous crowd is waited out (shed publishes included), and
        every pair whose late votes its posterior has not seen is
        re-aggregated.  A no-op when nothing is outstanding — e.g. a
        synchronous crowd.  Returns the settled resolution (:meth:`snapshot`).
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
    def restore(cls, path: str) -> "StreamingResolver":
        """Resume the durable session in its checkpoint directory.

        Runs under the stored configuration, pages in the directory's store,
        replays (and verifies) the logged events it has not seen, and keeps
        logging to the same file — see
        :func:`repro.streaming.persistence.restore`.
        """
        return persistence.restore(cls, path)

    # ------------------------------------------------------- event appliers
    #: The applier of each event of :data:`repro.streaming.persistence.EVENTS`.
    _APPLIERS = dict(truth="_apply_truth", batch="_ingest", retract="_withdraw",
                     update="_revise", flush="_settle")

    def apply(self, kind: str, *arguments):
        """Apply one event to the state machine: no log, no boundary.

        ``kind`` is an event name of :data:`repro.streaming.persistence.EVENTS`
        and ``arguments`` what the public method of that name validated — the
        one entry point a live event and a replayed one share.  Returns what
        the public method returns: a record event's delta carries the pairs
        the ranked index re-placed for it.
        """
        answer = getattr(self, self._APPLIERS[kind])(*arguments)
        if isinstance(answer, StreamingDelta):
            answer.changed = self._sync_ranking()
        return answer

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

    def _ingest(
        self,
        batch: List[Record],
        truth_pairs: Optional[Iterable[Sequence[str]]],
    ) -> StreamingDelta:
        """Apply an arrival (a ``batch`` event, or an update's second half)."""
        if truth_pairs is not None:
            self._apply_truth(truth_pairs)
        self._batch_index += 1
        delta = StreamingDelta(batch_index=self._batch_index, new_records=len(batch))
        self._fresh_pairs = set()
        logger.debug("batch %d: %d records arriving", self._batch_index, len(batch))

        with obs.span("streaming.batch", batch=len(batch), index=self._batch_index):
            # Stage 1: incremental machine pass.
            with obs.span("streaming.batch.join", batch=len(batch)):
                new_pairs = self.join.add_batch(batch)
                for record in batch:
                    self.store.add(record)
                    self.storage.add_record(record)
                    self._arrived_truth += self._resident_truth_partners(record.record_id)
                    self.components.add(record.record_id)
            delta.new_candidate_pairs = len(new_pairs)

            # Stage 2: component maintenance.  A new pair is unvoted until the
            # crowd takes it.
            with obs.span("streaming.batch.components", pairs=len(new_pairs)):
                for pair in new_pairs:
                    self._ledger.add_pair(pair.key, pair.likelihood)
                    self.components.union(pair.id_a, pair.id_b)
                    self._unvoted.add(pair.key)
                dirty_roots = self.components.dirty_roots()
                delta.reused_vote_pairs = self._count_region(dirty_roots, delta)[VOTED]

            # Stage 3: ask the crowd about the dirty components' unvoted
            # pairs.  Voted pairs keep their votes and cost nothing more;
            # pairs in flight or shed are the driver's, which re-publishes
            # the shed backlog itself.
            find = self.components.find
            to_vote = {key for key in self._unvoted if find(key[0]) in dirty_roots}
            if to_vote or self.driver.starved:
                with obs.span("streaming.batch.crowd", pairs=len(to_vote)):
                    asked_about = to_vote | self.driver.starved
                    self._fold(self.driver.request(to_vote, self._ledger.pairs, self._truth),
                               delta)
                    self._reclassify(asked_about)
            # One event is one tick of the crowd's clock.  Votes that were
            # waited for may complete pairs outside the dirty components;
            # theirs join the event's region.
            arrived = self.driver.tick()
            self._fold(arrived, delta)
            late_roots = {find(key[0]) for key, _ in arrived.completed} - dirty_roots

            # Stage 4: re-aggregate what changed.
            with obs.span("streaming.batch.aggregate", pairs=len(self._fresh_pairs)):
                self._aggregate(dirty_roots | late_roots, delta)

            self.components.clear_dirty()
        self._emit_delta_metrics(delta)
        return delta

    def _withdraw(self, record_id: str) -> StreamingDelta:
        """Apply a retraction (a ``retract`` event, or an update's first half)."""
        self._batch_index += 1
        delta = StreamingDelta(batch_index=self._batch_index, retracted_records=1)
        self._fresh_pairs = set()
        logger.debug("event %d: retracting record %s", self._batch_index, record_id)

        with obs.span("streaming.retract", index=self._batch_index):
            # The ledger's record index bounds the blast radius: exactly the
            # record's pairs.
            dropped = sorted(self._ledger.pairs_of(record_id))
            self.join.retract(record_id)
            self.store.remove(record_id)
            self.storage.remove_record(record_id)
            self._arrived_truth -= self._resident_truth_partners(record_id)
            for key in dropped:
                self._ledger.drop_pair(key)
            self._unvoted.difference_update(dropped)
            self.driver.forget(dropped)
            delta.invalidated_pairs = len(dropped)

            # Re-form the dissolved component from the surviving edges (each
            # is seen from both of its records, and tallied once); the
            # survivors come back dirty, everything else stays clean.
            survivors = self.components.detach([record_id])
            for survivor in survivors:
                for key in self._ledger.pairs_of(survivor):
                    self.components.union(key[0], key[1])
                    if key[0] == survivor:
                        self._tally_pair(key)

            dirty_roots = self.components.dirty_roots()
            self._count_region(dirty_roots, delta)

            # No crowdsourcing: retraction only removes evidence, and no vote
            # is fresh.  Only an aggregator whose posteriors depend on the
            # rest of their component re-runs the dirty region.
            self._aggregate(dirty_roots, delta)

            self.components.clear_dirty()
        self._emit_delta_metrics(delta)
        return delta

    def _revise(self, record: Record) -> StreamingDelta:
        """Apply an update: a retraction and a one-record arrival."""
        # Both halves emit their own spans and delta counters (so an update
        # accounts as one retraction plus one arrival); only the event count
        # is recorded here.
        if obs.enabled():
            obs.inc("streaming_updates_total", 1,
                    help="Record update events (retract + re-ingest).")
        withdrawn = self._withdraw(record.record_id)
        # The event's delta: the ingest counters plus the retraction's
        # invalidation stats.
        delta = self._ingest([record], None)
        delta.retracted_records = 1
        delta.invalidated_pairs = withdrawn.invalidated_pairs
        return delta

    def _settle(self) -> ResolutionResult:
        """Apply a flush; answers with the settled resolution."""
        self._fresh_pairs = set()
        with obs.span("streaming.flush"):
            # Settle the crowd first — nothing in flight afterwards — then
            # re-aggregate the pairs it completed (a flush reports no delta
            # of its own).
            shed = set(self.driver.starved)
            self._fold(self.driver.settle(self._ledger.pairs, self._truth), StreamingDelta())
            self._reclassify(shed)
            self._aggregation.flush(self._fresh_pairs, self._expand_components)
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
    def _fold(self, step: CrowdStep, delta: StreamingDelta) -> None:
        """Fold one crowd step into the session: the only place votes land.

        The ledger marks the pairs the step's HITs covered and takes a
        completed pair's votes whole, in oracle order.
        """
        if step.coverage:
            self._ledger.mark_covered(set().union(*(keys for _, keys in step.coverage)))
        for key, votes in step.completed:
            self._ledger.record_fresh_votes(key, votes)
            self._fresh_pairs.add(key)
        delta.regenerated_hits += len(step.coverage)
        delta.crowdsourced_pairs += len(step.completed)

    def _expand_components(self, completed: Iterable[PairKey]) -> Set[PairKey]:
        """All candidate pairs of the components the given pairs touch.

        What a flush re-runs for an aggregator that is not
        pair-independent: each completion dirties exactly its component,
        mirroring how a batch arrival dirties the components it touches.
        """
        return self._pairs_of_components(
            {self.components.find(key[0]) for key in completed}
        )

    def _pairs_of_components(self, roots: Iterable[str]) -> Set[PairKey]:
        """Every candidate pair of the components with the given roots.

        Only those components are enumerated (their member lists are
        maintained by the union-find); all others cost nothing here.
        """
        pairs: Set[PairKey] = set()
        pairs_of = self._ledger.pairs_of
        for root in roots:
            for member in self.components.members(root):
                pairs.update(pairs_of(member))
        return pairs

    def _tally_pair(self, key: PairKey) -> None:
        """Count one ledger pair, and its votes and posterior, into its component."""
        ledger, tally = self._ledger, self.components.tally
        tally(key[0], PAIRS)
        if key in ledger.votes:
            tally(key[0], VOTED)
        if key in ledger.posteriors:
            tally(key[0], POSTERIORS)

    def _count_region(self, roots: Set[str], delta: StreamingDelta) -> List[int]:
        """Count the dirty components ``roots`` into ``delta``; returns their tallies.

        O(roots): the union-find sums its per-component tallies, so no
        component is walked.
        """
        totals = self.components.totals(roots)
        delta.dirty_components = len(roots)
        delta.clean_components = self.components.component_count - len(roots)
        delta.dirty_pairs = totals[PAIRS]
        return totals

    def _aggregate(self, roots: Set[str], delta: StreamingDelta) -> None:
        """Fold the event's fresh votes into the posterior cache.

        ``roots`` are the components the event dirtied or completed a pair
        in: its region.  In component scope the posteriors outside it are
        kept (``preserved_posterior_pairs``, counted from the tallies before
        anything is re-run), and the region's pairs are enumerated only if
        the schedule asks — for an aggregator that is not pair-independent.
        """
        if self.config.streaming_aggregation_scope == "component":
            delta.preserved_posterior_pairs = (
                len(self._ledger.posteriors) - self.components.totals(roots)[POSTERIORS]
            )
        self._aggregation.aggregate(
            self._fresh_pairs, lambda: self._pairs_of_components(roots)
        )

    def _reclassify(self, keys: Iterable[PairKey]) -> None:
        """Bring :attr:`_unvoted` up to date for ``keys``.

        A candidate is unvoted when it has no votes and the driver has it
        neither in flight nor shed — e.g. one no published HIT covered.
        """
        ledger, driver = self._ledger, self.driver
        for key in keys:
            if (key in ledger.pairs and key not in ledger.votes
                    and key not in driver.inflight and key not in driver.starved):
                self._unvoted.add(key)
            else:
                self._unvoted.discard(key)

    def _sync_ranking(self) -> Optional[Set[PairKey]]:
        """Bring the ranked index up to the ledger; returns what it re-placed.

        Costs the pairs the ledger reports touched since the last sync.  When
        the ledger cannot say what changed (``None``, returned as such), or
        it is a large share of the candidates, the order comes from
        :func:`~repro.core.ranking.rank_candidates` instead.
        """
        ledger = self._ledger
        # The join scores every pair it reports, so the ledger's
        # likelihoods are floats and ranking needs no None -> 0.0 pass.
        likelihoods, posteriors = ledger.pairs, ledger.posteriors
        touched = ledger.take_touched()
        if touched is None or len(touched) * RERANK_SHARE > len(likelihoods):
            ranked, _ = rank_candidates(likelihoods, posteriors)
            self._ranking.load(ranked, likelihoods, posteriors)
        else:
            self._ranking.update(touched, likelihoods, posteriors)
        return touched

    def _recall_ceiling(self) -> Optional[float]:
        # A candidate's records are resident, so the truth pairs that
        # survived pruning are the truth pairs that are candidates.
        if not self._arrived_truth:
            return None
        return len(self._truth & self._ledger.pairs.keys()) / self._arrived_truth

    def snapshot(self) -> ResolutionResult:
        """The current resolution, whole.

        Every event re-places its pairs in the ranked index, so this is a
        copy of the index and the ledger (a restored session ranks its
        candidates once, here or at its first event).
        """
        self._sync_ranking()
        return ResolutionResult(
            ranked_pairs=self._ranking.ranked(),
            matches=self._ranking.matches(),
            posteriors=dict(self._ledger.posteriors),
            likelihoods=dict(self._ledger.pairs),
            candidate_count=len(self._ledger.pairs),
            recall_ceiling=self._recall_ceiling(),
            **self.driver.workload(),
        )

    def ranked_page(self, after: int, limit: int) -> ResolutionResult:
        """Ranks ``after`` to ``after + limit`` of the snapshot's ranked list.

        A slice of the ranked index: ``ranked_pairs`` is the page, with its
        ``likelihoods`` and ``posteriors`` (``matches`` and ``latency`` are
        not filled); the counters describe the whole session.  Nothing
        session-sized is copied.
        """
        self._sync_ranking()
        ledger, driver = self._ledger, self.driver
        page = self._ranking.page(after, limit)
        return ResolutionResult(
            ranked_pairs=page,
            posteriors={key: ledger.posteriors[key] for key in page if key in ledger.posteriors},
            likelihoods={key: ledger.pairs[key] for key in page},
            candidate_count=len(ledger.pairs),
            hit_count=driver.hit_count,
            assignment_count=sum(driver.assignment_seconds.values()),
            cost=driver.cost,
            recall_ceiling=self._recall_ceiling(),
        )


def resolve_stream(
    dataset: Dataset,
    config: Optional[WorkflowConfig] = None,
    batch_size: Optional[int] = None,
    arrival_order: Optional[Sequence[str]] = None,
) -> ResolutionResult:
    """Replay a dataset through a streaming session batch by batch.

    Records arrive in store order (or ``arrival_order``, a permutation of
    record ids) in chunks of ``batch_size`` (default:
    ``config.stream_batch_size``); the full ground truth is registered up
    front so the simulated crowd can answer.  Returns the final snapshot —
    its match set equals a one-shot ``HybridWorkflow(config).resolve(dataset)``
    with per-pair votes.
    """
    config = config or WorkflowConfig()
    size = batch_size or config.stream_batch_size
    if arrival_order is None:
        records = list(dataset.store)
    else:
        # Checked before the session exists, so a bad order leaves no store.
        order = list(arrival_order)
        if len(order) != len(dataset.store) or set(order) != set(dataset.store.record_ids):
            raise ValueError("arrival_order must cover every record exactly once")
        records = [dataset.store.get(record_id) for record_id in order]
    resolver = StreamingResolver(config=config, cross_sources=dataset.cross_sources)
    resolver.add_truth(dataset.ground_truth)
    try:
        for start in range(0, len(records), size):
            resolver.add_batch(records[start : start + size])
        return resolver.snapshot()
    finally:
        resolver.durability.close()
