"""The simulated crowdsourcing marketplace.

:class:`SimulatedCrowdPlatform` plays the role of AMT in the experiments: it
takes a :class:`~repro.hit.base.HITBatch`, replicates every HIT into a
number of assignments (three in the paper), assigns each to a distinct
simulated worker, collects the per-pair votes and reports cost and latency.
Because workers are simulated, the platform needs the ground-truth matches
to generate (noisy) answers — an offline reproduction cannot pay AMT
workers, so it simulates the crowd from the labels (``docs/crowd.md``, "The
vote oracle", gives the seeding contract every vote follows).
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.crowd import mt19937
from repro.crowd.latency import LatencyEstimate, LatencyModel
from repro.crowd.pricing import PricingModel
from repro.crowd.qualification import QualificationTest
from repro.crowd.worker import Worker, WorkerPool
from repro.hit.base import ClusterBasedHIT, HITBatch, PairBasedHIT
from repro.records.pairs import canonical_pairs

Vote = Tuple[str, Tuple[str, str], bool]

#: ``u < threshold`` answers of the spammer modes (``u`` is in [0, 1)).
_SPAMMER_THRESHOLDS = {"random": 0.5, "always-yes": 2.0, "always-no": -1.0}


def _count_oracle_pairs(bulk: int, scalar: int) -> None:
    for path, pairs in (("bulk", bulk), ("scalar", scalar)):
        obs.inc("crowd_oracle_pairs_total", pairs, path=path,
                help="Pairs given per-pair votes, by evaluator: bulk (one "
                "oracle pass per publish) or scalar (pair_votes).")


@dataclass
class CrowdRunResult:
    """Everything a simulated crowd run produced."""

    votes: List[Vote] = field(default_factory=list)
    assignment_seconds: List[float] = field(default_factory=list)
    cost: float = 0.0
    latency: Optional[LatencyEstimate] = None
    hit_count: int = 0
    assignments_per_hit: int = 3
    qualified_worker_count: int = 0
    rejected_worker_count: int = 0
    #: Per HIT, in batch order, the candidate pairs it carries — what a
    #: per-pair or asynchronous publish computes to ask the crowd (a
    #: sequential one leaves it empty).
    carried: List[Set[Tuple[str, str]]] = field(default_factory=list)

    @property
    def assignment_count(self) -> int:
        """Total number of actually completed assignments.

        Counted from the recorded per-assignment timings rather than derived
        as ``hit_count * assignments_per_hit``, which would over-report
        whenever a platform leaves assignments unfilled.
        """
        return len(self.assignment_seconds)

    def votes_by_pair(self) -> Dict[Tuple[str, str], List[bool]]:
        """Group the raw answers by pair key."""
        grouped: Dict[Tuple[str, str], List[bool]] = {}
        for _worker, pair_key, answer in self.votes:
            grouped.setdefault(pair_key, []).append(answer)
        return grouped


class SimulatedCrowdPlatform:
    """AMT stand-in: publishes HIT batches to a pool of simulated workers.

    Parameters
    ----------
    pool:
        The worker pool; defaults to a 60-worker pool with the standard
        reliability mix.
    assignments_per_hit:
        Replication factor (3 in the paper).
    qualification:
        Optional qualification test; when given, only workers that pass it
        are allowed to do assignments.
    seed:
        Seed of the worker-selection RNG.
    vote_mode:
        ``"sequential"`` (the default) replays the legacy simulation: one
        RNG is advanced HIT by HIT, so the votes a pair receives depend on
        the order HITs are published and on how pairs are grouped into
        HITs.  ``"per-pair"`` makes every pair's votes a pure function of
        (platform seed, pair key): the workers asked about a
        pair and their answers are drawn from RNGs seeded by the pair key,
        so regrouping pairs into different HITs, splitting a batch into
        several ``publish`` calls, or covering a pair with multiple HITs
        never changes (or duplicates) its votes.  The streaming resolver
        relies on this mode for its incremental == batch equivalence.
        :meth:`pair_votes` evaluates that function for one pair;
        :meth:`votes_for` evaluates it for a whole large publish in one
        numpy pass and returns the same votes.
    """

    VOTE_MODES = ("sequential", "per-pair")
    #: Picker words :meth:`votes_for` decodes per pair; a pair whose worker
    #: sample needs more asks :meth:`pair_votes`.
    DRAWS = 8

    def __init__(
        self,
        pool: Optional[WorkerPool] = None,
        assignments_per_hit: int = 3,
        qualification: Optional[QualificationTest] = None,
        seed: int = 0,
        vote_mode: str = "sequential",
    ) -> None:
        if assignments_per_hit < 1:
            raise ValueError("assignments_per_hit must be at least 1")
        if vote_mode not in self.VOTE_MODES:
            raise ValueError(f"vote_mode must be one of {self.VOTE_MODES}")
        self.pool = pool or WorkerPool.build(seed=seed)
        self.assignments_per_hit = assignments_per_hit
        self.qualification = qualification
        self.pricing = PricingModel()
        self.latency = LatencyModel()
        self.seed = seed
        self.vote_mode = vote_mode
        self._rejected_count = 0
        # Eligibility cache keyed on the pool's membership version: churn
        # (add/remove worker) invalidates it, everything else — including
        # every publish — reuses the filtered list instead of re-running
        # the qualification test per call.
        self._eligible_version: Optional[int] = None
        self._eligible_workers: List[Worker] = []
        _ = self._eligible  # warm the cache so _rejected_count is set

    @property
    def _eligible(self) -> List[Worker]:
        if self._eligible_version != self.pool.version:
            self._eligible_workers = self._determine_eligible_workers()
            self._eligible_version = self.pool.version
        return self._eligible_workers

    def _determine_eligible_workers(self) -> List[Worker]:
        if self.qualification is None:
            return self.pool.workers
        qualified, rejected = self.qualification.filter_pool(self.pool)
        self._rejected_count = len(rejected)
        if not qualified:
            # Degenerate configuration (everyone failed); fall back to the
            # full pool so the simulation can still proceed.
            return self.pool.workers
        return qualified

    # ----------------------------------------------------------------- run
    def publish(
        self,
        batch: HITBatch,
        true_matches: Iterable[Tuple[str, str]],
        candidate_pairs: Optional[Iterable[Tuple[str, str]]] = None,
    ) -> CrowdRunResult:
        """Run every HIT of the batch through ``assignments_per_hit`` workers.

        ``true_matches`` is the ground truth used to simulate answers.
        ``candidate_pairs`` restricts which pairs of a HIT produce votes (by
        default the batch's own candidate set is used, so only
        machine-suggested pairs are recorded — exactly the pairs the
        workflow needs verified).
        """
        truth = canonical_pairs(true_matches)
        candidates = (
            canonical_pairs(candidate_pairs)
            if candidate_pairs is not None
            else set(batch.candidate_pairs)
        )
        rng = random.Random(self.seed)
        result = CrowdRunResult(
            hit_count=batch.hit_count,
            assignments_per_hit=self.assignments_per_hit,
            qualified_worker_count=len(self._eligible) if self.qualification else 0,
            rejected_worker_count=self._rejected_count,
        )

        pairs_per_hit = None
        if batch.hit_type == "pair" and batch.hits:
            pairs_per_hit = max(hit.size for hit in batch.hits)  # type: ignore[attr-defined]

        with obs.span("crowd.publish", hits=batch.hit_count, mode=self.vote_mode):
            if self.vote_mode == "per-pair":
                self._publish_per_pair(batch, truth, candidates, rng, result)
            else:
                self._publish_sequential(batch, truth, candidates, rng, result)

        result.cost = self.pricing.total_cost(batch.hit_count, self.assignments_per_hit)
        result.latency = self.latency.estimate(
            Counter(result.assignment_seconds),
            hit_type=batch.hit_type,
            pairs_per_hit=pairs_per_hit,
            qualification=self.qualification is not None,
        )
        # The paper's headline cost metrics, per publish call.  HITs issued
        # here accumulate exactly like the sessions' own hit counters, so a
        # cost report's HIT count always equals the session's real total.
        if obs.enabled():
            obs.inc("hits_issued_total", batch.hit_count,
                    help="HITs published to the (simulated) crowd platform.")
            obs.inc("crowd_assignments_total", len(result.assignment_seconds),
                    help="Completed crowd assignments (replicated HITs).")
            obs.inc("crowd_votes_total", len(result.votes),
                    help="Per-pair votes collected from the crowd.")
            obs.inc("crowd_cost_dollars_total", result.cost,
                    help="Simulated crowd cost in dollars.")
            obs.inc("crowd_work_seconds_total", sum(result.assignment_seconds),
                    help="Simulated worker-seconds spent on assignments.")
            if result.latency is not None:
                obs.inc("crowd_elapsed_minutes_total", result.latency.total_minutes,
                        help="Simulated end-to-end crowd latency in minutes.")
        return result

    def _publish_sequential(
        self,
        batch: HITBatch,
        truth: Set[Tuple[str, str]],
        candidates: Set[Tuple[str, str]],
        rng: random.Random,
        result: CrowdRunResult,
    ) -> None:
        """Legacy simulation: one RNG advanced HIT by HIT in publish order."""
        for hit in batch.hits:
            workers = self._pick_workers(rng)
            for worker in workers:
                if isinstance(hit, PairBasedHIT):
                    answers = worker.do_pair_hit(hit.pairs, truth)
                    seconds = self.latency.pair_assignment_seconds(
                        hit.size, qualified=self.qualification is not None
                    )
                elif isinstance(hit, ClusterBasedHIT):
                    answers = worker.do_cluster_hit(hit.records, truth)
                    seconds = self.latency.cluster_assignment_seconds(
                        getattr(worker, "last_comparisons", hit.size * (hit.size - 1) // 2),
                        qualified=self.qualification is not None,
                    )
                    # Only report votes for the machine-suggested candidates.
                    answers = {key: value for key, value in answers.items() if key in candidates}
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unsupported HIT type: {type(hit)!r}")
                worker.completed_assignments += 1
                result.assignment_seconds.append(seconds)
                for pair_key, answer in answers.items():
                    result.votes.append((worker.worker_id, pair_key, answer))

    def _publish_per_pair(
        self,
        batch: HITBatch,
        truth: Set[Tuple[str, str]],
        candidates: Set[Tuple[str, str]],
        rng: random.Random,
        result: CrowdRunResult,
    ) -> None:
        """Deterministic simulation: votes are a function of the pair key.

        Assignments (cost and latency bookkeeping) are still accounted per
        HIT, but the votes are generated once per *covered candidate pair*
        in sorted pair order — a pair covered by two overlapping cluster
        HITs is asked once, and splitting the batch over several publish
        calls yields the same votes per pair.  A publish of at least
        :data:`~repro.crowd.mt19937.BULK_MIN_SEEDS` pairs asks the oracle
        once for all of them (:meth:`votes_for`); a smaller one asks
        :meth:`pair_votes` pair by pair.  The votes are the same either way.
        """
        # Per-HIT assignment bookkeeping mirrors the sequential mode.
        for hit in batch.hits:
            seconds = self.hit_assignment_seconds(hit)
            for worker in self._pick_workers(rng):
                worker.completed_assignments += 1
                result.assignment_seconds.append(seconds)
        result.carried = batch.carried_pairs(candidates)
        keys = sorted(set().union(*result.carried))
        is_match = [key in truth for key in keys]
        if len(keys) >= mt19937.BULK_MIN_SEEDS:
            result.votes.extend(self.votes_for(keys, is_match))
            return
        for pair_key, match in zip(keys, is_match):
            result.votes.extend(self.pair_votes(pair_key, match))
        if obs.enabled():
            _count_oracle_pairs(0, len(keys))

    def hit_assignment_seconds(self, hit) -> float:
        """Latency-model seconds of one per-pair-mode assignment of ``hit``.

        Cluster comparisons use the full pairwise count (the deterministic
        worst case of the Section-6 procedure).
        """
        qualified = self.qualification is not None
        if isinstance(hit, PairBasedHIT):
            return self.latency.pair_assignment_seconds(hit.size, qualified=qualified)
        if isinstance(hit, ClusterBasedHIT):
            return self.latency.cluster_assignment_seconds(
                hit.size * (hit.size - 1) // 2, qualified=qualified
            )
        raise TypeError(f"unsupported HIT type: {type(hit)!r}")

    def pair_votes(self, pair_key: Tuple[str, str], is_match: bool) -> List[Vote]:
        """Deterministic votes for one pair (the per-pair vote oracle).

        The ``assignments_per_hit`` workers asked about the pair are drawn
        from an RNG seeded by ``"{seed}|0|workers|{id_a}|{id_b}"``, and each
        worker's answer from an RNG seeded by
        ``"{seed}|0|{worker}|{id_a}|{id_b}"`` (the literal ``0`` keeps every
        vote an earlier release logged reproducible).  String seeds hash via
        SHA-512 inside ``random.Random``, so the votes are stable across
        processes and independent of ``PYTHONHASHSEED``.  This is the reference evaluator: small
        publishes, the async platform's per-HIT oracle call and every pair
        :meth:`votes_for` cannot settle from its words ask it directly.
        """
        key_a, key_b = pair_key
        picker = random.Random(f"{self.seed}|0|workers|{key_a}|{key_b}")
        if len(self._eligible) >= self.assignments_per_hit:
            workers = picker.sample(self._eligible, self.assignments_per_hit)
        else:
            workers = [picker.choice(self._eligible) for _ in range(self.assignments_per_hit)]
        votes: List[Vote] = []
        for worker in workers:
            answer_rng = random.Random(
                f"{self.seed}|0|{worker.worker_id}|{key_a}|{key_b}"
            )
            votes.append(
                (worker.worker_id, pair_key, worker.answer_comparison(is_match, rng=answer_rng))
            )
        return votes

    def votes_for(
        self,
        keys: Sequence[Tuple[str, str]],
        is_match: Sequence[bool],
    ) -> List[Vote]:
        """:meth:`pair_votes` for many pairs at once, from one oracle pass.

        Returns exactly ``[vote for key, match in zip(keys, is_match) for
        vote in self.pair_votes(key, match)]``.  The
        first words of every picker and answer RNG come from
        :func:`~repro.crowd.mt19937.first_words`.  Workers are read off the
        picker words the way ``random.sample``'s set branch draws them, and
        each answer the way :meth:`Worker.answer_comparison` reads
        ``random()``, at the workers' accuracy as of this call.  A pair the
        words do not settle asks :meth:`pair_votes` itself: ``sample``'s
        pool branch, ``choice`` when fewer workers are eligible than
        assignments, or a sample needing more than :attr:`DRAWS` draws.
        """
        eligible, k = self._eligible, self.assignments_per_hit
        workers, settled = self._sampled_workers(keys)
        pair_of = np.repeat(np.flatnonzero(settled), k)
        worker_of = workers[settled].ravel()
        pairs, picks = pair_of.tolist(), worker_of.tolist()
        ids = [worker.worker_id for worker in eligible]
        u = mt19937.first_randoms(
            f"{self.seed}|0|{ids[j]}|{keys[p][0]}|{keys[p][1]}"
            for p, j in zip(pairs, picks)
        )

        # Worker.answer_comparison as a threshold on u: a coin for a random
        # spammer, a constant (no draw; its words go unread) for
        # always-yes/no, the truth when u < accuracy for everyone else.
        modes = [worker.profile.spammer_mode for worker in eligible]
        threshold = np.array([
            _SPAMMER_THRESHOLDS.get(mode, worker.effective_accuracy)
            for worker, mode in zip(eligible, modes)
        ])
        honest = np.array([mode is None for mode in modes])
        below = u < threshold[worker_of]
        truth = np.asarray(is_match, dtype=bool)[pair_of]
        answers = np.where(honest[worker_of], below == truth, below)

        bulk = [(ids[j], keys[p], answer) for p, j, answer in zip(pairs, picks, answers.tolist())]
        if obs.enabled():
            _count_oracle_pairs(len(bulk) // k, len(keys) - len(bulk) // k)
        if len(bulk) == k * len(keys):
            return bulk
        votes: List[Vote] = []
        position = 0
        for p, done in enumerate(settled.tolist()):
            if done:
                votes.extend(bulk[position:position + k])
                position += k
            else:
                votes.extend(self.pair_votes(keys[p], is_match[p]))
        return votes

    def _sampled_workers(
        self, keys: Sequence[Tuple[str, str]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Eligible-worker indices ``random.sample`` picks for each pair.

        Returns ``(workers, settled)``: a ``(pairs, assignments_per_hit)``
        index array and which rows the first :attr:`DRAWS` picker words
        decide.  One draw is a word's top ``n.bit_length()`` bits; a draw
        of ``n`` or more, or one already drawn, is drawn again.  Only
        ``sample``'s set branch draws that way, so every row is unsettled
        when ``n`` is at most ``sample``'s set size, which also covers the
        ``choice`` case ``n < assignments_per_hit``.
        """
        n, k = len(self._eligible), self.assignments_per_hit
        set_size = 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
        if n <= set_size:
            return np.zeros((len(keys), k), dtype=np.intp), np.zeros(len(keys), dtype=bool)
        words = mt19937.first_words((
            f"{self.seed}|0|workers|{key_a}|{key_b}" for key_a, key_b in keys
        ), self.DRAWS)
        draws = (words >> (32 - n.bit_length())).astype(np.intp)
        fresh = draws < n
        for column in range(1, self.DRAWS):
            for earlier in range(column):
                fresh[:, column] &= draws[:, column] != draws[:, earlier]
        first_fresh = np.argsort(~fresh, axis=1, kind="stable")[:, :k]
        return np.take_along_axis(draws, first_fresh, axis=1), fresh.sum(axis=1) >= k

    def _pick_workers(self, rng: random.Random) -> List[Worker]:
        """Pick ``assignments_per_hit`` distinct workers for one HIT."""
        if len(self._eligible) >= self.assignments_per_hit:
            return rng.sample(self._eligible, self.assignments_per_hit)
        # Fewer eligible workers than assignments: reuse workers (AMT would
        # simply leave assignments unfilled; reusing keeps every pair at
        # ``assignments_per_hit`` votes, so a small pool prices like a
        # large one).
        return [rng.choice(self._eligible) for _ in range(self.assignments_per_hit)]
