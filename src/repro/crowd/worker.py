"""Crowd worker models.

Three profiles cover the behaviours the paper's quality analysis relies on:

* ``reliable`` workers answer each comparison correctly with high
  probability;
* ``noisy`` workers answer correctly with a lower probability;
* ``spammer`` workers ignore the records entirely and answer randomly (or
  always "yes"), which is why the paper adds qualification tests and uses
  EM aggregation instead of vote averaging.

Workers answer *comparisons*.  For a pair-based HIT each pair is one
comparison.  For a cluster-based HIT the worker follows the Section-6
procedure: records are assigned to entities by comparing each record to the
representative of already-identified entities, and the per-pair answers are
read off the resulting labelling (so they are always transitively
consistent, which is an inherent property of the cluster interface).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.records.pairs import canonical_pair


@dataclass(frozen=True)
class WorkerProfile:
    """Behavioural parameters of a worker.

    ``accuracy`` is the probability of answering a single comparison
    correctly.  ``spammer_mode`` overrides accuracy: ``"random"`` answers
    uniformly at random, ``"always-yes"`` always declares a match and
    ``"always-no"`` never does.  ``carefulness_boost`` is added to the
    accuracy when the worker has passed a qualification test (the paper
    notes the test "can force workers to read our instructions more
    carefully").
    """

    name: str
    accuracy: float = 0.95
    spammer_mode: Optional[str] = None
    carefulness_boost: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError("accuracy must be in [0, 1]")
        if self.spammer_mode not in (None, "random", "always-yes", "always-no"):
            raise ValueError(f"unknown spammer_mode {self.spammer_mode!r}")
        if not 0.0 <= self.carefulness_boost <= 1.0:
            raise ValueError("carefulness_boost must be in [0, 1]")


RELIABLE = WorkerProfile(name="reliable", accuracy=0.975, carefulness_boost=0.01)
NOISY = WorkerProfile(name="noisy", accuracy=0.86, carefulness_boost=0.08)
SPAMMER = WorkerProfile(name="spammer", accuracy=0.5, spammer_mode="random")


class Worker:
    """A simulated crowd worker with a reliability profile."""

    def __init__(self, worker_id: str, profile: WorkerProfile, seed: int = 0) -> None:
        self.worker_id = worker_id
        self.profile = profile
        self._rng = random.Random(seed)
        self.qualified = False

    # ------------------------------------------------------------- answers
    @property
    def effective_accuracy(self) -> float:
        """Accuracy including the qualification carefulness boost."""
        accuracy = self.profile.accuracy
        if self.qualified:
            accuracy = min(1.0, accuracy + self.profile.carefulness_boost)
        return accuracy

    def answer_comparison(self, truth: bool, rng: Optional[random.Random] = None) -> bool:
        """Answer one pairwise comparison whose true answer is ``truth``.

        By default the worker's own (stateful) RNG drives the noise, so the
        answer depends on every comparison the worker made before.  Passing
        an explicit ``rng`` decouples the answer from that history — the
        platform's deterministic per-pair vote mode seeds one RNG per
        (worker, pair) so a pair's votes don't depend on HIT grouping or
        publication order.
        """
        rng = rng if rng is not None else self._rng
        mode = self.profile.spammer_mode
        if mode == "random":
            return rng.random() < 0.5
        if mode == "always-yes":
            return True
        if mode == "always-no":
            return False
        if rng.random() < self.effective_accuracy:
            return truth
        return not truth

    def do_pair_hit(
        self, pairs: Sequence[Tuple[str, str]], truth: Set[Tuple[str, str]]
    ) -> Dict[Tuple[str, str], bool]:
        """Answer every pair of a pair-based HIT independently."""
        answers: Dict[Tuple[str, str], bool] = {}
        for id_a, id_b in pairs:
            key = canonical_pair(id_a, id_b)
            answers[key] = self.answer_comparison(key in truth)
        return answers

    def do_cluster_hit(
        self, records: Sequence[str], truth: Set[Tuple[str, str]]
    ) -> Dict[Tuple[str, str], bool]:
        """Label the records of a cluster-based HIT and derive pair answers.

        The worker walks the records in order and compares each record to
        the representative of every entity identified so far; the first
        comparison answered "yes" assigns the record to that entity, and a
        record matching no entity starts a new one.  This is exactly the
        Section-6 working procedure, so both the answers *and* the number of
        comparisons (used by the latency model) come from the same process.
        """
        labels: Dict[str, int] = {}
        representatives: List[str] = []
        self.last_comparisons = 0
        for record in records:
            assigned = False
            for entity_index, representative in enumerate(representatives):
                self.last_comparisons += 1
                truly_same = canonical_pair(record, representative) in truth
                if self.answer_comparison(truly_same):
                    labels[record] = entity_index
                    assigned = True
                    break
            if not assigned:
                labels[record] = len(representatives)
                representatives.append(record)
        answers: Dict[Tuple[str, str], bool] = {}
        record_list = list(records)
        for i in range(len(record_list)):
            for j in range(i + 1, len(record_list)):
                key = canonical_pair(record_list[i], record_list[j])
                answers[key] = labels[record_list[i]] == labels[record_list[j]]
        return answers


def _mix(
    size: int, reliable_fraction: float, noisy_fraction: float, spammer_fraction: float
) -> Tuple[int, int, int]:
    """Reliable, noisy and spammer counts of a ``size``-worker pool.

    The reliable and noisy counts are rounded and spammers are the rest.
    Rounding half to even can make the two rounded counts overshoot
    ``size``, or leave a remainder when there should be no spammer, so the
    noisy count absorbs the difference then: the counts sum to ``size`` and
    a zero fraction gets no worker.
    """
    reliable = round(size * reliable_fraction)
    noisy = round(size * noisy_fraction)
    if not spammer_fraction or reliable + noisy > size:
        noisy = size - reliable
    return reliable, noisy, size - reliable - noisy


class WorkerPool:
    """A pool of simulated workers with a configurable reliability mix."""

    def __init__(self, workers: Sequence[Worker]) -> None:
        if not workers:
            raise ValueError("a worker pool needs at least one worker")
        self._workers = list(workers)

    @classmethod
    def build(
        cls,
        size: int = 60,
        reliable_fraction: float = 0.75,
        noisy_fraction: float = 0.15,
        spammer_fraction: float = 0.10,
        seed: int = 0,
    ) -> "WorkerPool":
        """Build a pool of exactly ``size`` workers with the given mix of
        profiles (fractions sum to 1; see :func:`_mix`)."""
        if size < 1:
            raise ValueError("size must be at least 1")
        total = reliable_fraction + noisy_fraction + spammer_fraction
        if abs(total - 1.0) > 1e-6:
            raise ValueError("profile fractions must sum to 1")
        counts = _mix(size, reliable_fraction, noisy_fraction, spammer_fraction)
        workers: List[Worker] = []
        index = 0
        for profile, count in zip((RELIABLE, NOISY, SPAMMER), counts):
            for _ in range(count):
                workers.append(Worker(f"worker-{index + 1}", profile, seed=seed + index))
                index += 1
        return cls(workers)

    def __len__(self) -> int:
        return len(self._workers)

    def __iter__(self) -> Iterable[Worker]:
        return iter(self._workers)

    @property
    def workers(self) -> List[Worker]:
        """All workers in the pool."""
        return list(self._workers)
