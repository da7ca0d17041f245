"""Deterministic fault injection for the asynchronous crowd platform.

A :class:`FaultPlan` decides, for every crowd assignment attempt, how the
delivery misbehaves: how many ticks it is delayed, whether the worker
abandons it (it never arrives and must be retried), whether the platform
delivers it twice, whether it is jittered out of order, and whether a
publish lands in a burst backlog that delays everything it issued.

Every decision is a pure function of ``(plan seed, hit id, assignment id,
attempt)`` — drawn from a string-seeded :class:`random.Random`, exactly like
the per-pair vote oracle in :class:`~repro.crowd.platform.SimulatedCrowdPlatform`
— so a fault schedule is reproducible across processes, independent of
``PYTHONHASHSEED``, and identical when a crashed session replays its
event log.  Faults perturb *when* votes arrive, never *what* they say: the
vote content still comes from the synchronous per-pair oracle, which is why
the async layer can promise bit-identical final results under any fault
schedule with eventual delivery.

Eventual delivery is guaranteed by construction: any attempt at or beyond
``max_faulty_attempts`` is delivered promptly and exactly once, so retry
loops terminate no matter how hostile the probabilities are.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class AssignmentFate:
    """What the fault plan decided for one assignment attempt.

    ``abandoned`` means the simulated worker never submits: the assignment
    sits until its deadline and is retried.  ``delay_ticks`` is how long
    after issue a non-abandoned submission arrives.  ``duplicate`` delivers
    the same assignment a second time ``duplicate_delay_ticks`` after the
    first copy (the platform must deduplicate it).
    """

    delay_ticks: int = 0
    abandoned: bool = False
    duplicate: bool = False
    duplicate_delay_ticks: int = 0


@dataclass
class FaultPlan:
    """A seeded, JSON-serializable schedule of crowd-delivery faults.

    Parameters
    ----------
    seed:
        Root seed of every per-assignment draw.
    delay_ticks_min / delay_ticks_max:
        Uniform base delivery delay, in virtual clock ticks.
    drop_probability:
        Chance an attempt is abandoned by its worker (never delivered;
        retried at the deadline).
    duplicate_probability:
        Chance a delivered attempt arrives a second time.
    duplicate_delay_ticks:
        How many ticks after the first copy the duplicate lands.
    reorder_probability / reorder_window_ticks:
        Chance an attempt gets extra uniform jitter of up to
        ``reorder_window_ticks`` ticks — enough to overtake or fall behind
        neighbouring assignments, i.e. out-of-order arrival.
    churn_probability:
        Chance the assigned worker goes offline mid-assignment.  Modelled
        as abandonment (the HIT slot times out and is retried); worker
        churn never mutates the pool itself, so the per-pair vote oracle —
        and with it the async == sync equivalence — is untouched.
    burst_every / burst_backlog_ticks:
        Every ``burst_every``-th publish call lands in a backlog burst:
        everything it issued gains ``burst_backlog_ticks`` extra delay
        (0 disables bursts).
    max_faulty_attempts:
        Hard eventual-delivery bound: attempts at or beyond this index are
        always delivered, never abandoned and never duplicated.
    """

    seed: int = 0
    delay_ticks_min: int = 0
    delay_ticks_max: int = 3
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    duplicate_delay_ticks: int = 2
    reorder_probability: float = 0.0
    reorder_window_ticks: int = 3
    churn_probability: float = 0.0
    burst_every: int = 0
    burst_backlog_ticks: int = 0
    max_faulty_attempts: int = 8

    def __post_init__(self) -> None:
        if self.delay_ticks_min < 0 or self.delay_ticks_max < self.delay_ticks_min:
            raise ValueError("need 0 <= delay_ticks_min <= delay_ticks_max")
        for name in ("drop_probability", "duplicate_probability",
                     "reorder_probability", "churn_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.duplicate_delay_ticks < 0:
            raise ValueError("duplicate_delay_ticks must be non-negative")
        if self.reorder_window_ticks < 0:
            raise ValueError("reorder_window_ticks must be non-negative")
        if self.burst_every < 0 or self.burst_backlog_ticks < 0:
            raise ValueError("burst parameters must be non-negative")
        if self.max_faulty_attempts < 1:
            raise ValueError("max_faulty_attempts must be at least 1")

    # -------------------------------------------------------------- drawing
    def _rng(self, *parts: object) -> random.Random:
        """One deterministic RNG per decision point (string-seeded)."""
        return random.Random("|".join(str(part) for part in (self.seed, *parts)))

    def fate(self, hit_id: str, assignment_id: str, attempt: int,
             publish_index: int) -> AssignmentFate:
        """Decide the delivery fate of one assignment attempt."""
        if attempt >= self.max_faulty_attempts:
            # The eventual-delivery guarantee: no fault survives this bound.
            return AssignmentFate(delay_ticks=self.delay_ticks_min)
        rng = self._rng("fate", hit_id, assignment_id, attempt)
        delay = rng.randint(self.delay_ticks_min, self.delay_ticks_max)
        if self.reorder_probability and rng.random() < self.reorder_probability:
            delay += rng.randint(0, self.reorder_window_ticks)
        if self.burst_every and publish_index % self.burst_every == self.burst_every - 1:
            delay += self.burst_backlog_ticks
        abandoned = bool(
            (self.drop_probability and rng.random() < self.drop_probability)
            or (self.churn_probability and rng.random() < self.churn_probability)
        )
        duplicate = bool(
            not abandoned
            and self.duplicate_probability
            and rng.random() < self.duplicate_probability
        )
        return AssignmentFate(
            delay_ticks=delay,
            abandoned=abandoned,
            duplicate=duplicate,
            duplicate_delay_ticks=self.duplicate_delay_ticks if duplicate else 0,
        )

    # -------------------------------------------------------- serialization
    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        """Inverse of ``dataclasses.asdict`` (the stored ``crowd.fault_plan``
        shape); unknown keys are rejected loudly."""
        known = {field for field in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown FaultPlan fields: {sorted(unknown)}")
        return cls(**payload)

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        """Load a plan from a JSON file (the CLI ``--fault-plan`` format)."""
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
