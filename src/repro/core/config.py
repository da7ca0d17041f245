"""Configuration of the hybrid workflow."""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.simjoin.likelihood import JOIN_BACKENDS


@dataclass
class WorkflowConfig:
    """All knobs of one hybrid-workflow run: what it computes and how durably.

    Observability is not a knob of a run: the process switches it on
    (:func:`repro.obs.activate`, the CLI's ``--metrics`` / ``--trace``).

    Attributes mirror the experimental setup of Section 7:

    * ``likelihood_threshold`` — the machine pruning threshold (0.35 for
      Restaurant, 0.2 for Product in the paper).
    * ``hit_type`` — ``"cluster"`` (the paper's default) or ``"pair"``.
    * ``cluster_size`` — the cluster-size threshold ``k`` (10 in the paper).
    * ``pairs_per_hit`` — pair-based batching size (only for pair HITs).
    * ``cluster_generator`` — ``"two-tiered"``, ``"bfs"``, ``"dfs"``,
      ``"random"`` or ``"approximation"`` (the two-tiered generator packs
      with column generation).
    * ``assignments_per_hit`` — replication factor (3 in the paper).
    * ``use_qualification_test`` — whether workers must pass the test.
    * ``aggregation`` — ``"dawid-skene"`` (the paper) or ``"majority"``.
    * ``similarity_attributes`` — attributes pooled by the simjoin
      likelihood: a list of names, never one bare string (``None`` = all).
    * ``join_backend`` — ``"auto"`` (the join kernel) or ``"naive"`` (the
      all-pairs scan kept as its test oracle); both return the identical
      pair set, the choice only affects speed.  It applies to the *batch*
      join only: streaming sessions always run the kernel on their
      appended rows.
    * ``join_workers`` — threads the kernel's row blocks are scored on, for
      the batch join and for a streaming session's per-batch product alike
      (0 = one per CPU core this process may use).  A product of a single
      row block is scored inline; the threads live for the one join.  Any
      value produces bit-identical pairs and likelihoods.
    * ``vote_mode`` — how the simulated crowd draws votes:
      ``"sequential"`` (legacy; votes depend on HIT grouping and publish
      order) or ``"per-pair"`` (votes are a pure function of the pair key —
      required for streaming == batch equivalence, see
      :class:`repro.streaming.StreamingResolver`).
    * ``stream_batch_size`` — records per arrival batch when a dataset is
      replayed through the streaming resolver (CLI ``resolve-stream``).
    * ``streaming_aggregation_scope`` — ``"component"`` re-aggregates only
      dirty components on each snapshot (posteriors of untouched components
      are preserved bit-for-bit), ``"global"`` re-runs the aggregator over
      all accumulated votes (exactly matches one-shot Dawid-Skene).
    * ``checkpoint_dir`` — when set, a streaming session is *durable*: its
      one file, ``store.sqlite`` in this directory, holds the session's
      state and its write-ahead event log; every event is committed to
      the log (fsynced) before it is applied, so
      :meth:`repro.streaming.StreamingResolver.restore` — page in the
      state, replay the logged events it has not seen — resumes the
      session bit-identically after a crash or restart.  ``None``
      (default) keeps the session in memory only.
    * ``checkpoint_every_batches`` — checkpoint cadence of a durable
      *memory-backed* session: every this-many applied events (batches,
      retractions, updates, flushes) the store's state tables are
      rewritten from the live state, bounding how many logged events a
      restore replays.  0 disables the cadence (log-only durability;
      explicit ``save()`` still works).  A sqlite-backed session's state
      is current after every event, so the cadence does nothing for it.
    * ``storage_backend`` — *when* the store's state tables are written:
      ``"memory"`` (default) keeps the state in process structures and
      writes it whole at the checkpoint cadence and on ``save()``;
      ``"sqlite"`` mirrors every mutation into the store, one transaction
      per event, and keeps record bodies out of process memory (requires
      ``checkpoint_dir``: the store lives at ``checkpoint_dir/store.sqlite``).
      Same file and restore algorithm either way, and results are
      bit-identical; a restored session keeps the backend it was written
      with.
    * ``crowd_mode`` — how streaming sessions talk to the crowd:
      ``"sync"`` (default; ``publish()`` returns every vote in-process) or
      ``"async"`` (HITs are enqueued on a virtual clock and votes arrive
      later through :meth:`repro.crowd.AsyncCrowdPlatform.poll`, with
      timeouts, retries, reissues and deduplication; requires
      ``vote_mode="per-pair"``).  Final results are bit-identical across
      modes for any fault schedule with eventual delivery.
    * ``vote_timeout`` — async mode: virtual-clock ticks before an
      unanswered HIT assignment times out and is retried.
    * ``max_inflight_hits`` — async mode backpressure window: the maximum
      number of HITs with undelivered assignments; 0 = unbounded.
    * ``backpressure_policy`` — what an async publish does when the
      in-flight window is full: ``"block"`` advances the virtual clock
      until votes drain, ``"shed"`` defers the publish (the session
      retries the shed pairs on the next event and at flush).
    * ``crowd_max_retries`` — async mode: free retry attempts per HIT
      assignment before further attempts become paid reissues.
    * ``fault_plan`` — async mode: optional JSON-friendly dict (the
      :meth:`repro.crowd.FaultPlan.to_dict` shape) injecting deterministic
      seeded delivery faults — delays, drops, duplicates, reorder, worker
      churn, burst backlogs.  ``None`` (default) delivers fault-free.
    * ``seed`` — seed for the crowd simulation.
    """

    likelihood_threshold: float = 0.2
    hit_type: str = "cluster"
    cluster_size: int = 10
    pairs_per_hit: int = 16
    cluster_generator: str = "two-tiered"
    assignments_per_hit: int = 3
    use_qualification_test: bool = False
    aggregation: str = "dawid-skene"
    similarity_attributes: Optional[Sequence[str]] = None
    join_backend: str = "auto"
    join_workers: int = 0
    vote_mode: str = "sequential"
    stream_batch_size: int = 256
    streaming_aggregation_scope: str = "component"
    checkpoint_dir: Optional[str] = None
    checkpoint_every_batches: int = 16
    storage_backend: str = "memory"
    crowd_mode: str = "sync"
    vote_timeout: int = 8
    max_inflight_hits: int = 64
    backpressure_policy: str = "block"
    crowd_max_retries: int = 3
    fault_plan: Optional[dict] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.likelihood_threshold <= 1.0:
            raise ValueError("likelihood_threshold must be in [0, 1]")
        if self.hit_type not in ("pair", "cluster"):
            raise ValueError("hit_type must be 'pair' or 'cluster'")
        if self.cluster_size < 2:
            raise ValueError("cluster_size must be at least 2")
        if self.pairs_per_hit < 1:
            raise ValueError("pairs_per_hit must be at least 1")
        if self.assignments_per_hit < 1:
            raise ValueError("assignments_per_hit must be at least 1")
        if self.aggregation not in ("dawid-skene", "majority"):
            raise ValueError("aggregation must be 'dawid-skene' or 'majority'")
        # Imported here: importing repro.hit imports repro.core.
        from repro.hit.generator import available_generators

        if self.cluster_generator not in available_generators():
            raise ValueError(
                f"cluster_generator must be one of {available_generators()}, "
                f"got {self.cluster_generator!r}"
            )
        attributes = self.similarity_attributes
        if attributes is not None and (
            isinstance(attributes, str)
            or not isinstance(attributes, abc.Sequence)
            or not all(isinstance(name, str) for name in attributes)
        ):
            raise ValueError(
                "similarity_attributes must be None or a list of attribute names, "
                f"got {attributes!r}"
            )
        if self.join_backend not in JOIN_BACKENDS:
            raise ValueError(f"join_backend must be one of {JOIN_BACKENDS}")
        if self.join_workers < 0:
            raise ValueError("join_workers must be non-negative (0 = one per core)")
        if self.checkpoint_every_batches < 0:
            raise ValueError(
                "checkpoint_every_batches must be non-negative (0 = only on save())"
            )
        if self.storage_backend not in ("memory", "sqlite"):
            raise ValueError("storage_backend must be 'memory' or 'sqlite'")
        if self.storage_backend == "sqlite" and not self.checkpoint_dir:
            raise ValueError(
                "storage_backend='sqlite' needs checkpoint_dir: the store "
                "lives at checkpoint_dir/store.sqlite"
            )
        if self.vote_mode not in ("sequential", "per-pair"):
            raise ValueError("vote_mode must be 'sequential' or 'per-pair'")
        if self.stream_batch_size < 1:
            raise ValueError("stream_batch_size must be at least 1")
        if self.streaming_aggregation_scope not in ("component", "global"):
            raise ValueError("streaming_aggregation_scope must be 'component' or 'global'")
        if self.crowd_mode not in ("sync", "async"):
            raise ValueError("crowd_mode must be 'sync' or 'async'")
        if self.crowd_mode == "async" and self.vote_mode != "per-pair":
            raise ValueError("crowd_mode='async' requires vote_mode='per-pair'")
        if self.vote_timeout < 1:
            raise ValueError("vote_timeout must be at least 1 tick")
        if self.max_inflight_hits < 0:
            raise ValueError("max_inflight_hits must be non-negative (0 = unbounded)")
        if self.backpressure_policy not in ("block", "shed"):
            raise ValueError("backpressure_policy must be 'block' or 'shed'")
        if self.crowd_max_retries < 0:
            raise ValueError("crowd_max_retries must be non-negative")
        if self.fault_plan is not None and not isinstance(self.fault_plan, dict):
            raise ValueError(
                "fault_plan must be a JSON-friendly dict (FaultPlan.to_dict()) or None"
            )

