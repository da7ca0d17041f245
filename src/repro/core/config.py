"""Configuration of the hybrid workflow."""

from __future__ import annotations

from collections import abc
from dataclasses import InitVar, dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.simjoin.likelihood import JOIN_BACKENDS

if TYPE_CHECKING:
    from repro.crowd.async_platform import AsyncCrowd


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
    * ``pairs_per_hit`` — pair-based batching size (only for pair HITs;
      cluster HITs are always two-tiered).
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
      session bit-identically after a crash or restart.  A durable
      session keeps its state in process memory like any other and writes
      each event's changed rows into the store when the event commits.
      ``None`` (default) keeps the session in memory only.
    * ``crowd`` — ``None`` (default): a streaming session's crowd answers
      every publish in-process; an :class:`repro.crowd.AsyncCrowd` (or its
      dict form): votes arrive later, with timeouts, retries, backpressure
      and seeded faults (requires ``vote_mode="per-pair"``).  Final results
      are identical for any fault schedule with eventual delivery.
    * ``seed`` — seed for the crowd simulation.

    ``storage_backend`` is a retired keyword, not a field: it is accepted
    (``"memory"`` or ``"sqlite"``, the latter only with ``checkpoint_dir``)
    and changes nothing, because every session keeps its state in memory
    and a durable one writes each event's rows at commit.
    """

    likelihood_threshold: float = 0.2
    hit_type: str = "cluster"
    cluster_size: int = 10
    pairs_per_hit: int = 16
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
    storage_backend: InitVar[Optional[str]] = None
    crowd: Optional["AsyncCrowd"] = None
    seed: int = 0

    def __post_init__(self, storage_backend: Optional[str]) -> None:
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
        if storage_backend not in (None, "memory", "sqlite"):
            raise ValueError("storage_backend must be 'memory' or 'sqlite'")
        if storage_backend == "sqlite" and not self.checkpoint_dir:
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
        if self.crowd is not None:
            # Imported here: importing repro.crowd imports repro.core.
            from repro.crowd.async_platform import AsyncCrowd

            if not isinstance(self.crowd, AsyncCrowd):
                self.crowd = AsyncCrowd.from_dict(self.crowd)
            if self.vote_mode != "per-pair":
                raise ValueError("an async crowd requires vote_mode='per-pair'")
