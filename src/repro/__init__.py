"""CrowdER reproduction: hybrid human-machine entity resolution.

A from-scratch Python implementation of *CrowdER: Crowdsourcing Entity
Resolution* (Wang, Kraska, Franklin, Feng — PVLDB 5(11), 2012), including
the machine-based similarity substrate (one join kernel, each row block
scored as a band CSR times the block's dense token incidence, on worker
threads), pair-based and cluster-based HIT
generation (with the paper's two-tiered heuristic and all evaluated
baselines), a simulated crowdsourcing platform, answer aggregation, a
streaming incremental resolution engine with durable checkpoint/restore
and provenance-scoped record retraction, and the full evaluation harness.

Typical use::

    from repro import HybridWorkflow, WorkflowConfig, load_restaurant

    dataset = load_restaurant()
    workflow = HybridWorkflow(WorkflowConfig(likelihood_threshold=0.35))
    result = workflow.resolve(dataset)
    print(result.summary())

For long-lived sessions (arriving batches, retractions, crash recovery)
see :mod:`repro.streaming` and the ``docs/`` site.
"""

from repro.core import (
    HybridWorkflow,
    ResolutionResult,
    SimJoinRanker,
    StreamingDelta,
    SVMRanker,
    WorkflowConfig,
    crowd_equijoin,
    human_only_hit_count,
)
from repro.datasets import (
    Dataset,
    load_product,
    load_product_dup,
    load_restaurant,
    paper_example_matches,
    paper_example_store,
)
from repro.hit import (
    ClusterBasedHIT,
    HITBatch,
    PairBasedHIT,
    PairHITGenerator,
    TwoTieredClusterGenerator,
    get_cluster_generator,
)
from repro.records import PairSet, Record, RecordPair, RecordStore
from repro.streaming import IncrementalSimJoin, StreamingResolver, resolve_stream

__version__ = "1.2.0"

__all__ = [
    "HybridWorkflow",
    "WorkflowConfig",
    "ResolutionResult",
    "StreamingDelta",
    "StreamingResolver",
    "IncrementalSimJoin",
    "resolve_stream",
    "SimJoinRanker",
    "SVMRanker",
    "crowd_equijoin",
    "human_only_hit_count",
    "Dataset",
    "load_restaurant",
    "load_product",
    "load_product_dup",
    "paper_example_store",
    "paper_example_matches",
    "Record",
    "RecordStore",
    "RecordPair",
    "PairSet",
    "PairBasedHIT",
    "ClusterBasedHIT",
    "HITBatch",
    "PairHITGenerator",
    "TwoTieredClusterGenerator",
    "get_cluster_generator",
    "__version__",
]
