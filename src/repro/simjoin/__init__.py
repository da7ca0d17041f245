"""Machine-based candidate-pair generation: similarity joins and blocking.

This package implements the machine pass of CrowdER's hybrid workflow:
computing, for every candidate pair, the likelihood that the two records
refer to the same entity (Section 2.2), and the indexing techniques the
paper's footnote 1 mentions for avoiding all-pairs comparison (blocking and
prefix-filtering similarity joins).  Four interchangeable join engines —
naive, prefix-filtering, vectorized (sparse-matrix) and parallel (the same
sparse products sharded across a process pool) — are exposed through the
backend registry in :mod:`repro.simjoin.backend`.
"""

from repro.simjoin.allpairs import all_pairs_similarity
from repro.simjoin.backend import (
    AUTO_BACKEND,
    SimJoinBackend,
    auto_backend_name,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.simjoin.blocking import TokenBlocker, QGramBlocker, AttributeBlocker
from repro.simjoin.likelihood import LikelihoodEstimator, SimJoinLikelihood
from repro.simjoin.parallel import ParallelSimJoin
from repro.simjoin.pool import (
    ShardPool,
    SharedArrayBlock,
    active_pools,
    shared_pool,
    shutdown_pools,
)
from repro.simjoin.prefix_filter import PrefixFilterJoin
from repro.simjoin.vectorized import VectorizedSimJoin, vectorized_similarity_join

__all__ = [
    "all_pairs_similarity",
    "PrefixFilterJoin",
    "VectorizedSimJoin",
    "vectorized_similarity_join",
    "ParallelSimJoin",
    "ShardPool",
    "SharedArrayBlock",
    "active_pools",
    "shared_pool",
    "shutdown_pools",
    "TokenBlocker",
    "QGramBlocker",
    "AttributeBlocker",
    "LikelihoodEstimator",
    "SimJoinLikelihood",
    "SimJoinBackend",
    "AUTO_BACKEND",
    "auto_backend_name",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
]
