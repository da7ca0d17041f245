"""Machine-based candidate-pair generation: the similarity join.

This package implements the machine pass of CrowdER's hybrid workflow:
computing, for every candidate pair, the likelihood that the two records
refer to the same entity (Section 2.2) without the all-pairs comparison the
paper's footnote 1 says an index should avoid.  There is one join: the
blocked sparse-product kernel of :mod:`repro.simjoin.vectorized`, run over
a record store (row blocks scored inline or on worker threads) by
:class:`~repro.simjoin.parallel.VectorizedSimJoin`.  The all-pairs scan
(:func:`~repro.simjoin.allpairs.all_pairs_similarity`) is the oracle the
kernel is tested against; :class:`~repro.simjoin.likelihood.SimJoinLikelihood`
selects between them with ``backend="auto"`` / ``"naive"``.
"""

from repro.simjoin.allpairs import all_pairs_similarity
from repro.simjoin.likelihood import LikelihoodEstimator, SimJoinLikelihood
from repro.simjoin.parallel import VectorizedSimJoin

__all__ = [
    "all_pairs_similarity",
    "VectorizedSimJoin",
    "LikelihoodEstimator",
    "SimJoinLikelihood",
]
