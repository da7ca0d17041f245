"""Machine-based candidate-pair generation: the similarity join.

This package implements the machine pass of CrowdER's hybrid workflow:
computing, for every candidate pair, the likelihood that the two records
refer to the same entity (Section 2.2) without the all-pairs comparison the
paper's footnote 1 says an index should avoid.  There is one join: the
blocked dense-output kernel of :mod:`repro.simjoin.vectorized` (a block
scored as ``band CSR @ dense(block tokens)``), run over
row blocks (inline or on worker threads, :mod:`repro.simjoin.parallel`) by
:class:`repro.streaming.incremental_join.IncrementalSimJoin` — a batch run
is one append of the whole store to an empty join.  The all-pairs scan
(:func:`~repro.simjoin.allpairs.all_pairs_similarity`) is the oracle the
join is tested against; :class:`~repro.simjoin.likelihood.SimJoinLikelihood`
selects between them with ``backend="auto"`` / ``"naive"``.
"""

from repro.simjoin.allpairs import all_pairs_similarity
from repro.simjoin.likelihood import SimJoinLikelihood

__all__ = [
    "all_pairs_similarity",
    "SimJoinLikelihood",
]
