"""A CrowdSQL-style entry point: the ``~=`` self-join of the introduction.

The paper motivates CrowdER with the CrowdDB query::

    SELECT p.id, q.id FROM product p, product q
    WHERE p.product_name ~= q.product_name;

:func:`crowd_equijoin` offers the same ergonomics as a library call: give it
a record store, the attribute to compare and a ground truth for the crowd
simulation, and it returns the matching id pairs found by the hybrid
workflow.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from repro.core.config import WorkflowConfig
from repro.core.workflow import HybridWorkflow
from repro.datasets.base import Dataset
from repro.records.record import RecordStore

PairKey = Tuple[str, str]


def crowd_equijoin(
    store: RecordStore,
    attribute: str,
    ground_truth: FrozenSet[PairKey],
    likelihood_threshold: float = 0.3,
    cluster_size: int = 4,
    config: Optional[WorkflowConfig] = None,
    seed: int = 0,
) -> List[PairKey]:
    """Run the hybrid workflow as a crowd-powered fuzzy self-join.

    Parameters
    ----------
    store:
        The table to self-join.
    attribute:
        The attribute compared by ``~=`` (only this attribute feeds the
        machine likelihood).
    ground_truth:
        True matches used to simulate crowd answers (on a real deployment
        this would be replaced by actual worker input).
    likelihood_threshold / cluster_size / seed:
        Workflow knobs; ignored when an explicit ``config`` is given.

    Returns
    -------
    The list of matching id pairs, as the CrowdSQL query would return them.
    """
    if config is None:
        config = WorkflowConfig(
            likelihood_threshold=likelihood_threshold,
            cluster_size=cluster_size,
            similarity_attributes=[attribute],
            seed=seed,
        )
    dataset = Dataset(name=f"crowdsql-{store.name}", store=store, ground_truth=ground_truth)
    workflow = HybridWorkflow(config=config)
    result = workflow.resolve(dataset)
    return sorted(result.matches)
