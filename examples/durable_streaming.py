"""Durable streaming: checkpoint a session, 'crash', restore, and retract.

This example streams the paper's nine-product table into a durable
:class:`repro.streaming.StreamingResolver` (one ``store.sqlite`` in a
temporary checkpoint directory: its write-ahead event log plus its state,
each event's changed rows written when it commits), abandons the resolver object as a
stand-in for a process crash, restores the session from disk, verifies the
restored state is bit-identical, finishes the stream, and finally retracts
a record to show provenance-scoped invalidation.

Run with:  PYTHONPATH=src python examples/durable_streaming.py
"""

import shutil
import tempfile

from repro import WorkflowConfig, paper_example_matches, paper_example_store
from repro.streaming import StreamingResolver


def main() -> None:
    checkpoint_dir = tempfile.mkdtemp(prefix="er-session-")
    records = list(paper_example_store())

    config = WorkflowConfig(
        likelihood_threshold=0.3,
        cluster_size=4,
        similarity_attributes=["product_name"],
        vote_mode="per-pair",
        aggregation="majority",
        checkpoint_dir=checkpoint_dir,
        seed=1,
    )
    session = StreamingResolver(config)
    session.add_truth(paper_example_matches())

    print(f"durable session in {checkpoint_dir}")
    session.add_batch(records[:3])
    session.add_batch(records[3:6])
    snap = session.snapshot()
    print(f"after 2 batches: {snap.candidate_count} candidate pairs, "
          f"{len(snap.matches)} matches, {session.events_applied} logged events")
    digest_before = session.state_digest()

    # --- simulate a crash: the in-memory session is simply gone -----------
    del session

    restored = StreamingResolver.restore(checkpoint_dir)
    print(f"restored: {restored.record_count} records, "
          f"digest matches: {restored.state_digest() == digest_before}")

    restored.add_batch(records[6:])
    print(f"stream complete: matches = {sorted(restored.snapshot().matches)}")

    # --- a correction arrives: r2 was withdrawn by its source -------------
    delta = restored.retract("r2")
    print(f"retracted r2: {delta.invalidated_pairs} pairs invalidated, "
          f"{delta.dirty_components} component(s) re-resolved, "
          f"{delta.clean_components} untouched")
    print(f"matches now: {sorted(restored.snapshot().matches)}")

    restored.durability.close()  # releases store.sqlite (folds its WAL back)
    shutil.rmtree(checkpoint_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
