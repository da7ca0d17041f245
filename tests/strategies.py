"""Shared hypothesis strategies for the property-based test suite.

One definition of every randomized input shape the suite drives:
token/text/pair universes (similarity and HIT-cover properties), randomized
record stores with duplicates and empty-token records (backend-equivalence
properties), and event schedules of batches/retractions/updates/flushes
(storage and streaming equivalence).  The per-file copies these replaced
had already drifted apart once; import from here instead of re-declaring.

Not a test module (no ``test_`` prefix) — pytest imports it from the test
files through its rootdir-relative import of the ``tests`` directory.
"""

from __future__ import annotations

import sqlite3
import string

from hypothesis import strategies as st

from repro.crowd.faults import FaultPlan
from repro.records.pairs import PairSet, RecordPair
from repro.records.record import Record, RecordStore
from repro.storage.sqlite import _TABLES, STORE_FILENAME

# ------------------------------------------------------- text/token shapes
#: Small token vocabulary: guarantees overlapping token sets (and therefore
#: non-trivial similarities and candidate pairs) at tiny store sizes.
WORDS = ["ipad", "apple", "16gb", "wifi", "white", "2nd", "gen", "mini", "pro", "max"]

#: Record texts over :data:`WORDS` — products whose token sets collide often.
record_texts = st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join)

#: Bounded token sets for direct similarity-function properties.
token_sets = st.sets(st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h"]), max_size=8)

#: Short free-form texts for edit-distance properties.
short_text = st.text(alphabet=string.ascii_lowercase + " 0123456789", max_size=24)

#: A bounded vertex universe, so random edge sets form interesting graphs.
vertex_ids = st.integers(min_value=0, max_value=25).map(lambda i: f"v{i:02d}")

#: Likelihood thresholds that exercise the no-filtering, typical and
#: aggressive-pruning regimes of the join.
join_thresholds = st.sampled_from((0.0, 0.3, 0.7))


@st.composite
def random_stores(draw, with_sources=False):
    """Randomized stores with duplicates and empty-token records.

    Some records are exact duplicates of earlier ones (same text, distinct
    id) and some have no tokens at all — the edge cases the kernel and the
    oracle must agree on.  With ``with_sources`` each record is tagged
    "abt" or "buy" for cross-source linkage joins.
    """
    texts = draw(st.lists(record_texts, min_size=2, max_size=14))
    duplicate_of = draw(
        st.lists(st.integers(min_value=0, max_value=len(texts) - 1), max_size=3)
    )
    texts.extend(texts[i] for i in duplicate_of)
    store = RecordStore()
    for i, text in enumerate(texts):
        source = ("abt", "buy")[draw(st.integers(0, 1))] if with_sources else None
        store.add(Record(f"r{i:03d}", {"name": text}, source=source))
    return store


@st.composite
def pair_sets(draw):
    """Random pair sets over a bounded vertex universe."""
    edges = draw(
        st.sets(
            st.tuples(vertex_ids, vertex_ids).filter(lambda pair: pair[0] != pair[1]),
            min_size=1,
            max_size=60,
        )
    )
    pairs = PairSet()
    for id_a, id_b in edges:
        pairs.add(RecordPair(id_a, id_b, likelihood=0.5))
    return pairs


@st.composite
def fault_plans(draw):
    """Random seeded crowd fault plans, from benign to outright hostile.

    Probabilities are drawn from small discrete grids (not continuous
    floats) so shrinking lands on readable plans and the hostile corner
    (drops + duplicates + reordering + churn + bursts all at once) is
    actually reachable within a handful of examples.
    """
    delay_min = draw(st.integers(min_value=0, max_value=2))
    return FaultPlan(
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        delay_ticks_min=delay_min,
        delay_ticks_max=delay_min + draw(st.integers(min_value=0, max_value=4)),
        drop_probability=draw(st.sampled_from((0.0, 0.2, 0.5))),
        duplicate_probability=draw(st.sampled_from((0.0, 0.2, 0.4))),
        duplicate_delay_ticks=draw(st.integers(min_value=0, max_value=3)),
        reorder_probability=draw(st.sampled_from((0.0, 0.3, 0.6))),
        reorder_window_ticks=draw(st.integers(min_value=0, max_value=4)),
        churn_probability=draw(st.sampled_from((0.0, 0.2))),
        burst_every=draw(st.sampled_from((0, 2, 3))),
        burst_backlog_ticks=draw(st.integers(min_value=0, max_value=5)),
    )


# ---------------------------------------------------------- event schedules
def event_schedules(min_size=2, max_size=6):
    """Random streaming-session event schedules, interpreted by :func:`drive`.

    Arrival batches of 1-20 records, retractions/updates of a (modularly
    chosen) resident record, and flushes.
    """
    return st.lists(
        st.one_of(
            st.tuples(st.just("batch"), st.integers(min_value=1, max_value=20)),
            st.tuples(st.just("retract"), st.integers(min_value=0, max_value=10_000)),
            st.tuples(st.just("update"), st.integers(min_value=0, max_value=10_000)),
            st.tuples(st.just("flush"), st.just(0)),
        ),
        min_size=min_size,
        max_size=max_size,
    )

#: Seeds for shuffled arrival orders and arrival batch sizes used by the
#: streaming-equals-batch equivalence properties.
order_seeds = st.integers(min_value=0, max_value=10_000)
arrival_batch_sizes = st.integers(min_value=3, max_value=40)


def drive(resolver, records, schedule, cursor=0):
    """Apply a :data:`event_schedules` schedule deterministically.

    Returns the arrival cursor so a schedule can be split at an arbitrary
    point (crash simulation) and resumed with the same remaining records.
    """
    for action, argument in schedule:
        if action == "batch":
            batch = records[cursor : cursor + argument]
            cursor += argument
            if batch:
                resolver.add_batch(batch)
        elif action == "retract":
            resident = sorted(resolver.store.record_ids)
            if resident:
                resolver.retract(resident[argument % len(resident)])
        elif action == "update":
            resident = sorted(resolver.store.record_ids)
            if resident:
                record = resolver.store.get(resident[argument % len(resident)])
                resolver.update(record.with_attributes(name=f"revision {argument}"))
        elif action == "flush":
            resolver.flush()
    return cursor


# ---------------------------------------------------------- crash simulation
def crash_copy(directory, target, after):
    """Copy a session's store as a crash right after log entry ``after`` left it.

    The copy (SQLite's backup API, so a live session's WAL is included)
    loses every event newer than ``after``; state tables written later
    than that — ``meta.events_applied > after`` — are emptied, because a
    store cannot be ahead of its log.  Returns ``target``.
    """
    target.mkdir(parents=True, exist_ok=True)
    source = sqlite3.connect(str(directory / STORE_FILENAME))
    copy = sqlite3.connect(str(target / STORE_FILENAME))
    with copy:
        source.backup(copy)
    source.close()
    with copy:
        copy.execute("DELETE FROM events WHERE seq > ?", (after,))
        row = copy.execute("SELECT value FROM meta WHERE key = 'events_applied'").fetchone()
        if row is not None and int(row[0]) > after:
            for table in _TABLES:
                copy.execute(f"DELETE FROM {table}")
    copy.close()
    return target
