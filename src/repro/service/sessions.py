"""Session lifecycle behind the HTTP API: create, mutate, save, restore.

A hosted session is one :class:`~repro.streaming.StreamingResolver` pinned
to one shard (see :mod:`repro.service.shards`).  The manager owns the
``session_id -> handle`` registry — mutated only on the event-loop thread —
while every resolver call (including construction, restore and close: the
SQLite connection is thread-affine) runs on the owning shard's
thread through the executor.

Wire format: records travel as the event log's JSON encoding
(``{"record_id", "attributes", "source"}``), pair keys as two-element
arrays, posteriors as sorted ``[id_a, id_b, posterior]`` triples.  A
record mutation answers with what its event changed (:func:`encode_event`:
the delta, the counters, the touched pairs), never with the whole
resolution; ``GET result`` serves that, in full (:func:`encode_result`) or
as a page of the ranked list (:func:`encode_page`), and ``flush`` answers
with the settled one in full.  All three are built on the session's
shard thread, inside the call that ran the resolver.  Floats round-trip
through JSON exactly (shortest-repr float64), so a client can assert
**bit-identity** between a served session and a standalone resolver
replaying the same events — the concurrency property tests do.
"""

from __future__ import annotations

import uuid
from typing import Dict, List, Optional, Tuple

from repro.core.config import WorkflowConfig
from repro.core.results import ResolutionResult, StreamingDelta
from repro.records.record import Record, RecordError
from repro.service.errors import (
    bad_request,
    resume_conflict,
    session_closed,
    session_exists,
    unknown_session,
)
from repro.service.shards import ShardExecutor
from repro.streaming import StreamingResolver
from repro.streaming.persistence import PersistenceError, decode_record


def _counters(result: ResolutionResult) -> Dict[str, object]:
    """The O(1) part every result payload carries."""
    return {
        "candidate_count": result.candidate_count,
        "hit_count": result.hit_count,
        "assignment_count": result.assignment_count,
        "cost": result.cost,
        "recall_ceiling": result.recall_ceiling,
    }


def encode_result(result: ResolutionResult) -> Dict[str, object]:
    """JSON payload of a resolution snapshot (deterministically ordered)."""
    return {
        "matches": sorted([list(key) for key in result.matches]),
        "posteriors": sorted(
            [[key[0], key[1], value] for key, value in result.posteriors.items()]
        ),
        **_counters(result),
    }


def encode_event(delta: StreamingDelta, resolver: StreamingResolver) -> Dict[str, object]:
    """JSON payload of one applied event: as large as what the event touched.

    ``delta`` is what the event returned, read right after it.  ``changed``
    lists the touched pairs as sorted ``[id_a, id_b, posterior]`` triples,
    ``null`` for a pair that has no posterior now (dropped, or not voted
    yet); folding every answer's list into a dict keeps exactly
    ``GET result``'s ``posteriors``.  ``changed`` itself is ``null`` when the
    session cannot say what moved — the client re-reads the result.
    """
    changed = None
    if delta.changed is not None:
        posteriors = resolver.storage.ledger.posteriors
        changed = sorted([key[0], key[1], posteriors.get(key)] for key in delta.changed)
    # An empty page carries the session's counters and nothing session-sized.
    counters = _counters(resolver.ranked_page(0, 0))
    return {"delta": delta.as_dict(), "changed": changed, **counters}


def encode_page(result: ResolutionResult, after: int, limit: int) -> Dict[str, object]:
    """JSON payload of :meth:`StreamingResolver.ranked_page`: most likely first."""
    likelihoods, posteriors = result.likelihoods, result.posteriors
    return {
        "ranked": [
            [key[0], key[1], likelihoods[key], posteriors.get(key)]
            for key in result.ranked_pairs
        ],
        "after": after,
        "limit": limit,
        **_counters(result),
    }


def _parse_records(payload: object) -> List[Record]:
    if not isinstance(payload, list):
        raise bad_request("'records' must be an array of record objects")
    records = []
    for entry in payload:
        if not isinstance(entry, dict) or "record_id" not in entry:
            raise bad_request(f"record entry without a record_id: {entry!r}")
        try:
            records.append(
                decode_record(
                    {
                        "record_id": entry["record_id"],
                        "attributes": entry.get("attributes", {}),
                        "source": entry.get("source"),
                    }
                )
            )
        except (TypeError, ValueError, RecordError) as error:
            raise bad_request(f"invalid record: {error}") from None
    return records


def _parse_truth(payload: object) -> List[Tuple[str, str]]:
    if not isinstance(payload, list):
        raise bad_request("'truth' must be an array of [id_a, id_b] pairs")
    pairs = []
    for entry in payload:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise bad_request(f"invalid truth pair: {entry!r}")
        pairs.append((str(entry[0]), str(entry[1])))
    return pairs


class SessionHandle:
    """Registry entry of one hosted session."""

    def __init__(self, session_id: str, shard: int) -> None:
        self.session_id = session_id
        self.shard = shard
        self.resolver: Optional[StreamingResolver] = None
        self.closed = False
        #: Final status captured at close time (status stays readable).
        self.final_status: Optional[Dict[str, object]] = None

    @property
    def durable(self) -> bool:
        return self.resolver is not None and self.resolver.durability.store is not None


class SessionManager:
    """The ``session_id -> resolver`` registry and its lifecycle operations.

    All public coroutines are called from the event loop; registry
    mutations happen there (single-threaded, so no lock), resolver work is
    shipped to the owning shard.
    """

    def __init__(self, shards: ShardExecutor) -> None:
        self.shards = shards
        self.sessions: Dict[str, SessionHandle] = {}

    # ------------------------------------------------------------- helpers
    def _handle(self, session_id: str, allow_closed: bool = False) -> SessionHandle:
        handle = self.sessions.get(session_id)
        if handle is None:
            raise unknown_session(session_id)
        if handle.closed and not allow_closed:
            raise session_closed(session_id)
        return handle

    def _status_payload(self, handle: SessionHandle) -> Dict[str, object]:
        resolver = handle.resolver
        assert resolver is not None
        return {
            "session_id": handle.session_id,
            "shard": handle.shard,
            "closed": handle.closed,
            "records": resolver.record_count,
            "candidates": resolver.candidate_count,
            "events_applied": resolver.events_applied,
            "durable": handle.durable,
        }

    # ----------------------------------------------------------- lifecycle
    async def create(self, payload: dict) -> Dict[str, object]:
        """Create a session from a ``WorkflowConfig`` JSON payload."""
        if not isinstance(payload, dict):
            raise bad_request("request body must be a JSON object")
        session_id = payload.get("session_id") or uuid.uuid4().hex
        if not isinstance(session_id, str):
            raise bad_request("'session_id' must be a string")
        config_payload = payload.get("config", {})
        if not isinstance(config_payload, dict):
            raise bad_request("'config' must be a WorkflowConfig JSON object")
        try:
            config = WorkflowConfig(
                **{**config_payload, "vote_mode": "per-pair"}
            )
        except (TypeError, ValueError) as error:
            raise bad_request(f"invalid config: {error}") from None
        cross_sources = payload.get("cross_sources")
        if cross_sources is not None:
            if not isinstance(cross_sources, (list, tuple)) or len(cross_sources) != 2:
                raise bad_request("'cross_sources' must be a two-element array")
            cross_sources = tuple(cross_sources)
        truth = _parse_truth(payload["truth"]) if "truth" in payload else None
        if session_id in self.sessions:
            raise session_exists(session_id)
        handle = SessionHandle(session_id, self.shards.place(session_id))
        # Reserve the id before yielding to the shard so concurrent creates
        # of the same id conflict deterministically.
        self.sessions[session_id] = handle

        def build() -> StreamingResolver:
            resolver = StreamingResolver(config=config, cross_sources=cross_sources)
            if truth:
                resolver.add_truth(truth)
            return resolver

        try:
            handle.resolver = await self.shards.submit(session_id, build)
        except PersistenceError as error:
            self._abandon(handle)
            raise resume_conflict(session_id, str(error)) from None
        except Exception:
            self._abandon(handle)
            raise
        return self._status_payload(handle)

    async def restore(self, session_id: str, payload: dict) -> Dict[str, object]:
        """Re-open a durable session from its checkpoint directory."""
        if not isinstance(payload, dict):
            raise bad_request("request body must be a JSON object")
        checkpoint_dir = payload.get("checkpoint_dir")
        if not checkpoint_dir or not isinstance(checkpoint_dir, str):
            raise bad_request("'checkpoint_dir' is required to restore a session")
        existing = self.sessions.get(session_id)
        if existing is not None and not existing.closed:
            raise resume_conflict(session_id, "session is already open")
        handle = SessionHandle(session_id, self.shards.place(session_id))
        self.sessions[session_id] = handle
        try:
            handle.resolver = await self.shards.submit(
                session_id, StreamingResolver.restore, checkpoint_dir
            )
        except PersistenceError as error:
            self._abandon(handle, existing)
            raise resume_conflict(session_id, str(error)) from None
        except Exception:
            self._abandon(handle, existing)
            raise
        return self._status_payload(handle)

    def _abandon(
        self, handle: SessionHandle, existing: Optional[SessionHandle] = None
    ) -> None:
        """Undo a failed create or restore: drop its handle, free its shard
        slot, and put back the closed session a restore was to replace."""
        self.sessions.pop(handle.session_id, None)
        self.shards.release(handle.session_id)
        if existing is not None:
            self.sessions[handle.session_id] = existing

    def _save_and_close(self, handle: SessionHandle) -> Dict[str, object]:
        """Shard-thread half of closing: save when durable, release the store."""
        resolver = handle.resolver
        if handle.durable:
            resolver.save()
        status = {**self._status_payload(handle), "closed": True}
        resolver.durability.close()
        return status

    async def close(self, session_id: str) -> Dict[str, object]:
        """Save (when durable) and close a session; status stays readable."""
        handle = self._handle(session_id)
        status = await self.shards.submit(session_id, self._save_and_close, handle)
        self.shards.release(session_id)
        handle.closed = True
        handle.final_status = status
        handle.resolver = None
        return status

    # ----------------------------------------------------------- mutations
    async def append(self, session_id: str, payload: dict) -> Dict[str, object]:
        """Append a record batch (optionally registering truth pairs first)."""
        if not isinstance(payload, dict) or "records" not in payload:
            raise bad_request("request body must be {'records': [...]}")
        records = _parse_records(payload["records"])
        truth = _parse_truth(payload["truth"]) if "truth" in payload else None
        resolver = self._handle(session_id).resolver
        return await self._submit_event(
            session_id,
            lambda: encode_event(resolver.add_batch(records, true_matches=truth), resolver),
        )

    async def retract(self, session_id: str, payload: dict) -> Dict[str, object]:
        if not isinstance(payload, dict) or "record_id" not in payload:
            raise bad_request("request body must be {'record_id': ...}")
        record_id = payload["record_id"]
        resolver = self._handle(session_id).resolver
        return await self._submit_event(
            session_id, lambda: encode_event(resolver.retract(record_id), resolver)
        )

    async def update(self, session_id: str, payload: dict) -> Dict[str, object]:
        if not isinstance(payload, dict) or "record" not in payload:
            raise bad_request("request body must be {'record': {...}}")
        (record,) = _parse_records([payload["record"]])
        resolver = self._handle(session_id).resolver
        return await self._submit_event(
            session_id, lambda: encode_event(resolver.update(record), resolver)
        )

    async def flush(self, session_id: str) -> Dict[str, object]:
        """Settle the session; answers ``GET result``'s payload."""
        resolver = self._handle(session_id).resolver
        return await self._submit_event(session_id, lambda: encode_result(resolver.flush()))

    async def save(self, session_id: str) -> Dict[str, object]:
        handle = self._handle(session_id)
        resolver = handle.resolver

        def run() -> Dict[str, object]:
            path = resolver.save()
            return {"session_id": session_id, "saved_to": str(path)}

        return await self.shards.submit(session_id, run)

    async def _submit_event(self, session_id: str, answer) -> Dict[str, object]:
        """Run one resolver event and encode its answer on the session's shard."""
        try:
            return await self.shards.submit(session_id, answer)
        except RecordError as error:
            raise bad_request(str(error)) from None
        except PersistenceError as error:
            raise resume_conflict(session_id, str(error)) from None

    # ------------------------------------------------------------- queries
    async def status(self, session_id: str) -> Dict[str, object]:
        handle = self._handle(session_id, allow_closed=True)
        if handle.closed:
            assert handle.final_status is not None
            return handle.final_status
        return await self.shards.submit(
            session_id, self._status_payload, handle
        )

    async def result(
        self, session_id: str, after: int = 0, limit: Optional[int] = None
    ) -> Dict[str, object]:
        """The full snapshot, or with ``limit`` ranks ``after`` to ``after + limit``.

        Encoded on the shard thread: the page reads an index the owner
        thread mutates, and a large session's encode must not hold up every
        other session's socket.
        """
        resolver = self._handle(session_id).resolver
        if limit is None:
            return await self.shards.submit(
                session_id, lambda: encode_result(resolver.snapshot())
            )
        return await self.shards.submit(
            session_id,
            lambda: encode_page(resolver.ranked_page(after, limit), after, limit),
        )

    def list_sessions(self) -> Dict[str, object]:
        return {
            "sessions": [
                {
                    "session_id": handle.session_id,
                    "shard": handle.shard,
                    "closed": handle.closed,
                }
                for handle in self.sessions.values()
            ]
        }

    # ------------------------------------------------------------ shutdown
    async def save_all(self) -> List[str]:
        """Save and close every open durable session (graceful-shutdown hook)."""
        saved = []
        for handle in list(self.sessions.values()):
            if handle.closed or not handle.durable:
                continue
            await self.shards.submit(handle.session_id, self._save_and_close, handle)
            saved.append(handle.session_id)
        return saved
