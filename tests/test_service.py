"""Tests for the resolution service (repro.service).

The central contract: a session hosted behind the HTTP API produces —
event for event — results **bit-identical** to a standalone
:class:`~repro.streaming.StreamingResolver` replaying the same schedule,
no matter how many sessions run concurrently, and no matter whether the
server crashed (SIGKILL) and restored mid-schedule.  On top of that the
HTTP surface must fail loudly and precisely: every error path has an
exact status code and a machine-readable error code, and a full shard
queue answers 429 with a Retry-After instead of buffering without bound.
"""

import asyncio
import json
import logging
import os
import socket
import subprocess
import sys
import threading
import time
import uuid
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strategies import UNREADABLE_STORES, drive, event_schedules, make_unreadable

from repro import obs
from repro.core.config import WorkflowConfig
from repro.core.ranking import DECISION_THRESHOLD
from repro.crowd import AsyncCrowd, FaultPlan
from repro.datasets.restaurant import RestaurantGenerator
from repro.service import ResolutionService, ServiceClient, ServiceClientError
from repro.service.sessions import encode_event, encode_result
from repro.service.shards import ShardExecutor
from repro.streaming import StreamingResolver, persistence
from repro.streaming.persistence import encode_record

ROOT = Path(__file__).resolve().parent.parent


def make_config(**overrides):
    base = dict(
        likelihood_threshold=0.35, vote_mode="per-pair", aggregation="majority"
    )
    base.update(overrides)
    return WorkflowConfig(**base)


#: What any single 25-record append may answer with, however long its
#: session has run (the size test's appends answer 0.4-0.9 kB, by how many
#: pairs each one found; the result after 40 of them is 11 kB).
ANSWER_BYTE_BUDGET = 2048

#: The service-side twin of :func:`make_config` (vote_mode is forced
#: server-side, so it is not part of the wire payload).
SERVICE_CONFIG = {"likelihood_threshold": 0.35, "aggregation": "majority"}


def make_dataset(seed, record_count=40, duplicate_pairs=8):
    return RestaurantGenerator(
        record_count=record_count, duplicate_pairs=duplicate_pairs, seed=seed
    ).generate()


def fresh_id(prefix):
    return f"{prefix}-{uuid.uuid4().hex[:12]}"


class ServiceThread:
    """An in-process service on its own event loop thread (ephemeral port)."""

    def __init__(self, **kwargs):
        kwargs.setdefault("port", 0)
        self.service = ResolutionService(**kwargs)
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.service.start())
        self._ready.set()
        self.loop.run_forever()

    def start(self) -> ServiceClient:
        self.thread.start()
        assert self._ready.wait(30), "service failed to start"
        return ServiceClient("127.0.0.1", self.service.port)

    def submit(self, coroutine):
        """Schedule a coroutine on the service loop; returns a Future."""
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop)

    def stop(self):
        self.submit(self.service.stop()).result(60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(30)


@pytest.fixture(scope="module")
def service():
    runner = ServiceThread(shard_count=2, queue_depth=16)
    client = runner.start()
    yield runner, client
    runner.stop()


def drive_over_http(client, session_id, records, schedule, mirror, cursor=0, answers=None):
    """Apply a :func:`strategies.event_schedules` schedule over HTTP.

    Mirrors :func:`strategies.drive` exactly — ``mirror`` tracks the
    resident records client-side (the HTTP API does not expose record
    ids), so retract/update target the same records ``drive`` would.
    ``answers`` collects what each event that was sent answered.
    """
    answers = [] if answers is None else answers
    for action, argument in schedule:
        if action == "batch":
            batch = records[cursor : cursor + argument]
            cursor += argument
            if batch:
                answers.append(client.append(session_id, [encode_record(r) for r in batch]))
                mirror.update({record.record_id: record for record in batch})
        elif action == "retract":
            resident = sorted(mirror)
            if resident:
                record_id = resident[argument % len(resident)]
                answers.append(client.retract(session_id, record_id))
                del mirror[record_id]
        elif action == "update":
            resident = sorted(mirror)
            if resident:
                record_id = resident[argument % len(resident)]
                revised = mirror[record_id].with_attributes(
                    name=f"revision {argument}"
                )
                answers.append(client.update(session_id, encode_record(revised)))
                mirror[record_id] = revised
        elif action == "flush":
            answers.append(client.flush(session_id))
    return cursor


class RecordedEvents:
    """A resolver stand-in for :func:`strategies.drive` that keeps what each
    event method returned, encoded as the service answers it right after the
    event (``answers``), so a served answer can be compared with the
    standalone answer of the same event."""

    def __init__(self, resolver):
        self.resolver = resolver
        self.answers = []

    def __getattr__(self, name):
        attribute = getattr(self.resolver, name)
        if name not in ("add_batch", "retract", "update", "flush"):
            return attribute

        def event(*args, **kwargs):
            returned = attribute(*args, **kwargs)
            self.answers.append(
                encode_result(returned) if name == "flush"
                else encode_event(returned, self.resolver)
            )
            return returned

        return event


def fold_changed(posteriors, answer):
    """What a client keeps: every ``changed`` triple folded into one dict."""
    for id_a, id_b, posterior in answer["changed"]:
        if posterior is None:
            posteriors.pop((id_a, id_b), None)
        else:
            posteriors[(id_a, id_b)] = posterior


def standalone_result(records, truth, schedule):
    """The schedule replayed on a resolver that never saw the network."""
    resolver = StreamingResolver(config=make_config())
    if truth:
        resolver.add_truth(truth)
    drive(resolver, records, schedule)
    return encode_result(resolver.snapshot())


def raw_exchange(client, payload):
    """Send raw bytes and read until the server closes: (head, JSON error)."""
    with socket.create_connection((client.host, client.port), timeout=10) as sock:
        sock.sendall(payload)
        answer = b""
        while chunk := sock.recv(65536):
            answer += chunk
    head, _, body = answer.partition(b"\r\n\r\n")
    return head, json.loads(body)["error"]


# ------------------------------------------------------------ HTTP surface
class TestHttpSurface:
    def test_health(self, service):
        _runner, client = service
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["queue_depths"] == [0, 0]

    def test_resolve_round_trip_matches_standalone(self, service):
        _runner, client = service
        dataset = make_dataset(seed=17)
        records = list(dataset.store)[:25]
        truth = [list(pair) for pair in dataset.ground_truth]
        session_id = fresh_id("round")
        created = client.create_session(
            session_id, config=SERVICE_CONFIG, truth=truth
        )
        assert created["session_id"] == session_id
        assert created["records"] == 0
        client.append(session_id, [encode_record(r) for r in records])
        flushed = client.flush(session_id)
        resolver = StreamingResolver(config=make_config())
        resolver.add_truth(dataset.ground_truth)
        resolver.add_batch(records)
        expected = resolver.flush()
        assert flushed == encode_result(expected)
        # bit-identical floats over the wire
        assert client.result(session_id) == encode_result(expected)
        status = client.status(session_id)
        assert status["records"] == len(records)
        assert not status["durable"]
        assert session_id in {
            entry["session_id"] for entry in client.list_sessions()
        }
        client.close(session_id)

    def test_threaded_append_over_several_blocks_matches_standalone(self, service):
        """``join_workers=2`` on a shard-owner thread: the append's product
        spans three default row blocks, so it runs on worker threads."""
        _runner, client = service
        dataset = make_dataset(seed=19, record_count=520, duplicate_pairs=60)
        records = list(dataset.store)
        session_id = fresh_id("threads")
        client.create_session(
            session_id,
            config={**SERVICE_CONFIG, "join_workers": 2},
            truth=[list(pair) for pair in dataset.ground_truth],
        )
        client.append(session_id, [encode_record(r) for r in records])
        resolver = StreamingResolver(config=make_config(join_workers=1))
        resolver.add_truth(dataset.ground_truth)
        resolver.add_batch(records)
        assert client.result(session_id) == encode_result(resolver.snapshot())
        client.close(session_id)

    def test_unknown_route_is_404(self, service):
        _runner, client = service
        status, _headers, body = client.request("GET", "/bogus")
        assert status == 404
        assert body["error"]["code"] == "not_found"
        # Wrong method on a real path is a 404 too (no route).
        status, _headers, body = client.request("DELETE", "/healthz")
        assert status == 404

    def test_malformed_json_body_is_400(self, service):
        _runner, client = service
        status, _headers, body = client.raw("POST", "/sessions", b"{not json")
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert "malformed JSON body" in body["error"]["message"]

    def test_non_numeric_content_length_is_400(self, service):
        """Fails at the parent commit: ``int()`` raised past the 400 path and
        the client read an empty response from a killed connection task."""
        _runner, client = service
        head, error = raw_exchange(
            client, b"POST /sessions HTTP/1.1\r\nContent-Length: twelve\r\n\r\n"
        )
        assert head.startswith(b"HTTP/1.1 400")
        assert error["code"] == "bad_request"
        assert "content-length" in error["message"]

    @pytest.mark.parametrize(
        "request_head",
        (
            b"GET /healthz HTTP/1.1\r\nX-Padding: " + b"a" * 70_000 + b"\r\n\r\n",
            b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        ),
        ids=("header-line", "request-line"),
    )
    def test_line_over_the_stream_limit_is_400(self, service, request_head, caplog):
        """Fails at the parent commit: ``readline()`` raised ``ValueError`` past
        the 400 path, asyncio logged an unhandled exception and the client
        read an empty reply."""
        _runner, client = service
        head, error = raw_exchange(client, request_head)
        assert head.startswith(b"HTTP/1.1 400")
        assert error["code"] == "bad_request"
        assert "too long" in error["message"]
        assert "Unhandled exception" not in caplog.text

    def test_mid_request_stall_is_408_but_an_idle_connection_may_wait(
        self, service, monkeypatch
    ):
        _runner, client = service
        monkeypatch.setattr("repro.service.http.REQUEST_READ_TIMEOUT_S", 0.2)
        head, error = raw_exchange(
            client, b"POST /sessions HTTP/1.1\r\nContent-Length: 64\r\n\r\n{"
        )
        assert head.startswith(b"HTTP/1.1 408 Request Timeout")
        assert error["code"] == "request_timeout"
        assert "0.2s" in error["message"]
        # Between two requests of one keep-alive connection nothing times out.
        with socket.create_connection((client.host, client.port), timeout=10) as sock:
            for _ in range(2):
                sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                assert sock.recv(65536).startswith(b"HTTP/1.1 200")
                time.sleep(0.5)

    def test_non_object_body_is_400(self, service):
        _runner, client = service
        status, _headers, body = client.raw("POST", "/sessions", b"[1, 2]")
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert "JSON object" in body["error"]["message"]

    def test_invalid_config_is_400(self, service):
        _runner, client = service
        for config in (
            {"no_such_knob": 1},
            {"likelihood_threshold": 2.0},
            {"join_pool": "fork"},  # retired knobs: unknown like any other
            {"storage_path": "/tmp/elsewhere.sqlite"},
            {"journal_segment_events": 512},
            {"decision_threshold": 0.5},
            {"crowd_backoff_ticks": 2},
            {"storage_backend": "sqlite"},  # lives in checkpoint_dir: needs one
            # A fault plan is parsed with the config, not by the first event.
            {"crowd": {"fault_plan": {"bogus": 1}}},
            {"crowd": {"fault_plan": {"drop_probability": 5}}},
        ):
            with pytest.raises(ServiceClientError) as caught:
                client.create_session(fresh_id("bad"), config=config)
            assert caught.value.status == 400
            assert caught.value.code == "bad_request"
            assert "invalid config" in caught.value.body["error"]["message"]

    def test_retired_join_backend_is_400_naming_the_accepted_values(self, service):
        _runner, client = service
        with pytest.raises(ServiceClientError) as caught:
            client.create_session(fresh_id("bad"), config={"join_backend": "parallel"})
        assert caught.value.status == 400
        assert caught.value.code == "bad_request"
        assert "'auto', 'naive'" in caught.value.body["error"]["message"]

    def test_a_session_config_naming_a_trace_path_is_400_and_touches_no_file(
        self, service, tmp_path
    ):
        """Observability belongs to the process: a client must not be able to
        make the server open (and truncate) a path of its choosing."""
        _runner, client = service
        victim = tmp_path / "victim.txt"
        victim.write_text("precious bytes\n")
        session_id = fresh_id("trace")
        with pytest.raises(ServiceClientError) as caught:
            client.create_session(session_id, config={"trace_path": str(victim)})
        assert caught.value.status == 400
        assert caught.value.code == "bad_request"
        assert "trace_path" in caught.value.body["error"]["message"]
        assert victim.read_bytes() == b"precious bytes\n"
        assert client.request("GET", f"/sessions/{session_id}")[0] == 404

    def test_a_session_config_cannot_switch_metrics_on(self, service):
        _runner, client = service
        with pytest.raises(ServiceClientError) as caught:
            client.create_session(fresh_id("metrics"), config={"metrics_enabled": True})
        assert caught.value.status == 400
        assert caught.value.code == "bad_request"
        assert "metrics_enabled" in caught.value.body["error"]["message"]
        status, _headers, body = client.request("GET", "/metrics")
        assert status == 503
        assert body["error"]["code"] == "metrics_disabled"

    @pytest.mark.parametrize("config, named", (
        ({"cluster_generator": "two-tiered"}, "cluster_generator"),
        ({"crowd_mode": "async"}, "crowd_mode"),
        ({"crowd": {"vote_timeout": 0}}, "vote_timeout"),
        ({"crowd": {"max_retries": -1}}, "max_retries"),
    ))
    def test_a_field_a_session_has_no_more_or_a_bad_crowd_is_400_at_create(
        self, service, config, named
    ):
        """``cluster_generator`` and the flat async fields are unknown like any
        other field, and a bad ``crowd`` is refused before a session exists:
        not a 201 whose first append fails after ingesting its records."""
        runner, client = service
        session_id = fresh_id("gen")
        with pytest.raises(ServiceClientError) as caught:
            client.create_session(session_id, config={**SERVICE_CONFIG, **config})
        assert caught.value.status == 400
        assert caught.value.code == "bad_request"
        assert named in caught.value.body["error"]["message"]
        assert client.request("GET", f"/sessions/{session_id}")[0] == 404
        assert session_id not in runner.service.manager.sessions
        assert session_id not in runner.service.shards._placement

    def test_an_async_crowd_is_created_from_its_json_form(self, service):
        runner, client = service
        session_id = fresh_id("async")
        crowd = {"vote_timeout": 3, "fault_plan": {"seed": 2, "delay_ticks_min": 1}}
        client.create_session(session_id, config={**SERVICE_CONFIG, "crowd": crowd})
        config = runner.service.manager.sessions[session_id].resolver.config
        assert config.crowd == AsyncCrowd(vote_timeout=3,
                                          fault_plan=FaultPlan(seed=2, delay_ticks_min=1))
        client.close(session_id)

    def test_a_string_similarity_attributes_is_400_at_create(self, service):
        """JSON ``"name"`` is not ``["name"]``: read per character it would
        give every record an empty token set and make every pair a candidate."""
        _runner, client = service
        with pytest.raises(ServiceClientError) as caught:
            client.create_session(
                fresh_id("attrs"), config={**SERVICE_CONFIG, "similarity_attributes": "name"}
            )
        assert caught.value.status == 400
        assert caught.value.code == "bad_request"
        assert "similarity_attributes" in caught.value.body["error"]["message"]
        session_id = fresh_id("attrs")
        client.create_session(
            session_id, config={**SERVICE_CONFIG, "similarity_attributes": ["name"]}
        )
        client.close(session_id)

    def test_restoring_a_session_stored_with_a_retired_knob_in_use_is_409(
        self, service, tmp_path, monkeypatch
    ):
        _runner, client = service
        config_payload = persistence.config_payload
        with monkeypatch.context() as patched:
            patched.setattr(
                persistence, "config_payload",
                lambda config: {**config_payload(config), "recrowd_policy": "dirty"},
            )
            resolver = StreamingResolver(config=make_config(checkpoint_dir=str(tmp_path)))
            resolver.add_batch(list(make_dataset(seed=3).store)[:10])
            resolver.durability.close()
        with pytest.raises(ServiceClientError) as caught:
            client.restore(fresh_id("retired"), str(tmp_path))
        assert caught.value.status == 409
        assert caught.value.code == "resume_conflict"
        assert "'recrowd_policy'" in caught.value.body["error"]["message"]

    @pytest.mark.parametrize("version", (99, 4, 3, 2, 1))
    def test_restoring_a_session_of_a_newer_store_format_is_409(
        self, service, tmp_path, monkeypatch, version
    ):
        """... and of an earlier one than this release reads."""
        _runner, client = service
        with monkeypatch.context() as patched:
            patched.setattr(persistence, "FORMAT_VERSION", version)
            resolver = StreamingResolver(config=make_config(checkpoint_dir=str(tmp_path)))
            resolver.add_batch(list(make_dataset(seed=3).store)[:10])
            resolver.durability.close()
        with pytest.raises(ServiceClientError) as caught:
            client.restore(fresh_id("newer"), str(tmp_path))
        assert caught.value.status == 409
        assert caught.value.code == "resume_conflict"
        assert f"store format {version}; this release reads formats 5 to 6 only" in (
            caught.value.body["error"]["message"]
        )

    def test_restoring_a_session_stored_with_metrics_enabled_is_409_and_leaves_metrics_off(
        self, service, tmp_path, monkeypatch
    ):
        """The observability pair is no field of a session: a store that
        names it is refused, and the server process's metrics and trace
        file stay as they were."""
        _runner, client = service
        trace = tmp_path / "trace.jsonl"
        checkpoint = tmp_path / "session"
        config_payload = persistence.config_payload
        with monkeypatch.context() as patched:
            patched.setattr(
                persistence, "config_payload",
                lambda config: {**config_payload(config), "metrics_enabled": True,
                                "trace_path": str(trace)},
            )
            resolver = StreamingResolver(config=make_config(checkpoint_dir=str(checkpoint)))
            resolver.add_batch(list(make_dataset(seed=3).store)[:10])
            resolver.durability.close()
        with pytest.raises(ServiceClientError) as caught:
            client.restore(fresh_id("obs"), str(checkpoint))
        assert caught.value.status == 409
        assert caught.value.code == "resume_conflict"
        assert "'metrics_enabled'" in caught.value.body["error"]["message"]
        status, _headers, body = client.request("GET", "/metrics")
        assert status == 503
        assert body["error"]["code"] == "metrics_disabled"
        assert not trace.exists()

    @pytest.mark.parametrize("kind", sorted(UNREADABLE_STORES))
    def test_restoring_an_unreadable_store_is_409(self, service, tmp_path, kind):
        _runner, client = service
        resolver = StreamingResolver(config=make_config(checkpoint_dir=str(tmp_path)))
        resolver.add_batch(list(make_dataset(seed=3).store)[:10])
        resolver.durability.close()
        make_unreadable(tmp_path, kind)
        with pytest.raises(ServiceClientError) as caught:
            client.restore(fresh_id("unreadable"), str(tmp_path))
        assert caught.value.status == 409
        assert caught.value.code == "resume_conflict"
        assert UNREADABLE_STORES[kind] in caught.value.body["error"]["message"]

    def test_record_without_id_is_400(self, service):
        _runner, client = service
        session_id = fresh_id("badrec")
        client.create_session(session_id, config=SERVICE_CONFIG)
        with pytest.raises(ServiceClientError) as caught:
            client.append(session_id, [{"attributes": {"name": "x"}}])
        assert caught.value.status == 400
        assert caught.value.code == "bad_request"
        client.close(session_id)

    def test_a_non_string_attribute_is_400_and_changes_nothing(self, service):
        _runner, client = service
        session_id = fresh_id("badattr")
        client.create_session(session_id, config=SERVICE_CONFIG)
        # ``null`` is no value, as before; a number is refused.
        client.append(session_id, [
            {"record_id": "r1", "attributes": {"name": "x"}},
            {"record_id": "r3", "attributes": {"name": "x", "city": None}},
        ])
        before = client.result(session_id)
        with pytest.raises(ServiceClientError) as caught:
            client.append(session_id, [{"record_id": "r2", "attributes": {"name": 5}}])
        assert caught.value.status == 400
        assert caught.value.code == "bad_request"
        assert "'name'" in caught.value.body["error"]["message"]
        assert client.result(session_id) == before
        client.close(session_id)

    def test_unknown_session_is_404(self, service):
        _runner, client = service
        for method, path, payload in (
            ("GET", "/sessions/nope", None),
            ("GET", "/sessions/nope/result", None),
            ("POST", "/sessions/nope/batch", {"records": []}),
            ("POST", "/sessions/nope/flush", {}),
            ("DELETE", "/sessions/nope", None),
        ):
            status, _headers, body = client.request(method, path, payload)
            assert status == 404, (method, path)
            assert body["error"]["code"] == "unknown_session"

    def test_append_after_close_is_409(self, service):
        _runner, client = service
        session_id = fresh_id("closed")
        client.create_session(session_id, config=SERVICE_CONFIG)
        client.close(session_id)
        for method, path, payload in (
            ("POST", f"/sessions/{session_id}/batch", {"records": []}),
            ("POST", f"/sessions/{session_id}/flush", {}),
            ("GET", f"/sessions/{session_id}/result", None),
            ("DELETE", f"/sessions/{session_id}", None),
        ):
            status, _headers, body = client.request(method, path, payload)
            assert status == 409, (method, path)
            assert body["error"]["code"] == "session_closed"
        # Status stays readable after close — the final counters survive.
        status_payload = client.status(session_id)
        assert status_payload["closed"] is True

    def test_duplicate_create_is_409(self, service):
        _runner, client = service
        session_id = fresh_id("dup")
        client.create_session(session_id, config=SERVICE_CONFIG)
        with pytest.raises(ServiceClientError) as caught:
            client.create_session(session_id, config=SERVICE_CONFIG)
        assert caught.value.status == 409
        assert caught.value.code == "session_exists"
        client.close(session_id)

    def test_restore_of_open_session_is_409_resume_conflict(self, service, tmp_path):
        _runner, client = service
        session_id = fresh_id("open")
        client.create_session(session_id, config=SERVICE_CONFIG)
        with pytest.raises(ServiceClientError) as caught:
            client.restore(session_id, str(tmp_path))
        assert caught.value.status == 409
        assert caught.value.code == "resume_conflict"
        client.close(session_id)

    def test_restoring_a_live_sessions_directory_is_409(self, service, tmp_path):
        """Another session id restoring the directory a live session writes
        is refused before it reads the store: a store has one writer.  The
        live session goes on as if nothing happened, and its directory
        restores once it is closed."""
        _runner, client = service
        records = [encode_record(record) for record in make_dataset(seed=3).store]
        live = fresh_id("writer")
        client.create_session(live, config=dict(SERVICE_CONFIG, checkpoint_dir=str(tmp_path)))
        client.append(live, records[:10])
        with pytest.raises(ServiceClientError) as caught:
            client.restore(fresh_id("second"), str(tmp_path))
        assert caught.value.status == 409
        assert caught.value.code == "resume_conflict"
        assert "in use by another writer" in caught.value.body["error"]["message"]
        client.append(live, records[10:20])
        expected = client.result(live)
        client.close(live)
        later = fresh_id("later")
        assert client.restore(later, str(tmp_path))["records"] == 20
        assert client.result(later) == expected
        client.close(later)

    def test_saving_an_in_memory_session_is_409_resume_conflict(self, service, caplog):
        """An in-memory session has nowhere to save to: the save is refused
        like any other persistence conflict, not answered with a 500."""
        _runner, client = service
        session_id = fresh_id("memory")
        client.create_session(session_id, config=SERVICE_CONFIG)
        with caplog.at_level(logging.ERROR):
            with pytest.raises(ServiceClientError) as caught:
                client.save(session_id)
        assert caught.value.status == 409
        assert caught.value.code == "resume_conflict"
        assert "needs a path" in caught.value.body["error"]["message"]
        assert "unhandled" not in caplog.text
        client.close(session_id)

    def test_restore_without_checkpoint_dir_is_400(self, service):
        _runner, client = service
        status, _headers, body = client.request(
            "POST", f"/sessions/{fresh_id('r')}/restore", {}
        )
        assert status == 400
        assert "checkpoint_dir" in body["error"]["message"]

    def test_restore_from_empty_dir_is_409_resume_conflict(self, service, tmp_path):
        _runner, client = service
        with pytest.raises(ServiceClientError) as caught:
            client.restore(fresh_id("void"), str(tmp_path))
        assert caught.value.status == 409
        assert caught.value.code == "resume_conflict"

    def test_metrics_endpoint_is_503_when_disabled(self, service):
        _runner, client = service
        assert not obs.enabled()
        status, _headers, body = client.request("GET", "/metrics")
        assert status == 503
        assert body["error"]["code"] == "metrics_disabled"


# --------------------------------------------------------------- keep-alive
class TestKeepAlive:
    def test_a_client_reuses_its_connection_per_thread(self, service):
        _runner, shared = service
        client = ServiceClient(shared.host, shared.port)
        client.health()
        kept = client._local.connection
        assert kept is not None and kept.sock is not None
        client.health()
        assert client._local.connection is kept
        # Another thread calling through the same client gets its own.
        with ThreadPoolExecutor(max_workers=1) as pool:
            other = pool.submit(
                lambda: (client.health(), client._local.connection)[1]
            ).result(timeout=30)
        assert other is not None and other is not kept
        assert client._local.connection is kept

    def test_an_idle_connection_is_closed_silently_and_the_client_redials(
        self, service, monkeypatch
    ):
        _runner, shared = service
        monkeypatch.setattr("repro.service.http.KEEPALIVE_IDLE_TIMEOUT_S", 0.2)
        with socket.create_connection((shared.host, shared.port), timeout=10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert sock.recv(65536).startswith(b"HTTP/1.1 200")
            assert sock.recv(65536) == b""  # closed: no 408, no bytes at all
        client = ServiceClient(shared.host, shared.port)
        assert client.health()["status"] == "ok"
        kept = client._local.connection
        time.sleep(0.6)  # the server drops its end of the kept connection
        assert client.health()["status"] == "ok"  # no error surfaces
        assert client._local.connection is not kept

    def test_stop_does_not_wait_for_idle_connections_or_strand_their_tasks(self, caplog):
        runner = ServiceThread(shard_count=1, queue_depth=4)
        client = runner.start()
        client.health()  # leaves this thread's keep-alive connection open
        with socket.create_connection((client.host, client.port), timeout=10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert sock.recv(65536).startswith(b"HTTP/1.1 200")
            began = time.monotonic()
            runner.stop()
            assert time.monotonic() - began < 5
            assert not runner.thread.is_alive()
            assert sock.recv(65536) == b""
        assert asyncio.all_tasks(runner.loop) == set()
        runner.loop.close()
        assert "Task was destroyed" not in caplog.text


# ------------------------------------------------------------ backpressure
class TestBackpressure:
    def test_full_shard_queue_is_429_with_retry_after(self):
        runner = ServiceThread(shard_count=1, queue_depth=1)
        client = runner.start()
        blocker = threading.Event()
        occupied = threading.Event()
        try:
            session_id = "bp"
            client.create_session(session_id, config=SERVICE_CONFIG)

            def block():
                occupied.set()
                blocker.wait(30)

            shards = runner.service.shards
            # Occupy the shard thread, then fill its depth-1 queue.
            busy = runner.submit(shards.submit(session_id, block))
            assert occupied.wait(10)
            queued = runner.submit(shards.submit(session_id, lambda: None))
            deadline = time.monotonic() + 10
            while shards.queue_depths() != [1]:
                assert time.monotonic() < deadline, "queue never filled"
                time.sleep(0.01)
            status, headers, body = client.request(
                "POST",
                f"/sessions/{session_id}/batch",
                {"records": [{"record_id": "x", "attributes": {"name": "x"}}]},
            )
            assert status == 429
            assert body["error"]["code"] == "backpressure"
            assert headers.get("Retry-After") == "1"
            blocker.set()
            busy.result(30)
            queued.result(30)
            # The shard recovered: the same request now succeeds.
            payload = client.append(
                session_id,
                [{"record_id": "x", "attributes": {"name": "x"}}],
            )
            assert payload["candidate_count"] == 0
            client.close(session_id)
        finally:
            blocker.set()
            runner.stop()


# ------------------------------------------------------- sharded execution
class TestShardExecutor:
    def test_placement_fills_the_least_loaded_shard_and_is_kept(self):
        executor = ShardExecutor(shard_count=3)
        assert [executor.place(key) for key in ("a", "b", "c", "d")] == [0, 1, 2, 0]
        assert executor.place("b") == 1  # placed once, kept
        executor.release("b")
        executor.release("b")  # releasing twice frees one slot
        assert executor.place("e") == 1  # the freed slot is the least loaded
        executor.release("never-placed")
        assert executor.place("f") == 1  # ties go to the lowest index

    def test_same_key_serializes_in_submission_order(self):
        async def scenario():
            executor = ShardExecutor(shard_count=4, queue_depth=64)
            await executor.start()
            seen = []

            def record(i):
                seen.append(i)
                return i

            results = await asyncio.gather(
                *[executor.submit("one-key", record, i) for i in range(25)]
            )
            await executor.shutdown()
            return seen, results

        seen, results = asyncio.run(scenario())
        assert seen == list(range(25))
        assert results == list(range(25))

    def test_independent_shards_run_concurrently(self):
        async def scenario():
            executor = ShardExecutor(shard_count=2, queue_depth=4)
            await executor.start()
            key_a, key_b = "a", "b"
            assert executor.place(key_a) != executor.place(key_b)
            # Both tasks must be in flight at once to pass the barrier:
            # serialized execution would deadlock (and trip the timeout).
            barrier = threading.Barrier(2, timeout=10)
            await asyncio.gather(
                executor.submit(key_a, barrier.wait),
                executor.submit(key_b, barrier.wait),
            )
            await executor.shutdown()

        asyncio.run(scenario())

    def test_worker_exception_is_relayed_to_the_caller(self):
        async def scenario():
            executor = ShardExecutor(shard_count=1, queue_depth=4)
            await executor.start()

            def explode():
                raise ValueError("boom")

            with pytest.raises(ValueError, match="boom"):
                await executor.submit("k", explode)
            # The shard survives its task's exception.
            assert await executor.submit("k", lambda: 7) == 7
            await executor.shutdown()

        asyncio.run(scenario())


class TestSessionPlacement:
    def test_ids_one_character_apart_land_on_two_shards(self, tmp_path):
        """``serve-http``'s ids: CRC32 is affine over GF(2), so under
        ``crc32(id) % 2`` these two always shared a shard."""
        assert zlib.crc32(b"p7-s0") % 2 == zlib.crc32(b"p7-s1") % 2
        runner = ServiceThread(shard_count=2, queue_depth=8)
        client = runner.start()
        try:
            first = client.create_session("p7-s0", config=SERVICE_CONFIG)["shard"]
            second = client.create_session("p7-s1", config=SERVICE_CONFIG)["shard"]
            assert (first, second) == (0, 1)
            listed = {entry["session_id"]: entry["shard"] for entry in client.list_sessions()}
            assert listed == {"p7-s0": 0, "p7-s1": 1}
            # A closed session frees its slot, and the next session takes
            # it (were it kept, the tie would go to shard 0).
            client.close("p7-s1")
            assert client.status("p7-s1")["shard"] == 1
            assert client.create_session("p7-s2", config=SERVICE_CONFIG)["shard"] == 1
            # So does a failed restore: with one session on each shard the
            # next goes to shard 0, where a leaked slot would send it to 1.
            with pytest.raises(ServiceClientError) as caught:
                client.restore("p7-s3", str(tmp_path))
            assert caught.value.code == "resume_conflict"
            assert client.create_session("p7-s4", config=SERVICE_CONFIG)["shard"] == 0
        finally:
            runner.stop()


# ------------------------------------------- concurrency property (bit-id)
class TestServiceEqualsStandalone:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        schedules=st.lists(
            event_schedules(min_size=2, max_size=5), min_size=2, max_size=3
        )
    )
    def test_property_interleaved_sessions_match_standalone_replay(
        self, service, schedules
    ):
        """K concurrent sessions, arbitrary schedules, exact equality.

        Each session runs its own random schedule from a worker thread so
        requests genuinely interleave on the server; afterwards every
        session's snapshot must equal — to the float bit — a standalone
        resolver replaying the same schedule in isolation.
        """
        _runner, client = service

        def run_one(index, schedule):
            dataset = make_dataset(seed=101 + index)
            records = list(dataset.store)
            truth = [list(pair) for pair in dataset.ground_truth]
            session_id = fresh_id(f"prop{index}")
            client.create_session(session_id, config=SERVICE_CONFIG, truth=truth)
            drive_over_http(client, session_id, records, schedule, mirror={})
            served = client.result(session_id)
            client.close(session_id)
            return served, standalone_result(
                records, dataset.ground_truth, schedule
            )

        with ThreadPoolExecutor(max_workers=len(schedules)) as pool:
            futures = [
                pool.submit(run_one, index, schedule)
                for index, schedule in enumerate(schedules)
            ]
            outcomes = [future.result(timeout=120) for future in futures]
        for served, expected in outcomes:
            assert served == expected


# ------------------------------------------------------ deltas on the wire
class TestDeltasOnTheWire:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        schedule=event_schedules(min_size=2, max_size=6),
        restore_at=st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    )
    def test_property_every_answer_is_the_events_delta_and_folds_to_the_result(
        self, service, tmp_path_factory, schedule, restore_at
    ):
        """Event for event: the answer is ``encode_event`` of the standalone
        resolver's delta for that event (a flush's: ``encode_result`` of its
        result), and a client folding the ``changed`` lists holds exactly
        ``GET result``'s posteriors (and, above the decision threshold, its
        matches) — also across a save/close/restore, after which the first
        answer may say ``changed: null`` (re-read)."""
        _runner, client = service
        dataset = make_dataset(seed=23)
        records = list(dataset.store)
        session_id = fresh_id("wire")
        checkpoint = tmp_path_factory.mktemp("wire")
        client.create_session(
            session_id,
            config=dict(SERVICE_CONFIG, checkpoint_dir=str(checkpoint)),
            truth=[list(pair) for pair in dataset.ground_truth],
        )
        resolver = StreamingResolver(config=make_config())
        resolver.add_truth(dataset.ground_truth)
        standalone = RecordedEvents(resolver)
        folded, mirror = {}, {}
        served_cursor = standalone_cursor = 0
        just_restored = False
        for index, event in enumerate(schedule):
            if index == restore_at:
                client.close(session_id)
                client.restore(session_id, str(checkpoint))
                just_restored = True
            answers = []
            served_cursor = drive_over_http(
                client, session_id, records, [event], mirror, served_cursor, answers
            )
            standalone.answers.clear()
            standalone_cursor = drive(standalone, records, [event], standalone_cursor)
            assert len(answers) == len(standalone.answers)
            served = client.result(session_id)
            for answer, expected in zip(answers, standalone.answers):
                if "changed" not in answer:  # a flush answers the whole result
                    assert answer == expected
                    folded = {(a, b): p for a, b, p in answer["posteriors"]}
                elif answer["changed"] is None:
                    assert just_restored  # the only time this session cannot say
                    assert {**answer, "changed": expected["changed"]} == expected
                    folded = {(a, b): p for a, b, p in served["posteriors"]}
                else:
                    assert answer == expected  # bit-identical floats
                    fold_changed(folded, answer)
                just_restored = False
            assert sorted([a, b, p] for (a, b), p in folded.items()) == served["posteriors"]
            assert served["matches"] == sorted(
                [a, b] for (a, b), p in folded.items() if p > DECISION_THRESHOLD
            )
            assert served == encode_result(resolver.snapshot())
        client.close(session_id)

    def test_event_deltas_add_up_in_process_and_over_http(self, service):
        """Three batches, a retraction, an update and a flush: the deltas the
        events answer sum to what happened — every appended record and the
        update's new version arrived once, the retracted record and the
        update's old version left once — in process and over HTTP alike.  A
        flush answers with the settled result, not with another delta."""
        dataset = make_dataset(seed=43)
        records = list(dataset.store)[:36]
        truth = [list(pair) for pair in dataset.ground_truth]
        revised = records[7].with_attributes(name="revised bistro")
        resolver = StreamingResolver(config=make_config())
        resolver.add_truth(dataset.ground_truth)
        local = [resolver.add_batch(records[start : start + 12]) for start in (0, 12, 24)]
        local += [resolver.retract(records[5].record_id), resolver.update(revised)]
        settled = resolver.flush()
        _runner, client = service
        session_id = fresh_id("sums")
        client.create_session(session_id, config=SERVICE_CONFIG, truth=truth)
        served = [
            client.append(session_id, [encode_record(r) for r in records[start : start + 12]])
            for start in (0, 12, 24)
        ]
        served += [
            client.retract(session_id, records[5].record_id),
            client.update(session_id, encode_record(revised)),
            client.flush(session_id),
        ]
        client.close(session_id)
        assert served[-1] == encode_result(settled)
        for deltas in ([delta.as_dict() for delta in local],
                       [answer["delta"] for answer in served if "delta" in answer]):
            assert sum(delta["new_records"] for delta in deltas) == 36 + 1
            assert sum(delta["retracted_records"] for delta in deltas) == 1 + 1
        assert [answer["delta"] for answer in served[:-1]] == [delta.as_dict() for delta in local]

    def test_an_answer_is_as_large_as_its_event_not_as_the_session(self, service):
        """40 appends of 25 records: the last answers within the byte budget
        of the first, while the result it no longer carries has outgrown it."""
        _runner, client = service
        dataset = make_dataset(seed=29, record_count=1000, duplicate_pairs=200)
        records = [encode_record(record) for record in dataset.store]
        session_id = fresh_id("flat")
        client.create_session(
            session_id,
            config=SERVICE_CONFIG,
            truth=[list(pair) for pair in dataset.ground_truth],
        )
        sizes = [
            len(json.dumps(client.append(session_id, records[start : start + 25]), sort_keys=True))
            for start in range(0, 1000, 25)
        ]
        assert len(sizes) == 40
        assert max(sizes) <= ANSWER_BYTE_BUDGET, sizes
        full = len(json.dumps(client.result(session_id), sort_keys=True))
        assert full > 4 * ANSWER_BYTE_BUDGET
        client.close(session_id)

    @pytest.fixture(scope="class")
    def ranked_session(self, service):
        """One served session with churn behind it, and its standalone twin."""
        _runner, client = service
        dataset = make_dataset(seed=37, record_count=300, duplicate_pairs=120)
        records = list(dataset.store)
        schedule = [("batch", 150), ("retract", 7), ("batch", 100), ("update", 11), ("batch", 50)]
        session_id = fresh_id("paged")
        client.create_session(
            session_id,
            config=SERVICE_CONFIG,
            truth=[list(pair) for pair in dataset.ground_truth],
        )
        drive_over_http(client, session_id, records, schedule, mirror={})
        resolver = StreamingResolver(config=make_config())
        resolver.add_truth(dataset.ground_truth)
        drive(resolver, records, schedule)
        yield client, session_id, resolver.snapshot()
        client.close(session_id)

    @settings(max_examples=15, deadline=None)
    @given(limit=st.integers(min_value=1, max_value=40))
    def test_property_pages_concatenate_to_the_ranked_list(self, ranked_session, limit):
        client, session_id, snapshot = ranked_session
        expected = [
            [a, b, snapshot.likelihoods[a, b], snapshot.posteriors.get((a, b))]
            for a, b in snapshot.ranked_pairs
        ]
        assert len(expected) > 80  # several pages at every limit drawn
        ranked, after = [], 0
        while True:
            page = client.result(session_id, limit=limit, after=after)
            assert (page["after"], page["limit"]) == (after, limit)
            assert page["candidate_count"] == len(expected)
            ranked += page["ranked"]
            after += limit
            if len(page["ranked"]) < limit:
                break
        assert ranked == expected  # order and both scores, bit for bit
        # The crowd-confirmed pairs are the head of the list, in match order.
        matches = [list(key) for key in snapshot.matches]
        assert matches and [entry[:2] for entry in ranked[: len(matches)]] == matches
        counters = client.result(session_id)
        del counters["matches"], counters["posteriors"]
        assert {k: page[k] for k in counters} == counters

    def test_empty_pages_and_bad_page_queries(self, ranked_session):
        client, session_id, snapshot = ranked_session
        assert client.result(session_id, limit=0)["ranked"] == []
        past_the_end = client.result(session_id, limit=5, after=len(snapshot.ranked_pairs))
        assert past_the_end["ranked"] == []
        for query in (
            "limit=ten", "limit=-1", "limit=1.5", "limit=", "limit=5&after=-2",
            "limit=5&after=x", "after=3", "limit=5&offset=3", "full=1",
            "limit=1&limit=2", "limit=" + "9" * 5000,
        ):
            status, _headers, body = client.request(
                "GET", f"/sessions/{session_id}/result?{query}"
            )
            assert status == 400, query
            assert body["error"]["code"] == "bad_request"
        # A bare or empty query string is the full form.
        status, _headers, body = client.request("GET", f"/sessions/{session_id}/result?")
        assert status == 200 and "posteriors" in body


# ------------------------------------------------------------ durability
class TestDurability:
    def test_graceful_stop_saves_durable_sessions(self, tmp_path):
        runner = ServiceThread(shard_count=2, queue_depth=8)
        client = runner.start()
        checkpoint = tmp_path / "ckpt"
        dataset = make_dataset(seed=7)
        records = list(dataset.store)[:20]
        config = dict(SERVICE_CONFIG, checkpoint_dir=str(checkpoint))
        client.create_session(
            "durable",
            config=config,
            truth=[list(pair) for pair in dataset.ground_truth],
        )
        client.append("durable", [encode_record(r) for r in records])
        served = client.result("durable")
        assert client.status("durable")["durable"] is True
        runner.stop()  # graceful: must save() the session on its shard
        restored = StreamingResolver.restore(str(checkpoint))
        assert encode_result(restored.snapshot()) == served

    def test_close_releases_the_store_and_restore_continues(self, tmp_path):
        """``DELETE /sessions/{id}`` saves *and closes* the session's SQLite
        connection (on its shard thread): no WAL is left behind, and the
        same process can restore the session and carry on bit-identically."""
        runner = ServiceThread(shard_count=2, queue_depth=8)
        client = runner.start()
        try:
            dataset = make_dataset(seed=11)
            records = list(dataset.store)
            truth = [list(pair) for pair in dataset.ground_truth]
            schedule = [("batch", 15), ("retract", 2), ("batch", 10)]
            tail = [("update", 4), ("batch", 15), ("flush", 0)]
            config = dict(SERVICE_CONFIG, checkpoint_dir=str(tmp_path))
            client.create_session("closing", config=config, truth=truth)
            mirror = {}
            cursor = drive_over_http(client, "closing", records, schedule, mirror)
            client.close("closing")
            assert [
                item.name for item in tmp_path.iterdir() if item.stat().st_size
            ] == ["store.sqlite"]
            assert client.restore("closing", str(tmp_path))["records"] == len(mirror)
            drive_over_http(client, "closing", records, tail, mirror, cursor)
            assert client.result("closing") == standalone_result(
                records, dataset.ground_truth, schedule + tail
            )
        finally:
            runner.stop()
        # The graceful stop closed it again.
        assert sorted(item.name for item in tmp_path.iterdir()) == ["store.sqlite"]

    def test_explicit_save_endpoint_checkpoints_now(self, tmp_path):
        runner = ServiceThread(shard_count=1, queue_depth=8)
        client = runner.start()
        try:
            checkpoint = tmp_path / "saved"
            config = dict(SERVICE_CONFIG, checkpoint_dir=str(checkpoint))
            client.create_session("saver", config=config)
            client.append(
                "saver",
                [{"record_id": "a", "attributes": {"name": "ipad 16gb"}}],
            )
            payload = client.save("saver")
            assert payload["session_id"] == "saver"
            assert Path(payload["saved_to"]).exists()
        finally:
            runner.stop()


# --------------------------------------------------------- crash / restart
#: A fixed schedule in the `strategies.drive` format, covering every event
#: type on both sides of the kill point.
CRASH_SCHEDULE = [
    ("batch", 12),
    ("retract", 3),
    ("batch", 8),
    ("update", 5),
    ("flush", 0),
    ("batch", 10),
    ("retract", 1),
    ("flush", 0),
]
CRASH_AT = 5  # SIGKILL lands after the first flush


class TestCrashRestart:
    def _spawn(self, tmp_path, name):
        port_file = tmp_path / f"{name}.port"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--port-file", str(port_file), "--shards", "2",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 90
        while not port_file.exists():
            assert process.poll() is None, "server process died during startup"
            assert time.monotonic() < deadline, "server did not start in time"
            time.sleep(0.05)
        return process, ServiceClient("127.0.0.1", int(port_file.read_text()))

    def test_sigkill_midschedule_then_restore_completes_identically(self, tmp_path):
        """SIGKILL the server mid-schedule; every session must restore from
        its journal on a fresh server and finish bit-identical to an
        uninterrupted standalone run (no save() ever ran: kill -9 skips
        the graceful-shutdown checkpoint on purpose)."""
        sessions = {}
        for index in range(2):
            dataset = make_dataset(seed=31 + index)
            sessions[f"crash-{index}"] = {
                "records": list(dataset.store),
                "truth": dataset.ground_truth,
                "dir": tmp_path / f"ckpt-{index}",
                "mirror": {},
            }
        process, client = self._spawn(tmp_path, "first")
        try:
            for session_id, state in sessions.items():
                client.create_session(
                    session_id,
                    config=dict(SERVICE_CONFIG, checkpoint_dir=str(state["dir"])),
                    truth=[list(pair) for pair in state["truth"]],
                )
                state["cursor"] = drive_over_http(
                    client,
                    session_id,
                    state["records"],
                    CRASH_SCHEDULE[:CRASH_AT],
                    state["mirror"],
                )
            process.kill()  # SIGKILL: no shutdown hook, no save()
            process.wait(30)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(30)

        process, client = self._spawn(tmp_path, "second")
        try:
            for session_id, state in sessions.items():
                restored = client.restore(session_id, str(state["dir"]))
                assert restored["records"] == len(state["mirror"])
                drive_over_http(
                    client,
                    session_id,
                    state["records"],
                    CRASH_SCHEDULE[CRASH_AT:],
                    state["mirror"],
                    cursor=state["cursor"],
                )
                served = client.result(session_id)
                assert served == standalone_result(
                    state["records"], state["truth"], CRASH_SCHEDULE
                )
                client.close(session_id)
        finally:
            process.terminate()  # SIGTERM: graceful shutdown path
            assert process.wait(60) == 0


# ------------------------------------------------------------ observability
class TestServiceMetrics:
    def test_prometheus_scrape_reports_requests_and_queues(self):
        obs.activate()
        try:
            runner = ServiceThread(shard_count=2, queue_depth=8)
            client = runner.start()
            try:
                session_id = fresh_id("metrics")
                client.create_session(session_id, config=SERVICE_CONFIG)
                client.append(
                    session_id,
                    [{"record_id": "a", "attributes": {"name": "ipad"}}],
                )
                client.close(session_id)
                text = client.metrics_text()
                assert "service_requests_total" in text
                assert "service_request_seconds" in text
                assert "service_queue_depth" in text
                snapshot = obs.snapshot()
                assert (
                    snapshot.counter_total(
                        "service_requests_total",
                        route="/sessions/{id}/batch",
                        status=200,
                    )
                    == 1
                )
                assert (
                    snapshot.counter_total(
                        "service_requests_total", route="/sessions", method="POST"
                    )
                    == 1
                )
            finally:
                runner.stop()
        finally:
            obs.deactivate()

    def test_restoring_saved_sessions_leaves_the_scrape_where_it_was(self, tmp_path):
        """A restore pages a session in and publishes nothing, so on a
        server with metrics on ``hits_issued_total`` does not grow.  Fails
        at the parent commit, where each saved store carried a copy of the
        process's registry and a restore merged it back in."""

        def hits_issued(text):
            return sum(
                float(line.split()[-1])
                for line in text.splitlines()
                if line.split(" ")[0] == "hits_issued_total"
            )

        obs.activate()
        try:
            directories = [tmp_path / "a", tmp_path / "b"]
            for seed, directory in enumerate(directories, start=3):
                resolver = StreamingResolver(config=make_config(checkpoint_dir=str(directory)))
                resolver.add_batch(list(make_dataset(seed).store))
                resolver.save()
                resolver.durability.close()
            runner = ServiceThread(shard_count=2, queue_depth=8)
            client = runner.start()
            try:
                before = hits_issued(client.metrics_text())
                assert before > 0
                for directory in directories:
                    session_id = fresh_id("restored")
                    client.restore(session_id, str(directory))
                    client.close(session_id)
                assert hits_issued(client.metrics_text()) == before
            finally:
                runner.stop()
        finally:
            obs.deactivate()

    def test_a_request_is_followed_into_its_session(self, tmp_path):
        """The shard queue hands the submitter's context to the owner
        thread: every ``hit.cluster`` span of a served append descends from
        exactly one ``service.request``, its own.  Fails at the parent
        commit, where every span on a shard thread was a root."""
        trace = tmp_path / "trace.jsonl"
        obs.activate(trace_path=str(trace))
        try:
            runner = ServiceThread(shard_count=2, queue_depth=8)
            client = runner.start()
            try:
                # One session per shard (two open sessions are placed on two
                # shards), told apart by their batch sizes.
                batch_sizes = {fresh_id("trace"): 20, fresh_id("trace"): 25}
                barrier = threading.Barrier(2)

                def drive_session(session_id, seed):
                    records = list(make_dataset(seed, 100, 20).store)
                    client.create_session(session_id, config=SERVICE_CONFIG)
                    barrier.wait(30)
                    size = batch_sizes[session_id]
                    for start in range(0, len(records), size):
                        client.append(
                            session_id,
                            [encode_record(r) for r in records[start : start + size]],
                        )
                    client.close(session_id)

                with ThreadPoolExecutor(2) as pool:
                    for future in [
                        pool.submit(drive_session, session_id, seed)
                        for seed, session_id in enumerate(batch_sizes, start=3)
                    ]:
                        future.result(120)
            finally:
                runner.stop()
        finally:
            obs.deactivate()

        events = [json.loads(line) for line in trace.read_text().splitlines()]
        spans = {e["span_id"]: e for e in events if e["type"] == "span"}

        def ancestry(span):
            while "parent_id" in span:
                span = spans[span["parent_id"]]
                yield span

        requests_of = {size: set() for size in batch_sizes.values()}
        for span in spans.values():
            if span["name"] != "hit.cluster":
                continue
            chain = list(ancestry(span))
            requests = [a for a in chain if a["name"] == "service.request"]
            assert len(requests) == 1 and chain[-1] is requests[0]
            assert requests[0]["attrs"]["route"] == "/sessions/{id}/batch"
            (event,) = [a for a in chain if a["name"] == "streaming.batch"]
            requests_of[event["attrs"]["batch"]].add(requests[0]["span_id"])
        first, second = requests_of.values()
        assert first and second and first.isdisjoint(second)
        # One request, one event: no request span adopted another's work.
        served = [s for s in spans.values() if s["name"] == "streaming.batch"]
        assert len({next(ancestry(s))["span_id"] for s in served}) == len(served)
