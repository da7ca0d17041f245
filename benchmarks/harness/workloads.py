"""The four benchmark workloads: inputs, one timed pass, correctness checks.

Imported by :mod:`worker` inside its timed set-up, so the cost of importing
the program lands in ``setup_s``.  Every workload
derives all of its inputs from ``seed`` (dataset generators,
``WorkflowConfig.seed``, churn picks); the program receives only those
generated inputs.  All configs pin ``join_workers=1`` — the ``parallel``
backend forks a pool that fights the load generator for the two vCPUs — but
leave ``join_backend="auto"`` so a routing fix shows.

Why these four (the full reasoning is in ``README.md``):

* ``batch-paper``   the paper's own experiment; the only user of the
  full-store self-join, the bipartite join, two-tiered packing at scale and
  Dawid-Skene.  Streaming, storage and service do nothing.
* ``stream-mem``    an in-memory streaming session; incremental join, HIT
  regeneration, snapshot and ranking per event.
* ``stream-durable`` the identical event schedule on sqlite + journal, then
  save, drop, restore: the price of durability and the storage read path.
* ``serve-http``    two closed-loop clients against a real server process:
  HTTP parse, shard queue, owner thread, result encoding, small batches,
  reads beside writes, retraction and update.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import WorkflowConfig
from repro.core.workflow import HybridWorkflow
from repro.datasets.product import ProductGenerator
from repro.datasets.restaurant import RestaurantGenerator
from repro.evaluation.metrics import f1_score
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.sessions import encode_result
from repro.streaming.persistence import decode_record, encode_record, state_digest
from repro.streaming.session import StreamingResolver

HARNESS_DIR = Path(__file__).resolve().parent
REPO_ROOT = HARNESS_DIR.parents[1]

PairKey = Tuple[str, str]

#: Fixed input sizes.  ``--seconds`` is the only dial: it buys more passes,
#: and a pass is never shrunk to fit a budget.
FULL = {
    "restaurant": (6000, 750),
    "product": dict(shared_entities=1300, extra_buy_duplicates=112, abt_only=98),
    "stream": (10000, 1250, 250),        # records, duplicate pairs, batch size
    "serve": (4000, 500, 50, 8),         # records, dups, batch size, result every Nth
}
#: The warm-up slice, also what ``--smoke`` times.
SLICE = {
    "restaurant": (500, 62),
    "product": dict(shared_entities=110, extra_buy_duplicates=9, abt_only=8),
    "stream": (500, 62, 125),
    "serve": (500, 62, 50, 4),
}
SERVE_SESSIONS = 2      # = nproc: one closed-loop client thread per session
SERVE_SHARDS = 2
SERVE_QUEUE_DEPTH = 64
CHURN = 4               # retractions and updates per session per pass
MAX_429_RETRIES = 3


class CheckFailure(Exception):
    """A correctness check of the benchmark did not hold."""


def matches_sha(groups: Sequence[Tuple[str, Sequence[Sequence[str]]]]) -> str:
    """Order-independent hash of labelled match sets."""
    digest = hashlib.sha256()
    for label, matches in groups:
        digest.update(label.encode())
        for pair in sorted(tuple(pair) for pair in matches):
            digest.update(f"{pair[0]}\x1f{pair[1]}\x1e".encode())
    return digest.hexdigest()


def pooled_f1(groups: Sequence[Tuple[str, Sequence[Sequence[str]], Sequence[PairKey]]]) -> float:
    """``f1_score`` with TP/FP/FN summed over datasets (ids made disjoint)."""
    predicted = [(f"{label}:{a}", f"{label}:{b}") for label, matches, _ in groups
                 for a, b in matches]
    truth = [(f"{label}:{a}", f"{label}:{b}") for label, _, pairs in groups
             for a, b in pairs]
    return f1_score(predicted, truth)


class Workload:
    """Common shape: ``setup`` → any number of ``run_pass`` → ``teardown``."""

    name = ""

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.sizes = SLICE if smoke else FULL
        self.attempted = 0
        self.failed = 0

    def attempt(self, operation: Callable[[], object]) -> object:
        """Run one counted operation; a raised exception is a failed one."""
        self.attempted += 1
        try:
            return operation()
        except Exception:
            self.failed += 1
            raise

    def setup(self) -> None:
        """Generate inputs, then one untimed warm-up pass with the equivalence checks."""
        raise NotImplementedError

    def run_pass(self, tracer=None) -> Dict[str, object]:
        """One timed pass at full size; returns its record (see ``worker``)."""
        raise NotImplementedError

    @staticmethod
    def _root_span(tracer, name: str = "harness.pass"):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    @contextlib.contextmanager
    def clocked(self, record: Dict[str, object], tracer=None):
        """Add the duration of the block to ``record["wall_s"]``.

        Only the program's work goes inside; digests, byte counts and the
        other bookkeeping of the harness stay outside.  With a ``tracer``
        the block — exactly it — runs inside a root span, whose self time is
        then the pass's unattributed time.
        """
        with self._root_span(tracer):
            start = time.perf_counter()
            try:
                yield
            finally:
                record["wall_s"] = record.get("wall_s", 0.0) + time.perf_counter() - start

    def traced_pass(self, tracer) -> Tuple[Dict[str, object], Dict[str, Dict[str, float]]]:
        """One pass under the probes; returns (pass record, span summary)."""
        from probes import ENGINE_PROBES

        tracer.install_table(ENGINE_PROBES)
        try:
            tracer.pass_id = 1
            record = self.run_pass(tracer)
        finally:
            tracer.uninstall()
        return record, tracer.summary(pass_id=1)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def teardown(self) -> None:
        pass


# ------------------------------------------------------------- batch-paper
class BatchPaper(Workload):
    """``HybridWorkflow.resolve`` with the paper's defaults on Restaurant then Product."""

    name = "batch-paper"

    def _datasets(self, sizes) -> List[Tuple[str, object, float]]:
        return [
            ("restaurant",
             RestaurantGenerator(*sizes["restaurant"], seed=self.seed).generate(), 0.35),
            ("product",
             ProductGenerator(seed=self.seed, **sizes["product"]).generate(), 0.2),
        ]

    def _config(self, threshold: float, **overrides) -> WorkflowConfig:
        # Everything not named is the paper's default: cluster HITs,
        # two-tiered, k=10, 3 assignments, Dawid-Skene.
        return WorkflowConfig(
            likelihood_threshold=threshold, vote_mode="per-pair",
            join_workers=1, seed=self.seed, **overrides,
        )

    def setup(self) -> None:
        self.datasets = self._datasets(self.sizes)
        # Warm-up on the slice; the naive all-pairs join is the independent
        # reference for whichever backend "auto" routes to.
        for label, dataset, threshold in self._datasets(SLICE):
            fast = HybridWorkflow(self._config(threshold)).resolve(dataset)
            naive = HybridWorkflow(
                self._config(threshold, join_backend="naive")
            ).resolve(dataset)
            if set(fast.matches) != set(naive.matches) or fast.hit_count != naive.hit_count:
                raise CheckFailure(f"{label}: auto backend disagrees with the naive join")

    def run_pass(self, tracer=None) -> Dict[str, object]:
        record: Dict[str, object] = {}
        with self.clocked(record, tracer):
            results = [
                (label, dataset, self.attempt(
                    lambda: HybridWorkflow(self._config(threshold)).resolve(dataset)))
                for label, dataset, threshold in self.datasets
            ]
        record.update(
            hits=sum(result.hit_count for _, _, result in results),
            f1=pooled_f1([(label, result.matches, dataset.ground_truth)
                          for label, dataset, result in results]),
            digest=hashlib.sha256("".join(
                state_digest(result.posteriors, result.cost, result.hit_count)
                for _, _, result in results).encode()).hexdigest(),
            matches_sha=matches_sha([(label, result.matches) for label, _, result in results]),
            candidates=sum(result.candidate_count for _, _, result in results),
            records=sum(len(dataset.store) for _, dataset, _ in results),
        )
        return record


# ---------------------------------------------------------------- stream-*
def _dir_bytes(directory: Path, prefix: str) -> int:
    return sum(path.stat().st_size for path in directory.rglob(f"{prefix}*")
               if path.is_file())


class StreamMem(Workload):
    """A fresh in-memory ``StreamingResolver`` fed the whole dataset batch by batch."""

    name = "stream-mem"
    durable = False

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        super().__init__(seed, smoke, workdir)
        self._sessions = 0

    def _dataset(self, sizes):
        records, duplicates, batch = sizes["stream"]
        dataset = RestaurantGenerator(records, duplicates, seed=self.seed).generate()
        return dataset, list(dataset.store), batch

    def _config(self, directory: Optional[Path]) -> WorkflowConfig:
        durable = (
            dict(storage_backend="sqlite", checkpoint_dir=str(directory))
            if directory is not None else {}
        )
        return WorkflowConfig(
            likelihood_threshold=0.35, aggregation="majority", vote_mode="per-pair",
            join_workers=1, seed=self.seed, **durable,
        )

    def setup(self) -> None:
        self.dataset, self.records, self.batch = self._dataset(self.sizes)
        # Warm-up on the slice: streamed == one-shot, and (durable) the
        # in-memory, sqlite-backed and restored sessions agree bit for bit.
        dataset, records, batch = self._dataset(SLICE)
        streamed = self._stream(dataset, records, batch, durable=self.durable)
        one_shot = HybridWorkflow(self._config(None)).resolve(dataset)
        if streamed["match_set"] != set(one_shot.matches):
            raise CheckFailure("streamed match set differs from one-shot resolve")
        if self.durable:
            memory = self._stream(dataset, records, batch, durable=False)
            if memory["digest"] != streamed["digest"]:
                raise CheckFailure("sqlite-backed digest differs from in-memory digest")

    def _stream(self, dataset, records, batch: int, durable: bool,
                tracer=None) -> Dict[str, object]:
        """The event schedule both stream workloads share."""
        directory = None
        if durable:
            self._sessions += 1
            directory = self.workdir / f"session-{self._sessions}"
            directory.mkdir(parents=True)
        try:
            return self._timed_stream(dataset, records, batch, directory, tracer)
        finally:
            if directory is not None:
                shutil.rmtree(directory, ignore_errors=True)

    def _timed_stream(self, dataset, records, batch: int, directory: Optional[Path],
                      tracer) -> Dict[str, object]:
        record: Dict[str, object] = {}
        latencies: List[float] = []
        extras: Dict[str, float] = {}
        with self.clocked(record, tracer):
            resolver = StreamingResolver(config=self._config(directory))
            resolver.add_truth(dataset.ground_truth)
            for offset in range(0, len(records), batch):
                chunk = records[offset:offset + batch]
                began = time.perf_counter()
                self.attempt(lambda: resolver.add_batch(chunk))
                latencies.append(time.perf_counter() - began)
            result = self.attempt(resolver.flush)
        digest = resolver.state_digest()
        if directory is not None:
            extras["stream_s"] = record["wall_s"]
            with self.clocked(record, tracer):
                self.attempt(resolver.save)
            # db + -wal + -shm: the WAL holds most of the bytes until a
            # checkpoint folds it back, so the db file alone under-reports.
            extras["bytes_on_disk"] = _dir_bytes(directory, "store.sqlite")
            extras["journal_bytes"] = _dir_bytes(directory, "journal")
            extras["snapshot_bytes"] = _dir_bytes(directory, "snapshot-")
            with self.clocked(record, tracer):      # drop the session, restore it
                resolver.storage.close()
                del resolver
                restored = self.attempt(lambda: StreamingResolver.restore(str(directory)))
            restored_digest = restored.state_digest()
            restored.storage.close()
            if restored_digest != digest:
                raise CheckFailure("restored digest differs from the live session's")
        record.update(
            hits=result.hit_count,
            f1=pooled_f1([("s", result.matches, dataset.ground_truth)]),
            digest=digest,
            matches_sha=matches_sha([("s", result.matches)]),
            match_set=set(result.matches),
            candidates=result.candidate_count,
            records=len(records),
            latencies={"append": latencies},
            extras=extras,
        )
        return record

    def run_pass(self, tracer=None) -> Dict[str, object]:
        record = self._stream(self.dataset, self.records, self.batch, self.durable, tracer)
        del record["match_set"]
        return record


class StreamDurable(StreamMem):
    """The same schedule with sqlite storage + journal, then save, drop, restore."""

    name = "stream-durable"
    durable = True

    def memory_reference(self) -> Dict[str, object]:
        """One in-memory pass of the identical schedule (traced mode only)."""
        record = self._stream(self.dataset, self.records, self.batch, durable=False)
        del record["match_set"]
        return record


# -------------------------------------------------------------- serve-http
def _proc_cpu_seconds(pid: int) -> float:
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise CheckFailure(f"no VmHWM for pid {pid}")


class ServeHttp(Workload):
    """Two closed-loop client threads driving sessions on a separate server process."""

    name = "serve-http"

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        super().__init__(seed, smoke, workdir)
        self.server: Optional[subprocess.Popen] = None
        self.server_peak_mb = 0.0
        self.retries_429 = 0
        self._count_lock = threading.Lock()
        self._pass_no = 0

    # ------------------------------------------------------------- inputs
    def _session_inputs(self, sizes, index: int) -> Dict[str, object]:
        records, duplicates, batch, result_every = sizes["serve"]
        seed = self.seed + index
        dataset = RestaurantGenerator(records, duplicates, seed=seed).generate()
        payloads = [encode_record(record) for record in dataset.store]
        picks = random.Random(seed * 1000 + 17).sample(range(len(payloads)), 2 * CHURN)
        updates = []
        for position in picks[CHURN:]:
            revised = json.loads(json.dumps(payloads[position]))
            revised["attributes"]["name"] = revised["attributes"]["name"] + " annex"
            updates.append(revised)
        return {
            "config": {"likelihood_threshold": 0.35, "aggregation": "majority",
                       "join_workers": 1, "seed": seed},
            "truth": sorted(list(pair) for pair in dataset.ground_truth),
            "ground_truth": dataset.ground_truth,
            "batches": [payloads[offset:offset + batch]
                        for offset in range(0, len(payloads), batch)],
            "result_every": result_every,
            "retract": [payloads[position]["record_id"] for position in picks[:CHURN]],
            "update": updates,
        }

    # ------------------------------------------------------------- server
    def start_server(self, probed_trace_out: Optional[Path] = None) -> None:
        port_file = self.workdir / f"port-{time.monotonic_ns()}"
        if probed_trace_out is None:
            command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        else:
            command = [sys.executable, str(HARNESS_DIR / "serve_probe.py"),
                       "--trace-out", str(probed_trace_out)]
        command += ["--port-file", str(port_file), "--shards", str(SERVE_SHARDS),
                    "--queue-depth", str(SERVE_QUEUE_DEPTH)]
        server_log = self.workdir / "server.log"
        with open(server_log, "ab") as log:
            self.server = subprocess.Popen(
                command, cwd=str(REPO_ROOT), stdin=subprocess.DEVNULL,
                stdout=log, stderr=log,
            )
        deadline = time.monotonic() + 60.0
        while not port_file.exists():
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise CheckFailure("server did not start: "
                                   + server_log.read_text(errors="replace")[-2000:])
            time.sleep(0.01)
        self.port = int(port_file.read_text())
        if self._client().health().get("status") != "ok":
            raise CheckFailure("server /healthz did not answer ok")

    def stop_server(self) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        if server.poll() is None:
            try:
                self.server_peak_mb = max(self.server_peak_mb, _proc_peak_rss_mb(server.pid))
            except (OSError, CheckFailure):
                pass
            server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()

    def _client(self) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, timeout=120.0)

    # ------------------------------------------------------- load generator
    def _call(self, operation: Callable[[], dict]) -> dict:
        """One counted request; a 429 is retried after ``Retry-After``, three times."""
        with self._count_lock:
            self.attempted += 1
        try:
            for retry in range(MAX_429_RETRIES + 1):
                try:
                    return operation()
                except ServiceClientError as error:
                    if error.status != 429 or retry == MAX_429_RETRIES:
                        raise
                    with self._count_lock:
                        self.retries_429 += 1
                    time.sleep(error.retry_after or 1)
        except Exception:
            with self._count_lock:
                self.failed += 1
            raise

    def _drive_session(self, session_id: str, inputs: Dict[str, object],
                       latencies: Dict[str, List[float]]) -> dict:
        client = self._client()

        def timed(kind: str, operation: Callable[[], dict]) -> dict:
            began = time.perf_counter()
            answer = self._call(operation)
            latencies[kind].append(time.perf_counter() - began)
            return answer

        timed("other", lambda: client.create_session(
            session_id=session_id, config=inputs["config"], truth=inputs["truth"]))
        for number, batch in enumerate(inputs["batches"], start=1):
            timed("append", lambda: client.append(session_id, batch))
            if number % inputs["result_every"] == 0:
                timed("result", lambda: client.result(session_id))
        for record_id in inputs["retract"]:
            timed("retract", lambda: client.retract(session_id, record_id))
        for revised in inputs["update"]:
            timed("update", lambda: client.update(session_id, revised))
        timed("other", lambda: client.flush(session_id))
        final = timed("result", lambda: client.result(session_id))
        timed("other", lambda: client.close(session_id))
        return final

    def _run_sessions(self, inputs: List[Dict[str, object]], tracer=None) -> Dict[str, object]:
        self._pass_no += 1
        latencies = [
            {kind: [] for kind in ("append", "result", "retract", "update", "other")}
            for _ in inputs
        ]
        finals: List[Optional[dict]] = [None] * len(inputs)
        errors: List[BaseException] = []

        def client_thread(index: int) -> None:
            try:
                with self._root_span(tracer, "client.session"):
                    finals[index] = self._drive_session(
                        f"p{self._pass_no}-s{index}", inputs[index], latencies[index])
            except BaseException as error:  # relayed to the main thread below
                errors.append(error)

        cpu_server = _proc_cpu_seconds(self.server.pid)
        cpu_client = time.process_time()
        start = time.perf_counter()
        threads = [threading.Thread(target=client_thread, args=(index,))
                   for index in range(len(inputs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.perf_counter()
        if errors:
            raise errors[0]
        merged = {kind: [value for per_session in latencies for value in per_session[kind]]
                  for kind in latencies[0]}
        groups = [(f"s{index}", final["matches"], inputs[index]["ground_truth"])
                  for index, final in enumerate(finals)]
        return {
            "wall_s": end - start,
            "interval": (start, end),       # cuts the server's spans to the pass
            "hits": sum(final["hit_count"] for final in finals),
            "f1": pooled_f1(groups),
            "digest": hashlib.sha256(
                json.dumps(finals, sort_keys=True).encode()).hexdigest(),
            "matches_sha": matches_sha([(label, matches) for label, matches, _ in groups]),
            "candidates": sum(final["candidate_count"] for final in finals),
            "records": sum(len(batch) for entry in inputs for batch in entry["batches"]),
            "latencies": merged,
            "extras": {
                "server_cpu_s": _proc_cpu_seconds(self.server.pid) - cpu_server,
                "client_cpu_s": time.process_time() - cpu_client,
            },
            "finals": finals,
        }

    # -------------------------------------------------------------- phases
    def _standalone(self, inputs: Dict[str, object]) -> dict:
        """The same events through a ``StreamingResolver`` in this process."""
        resolver = StreamingResolver(config=WorkflowConfig(
            **{**inputs["config"], "vote_mode": "per-pair"}))
        resolver.add_truth([tuple(pair) for pair in inputs["truth"]])
        for batch in inputs["batches"]:
            resolver.add_batch([decode_record(payload) for payload in batch])
        for record_id in inputs["retract"]:
            resolver.retract(record_id)
        for revised in inputs["update"]:
            resolver.update(decode_record(revised))
        resolver.flush()
        return json.loads(json.dumps(encode_result(resolver.snapshot())))

    def _warm_up(self) -> None:
        inputs = [self._session_inputs(SLICE, index) for index in range(SERVE_SESSIONS)]
        served = self._run_sessions(inputs)["finals"]
        for index, entry in enumerate(inputs):
            if served[index] != self._standalone(entry):
                raise CheckFailure(f"served result of session {index} differs from "
                                   "a standalone StreamingResolver replay")

    def setup(self) -> None:
        self.inputs = [self._session_inputs(self.sizes, index)
                       for index in range(SERVE_SESSIONS)]
        self.start_server()
        self._warm_up()

    def run_pass(self, tracer=None) -> Dict[str, object]:
        record = self._run_sessions(self.inputs, tracer)
        del record["finals"]
        return record

    def traced_pass(self, tracer):
        """Swap in a probed server, probe the client side too, run one pass."""
        import http.client

        from probes import load_summary

        self.stop_server()
        trace_out = self.server_trace_out = self.workdir / "server-spans.jsonl"
        self.start_server(probed_trace_out=trace_out)
        self._warm_up()
        tracer.install(ServiceClient, "request", "client.request")
        tracer.install(
            http.client.HTTPConnection, "request", "client.http_send",
            count=lambda args, kwargs, result: {"bytes": len(kwargs.get("body") or b"")})
        tracer.install(
            http.client.HTTPResponse, "read", "client.http_read",
            count=lambda args, kwargs, result: {"bytes": len(result)})
        try:
            tracer.pass_id = 1
            record = self.run_pass(tracer)
        finally:
            tracer.uninstall()
        self.stop_server()      # the probed server dumps its spans on SIGTERM
        summary = tracer.summary(pass_id=1)
        for name, row in load_summary(str(trace_out), record["interval"]).items():
            summary[name] = row
        return record, summary

    def peak_rss_mb(self) -> float:
        if self.server is not None and self.server.poll() is None:
            self.server_peak_mb = max(self.server_peak_mb, _proc_peak_rss_mb(self.server.pid))
        return self.server_peak_mb

    def teardown(self) -> None:
        self.stop_server()


WORKLOADS = {cls.name: cls for cls in (BatchPaper, StreamMem, StreamDurable, ServeHttp)}
