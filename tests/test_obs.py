"""Tests for the ``repro.obs`` observability subsystem.

Three layers of guarantees:

* the primitives themselves — histogram bucketing, Prometheus text-format
  escaping and validity, span nesting and exception safety;
* the no-op default — with observability off, every entry point is inert
  and instrumentation changes *nothing* about resolution output or the
  stores a session leaves (the bit-identity property test, for both
  storage backends);
* the cost surface — ``repro stats`` reports whose HIT count exactly
  matches the session's, each store reporting its own session only, and
  the ``-v``/``-q`` logging levels.
"""

import asyncio
import json
import logging
import sqlite3
import threading

import pytest
from strategies import make_unreadable

from repro import obs
from repro.cli import main as cli_main
from repro.core.config import WorkflowConfig
from repro.core.workflow import HybridWorkflow
from repro.datasets.restaurant import RestaurantGenerator
from repro.obs.export import to_prometheus, validate_prometheus_text
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry, MetricsSnapshot
from repro.obs.report import CostReport
from repro.streaming import PersistenceError, persistence
from repro.streaming.session import StreamingResolver


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with observability disabled."""
    obs.deactivate()
    yield
    obs.deactivate()


def make_dataset(record_count=60, duplicate_pairs=10, seed=11):
    return RestaurantGenerator(
        record_count=record_count, duplicate_pairs=duplicate_pairs, seed=seed
    ).generate()


# ------------------------------------------------------------- primitives
class TestHistogram:
    def test_bucketing_lands_each_value_in_its_bucket(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        snapshot = registry.snapshot()
        sample = snapshot.get("h")["samples"][0]
        # counts are per-bucket (not cumulative): (<=0.1, <=1, <=10, +Inf)
        assert sample["counts"] == [1, 2, 1, 1]
        assert sample["count"] == 5
        assert sample["sum"] == pytest.approx(56.05)

    def test_boundary_value_goes_to_lower_bucket(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0)).observe(1.0)
        sample = registry.snapshot().get("h")["samples"][0]
        assert sample["counts"] == [1, 0, 0]  # le="1.0" is inclusive

    def test_default_buckets_are_sorted_and_positive(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert all(bound > 0 for bound in DEFAULT_BUCKETS)

    def test_labelled_series_are_independent(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0,))
        histogram.observe(0.5, kind="a")
        histogram.observe(2.0, kind="b")
        snapshot = registry.snapshot()
        assert snapshot.histogram_count("h", kind="a") == 1
        assert snapshot.histogram_sum("h", kind="b") == pytest.approx(2.0)


class TestPrometheusExport:
    def test_export_of_live_registry_validates(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "a counter").inc(3, phase="join")
        registry.gauge("g").set(1.5)
        registry.histogram("h_seconds", "a histogram").observe(0.02)
        text = to_prometheus(registry.snapshot())
        assert validate_prometheus_text(text) == []
        assert 'c_total{phase="join"} 3' in text
        assert "# TYPE h_seconds histogram" in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(1, path='a"b\\c\nd')
        text = to_prometheus(registry.snapshot())
        assert validate_prometheus_text(text) == []
        assert '\\"' in text and "\\\\" in text and "\\n" in text

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(1.5)
        text = to_prometheus(registry.snapshot())
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="2"} 2' in text
        assert 'h_bucket{le="+Inf"} 2' in text
        assert "h_count 2" in text

    def test_validator_flags_malformed_text(self):
        assert validate_prometheus_text("# TYPE x banana\n")
        assert validate_prometheus_text("m{oops} 1\n")
        assert validate_prometheus_text('m{l="unterminated} 1\n')
        assert validate_prometheus_text("m not-a-number\n")

    def test_validator_accepts_empty_export(self):
        assert validate_prometheus_text(to_prometheus(MetricsSnapshot([]))) == []


class TestSpans:
    def test_nesting_recorded_in_trace(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        obs.activate(trace_path=str(trace))
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        obs.deactivate()
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        spans = {event["name"]: event for event in events if event["type"] == "span"}
        assert spans["inner"]["depth"] == 1
        assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
        assert "parent_id" not in spans["outer"]
        # a clean deactivate appends the final snapshot event
        assert events[-1]["type"] == "snapshot"

    def test_exception_propagates_and_is_counted(self):
        obs.activate()
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("kept")
        snapshot = obs.snapshot()
        assert snapshot.counter_total("span_errors_total", span="boom") == 1
        assert snapshot.histogram_count("span_seconds", span="boom") == 1
        # the stack unwound: a new span is a root again
        with obs.span("after") as after:
            assert after.parent_id is None

    @pytest.mark.parametrize("finishing_order", ("ab", "ba"))
    def test_interleaved_coroutines_keep_their_own_ancestry(self, finishing_order):
        """Two requests interleaved on one event-loop thread, each holding
        its root span open across an ``await``: fails at the parent commit,
        whose per-thread stack made request *a* the parent of request *b*
        and, when *a* finished first, kept *b*'s root on the stack for good."""
        runtime = obs.activate()

        async def request(name, started, release):
            with obs.span("service.request", request=name) as root:
                started[name].set()
                await release[name].wait()
                with obs.span("streaming.batch", request=name) as inner:
                    await asyncio.sleep(0)
                    assert runtime.current_span() is inner
                assert runtime.current_span() is root
            return root, inner

        async def conductor(started, release, finished):
            for name in "ab":
                await started[name].wait()
            for name in finishing_order:  # both roots are open by now
                release[name].set()
                await finished[name].wait()

        async def serve():
            started, release, finished = (
                {name: asyncio.Event() for name in "ab"} for _ in range(3)
            )

            async def served(name):
                spans = await request(name, started, release)
                finished[name].set()
                return spans

            a, b, _ = await asyncio.gather(
                served("a"), served("b"), conductor(started, release, finished)
            )
            assert runtime.current_span() is None
            return a, b

        for root, inner in asyncio.run(serve()):
            assert root.parent_id is None and root.depth == 0
            assert inner.parent_id == root.span_id and inner.depth == 1
        assert runtime.current_span() is None
        assert obs.snapshot().histogram_count("span_seconds", span="service.request") == 2

    def test_threads_nest_their_own_spans(self):
        obs.activate()
        seen = {}

        def worker():
            with obs.span("worker") as span:
                seen["worker"] = span

        with obs.span("main") as main:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert seen["worker"].parent_id is None and main.parent_id is None

    def test_span_durations_feed_span_seconds(self):
        obs.activate()
        with obs.span("timed"):
            pass
        snapshot = obs.snapshot()
        assert snapshot.histogram_count("span_seconds", span="timed") == 1
        assert snapshot.histogram_sum("span_seconds", span="timed") >= 0.0


class TestNoopDefault:
    def test_disabled_entry_points_are_inert(self):
        assert not obs.enabled()
        assert obs.snapshot() is None
        assert obs.runtime() is None
        obs.inc("c_total")
        obs.observe("h", 1.0)
        obs.set_gauge("g", 1.0)
        with obs.span("nothing") as nothing:
            pass
        assert nothing is obs.span("still-nothing")  # shared no-op singleton

    def test_activate_is_idempotent(self):
        first = obs.activate()
        assert obs.activate() is first
        obs.inc("c_total", 2)
        assert obs.snapshot().counter_total("c_total") == 2


# ------------------------------------------------- bit-identity property
def _run_stream(dataset, tmp_path, backend, instrumented, tag):
    config_kwargs = dict(
        likelihood_threshold=0.35,
        vote_mode="per-pair",
        stream_batch_size=20,
        seed=7,
    )
    if backend == "sqlite":  # durable: its one store
        config_kwargs.update(checkpoint_dir=str(tmp_path / tag))
    if instrumented:
        obs.activate(trace_path=str(tmp_path / f"{tag}.jsonl"))
    config = WorkflowConfig(**config_kwargs)
    resolver = StreamingResolver(config=config, cross_sources=dataset.cross_sources)
    resolver.add_truth(dataset.ground_truth)
    records = list(dataset.store)
    for start in range(0, len(records), 20):
        resolver.add_batch(records[start : start + 20])
    result = resolver.snapshot()
    # The whole session state, as materialised by save(): every table of the
    # store (the config necessarily differs in the session's directory).
    state = _dump_sqlite(resolver.save(tmp_path / f"{tag}-saved"))
    resolver.storage.close()
    obs.deactivate()
    return result, state


#: Config fields allowed to differ between the instrumented and plain runs.
_OBS_CONFIG_KEYS = ("checkpoint_dir",)


def _comparable_config(payload):
    return json.dumps(
        {key: value for key, value in payload.items() if key not in _OBS_CONFIG_KEYS},
        sort_keys=True,
    )


def _dump_sqlite(path):
    """Every row of every table — the event log included — minus the config
    fields allowed to differ (stored in the ``config`` meta)."""
    connection = sqlite3.connect(path)
    try:
        tables = [
            row[0]
            for row in connection.execute(
                "SELECT name FROM sqlite_master WHERE type='table' ORDER BY name"
            )
        ]
        dump = {}
        for table in tables:
            rows = connection.execute(f"SELECT * FROM {table}").fetchall()
            if table == "meta":
                normalized = []
                for key, value in rows:
                    if key == "config":
                        value = _comparable_config(json.loads(value))
                    normalized.append((key, value))
                rows = normalized
            dump[table] = sorted(map(repr, rows))
        return dump
    finally:
        connection.close()


@pytest.mark.parametrize("backend", ("memory", "sqlite"))
def test_instrumentation_leaves_resolution_bit_identical(tmp_path, backend):
    dataset = make_dataset()
    plain_result, plain_state = _run_stream(dataset, tmp_path, backend, False, "plain")
    inst_result, inst_state = _run_stream(dataset, tmp_path, backend, True, "inst")

    assert set(inst_result.matches) == set(plain_result.matches)
    assert inst_result.posteriors == plain_result.posteriors
    assert inst_result.ranked_pairs == plain_result.ranked_pairs
    assert inst_result.hit_count == plain_result.hit_count
    assert inst_result.cost == plain_result.cost
    assert inst_state == plain_state
    if backend == "sqlite":
        live = _dump_sqlite(tmp_path / "inst" / "store.sqlite")
        assert live == _dump_sqlite(tmp_path / "plain" / "store.sqlite")
        # Each event deleted its intent as it committed: the session's
        # header, its truth and its batches are all in the state tables.
        assert live["events"] == []
        events = 2 + len(range(0, len(dataset.store), 20))
        assert repr(("events_applied", json.dumps(events))) in live["meta"]


def test_batch_resolve_is_bit_identical_and_never_activates(tmp_path):
    """The batch workflow neither switches observability on by itself nor
    resolves differently when the process has switched it on."""
    dataset = make_dataset()
    config = WorkflowConfig(likelihood_threshold=0.35, seed=7)
    plain = HybridWorkflow(config).resolve(dataset)
    assert not obs.enabled()
    obs.activate(trace_path=str(tmp_path / "trace.jsonl"))
    instrumented = HybridWorkflow(config).resolve(dataset)
    assert obs.snapshot() is not None
    assert instrumented.matches == plain.matches
    assert instrumented.posteriors == plain.posteriors
    assert instrumented.hit_count == plain.hit_count
    assert instrumented.cost == plain.cost


# ------------------------------------------------------------ cost report
def test_stats_hit_count_matches_session_exactly(tmp_path):
    dataset = make_dataset()
    config = WorkflowConfig(
        likelihood_threshold=0.35,
        vote_mode="per-pair",
        stream_batch_size=20,
        checkpoint_dir=str(tmp_path),
        seed=7,
    )
    obs.activate(trace_path=str(tmp_path / "trace.jsonl"))
    resolver = StreamingResolver(config=config, cross_sources=dataset.cross_sources)
    resolver.add_truth(dataset.ground_truth)
    records = list(dataset.store)
    for start in range(0, len(records), 20):
        resolver.add_batch(records[start : start + 20])
    result = resolver.snapshot()
    snapshot = obs.snapshot()
    resolver.storage.close()
    obs.deactivate()
    assert result.hit_count > 0

    live = CostReport.from_snapshot(snapshot)
    store = CostReport.from_store(str(tmp_path / "store.sqlite"))
    trace = CostReport.from_trace(str(tmp_path / "trace.jsonl"))
    for report in (live, store, trace):
        assert report.hits_issued == result.hit_count
        assert report.assignments == result.assignment_count
        assert report.votes > 0
        assert report.crowd_cost_dollars == pytest.approx(result.cost)
    # Timings belong to the process that ran the session, not to its store.
    assert store.machine_seconds is None and store.simulator_seconds is None
    assert trace.machine_seconds > 0


def _sqlite_session(directory, seed):
    """Restaurant(400, 50, seed) at 0.35, majority, in 100-record batches,
    durable in ``directory``; left open."""
    dataset = make_dataset(400, 50, seed=seed)
    resolver = StreamingResolver(config=WorkflowConfig(
        likelihood_threshold=0.35, aggregation="majority", vote_mode="per-pair",
        checkpoint_dir=str(directory),
    ), cross_sources=dataset.cross_sources)
    resolver.add_truth(dataset.ground_truth)
    records = list(dataset.store)
    for start in range(0, len(records), 100):
        resolver.add_batch(records[start : start + 100])
    return resolver


def test_each_store_reports_its_own_session_and_restores_publish_nothing(tmp_path):
    """Two sqlite sessions in one process with metrics on: a store's report
    is its own session's cost, and restoring both stores into a fresh
    registry counts no HIT.  Fails at the parent commit, where every store
    carried a copy of the process's registry (store b reported a's HITs
    too) and a restore merged it back (a's HITs counted twice)."""
    obs.activate()
    own = {}
    for name, seed in (("a", 1), ("b", 2)):
        resolver = _sqlite_session(tmp_path / name, seed)
        result = resolver.snapshot()
        votes = sum(len(pair_votes) for pair_votes in resolver.storage.ledger.votes.values())
        own[name] = (result.hit_count, result.assignment_count, result.cost, votes)
        resolver.durability.close()
    assert obs.snapshot().counter_total("hits_issued_total") == 13 + 15
    assert {name: counts[:2] for name, counts in own.items()} == {"a": (13, 39), "b": (15, 45)}
    for name, counts in own.items():
        report = CostReport.from_store(str(tmp_path / name / "store.sqlite"))
        assert (
            report.hits_issued, report.assignments, report.crowd_cost_dollars, report.votes
        ) == counts

    obs.deactivate()
    obs.activate()
    for name in own:
        StreamingResolver.restore(str(tmp_path / name)).durability.close()
    assert obs.snapshot().counter_total("hits_issued_total") == 0


def test_packing_counters_are_exact_for_a_seeded_session(monkeypatch):
    """500 records appended 50 at a time, tracing on: how each packing's HIT
    count was settled and how many LPs that took repeat for a seed, and
    agree with counts taken from outside the packing module.  (k=5: at the
    default k=10 a session this small never needs an LP.)"""
    from repro.hit import packing, two_tiered

    lp_solves, packings = [], []
    solve, pack = packing.linprog, two_tiered.pack_components

    def counted_solve(*args, **kwargs):
        lp_solves.append(1)
        return solve(*args, **kwargs)

    def counted_pack(components, cluster_size, method):
        packings.append(method)
        return pack(components, cluster_size, method=method)

    monkeypatch.setattr(packing, "linprog", counted_solve)
    monkeypatch.setattr(two_tiered, "pack_components", counted_pack)

    dataset = make_dataset(500, 62, seed=7)
    obs.activate()
    resolver = StreamingResolver(config=WorkflowConfig(
        likelihood_threshold=0.35, cluster_size=5, aggregation="majority",
        vote_mode="per-pair", seed=7,
    ))
    resolver.add_truth(dataset.ground_truth)
    records = list(dataset.store)
    for start in range(0, len(records), 50):
        resolver.add_batch(records[start : start + 50])
    result = resolver.snapshot()
    snapshot = obs.snapshot()

    outcomes = {
        outcome: snapshot.counter_total("hit_packings_total", outcome=outcome)
        for outcome in ("ffd-at-bound", "column-generation", "ffd-fallback")
    }
    assert outcomes == {"ffd-at-bound": 6, "column-generation": 4, "ffd-fallback": 0}
    assert packings == ["column-generation"] * 10
    assert snapshot.counter_total("hit_packing_lp_solves_total") == len(lp_solves) == 5
    assert snapshot.counter_total("hits_generated_total") == result.hit_count


def test_simulator_time_is_not_booked_as_machine_time(tmp_path):
    """``crowd.publish`` runs nested inside the root spans: it is reported on
    its own and taken out of the machine figure and the split."""
    trace = tmp_path / "trace.jsonl"
    events = [
        {"type": "span", "name": "crowd.publish", "seconds": 0.5},
        {"type": "span", "name": "workflow.crowd", "seconds": 0.625},
        {"type": "span", "name": "workflow.resolve", "seconds": 2.0},
        {"type": "counter", "name": "crowd_work_seconds_total", "value": 4.5},
    ]
    trace.write_text("".join(json.dumps(event) + "\n" for event in events))
    report = CostReport.from_trace(str(trace))
    assert report.simulator_seconds == 0.5
    assert report.machine_seconds == 1.5
    assert report.to_dict()["simulator_seconds"] == 0.5
    rendered = report.render()
    assert "machine time           : 1.500 s" in rendered
    assert "crowd simulator time   : 0.500 s" in rendered
    assert "25.0% machine / 75.0% crowd (of 6.0 combined seconds)" in rendered

    # A live sync session: the simulator ran, inside the root spans.
    dataset = make_dataset()
    obs.deactivate()
    obs.activate()
    resolver = StreamingResolver(config=WorkflowConfig(
        likelihood_threshold=0.35, vote_mode="per-pair", seed=7,
    ), cross_sources=dataset.cross_sources)
    resolver.add_truth(dataset.ground_truth)
    resolver.add_batch(list(dataset.store))
    live = CostReport.from_snapshot(obs.snapshot())
    obs.deactivate()
    assert live.simulator_seconds == live.phase_seconds["crowd.publish"][1] > 0
    assert live.machine_seconds == pytest.approx(
        live.phase_seconds["streaming.batch"][1] - live.simulator_seconds
    )

    # No spans at all: both figures are absent, not zero.
    assert CostReport().simulator_seconds is None


# -------------------------------------------------------------------- CLI
def test_cli_stream_metrics_export_and_stats(tmp_path, capsys):
    checkpoint = tmp_path / "session"
    prom = tmp_path / "metrics.prom"
    trace = tmp_path / "trace.jsonl"
    exit_code = cli_main([
        "resolve-stream", "--dataset", "paper-example", "--batch-size", "3",
        "--checkpoint-dir", str(checkpoint),
        "--metrics", "--trace", str(trace), "--metrics-out", str(prom),
    ])
    out = capsys.readouterr().out
    assert exit_code == 0
    hit_line = next(line for line in out.splitlines() if line.startswith("HITs"))
    session_hits = int(hit_line.split(":")[1].split("/")[0])
    assert validate_prometheus_text(prom.read_text()) == []

    for source_args in (
        ["--checkpoint-dir", str(checkpoint)],
        ["--trace", str(trace)],
    ):
        assert cli_main(["stats"] + source_args) == 0
        rendered = capsys.readouterr().out
        assert f"HITs issued            : {session_hits}" in rendered

    assert cli_main(["stats", "--checkpoint-dir", str(checkpoint), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hits_issued"] == session_hits
    assert payload["votes"] > 0


RESOLVE_ARGS = ["resolve", "--dataset", "paper-example", "--threshold", "0.3"]


def test_cli_resolve_metrics_export_and_stats(tmp_path, capsys):
    """The batch command switches observability on from its own flags, for
    the process, and off again at exit."""
    prom = tmp_path / "metrics.prom"
    trace = tmp_path / "trace.jsonl"
    obs.deactivate()
    assert cli_main(RESOLVE_ARGS + ["--trace", str(trace), "--metrics-out", str(prom)]) == 0
    assert not obs.enabled()
    out = capsys.readouterr().out
    hit_line = next(line for line in out.splitlines() if line.startswith("HITs"))
    resolve_hits = int(hit_line.split(":")[1].split("/")[0])
    assert validate_prometheus_text(prom.read_text()) == []
    assert 'span="workflow.resolve"' in prom.read_text()
    assert cli_main(["stats", "--trace", str(trace), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["hits_issued"] == resolve_hits


def test_cli_resolve_output_does_not_depend_on_metrics(capsys):
    outputs = []
    for flags in ([], ["--metrics"]):
        obs.deactivate()
        assert cli_main(RESOLVE_ARGS + flags) == 0
        assert not obs.enabled()
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "matches found" in outputs[0]


def test_cli_stats_errors(tmp_path, capsys):
    assert cli_main(["stats"]) == 2
    assert "needs --store" in capsys.readouterr().err
    assert cli_main(["stats", "--store", str(tmp_path / "missing.sqlite")]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("kind", ("newer-format", "not-a-database"))
def test_cli_stats_refuses_what_restore_refuses_with_its_message(
    tmp_path, capsys, monkeypatch, kind
):
    """A store in a newer format is not reported as if it were current, and
    a file that is no database is no traceback: ``stats`` exits 2 with the
    message a restore of it gives."""
    with monkeypatch.context() as patched:
        if kind == "newer-format":
            patched.setattr(persistence, "FORMAT_VERSION", 99)
        StreamingResolver(config=WorkflowConfig(checkpoint_dir=str(tmp_path))).durability.close()
    if kind == "not-a-database":
        make_unreadable(tmp_path, kind)
    with pytest.raises(PersistenceError) as refused:
        StreamingResolver.restore(str(tmp_path))
    capsys.readouterr()
    assert cli_main(["stats", "--checkpoint-dir", str(tmp_path)]) == 2
    assert f"error: {refused.value}" in capsys.readouterr().err


def test_cli_stats_leaves_a_mistyped_directory_unwritten(tmp_path, capsys):
    """``stats`` on a path that holds no store file refuses it before
    opening anything.  Opening creates a store: the mistyped directory
    would then hold an empty one, refusing a fresh durable session
    ("already holds a session") and a restore ("holds no session") alike."""
    typo = tmp_path / "x" / "typo"
    assert cli_main(["stats", "--checkpoint-dir", str(typo)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert cli_main(["stats", "--store", str(tmp_path / "missing.sqlite")]) == 2
    assert sorted(item.name for item in tmp_path.iterdir()) == []
    session = StreamingResolver(config=WorkflowConfig(checkpoint_dir=str(typo)))
    session.durability.close()
    StreamingResolver.restore(str(typo)).durability.close()


def test_cli_quiet_suppresses_info(capsys):
    assert cli_main(["-q", "threshold-table", "--dataset", "paper-example"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ""


def test_cli_verbose_surfaces_library_debug(capsys):
    assert cli_main([
        "-v", "resolve-stream", "--dataset", "paper-example", "--batch-size", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "records arriving" in out  # session.py debug line


def test_cli_errors_go_to_stderr_not_stdout(capsys):
    exit_code = cli_main([
        "resolve-stream", "--dataset", "paper-example", "--batch-size", "3",
        "--retract", "no-such-record",
    ])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "error:" in captured.err
    assert "error:" not in captured.out


def test_library_loggers_never_touch_root(capsys):
    # _configure_logging must scope handlers to the "repro" logger only.
    cli_main(["threshold-table", "--dataset", "paper-example"])
    capsys.readouterr()
    assert logging.getLogger().handlers == logging.getLogger().handlers  # no raise
    assert not logging.getLogger("repro").propagate
    assert logging.getLogger().handlers == [] or all(
        handler not in logging.getLogger("repro").handlers
        for handler in logging.getLogger().handlers
    )
