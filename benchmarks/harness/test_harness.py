"""Tests of the benchmark harness itself (collected by the tier-1 command).

They check the parts a wrong number could hide in: span self-time
accounting, probe removal, the order statistics, the comparer's verdicts,
the correctness checks — and that a ``--smoke`` run really produces every
metric ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import asyncio
import json
import math
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import compare
import probes
import run
import stats

HARNESS_DIR = Path(__file__).resolve().parent


# ------------------------------------------------------------------ probes
class FakeClock:
    """A clock the synthetic call tree advances by hand: exact self times."""

    def __init__(self) -> None:
        self._now = threading.local()

    def __call__(self) -> float:
        return getattr(self._now, "value", 0.0)

    def advance(self, seconds: float) -> None:
        self._now.value = self() + seconds


@pytest.fixture()
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(probes, "_now", fake)
    return fake


class Tree:
    """outer(1) -> inner_a(2) -> leaf(3); then inner_b(4), which may raise."""

    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock

    def outer(self, fail: bool = False) -> str:
        self.clock.advance(1)
        self.inner_a()
        try:
            self.inner_b(fail)
        except ValueError:
            pass
        return "done"

    def inner_a(self) -> None:
        self.clock.advance(2)
        self.leaf()

    def inner_b(self, fail: bool) -> None:
        self.clock.advance(4)
        if fail:
            raise ValueError("boom")

    def leaf(self) -> None:
        self.clock.advance(3)

    @classmethod
    def build(cls, clock: FakeClock) -> "Tree":
        return cls(clock)


def _install_tree(tracer: probes.Tracer, leaf: bool = False) -> None:
    tracer.install(Tree, "outer", "outer", count=lambda a, k, result: {"n": len(result)})
    tracer.install(Tree, "inner_a", "inner_a")
    tracer.install(Tree, "inner_b", "inner_b")
    tracer.install(Tree, "leaf", "leaf", leaf=leaf)


def test_self_time_is_duration_minus_children(clock):
    tracer = probes.Tracer()
    _install_tree(tracer)
    try:
        Tree(clock).outer()
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "total_s": 10, "self_s": 1, "errors": 0, "n": 4}
    assert (summary["inner_a"]["total_s"], summary["inner_a"]["self_s"]) == (5, 2)
    assert (summary["leaf"]["total_s"], summary["leaf"]["self_s"]) == (3, 3)
    assert summary["inner_b"]["self_s"] == 4
    # Self times partition the root span.
    assert sum(row["self_s"] for row in summary.values()) == summary["outer"]["total_s"]
    parents = {span.name: span.parent for span in tracer.spans}
    assert parents["outer"] is None
    assert tracer.spans[parents["leaf"]].name == "inner_a"


def test_exception_closes_span_and_unwinds_stack(clock):
    tracer = probes.Tracer()
    _install_tree(tracer)
    try:
        tree = Tree(clock)
        tree.outer(fail=True)
        tree.outer()
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["inner_b"]["errors"] == 1 and summary["inner_b"]["calls"] == 2
    assert summary["outer"]["errors"] == 0
    roots = [span for span in tracer.spans if span.name == "outer"]
    assert [span.parent for span in roots] == [None, None]
    assert all(span.end is not None for span in tracer.spans)


def test_leaf_probe_keeps_totals_but_no_span(clock):
    tracer = probes.Tracer()
    _install_tree(tracer, leaf=True)
    try:
        Tree(clock).outer()
    finally:
        tracer.uninstall()
    assert "leaf" not in {span.name for span in tracer.spans}
    summary = tracer.summary()
    assert summary["leaf"] == {"calls": 1, "total_s": 3, "self_s": 3, "errors": 0}
    assert summary["inner_a"]["self_s"] == 2


def test_threads_keep_separate_stacks(clock):
    tracer = probes.Tracer()
    _install_tree(tracer)
    try:
        threads = [threading.Thread(target=Tree(clock).outer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        tracer.uninstall()
    for span in tracer.spans:
        if span.parent is not None:
            assert tracer.spans[span.parent].thread == span.thread
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 4
    assert sum(row["self_s"] for row in summary.values()) == summary["outer"]["total_s"] == 40


def test_coroutine_probe_records_duration_without_parent(clock):
    class Service:
        async def handle(self) -> int:
            clock.advance(5)
            await asyncio.sleep(0)
            return 7

    tracer = probes.Tracer()
    tracer.install(Service, "handle", "handle")
    try:
        with tracer.span("root"):
            assert asyncio.run(Service().handle()) == 7
    finally:
        tracer.uninstall()
    handle = next(span for span in tracer.spans if span.name == "handle")
    assert handle.parent is None and handle.duration == 5
    assert tracer.summary()["root"]["self_s"] == 5      # not subtracted: not a child


def test_uninstall_restores_every_kind_of_attribute(clock):
    class Child(Tree):
        pass

    before = dict(vars(Tree))
    tracer = probes.Tracer()
    _install_tree(tracer)
    tracer.install(Tree, "build", "build")            # classmethod
    tracer.install(Child, "leaf", "child.leaf")       # inherited: shadowed, then deleted
    original_dumps = json.dumps
    tracer.install(json, "dumps", "json.dumps")       # module function
    assert vars(Tree)["outer"] is not before["outer"]
    assert isinstance(Tree.build(clock), Tree) and json.dumps([1]) == "[1]"
    tracer.uninstall()
    assert dict(vars(Tree)) == before
    assert "leaf" not in vars(Child)
    assert json.dumps is original_dumps


def test_engine_probes_install_and_fully_uninstall():
    pytest.importorskip("repro")
    from repro.streaming.session import StreamingResolver
    from repro.storage.sqlite import SqliteStore
    import repro.core.workflow as workflow

    before = (vars(StreamingResolver)["add_batch"], vars(StreamingResolver)["restore"],
              vars(SqliteStore)["execute"], workflow.rank_candidates)
    tracer = probes.Tracer()
    tracer.install_table(probes.ENGINE_PROBES)
    assert vars(StreamingResolver)["add_batch"] is not before[0]
    tracer.uninstall()
    after = (vars(StreamingResolver)["add_batch"], vars(StreamingResolver)["restore"],
             vars(SqliteStore)["execute"], workflow.rank_candidates)
    assert all(a is b for a, b in zip(before, after))


def test_layer_metrics_report_exact_zeros_for_bypassed_layers():
    summary = {"crowd.publish": {"calls": 2, "total_s": 1.0, "self_s": 1.0, "votes": 30,
                                 "assignments": 9},
               "aggregation.aggregate": {"calls": 3, "total_s": 0.5, "self_s": 0.5,
                                         "votes_in": 45},
               "harness.pass": {"calls": 1, "total_s": 2.0, "self_s": 0.5}}
    metrics = probes.layer_metrics(summary, {"records": 10, "candidates": 5})
    assert metrics["crowd.publish_s"] == 1.0 and metrics["crowd.votes"] == 30
    assert metrics["aggregation.reaggregation_ratio"] == 1.5
    assert metrics["simjoin.estimate_s"] == 0 and metrics["storage.bytes_on_disk"] == 0
    assert metrics["service.http_overhead_s"] == 0
    assert probes.unattributed_ratio(summary) == 0.25
    declared = {entry["name"] for entry in run.load_declaration()["per_layer"]}
    assert set(metrics) <= declared


# ------------------------------------------------------------------- stats
def test_median_and_percentile():
    assert stats.median([3, 1, 2]) == 2 and stats.median([4, 1, 2, 3]) == 2.5
    data = list(range(1, 101))
    assert stats.percentile(data, 50) == 50 and stats.percentile(data, 95) == 95
    assert stats.percentile(data, 100) == 100 and stats.percentile(data, 0) == 1
    assert stats.percentile([5.0], 95) == 5.0
    assert stats.percentile([1, 2, 3, 4], 50) == 2      # nearest rank, never interpolated
    with pytest.raises(ValueError):
        stats.median([])
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_quartile_spread_matches_the_acceptance_rule():
    values = [10.0, 10.4, 9.8, 10.1, 11.0, 9.9, 10.2, 10.3, 9.7, 10.6]
    quartiles = statistics.quantiles(values, n=4)
    expected = (quartiles[2] - quartiles[0]) / statistics.median(values)
    assert stats.quartile_spread(values) == pytest.approx(expected)
    assert stats.quartile_spread([1.0]) == 0.0
    assert stats.range_ratio([9.0, 10.0, 12.0]) == pytest.approx(0.3)


# ----------------------------------------------------------------- compare
def _result_file(path: Path, wall: float, hits: int = 100, f1: float = 0.9,
                 seed: int = 7) -> str:
    metrics = {"setup_s": (1.0, "s"), "wall_s": (wall, "s"), "peak_rss_mb": (200.0, "MB"),
               "hits": (hits, "count"), "f1": (f1, "ratio")}
    path.write_text(json.dumps({"seed": seed, "workloads": {"stream-mem": {"metrics": {
        name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}}}))
    return str(path)


def _verdicts(a_paths, b_paths):
    return {row["metric"]: row["verdict"] for row in compare.compare(a_paths, b_paths)}


def test_compare_verdicts(tmp_path):
    base = _result_file(tmp_path / "a.json", 4.0)
    assert set(_verdicts([base], [base]).values()) == {"ok"}
    assert compare.main([base, base]) == 0

    slower = _result_file(tmp_path / "slow.json", 4.5)          # +12.5% > 10%
    assert _verdicts([base], [slower])["wall_s"] == "regressed"
    within = _result_file(tmp_path / "within.json", 4.3)        # +7.5%
    assert _verdicts([base], [within])["wall_s"] == "ok"
    assert compare.main([base, slower]) == 1

    fewer_hits = _result_file(tmp_path / "fewer.json", 4.0, hits=90)    # lower is better
    assert _verdicts([base], [fewer_hits])["hits"] == "ok"
    more_hits = _result_file(tmp_path / "more.json", 4.0, hits=101)     # same seed: exact
    assert _verdicts([base], [more_hits])["hits"] == "regressed"
    worse_f1 = _result_file(tmp_path / "f1.json", 4.0, f1=0.899)        # higher is better
    assert _verdicts([base], [worse_f1])["f1"] == "regressed"
    # Without a common seed the medians are all there is, and the bound is still 0.
    other_seed = _result_file(tmp_path / "other.json", 4.0, hits=101, seed=8)
    assert _verdicts([base], [other_seed])["hits"] == "regressed"
    # One seed of a set moving is caught even when the set's median stays put.
    a_set = [_result_file(tmp_path / f"s{seed}.json", 4.0, hits=100 + seed, seed=seed)
             for seed in (1, 2, 3)]
    b_set = a_set[:2] + [_result_file(tmp_path / "s3b.json", 4.0, hits=104, seed=3)]
    hits = next(row for row in compare.compare(a_set, b_set) if row["metric"] == "hits")
    assert (hits["a"], hits["b"], hits["verdict"]) == (102, 102, "regressed")


def test_compare_sets_take_medians_and_flag_wide_spread(tmp_path):
    a_set = [_result_file(tmp_path / f"a{i}.json", wall) for i, wall in enumerate((4.0, 4.1, 3.9))]
    b_set = [_result_file(tmp_path / f"b{i}.json", wall) for i, wall in enumerate((4.1, 4.0, 4.2))]
    wall = next(row for row in compare.compare(a_set, b_set) if row["metric"] == "wall_s")
    assert (wall["a"], wall["b"], wall["verdict"]) == (4.0, 4.1, "ok")

    noisy = [_result_file(tmp_path / f"n{i}.json", wall) for i, wall in enumerate((2.0, 4.0, 6.0))]
    assert _verdicts(a_set, noisy)["wall_s"] == "unresolved"
    assert compare.main(a_set + ["--against"] + noisy) == 1
    # Every B run better than every A run: ok however wide B spreads.
    faster = [_result_file(tmp_path / f"f{i}.json", wall) for i, wall in enumerate((1.0, 2.0, 3.0))]
    assert _verdicts(a_set, faster)["wall_s"] == "ok"


# ------------------------------------------------------------------ checks
def _workload_run(digests=("abc123", "abc123"), hits=(10, 10)) -> run.WorkloadRun:
    measured = run.WorkloadRun("stream-mem")
    measured.passes = [{"hits": h, "f1": 0.5, "digest": d, "matches_sha": "m"}
                       for h, d in zip(hits, digests)]
    measured.done = {"attempted": 5, "failed": 0}
    return measured


def test_checks_catch_a_wrong_pin_a_drifting_pass_and_a_failed_operation():
    pinned = {"7": {"stream-mem": {"hits": 10, "f1": 0.5}}}
    good = _workload_run()
    run.check(good, 7, False, pinned)
    assert good.problems == []

    wrong_pin = _workload_run()
    run.check(wrong_pin, 7, False, {"7": {"stream-mem": {"hits": 11, "f1": 0.5}}})
    assert any("pinned" in problem for problem in wrong_pin.problems)

    drifting = _workload_run(digests=("abc123", "abd999"), hits=(10, 11))
    run.check(drifting, 8, False, pinned)
    assert {"hits differs between passes", "digest differs between passes"} <= set(drifting.problems)

    failed = _workload_run()
    failed.done["failed"] = 1
    run.check(failed, 8, False, pinned)
    assert failed.problems == ["1 of 5 operations failed"]

    memory, durable = _workload_run(), _workload_run(digests=("zzz", "zzz"))
    durable.name = "stream-durable"
    run.cross_check([memory, durable])
    assert durable.problems == ["digest differs from stream-mem's"]


def test_budget_is_a_minimum_of_passes_then_whatever_fits_in_seconds():
    measured = run.WorkloadRun("stream-mem")
    assert measured.budget_left(seconds=0.0, min_passes=1)
    measured.passes = [{"wall_s": 4.0}]
    assert not measured.budget_left(seconds=0.0, min_passes=1)      # --smoke
    assert measured.budget_left(seconds=1.0, min_passes=3)          # never below the minimum
    measured.passes = [{"wall_s": 4.0}] * 3
    assert not measured.budget_left(seconds=0.0, min_passes=3)      # --trace 1
    assert measured.budget_left(seconds=16.0, min_passes=3)
    assert not measured.budget_left(seconds=15.9, min_passes=3)     # a fourth would overrun


# ------------------------------------------------------------------- smoke
def test_smoke_run_reports_every_declared_metric():
    """All four workloads, traced, plus one end-to-end run, side by side."""
    declaration = run.load_declaration()
    names = [entry["name"] for entry in declaration["workloads"]]
    invocations = [(name, "1", declaration["per_layer"]) for name in names]
    invocations.append(("serve-http", "0", declaration["end_to_end"]))
    processes = [
        subprocess.Popen(
            [sys.executable, str(HARNESS_DIR / "run.py"), "--smoke", "--workload", name,
             "--seed", "7", "--trace", trace],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name, trace, _ in invocations
    ]
    for process, (name, trace, declared) in zip(processes, invocations):
        out, err = process.communicate(timeout=300)
        assert process.returncode == 0, f"{name} --trace {trace}: {err[-2000:]}"
        result = json.loads(out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {entry["name"] for entry in declared}
        for entry in declared:
            metric = result["metrics"][entry["name"]]
            assert metric["unit"] == entry["unit"]
            assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
        leftovers = (HARNESS_DIR.parents[1] / ".bench_work").glob(f"run-{process.pid}-*")
        assert not list(leftovers)
