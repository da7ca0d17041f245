"""Low-noise end-to-end + per-layer benchmark of the CrowdER reproduction.

One command measures four workloads (``batch-paper``, ``stream-mem``,
``stream-durable``, ``serve-http``), checks their outputs, and prints every
metric ``BENCHMARK.json`` declares by name with its unit::

    python3 benchmarks/harness/run.py --workload stream-mem --seed 7 --seconds 22 --trace 0
    python3 benchmarks/harness/run.py --seed 7 --json out.json              # all four
    python3 benchmarks/harness/run.py --workload serve-http --trace 1       # per-layer
    python3 benchmarks/harness/run.py --smoke                               # seconds, tiny

Noise design (details and the measurements behind it in ``README.md``):

* every workload lives in its own worker process (:mod:`worker`), started
  once and idle on a pipe when it is not its turn;
* passes are run in rounds, one pass of each selected workload per round,
  one worker active at a time, so with several workloads a slow host epoch
  hits at most one pass of each;
* ``wall_s`` is the median of the workload's pass times, as measured: at
  least ``MIN_PASSES`` passes, then as many as fit in ``--seconds``;
* a fixed reference kernel is timed before and after every pass and
  reported as a diagnostic (``harness.ref_ms_*``), never used to rescale;
* workers run with ``PYTHONHASHSEED=0`` and single-threaded BLAS.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit status is non-zero when
any check failed or any operation failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import queue
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from stats import median, percentile, range_ratio

HARNESS_DIR = Path(__file__).resolve().parent
REPO_ROOT = HARNESS_DIR.parents[1]

MIN_PASSES = 3          # a median needs them, however short ``--seconds`` is
REPLY_TIMEOUT_S = 170.0
CLOSE_GRACE_S = 3.0


class BenchmarkError(Exception):
    """The benchmark could not produce a result (as opposed to a failed check)."""


def _load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def load_declaration() -> dict:
    return _load_json(REPO_ROOT / "BENCHMARK.json")


def worker_environment() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(
            [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])),
    )
    return env


# ------------------------------------------------------------------ workers
class Worker:
    """A worker subprocess plus a reader thread, so every reply has a timeout."""

    def __init__(self, workload: str, seed: int, workdir: Path, smoke: bool,
                 trace_out: Optional[str] = None) -> None:
        self.workload = workload
        command = [sys.executable, "-u", str(HARNESS_DIR / "worker.py"),
                   "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
        if smoke:
            command.append("--smoke")
        if trace_out:
            command += ["--trace-out", trace_out]
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=str(REPO_ROOT), env=worker_environment(), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self._replies: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self._replies.put(line)
        self._replies.put(None)

    def reply(self, expected: str) -> dict:
        try:
            line = self._replies.get(timeout=REPLY_TIMEOUT_S)
        except queue.Empty:
            raise BenchmarkError(f"{self.workload}: no reply within {REPLY_TIMEOUT_S:.0f} s")
        if line is None:
            raise BenchmarkError(f"{self.workload}: worker exited without answering")
        message = json.loads(line)
        if message["event"] == "error":
            raise WorkerFailed(self.workload, message)
        if message["event"] != expected:
            raise BenchmarkError(f"{self.workload}: expected {expected}, got {message['event']}")
        return message

    def ask(self, command: str, expected: str) -> dict:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return self.reply(expected)

    def close(self) -> None:
        """Stop the worker and wait until it has gone.

        Closing stdin lets an idle (or already finishing) worker leave its
        loop and tear down undisturbed; one still busy after the grace
        period gets SIGTERM, which unwinds it through the same teardown.
        """
        try:
            self.process.stdin.close()
        except OSError:
            pass
        try:
            self.process.wait(timeout=CLOSE_GRACE_S)
        except subprocess.TimeoutExpired:
            self.process.terminate()
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=5.0)
        self.process.stdout.close()


class WorkerFailed(Exception):
    """A worker reported an exception: a failed operation or a failed check."""

    def __init__(self, workload: str, message: dict) -> None:
        super().__init__(f"{workload}: {message['error']}")
        self.workload = workload
        self.message = message


# -------------------------------------------------------------- measurement
class WorkloadRun:
    """Everything measured for one workload in one invocation."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.worker: Optional[Worker] = None
        self.setup_s = 0.0                  # worker spawned -> ready
        self.passes: List[dict] = []
        self.trace: Optional[dict] = None
        self.done: Optional[dict] = None
        self.problems: List[str] = []

    def budget_left(self, seconds: float, min_passes: int) -> bool:
        """Another pass is due: the minimum is not reached, or one more fits."""
        if len(self.passes) < min_passes:
            return True
        walls = [record["wall_s"] for record in self.passes]
        return sum(walls) + median(walls) <= seconds


def measure(names: List[str], seed: int, seconds: float, min_passes: int,
            trace: bool, smoke: bool, trace_out: Optional[str]) -> List[WorkloadRun]:
    workroot = REPO_ROOT / ".bench_work" / f"run-{os.getpid()}-{time.monotonic_ns()}"
    runs = [WorkloadRun(name) for name in names]
    try:
        for run in runs:
            run.worker = Worker(run.name, seed, workroot / run.name, smoke,
                                trace_out if len(names) == 1 else None)
            run.worker.reply("ready")
            run.setup_s = time.perf_counter() - run.worker.spawned
        # Rounds: one pass of each workload in turn, one worker busy at a time.
        while any(run.budget_left(seconds, min_passes) for run in runs):
            for run in runs:
                if run.budget_left(seconds, min_passes):
                    run.passes.append(run.worker.ask("pass", "pass"))
        for run in runs:
            if trace:
                run.trace = run.worker.ask("trace", "trace")
            run.done = run.worker.ask("finish", "done")
    finally:
        for run in runs:
            if run.worker is not None:
                run.worker.close()
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            (REPO_ROOT / ".bench_work").rmdir()     # only when no other run is using it
        except OSError:
            pass
    return runs


# ------------------------------------------------------------------- checks
def check(run: WorkloadRun, seed: int, smoke: bool, pinned: dict) -> None:
    """Append a line to ``run.problems`` for every correctness check that fails."""
    records = run.passes + ([run.trace] if run.trace else [])
    first = records[0]
    for key in ("hits", "matches_sha", "digest"):
        if any(record[key] != first[key] for record in records):
            run.problems.append(f"{key} differs between passes")
    if any(abs(record["f1"] - first["f1"]) > 1e-12 for record in records):
        run.problems.append("f1 differs between passes")
    if run.done["failed"]:
        run.problems.append(f"{run.done['failed']} of {run.done['attempted']} operations failed")
    if run.trace and "memory" in run.trace:
        if run.trace["memory"]["digest"] != first["digest"]:
            run.problems.append("in-memory digest differs from the durable session's")
    expected = pinned.get(str(seed), {}).get(run.name) if not smoke else None
    if expected:
        if first["hits"] != expected["hits"]:
            run.problems.append(f"hits {first['hits']} != pinned {expected['hits']}")
        if abs(first["f1"] - expected["f1"]) > 1e-12:
            run.problems.append(f"f1 {first['f1']!r} != pinned {expected['f1']!r}")


def cross_check(runs: List[WorkloadRun]) -> None:
    """Both stream workloads ran the same schedule: their digests must agree."""
    by_name = {run.name: run for run in runs}
    if "stream-mem" in by_name and "stream-durable" in by_name:
        memory, durable = by_name["stream-mem"], by_name["stream-durable"]
        if memory.passes[0]["digest"] != durable.passes[0]["digest"]:
            durable.problems.append("digest differs from stream-mem's")


# ------------------------------------------------------------------ metrics
def end_to_end(run: WorkloadRun) -> Dict[str, float]:
    return {
        "setup_s": run.setup_s,
        "wall_s": median(record["wall_s"] for record in run.passes),
        "peak_rss_mb": run.done["peak_rss_mb"],
        "hits": run.passes[0]["hits"],
        "f1": run.passes[0]["f1"],
    }


def _latency_ms(run: WorkloadRun, kind: str, p: float) -> float:
    samples = [1000.0 * seconds for record in run.passes
               for seconds in record.get("latencies", {}).get(kind, [])]
    return percentile(samples, p) if samples else 0.0


def per_layer(run: WorkloadRun) -> Dict[str, float]:
    """Span-derived metrics of the traced pass plus what the untraced passes give."""
    trace = run.trace
    metrics = dict(trace["layers"])
    walls = [record["wall_s"] for record in run.passes]
    stream = run.name.startswith("stream-")
    serve = run.name == "serve-http"

    ref_ms = [sample for record in run.passes for sample in record["ref_ms"]]

    def extras_median(key: str) -> float:
        return median(record["extras"][key] for record in run.passes)

    metrics.update({
        "session.append_p50_ms": _latency_ms(run, "append", 50) if stream else 0.0,
        "session.append_p95_ms": _latency_ms(run, "append", 95) if stream else 0.0,
        "service.append_p50_ms": _latency_ms(run, "append", 50) if serve else 0.0,
        "service.append_p95_ms": _latency_ms(run, "append", 95) if serve else 0.0,
        "service.result_p50_ms": _latency_ms(run, "result", 50) if serve else 0.0,
        "service.retract_p50_ms": _latency_ms(run, "retract", 50) if serve else 0.0,
        "service.update_p50_ms": _latency_ms(run, "update", 50) if serve else 0.0,
        "service.retries_429": run.done["retries_429"],
        "service.server_cpu_s": extras_median("server_cpu_s") if serve else 0.0,
        "service.client_cpu_s": extras_median("client_cpu_s") if serve else 0.0,
        "storage.durability_overhead_ratio": (
            trace["extras"]["stream_s"] / trace["memory"]["wall_s"]
            if "memory" in trace else 0.0),
        "harness.passes": len(run.passes),
        "harness.pass_spread_ratio": range_ratio(walls),
        "harness.ref_ms_min": min(ref_ms),
        "harness.ref_ms_median": median(ref_ms),
        "harness.trace_overhead_ratio": trace["wall_s"] / median(walls),
        "harness.unattributed_ratio": trace["unattributed"],
    })
    return metrics


def render(values: Dict[str, float], declared: List[dict], workload: str) -> Dict[str, dict]:
    """Attach units; every declared metric must be present, finite and numeric."""
    missing = [entry["name"] for entry in declared if entry["name"] not in values]
    if missing:
        raise BenchmarkError(f"{workload}: metrics not measured: {missing}")
    rendered = {}
    for entry in declared:
        value = values[entry["name"]]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchmarkError(f"{workload}: {entry['name']} is not a finite number: {value!r}")
        rendered[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return rendered


def host_fingerprint() -> Dict[str, object]:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(REPO_ROOT), capture_output=True,
            text=True, timeout=10.0, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None     # a bare checkout has no history
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "git_sha": sha}


# ---------------------------------------------------------------------- cli
def parse_args(argv: Optional[List[str]], declaration: dict) -> argparse.Namespace:
    names = [entry["name"] for entry in declaration["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, default=None,
                        help="measure one workload (default: all, round-robin)")
    parser.add_argument("--seed", type=int, default=7,
                        help="feeds the dataset generators, WorkflowConfig.seed and churn picks")
    parser.add_argument("--seconds", type=float, default=declaration["run_seconds"],
                        help=f"run passes of each workload for this long: at least {MIN_PASSES}, "
                             "and no pass is started that would overrun or is cut short")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help=f"1: {MIN_PASSES} passes, then one under the probes; report "
                             "the per-layer metrics")
    parser.add_argument("--trace-out", default=None,
                        help="write the traced pass's spans here as JSON lines (one workload)")
    parser.add_argument("--json", default=None, help="also write the full result to this file")
    parser.add_argument("--smoke", action="store_true",
                        help="500-record slices, one pass: exercises everything in seconds")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    declaration = load_declaration()
    args = parse_args(argv, declaration)
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"error: the program's sources are not at {REPO_ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else [
        entry["name"] for entry in declaration["workloads"]]
    trace = bool(args.trace)
    # A traced or smoke run stops at the minimum number of untraced passes.
    seconds = 0.0 if (trace or args.smoke) else args.seconds
    min_passes = 1 if args.smoke else MIN_PASSES
    declared = declaration["per_layer"] if trace else declaration["end_to_end"]

    # Ctrl-C and SIGTERM unwind through ``measure``'s finally, which stops
    # every worker (and, through it, the server).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        runs = measure(names, args.seed, seconds, min_passes, trace, args.smoke, args.trace_out)
    except WorkerFailed as failure:
        print(f"error: {failure}\n{failure.message.get('traceback', '')}", file=sys.stderr)
        result = {"correct": False, "attempted": max(1, failure.message["attempted"]),
                  "failed": max(1, failure.message["failed"]), "metrics": {}}
        print(json.dumps(result))
        return 1
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted; workers and server stopped", file=sys.stderr)
        return 130

    pinned = _load_json(HARNESS_DIR / "pinned.json")
    for run in runs:
        check(run, args.seed, args.smoke, pinned)
    cross_check(runs)

    report = {"seed": args.seed, "smoke": args.smoke, "trace": trace,
              "host": host_fingerprint(), "workloads": {}}
    for run in runs:
        values = per_layer(run) if trace else end_to_end(run)
        report["workloads"][run.name] = {
            "correct": not run.problems,
            "problems": run.problems,
            "attempted": run.done["attempted"],
            "failed": run.done["failed"],
            "metrics": render(values, declared, run.name),
            "digest": run.passes[0]["digest"][:16],
            # Diagnostics, never compared: every pass and the reference
            # kernel before and after it.
            "passes": [{key: record[key] for key in ("wall_s", "ref_ms")}
                       for record in run.passes],
        }
        print(f"{run.name}: {len(run.passes)} passes, "
              f"{'ok' if not run.problems else 'FAILED: ' + '; '.join(run.problems)}")
        for name, metric in report["workloads"][run.name]["metrics"].items():
            print(f"  {name:<36} {metric['value']:>16.6f} {metric['unit']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)

    correct = all(entry["correct"] for entry in report["workloads"].values())
    if len(runs) == 1:
        metrics = report["workloads"][runs[0].name]["metrics"]
    else:
        metrics = {f"{name}/{metric}": value
                   for name, entry in report["workloads"].items()
                   for metric, value in entry["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(entry["attempted"] for entry in report["workloads"].values()),
        "failed": sum(entry["failed"] for entry in report["workloads"].values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
