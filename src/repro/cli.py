"""Command-line interface for the CrowdER reproduction.

Three subcommands expose the most common workflows without writing Python:

* ``threshold-table`` — print the Table-2 likelihood/recall table for a
  dataset.
* ``generate-hits`` — run a cluster-based HIT generation algorithm and
  report how many HITs it needs (the Figure-10/11 quantity).
* ``resolve`` — run the full hybrid workflow against the simulated crowd
  and print cost, latency and result quality.
* ``resolve-stream`` — replay the dataset through the streaming incremental
  resolver in arrival batches and print, per batch, how little work the
  dirty-component machinery had to redo.  With ``--checkpoint-dir`` the
  session is durable (one file, ``store.sqlite``: its state and its
  write-ahead event log); ``--resume`` restores it — page the state in,
  replay the logged tail — and continues with the records it has not seen
  yet, and ``--max-batches`` stops early (so a later ``--resume`` picks up
  the rest — the round trip the persistence tests exercise).  A durable
  session writes each event's changed rows into its store when the event
  commits.  After the replay,
  ``--retract ID`` withdraws records (repeatable) and ``--update-file``
  applies revised records from a JSON file, printing the provenance-bounded
  blast radius of each.
* ``stats`` — render a per-session cost report (HITs, votes, machine vs.
  crowd time split) from a SQLite session store or a JSONL trace file.
* ``serve`` — run the resolution service: an asyncio HTTP server hosting
  many concurrent streaming sessions, each owned by one shard (ordered
  per-shard work queues; independent sessions run concurrently) with the
  machine pass on worker threads.  ``--metrics`` enables the
  in-process registry and the ``/metrics`` Prometheus scrape endpoint.
  See ``docs/service.md``.

``resolve``, ``resolve-stream`` and ``serve`` accept ``--metrics`` (enable
the in-process metrics registry), ``--trace PATH`` (JSONL span/counter
trace) and ``--metrics-out PATH`` (Prometheus text export at exit); they
switch observability on for the process, never through a session's
configuration.  ``-v``
surfaces library debug logging; ``-q`` quiets everything below WARNING.

Examples::

    python -m repro.cli threshold-table --dataset restaurant
    python -m repro.cli generate-hits --dataset product --scale 0.2 \
        --threshold 0.2 --algorithm two-tiered --cluster-size 10
    python -m repro.cli resolve --dataset restaurant --threshold 0.35
    python -m repro.cli resolve-stream --dataset restaurant --threshold 0.35 \
        --batch-size 64
    python -m repro.cli resolve-stream --dataset paper-example --batch-size 3 \
        --checkpoint-dir /tmp/er-session --max-batches 2
    python -m repro.cli resolve-stream --dataset paper-example --batch-size 3 \
        --checkpoint-dir /tmp/er-session --resume
    python -m repro.cli resolve-stream --dataset paper-example --batch-size 3 \
        --retract r3 --update-file revised.json
    python -m repro.cli resolve-stream --dataset restaurant --batch-size 64 \
        --checkpoint-dir /tmp/er-session \
        --metrics --trace /tmp/er-session/trace.jsonl \
        --metrics-out /tmp/er-session/metrics.prom
    python -m repro.cli resolve-stream --dataset restaurant --batch-size 64 \
        --crowd-mode async --vote-timeout 8 --max-inflight-hits 32 \
        --fault-plan faults.json --metrics
    python -m repro.cli stats --checkpoint-dir /tmp/er-session
    python -m repro.cli stats --trace /tmp/er-session/trace.jsonl --json
    python -m repro.cli serve --port 8722 --shards 4 --metrics
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path
from typing import List, Optional

from repro import obs
from repro.core.config import WorkflowConfig
from repro.core.workflow import HybridWorkflow
from repro.crowd.async_platform import AsyncCrowd
from repro.crowd.faults import FaultPlan
from repro.datasets.base import Dataset
from repro.records.record import Record, RecordError, check_attribute_values
from repro.datasets.paper_example import paper_example_matches, paper_example_store
from repro.datasets.product import load_product
from repro.datasets.product_dup import load_product_dup
from repro.datasets.restaurant import load_restaurant
from repro.etl.registry import available_corpora, load_corpus
from repro.evaluation.metrics import f1_score, precision_recall
from repro.evaluation.reporting import format_table
from repro.evaluation.threshold_table import threshold_table
from repro.hit.generator import available_generators, get_cluster_generator
from repro.obs.report import CostReport
from repro.simjoin.likelihood import JOIN_BACKENDS, SimJoinLikelihood
from repro.storage import STORE_FILENAME
from repro.streaming import PersistenceError, StreamingResolver

#: Synthetic generators plus every corpus registered with the ETL layer
#: (``abt-buy``, ``amazon-google``, ...) — registry corpora load their
#: bundled offline mini variant.
_DATASETS = ("restaurant", "product", "product-dup", "paper-example") + available_corpora()

#: CLI reporting goes through this logger (configured in :func:`main`),
#: never through bare prints or the root logger.  Library modules have
#: their own ``logging.getLogger(__name__)`` loggers under the ``repro``
#: hierarchy, so ``--verbose`` surfaces their debug output too.
_LOG = logging.getLogger("repro.cli")


def _configure_logging(verbosity: int) -> None:
    """Route ``repro.*`` log records to the console by severity.

    Progress and results (<= INFO) go to stdout — at the default level
    their text is byte-identical to the old print-based reporting, which
    the CLI round-trip tests pin.  Warnings and errors go to stderr.
    ``-q`` raises the bar to WARNING, ``-v`` lowers it to DEBUG.
    Reconfigures idempotently: handlers are rebuilt on every call so
    repeated in-process invocations (tests) never double-log and always
    bind the *current* stdout/stderr.
    """
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    if verbosity > 0:
        level = logging.DEBUG
    elif verbosity < 0:
        level = logging.WARNING
    else:
        level = logging.INFO
    logger.setLevel(level)
    out = logging.StreamHandler(sys.stdout)
    out.setFormatter(logging.Formatter("%(message)s"))
    out.addFilter(lambda record: record.levelno < logging.WARNING)
    err = logging.StreamHandler(sys.stderr)
    err.setFormatter(logging.Formatter("%(message)s"))
    err.setLevel(logging.WARNING)
    logger.addHandler(out)
    logger.addHandler(err)
    logger.propagate = False


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by the workflow-running subcommands."""
    parser.add_argument("--metrics", action="store_true",
                        help="enable the in-process metrics registry "
                             "(counters, histograms, span timings)")
    parser.add_argument("--trace", type=str, default=None, metavar="PATH",
                        help="append span/counter events to this JSONL trace "
                             "file (implies --metrics)")
    parser.add_argument("--metrics-out", type=str, default=None, metavar="PATH",
                        help="write a Prometheus text-format metrics export "
                             "to this file at exit (implies --metrics)")


def _activate_obs(args: argparse.Namespace) -> None:
    """Switch observability on for this process if any obs flag asks."""
    if args.metrics or args.metrics_out or args.trace:
        obs.activate(trace_path=args.trace)


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--join-backend",
        choices=JOIN_BACKENDS,
        default="auto",
        help="similarity join for the machine pass: auto = the kernel, "
             "naive = the all-pairs test oracle (identical results)",
    )
    parser.add_argument(
        "--join-workers",
        type=int,
        default=0,
        help="threads the join kernel's row blocks are scored on "
             "(0 = one per CPU core; results are identical for any value)",
    )


def load_dataset(name: str, scale: float, seed: int) -> Dataset:
    """Load one of the built-in datasets by name."""
    if name == "restaurant":
        return load_restaurant(seed=seed)
    if name == "product":
        return load_product(seed=seed, scale=scale)
    if name == "product-dup":
        return load_product_dup(seed=seed, product_scale=scale)
    if name == "paper-example":
        # The nine-record Table-1 example; scale and seed do not apply.
        return Dataset(
            name="paper-example",
            store=paper_example_store(),
            ground_truth=paper_example_matches(),
        )
    if name in available_corpora():
        # ETL-loaded real-style corpora are fixed files; scale and seed do
        # not apply (the bundled mini variant loads offline).
        return load_corpus(name)
    raise ValueError(f"unknown dataset {name!r}; choose from {_DATASETS}")


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=_DATASETS, default="restaurant",
                        help="which built-in dataset to use")
    parser.add_argument("--scale", type=float, default=0.35,
                        help="scale of the Product-derived datasets (1.0 = paper size)")
    parser.add_argument("--seed", type=int, default=7, help="dataset / crowd random seed")


def _cmd_threshold_table(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, args.scale, args.seed)
    rows = [row.as_dict() for row in threshold_table(dataset, thresholds=args.thresholds)]
    _LOG.info(format_table(
        rows,
        columns=["threshold", "total_pairs", "matching_pairs", "recall"],
        title=f"Likelihood-threshold selection — {dataset.name} "
              f"({dataset.record_count} records, {dataset.match_count} matches)",
    ))
    return 0


def _cmd_generate_hits(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, args.scale, args.seed)
    pairs = SimJoinLikelihood(
        backend=args.join_backend, workers=args.join_workers or None
    ).estimate(
        dataset.store, min_likelihood=args.threshold, cross_sources=dataset.cross_sources
    )
    rows = []
    algorithms = args.algorithm or available_generators()
    for name in algorithms:
        batch = get_cluster_generator(name, cluster_size=args.cluster_size).generate(pairs)
        rows.append({
            "algorithm": name,
            "pairs": len(pairs),
            "hits": batch.hit_count,
            "valid_cover": batch.is_valid_cover(),
        })
    _LOG.info(format_table(
        rows,
        columns=["algorithm", "pairs", "hits", "valid_cover"],
        title=f"Cluster-based HIT generation — {dataset.name}, "
              f"threshold {args.threshold}, k={args.cluster_size}",
    ))
    return 0


def _write_metrics_out(path: Optional[str]) -> None:
    """Export the live registry as Prometheus text to ``path`` (if any)."""
    if not path:
        return
    snapshot = obs.snapshot()
    if snapshot is None:
        _LOG.warning("note: --metrics-out ignored (metrics are not enabled)")
        return
    Path(path).write_text(obs.to_prometheus(snapshot), encoding="utf-8")
    _LOG.info(f"metrics exported to {path}")


def _cmd_resolve(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, args.scale, args.seed)
    _activate_obs(args)
    config = WorkflowConfig(
        likelihood_threshold=args.threshold,
        hit_type=args.hit_type,
        cluster_size=args.cluster_size,
        pairs_per_hit=args.pairs_per_hit,
        use_qualification_test=args.qualification_test,
        join_backend=args.join_backend,
        join_workers=args.join_workers,
        seed=args.seed,
    )
    result = HybridWorkflow(config).resolve(dataset)
    precision, recall = precision_recall(result.matches, dataset.ground_truth)
    _LOG.info(f"dataset            : {dataset.name} "
              f"({dataset.record_count} records, {dataset.match_count} true matches)")
    _LOG.info(f"candidates         : {result.candidate_count}")
    _LOG.info(f"HITs / assignments : {result.hit_count} / {result.assignment_count} "
              f"({result.generator_name})")
    _LOG.info(f"crowd cost         : ${result.cost:.2f}")
    _LOG.info(f"est. completion    : {result.latency.total_minutes:.0f} minutes")
    _LOG.info(f"matches found      : {len(result.matches)}")
    _LOG.info(f"precision / recall : {precision:.1%} / {recall:.1%} "
              f"(F1 {f1_score(result.matches, dataset.ground_truth):.3f})")
    _LOG.info(f"recall ceiling     : {result.recall_ceiling:.1%}")
    _write_metrics_out(args.metrics_out)
    obs.deactivate()
    return 0


def _load_update_records(path: str) -> List[Record]:
    """Parse revised records from a JSON file (array or one object per line).

    Each object needs a ``record_id``; attributes come from an
    ``attributes`` mapping when present, otherwise from the remaining
    top-level keys (``{"record_id": ..., "name": ..., "source": ...}``).
    ``source`` is optional in both forms.  An entry that is not an object,
    or an attribute value that is neither a string nor ``null``, is a
    :class:`~repro.records.record.RecordError`, so a bad file revises no
    record.
    """
    import json

    text = Path(path).read_text(encoding="utf-8").strip()
    if not text:
        return []
    if text.startswith("["):
        payloads = json.loads(text)
    else:
        payloads = [json.loads(line) for line in text.splitlines() if line.strip()]
    records = []
    for payload in payloads:
        if not isinstance(payload, dict):
            raise RecordError(f"update entry is not a JSON object: {payload!r}")
        record_id = payload.get("record_id")
        if not record_id:
            raise RecordError(f"update entry without a record_id: {payload!r}")
        if "attributes" in payload:
            attributes = payload["attributes"]
        else:
            attributes = {
                key: value
                for key, value in payload.items()
                if key not in ("record_id", "source")
            }
        record = Record(
            record_id=record_id, attributes=attributes, source=payload.get("source")
        )
        check_attribute_values(record)
        records.append(record)
    return records


def _async_crowd(args: argparse.Namespace) -> Optional[AsyncCrowd]:
    """The crowd the flags describe: ``None`` (sync) or an :class:`AsyncCrowd`.

    Raises ``ValueError`` for an async flag without ``--crowd-mode async``
    (it would configure nothing), a bad value or an unreadable plan.
    """
    given = {
        name: getattr(args, name)
        for name in ("vote_timeout", "max_inflight_hits", "backpressure_policy", "fault_plan")
        if getattr(args, name) is not None
    }
    if args.crowd_mode != "async":
        if given:
            flag = "--" + next(iter(given)).replace("_", "-")
            raise ValueError(f"{flag} needs --crowd-mode async")
        return None
    if "fault_plan" in given:
        try:
            given["fault_plan"] = FaultPlan.from_file(given["fault_plan"])
        except (OSError, ValueError) as error:
            raise ValueError(f"cannot read --fault-plan: {error}") from None
    return AsyncCrowd(**given)


def _cmd_resolve_stream(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, args.scale, args.seed)
    try:
        crowd = _async_crowd(args)
    except ValueError as error:
        _LOG.error(f"error: {error}")
        return 2
    # Observability is per process, not per stored session: enable it
    # before restore so the page-in and any replayed events are counted.
    _activate_obs(args)
    if args.resume and not args.checkpoint_dir:
        _LOG.error("error: --resume requires --checkpoint-dir")
        return 2
    # The configuration the flags describe: a fresh session runs under it,
    # a resumed one is held against it.
    config = WorkflowConfig(
        likelihood_threshold=args.threshold,
        hit_type=args.hit_type,
        cluster_size=args.cluster_size,
        pairs_per_hit=args.pairs_per_hit,
        join_backend=args.join_backend,
        join_workers=args.join_workers,
        vote_mode="per-pair",
        stream_batch_size=args.batch_size,
        streaming_aggregation_scope=args.aggregation_scope,
        crowd=crowd,
        checkpoint_dir=args.checkpoint_dir,
        seed=args.seed,
    )
    if args.resume:
        try:
            resolver = StreamingResolver.restore(args.checkpoint_dir)
        except PersistenceError as error:
            _LOG.error(f"error: cannot resume: {error}")
            return 2
        _LOG.info(f"resumed session from {args.checkpoint_dir}: "
                  f"{resolver.record_count} records, {resolver.candidate_count} pairs, "
                  f"{resolver.events_applied} logged events")
        # The stored configuration governs a resumed session; we name every
        # field the flags would have set differently instead of silently
        # pretending they applied.
        conflicts = [
            f"{spec.name}={getattr(config, spec.name)!r} "
            f"(session: {getattr(resolver.config, spec.name)!r})"
            for spec in fields(WorkflowConfig)
            if spec.name != "checkpoint_dir"
            and getattr(config, spec.name) != getattr(resolver.config, spec.name)
        ]
        if conflicts:
            _LOG.warning("note: --resume keeps the session's stored configuration; "
                         "ignoring " + ", ".join(conflicts))
        # Re-register the dataset's ground truth: a no-op when resuming the
        # same dataset (truth is a set), and the difference between wrong
        # answers and correct ones if the dataset grew since the session
        # was created.
        resolver.add_truth(dataset.ground_truth)
    else:
        resolver = StreamingResolver(config=config, cross_sources=dataset.cross_sources)
        resolver.add_truth(dataset.ground_truth)
    try:
        return _replay_stream(args, dataset, resolver)
    finally:
        resolver.durability.close()


def _replay_stream(args: argparse.Namespace, dataset, resolver: StreamingResolver) -> int:
    """Feed an open session the records it has not seen; print the summary."""
    config = resolver.config
    # A resumed session already holds a prefix of the dataset; only the
    # records it has not seen yet arrive now.
    records = [record for record in dataset.store if record.record_id not in resolver.store]
    _LOG.info(f"streaming {dataset.name}: {len(records)} records in batches of "
              f"{config.stream_batch_size}")
    # Per-invocation delta totals for the summary line (tracked CLI-side so
    # the line works with or without --metrics).
    invalidated_total = retracted_total = 0
    batches_done = 0
    for start in range(0, len(records), config.stream_batch_size):
        if args.max_batches and batches_done >= args.max_batches:
            break
        delta = resolver.add_batch(records[start : start + config.stream_batch_size])
        batches_done += 1
        _LOG.info(f"  batch {delta.batch_index:>3}: +{delta.new_records} records, "
                  f"+{delta.new_candidate_pairs} pairs | "
                  f"{delta.dirty_components} dirty / {delta.clean_components} clean components | "
                  f"{delta.regenerated_hits} HITs regenerated, "
                  f"{delta.crowdsourced_pairs} pairs crowdsourced, "
                  f"{delta.reused_vote_pairs} vote sets reused | "
                  f"matches so far: {resolver.match_count}")
    if args.max_batches and len(records) > batches_done * config.stream_batch_size:
        remaining = len(records) - batches_done * config.stream_batch_size
        if config.checkpoint_dir:
            resolver.save()
            _LOG.info(f"stopped after {batches_done} batches; {remaining} records "
                      f"pending — resume with --checkpoint-dir {config.checkpoint_dir} --resume")
        else:
            _LOG.info(f"stopped after {batches_done} batches; {remaining} records pending "
                      f"(no --checkpoint-dir, progress is not durable)")
        _write_metrics_out(args.metrics_out)
        obs.deactivate()
        return 0
    # Post-ingest mutations: retractions and record revisions, each
    # re-resolving only its provenance-bounded blast radius.
    for record_id in args.retract or []:
        try:
            delta = resolver.retract(record_id)
        except RecordError as error:
            _LOG.error(f"error: {error}")
            return 2
        invalidated_total += delta.invalidated_pairs
        retracted_total += delta.retracted_records
        _LOG.info(f"  retract {record_id}: -{delta.invalidated_pairs} pairs invalidated | "
                  f"{delta.dirty_components} dirty / {delta.clean_components} clean components | "
                  f"matches now: {resolver.match_count}")
    if args.update_file:
        try:
            revised = _load_update_records(args.update_file)
        except (OSError, ValueError) as error:
            _LOG.error(f"error: cannot read --update-file: {error}")
            return 2
        for record in revised:
            try:
                delta = resolver.update(record)
            except RecordError as error:
                _LOG.error(f"error: {error}")
                return 2
            invalidated_total += delta.invalidated_pairs
            retracted_total += delta.retracted_records
            _LOG.info(f"  update {record.record_id}: -{delta.invalidated_pairs} pairs invalidated, "
                      f"+{delta.new_candidate_pairs} rejoined | "
                      f"{delta.regenerated_hits} HITs regenerated, "
                      f"{delta.crowdsourced_pairs} pairs crowdsourced | "
                      f"matches now: {resolver.match_count}")
    # Settle the session: an async crowd's votes in flight land and are
    # aggregated (a no-op for a synchronous crowd).
    result = resolver.flush()
    precision, recall = precision_recall(result.matches, dataset.ground_truth)
    # The delta-totals line stays ABOVE the six-line summary block: resumed
    # and uninterrupted runs must keep identical final summaries (the CLI
    # round-trip test compares the last six stdout lines).
    _LOG.info(f"delta totals       : {invalidated_total} pairs invalidated, "
              f"{retracted_total} records retracted")
    _LOG.info(f"candidates         : {result.candidate_count}")
    _LOG.info(f"HITs / assignments : {result.hit_count} / {result.assignment_count} "
              f"({result.generator_name})")
    _LOG.info(f"crowd cost         : ${result.cost:.2f}")
    _LOG.info(f"matches found      : {len(result.matches)}")
    _LOG.info(f"precision / recall : {precision:.1%} / {recall:.1%} "
              f"(F1 {f1_score(result.matches, dataset.ground_truth):.3f})")
    _LOG.info(f"recall ceiling     : {result.recall_ceiling:.1%}")
    _write_metrics_out(args.metrics_out)
    obs.deactivate()
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Render a per-session cost report from a session's store or a trace file."""
    try:
        if args.trace:
            report = CostReport.from_trace(args.trace)
        else:
            report = CostReport.from_store(
                str(Path(args.checkpoint_dir) / STORE_FILENAME)
            )
    except (OSError, ValueError, PersistenceError) as error:
        _LOG.error(f"error: {error}")
        return 2
    if args.json:
        _LOG.info(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        _LOG.info(report.render())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the resolution service until SIGINT/SIGTERM."""
    from repro.service.app import run_service

    _activate_obs(args)
    try:
        run_service(
            host=args.host,
            port=args.port,
            shard_count=args.shards,
            queue_depth=args.queue_depth,
            port_file=args.port_file,
        )
    finally:
        _write_metrics_out(args.metrics_out)
        obs.deactivate()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="CrowdER hybrid human-machine entity resolution"
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="also show library debug logging (repro.* loggers)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only show warnings and errors")
    subparsers = parser.add_subparsers(dest="command", required=True)

    table = subparsers.add_parser("threshold-table", help="print the Table-2 threshold/recall table")
    _add_dataset_arguments(table)
    table.add_argument("--thresholds", type=float, nargs="+", default=[0.5, 0.4, 0.3, 0.2, 0.1])
    table.set_defaults(handler=_cmd_threshold_table)

    hits = subparsers.add_parser("generate-hits", help="compare cluster-based HIT generators")
    _add_dataset_arguments(hits)
    hits.add_argument("--threshold", type=float, default=0.2, help="likelihood threshold")
    hits.add_argument("--cluster-size", type=int, default=10, help="cluster-size threshold k")
    hits.add_argument("--algorithm", action="append", choices=available_generators(),
                      help="algorithm(s) to run (default: all)")
    _add_backend_argument(hits)
    hits.set_defaults(handler=_cmd_generate_hits)

    resolve = subparsers.add_parser("resolve", help="run the full hybrid workflow")
    _add_dataset_arguments(resolve)
    resolve.add_argument("--threshold", type=float, default=0.35, help="likelihood threshold")
    resolve.add_argument("--hit-type", choices=("cluster", "pair"), default="cluster")
    resolve.add_argument("--cluster-size", type=int, default=10)
    resolve.add_argument("--pairs-per-hit", type=int, default=16)
    resolve.add_argument("--qualification-test", action="store_true",
                         help="require workers to pass a qualification test")
    _add_backend_argument(resolve)
    _add_obs_arguments(resolve)
    resolve.set_defaults(handler=_cmd_resolve)

    stream = subparsers.add_parser(
        "resolve-stream",
        help="replay the dataset through the streaming incremental resolver",
    )
    _add_dataset_arguments(stream)
    stream.add_argument("--threshold", type=float, default=0.35, help="likelihood threshold")
    stream.add_argument("--hit-type", choices=("cluster", "pair"), default="cluster")
    stream.add_argument("--cluster-size", type=int, default=10)
    stream.add_argument("--pairs-per-hit", type=int, default=16)
    stream.add_argument("--batch-size", type=int, default=64,
                        help="records per arrival batch")
    stream.add_argument("--aggregation-scope", choices=("component", "global"),
                        default="component",
                        help="re-aggregate only dirty components or all votes")
    stream.add_argument("--crowd-mode", choices=("sync", "async"), default="sync",
                        help="sync: votes return with the publish call; async: "
                             "HITs are published and votes arrive later "
                             "(out of order, with retries and timeouts)")
    stream.add_argument("--vote-timeout", type=int, default=None,
                        help="async mode: ticks before an outstanding "
                             "assignment times out and is retried (default 8)")
    stream.add_argument("--max-inflight-hits", type=int, default=None,
                        help="async mode: backpressure window — HITs with "
                             "undelivered votes allowed at once (0 = unbounded; "
                             "default 64)")
    stream.add_argument("--backpressure-policy", choices=("block", "shed"),
                        default=None,
                        help="async mode: when the in-flight window is full, "
                             "block (advance the clock until it drains; the "
                             "default) or shed (defer publishing to the next batch)")
    stream.add_argument("--fault-plan", type=str, default=None, metavar="FILE",
                        help="async mode: JSON fault-injection plan (seeded "
                             "delays, drops, duplicates, reordering, worker "
                             "churn) applied to vote delivery")
    stream.add_argument("--checkpoint-dir", type=str, default=None,
                        help="make the session durable: its state and its "
                             "write-ahead event log live in store.sqlite in "
                             "this directory")
    stream.add_argument("--retract", action="append", metavar="ID", default=None,
                        help="after the replay, withdraw this record id and "
                             "re-resolve only its blast radius (repeatable)")
    stream.add_argument("--update-file", type=str, default=None,
                        help="after the replay, apply revised records from "
                             "this JSON file (array or one object per line, "
                             "each with a record_id)")
    stream.add_argument("--resume", action="store_true",
                        help="restore the session from --checkpoint-dir and "
                             "continue with the records it has not seen yet")
    stream.add_argument("--max-batches", type=int, default=0,
                        help="stop after this many batches this invocation "
                             "(0 = run to completion); with --checkpoint-dir "
                             "the rest can be resumed later")
    _add_backend_argument(stream)
    _add_obs_arguments(stream)
    stream.set_defaults(handler=_cmd_resolve_stream)

    stats = subparsers.add_parser(
        "stats",
        help="render a per-session cost report (HITs, votes, machine vs. "
             "crowd time split) from a session's store or a trace file",
    )
    source = stats.add_mutually_exclusive_group(required=True)
    source.add_argument("--checkpoint-dir", type=str, default=None,
                        help="session directory whose store "
                             f"({STORE_FILENAME}) to report on")
    source.add_argument("--trace", type=str, default=None, metavar="PATH",
                        help="JSONL trace file to report on instead of a store")
    stats.add_argument("--json", action="store_true",
                       help="emit the report as JSON instead of text")
    stats.set_defaults(handler=_cmd_stats)

    serve = subparsers.add_parser(
        "serve",
        help="run the resolution service (asyncio HTTP server hosting "
             "concurrent streaming sessions on sharded workers)",
    )
    serve.add_argument("--host", type=str, default="127.0.0.1",
                       help="interface to bind")
    serve.add_argument("--port", type=int, default=8722,
                       help="TCP port (0 = pick an ephemeral port)")
    serve.add_argument("--shards", type=int, default=4,
                       help="session shards; each shard serializes its "
                            "sessions' requests on one dedicated thread")
    serve.add_argument("--port-file", type=str, default=None,
                       help="write the bound port to this file once listening "
                            "(pairs with --port 0 for scripted clients)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="per-shard request queue depth; a full queue "
                            "answers 429 with Retry-After")
    _add_obs_arguments(serve)
    serve.set_defaults(handler=_cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(-1 if args.quiet else args.verbose)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
