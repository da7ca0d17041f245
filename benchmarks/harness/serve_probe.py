"""Launch ``repro``'s resolution service with the layer probes installed.

Used only for the traced pass of ``serve-http``: the untraced passes run the
real ``python -m repro.cli serve``.  This launcher installs the engine
probes plus the service-side ones in the server process, calls
``repro.service.app.run_service`` exactly as the CLI does, and — once
SIGTERM has made ``run_service`` drain and return — dumps the spans to
``--trace-out``.

Service-side spans:

* ``service.manager.<op>`` — the ``SessionManager`` coroutines (duration,
  including the awaited queue wait and execution);
* ``service.submit`` — ``ShardExecutor.submit`` (enqueue → result);
* ``service.shard_exec`` — the submitted callable on the shard's owner
  thread; it is the root of that thread's stack, so the engine spans
  (``session.add_batch`` …) nest under it;  ``submit - shard_exec`` is the
  queue wait;
* ``service.encode_result`` — result materialisation on the event loop.
"""

from __future__ import annotations

import argparse
import functools
import sys

from probes import ENGINE_PROBES, Tracer

MANAGER_OPERATIONS = ("create", "append", "retract", "update", "flush", "result", "close")


def install_service_probes(tracer: Tracer) -> None:
    from repro.service import sessions, shards

    for operation in MANAGER_OPERATIONS:
        tracer.install(sessions.SessionManager, operation, f"service.manager.{operation}")
    tracer.install(sessions, "encode_result", "service.encode_result")

    submit = shards.ShardExecutor.submit

    @functools.wraps(submit)
    async def traced_submit(self, routing_key, fn, *args):
        # The callable crosses to the owner thread: wrap it so its span is
        # recorded there, on that thread's stack.
        return await submit(self, routing_key, tracer.wrap(fn, "service.shard_exec"), *args)

    shards.ShardExecutor.submit = traced_submit
    tracer.install(shards.ShardExecutor, "submit", "service.submit")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--queue-depth", type=int, default=64)
    args = parser.parse_args()

    from repro.service.app import run_service

    tracer = Tracer()
    # The leaf probes are for sqlite, which served sessions here never use.
    tracer.install_table([row for row in ENGINE_PROBES if not row[5]])
    install_service_probes(tracer)
    try:
        run_service(port=0, shard_count=args.shards, queue_depth=args.queue_depth,
                    port_file=args.port_file)
    finally:
        tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
