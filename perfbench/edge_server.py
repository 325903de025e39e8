"""The ``edge_read`` server process.

    python3 -m perfbench.edge_server --seed N [--trace]

Builds the edge catalog from the seed and serves it with a
:class:`repro.http.QueryEdge` in default settings (flight recorder on)
except that per-principal rate limiting is off and the port is
ephemeral.  Prints ``READY <port> <generate_s>`` once listening, where
``generate_s`` is the time spent generating the seeded inputs (not part
of set-up).  On ``STATS`` from stdin it prints one JSON line — peak RSS,
result-cache statistics and, with ``--trace``, the span summaries of
set-up and of every request — then drains and exits; EOF on stdin
drains and exits without stats.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import time


def _reader(loop, edge, recorder, setup_traces) -> None:
    from perfbench.measure import peak_rss_mb
    from perfbench.spans import summarize

    for line in sys.stdin:
        if line.strip() == "STATS":
            payload = {
                "peak_rss_mb": peak_rss_mb(),
                "cache": edge.service.cache.stats().as_dict(),
                "traces": (
                    summarize(recorder.take()) if recorder is not None
                    else {}
                ),
                "setup_traces": setup_traces,
            }
            sys.stdout.write(json.dumps(payload) + "\n")
            sys.stdout.flush()
            break
    loop.call_soon_threadsafe(edge.request_shutdown)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="perfbench.edge_server")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from perfbench import use_checkout_sources

    use_checkout_sources()
    from perfbench import plans
    from repro.http import QueryEdge, ServerConfig

    recorder = None
    if args.trace:
        from perfbench.spans import SpanRecorder, install, summarize

        recorder = SpanRecorder()
        install(recorder)
    start = time.perf_counter()
    databases = plans.edge_databases(args.seed)
    generate_s = time.perf_counter() - start
    service = plans.build_edge_service(databases)
    setup_traces = summarize(recorder.take()) if recorder is not None else {}
    edge = QueryEdge(service, ServerConfig(port=0, rate_limit=0.0))

    async def serve() -> None:
        loop = asyncio.get_running_loop()

        def ready(edge) -> None:
            sys.stdout.write(f"READY {edge.port} {generate_s:.6f}\n")
            sys.stdout.flush()
            threading.Thread(
                target=_reader,
                args=(loop, edge, recorder, setup_traces),
                daemon=True,
            ).start()

        await edge.run(install_signals=False, on_ready=ready)

    asyncio.run(serve())


if __name__ == "__main__":
    main()
