"""``panorama-serve``: the resident analysis daemon.

Examples::

    panorama-serve --port 8321                    # serve until ^C
    panorama-serve --port 0 --ready-file ready    # ephemeral port for CI
    panorama-serve --selftest                     # loopback full-path check

The daemon keeps the interned symbolic tables, proof memos, and the
content-addressed summary cache hot across requests — the warm-vs-cold
gap ``benchmarks/bench_symbolic.py`` measures is banked for every
request after the first.  See docs/server.md for the API.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path

from .. import __version__
from ..driver.panorama import Panorama
from ..driver.report import loop_report_row
from ..errors import EXIT_INTERRUPTED
from ..perf import profiler
from .app import PanoramaServer, ServerThread
from .client import PanoramaClient, ServiceError
from .service import AnalysisService, ServerConfig


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panorama-serve",
        description=(
            "Resident Panorama analysis daemon: HTTP/JSON verdicts with "
            "hot symbolic caches (see docs/server.md)."
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8321,
        help="bind port; 0 picks an ephemeral port (announced on stderr)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        metavar="N",
        help="analyze/watch requests running or queued before new ones "
        "get 429 + Retry-After (default 8)",
    )
    parser.add_argument(
        "--retry-after",
        type=float,
        default=1.0,
        metavar="S",
        help="Retry-After seconds advertised on saturation (default 1)",
    )
    parser.add_argument(
        "--budget-ms",
        type=float,
        metavar="MS",
        help="per-request deadline ceiling; requests degrade to "
        "conservative verdicts in band (docs/robustness.md)",
    )
    parser.add_argument(
        "--budget-steps",
        type=int,
        metavar="N",
        help="per-request symbolic step ceiling (deterministic analogue)",
    )
    parser.add_argument(
        "--max-body-kb",
        type=int,
        default=4000,
        metavar="KB",
        help="request body cap; larger submissions get 413 (default 4000)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="persistent summary-cache directory (shares the "
        "panorama-batch disk tier format)",
    )
    parser.add_argument(
        "--cache-backend",
        choices=["disk", "shared"],
        help="durable tier: pickle files (disk, the default) or the "
        "multi-process SQLite tier (shared)",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="run the static soundness auditor on every analyze by default",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="S",
        help="on SIGTERM/SIGINT, seconds to let in-flight requests "
        "finish (new work gets 503) before exiting 5 (default 10)",
    )
    parser.add_argument(
        "--ready-file",
        metavar="PATH",
        help="write '<host> <port>' once listening (CI handshake)",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="boot on an ephemeral port, drive the full HTTP request "
        "path end to end, and exit 0/1 (no external tooling needed)",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    return parser


def config_from_args(args: argparse.Namespace) -> ServerConfig:
    return ServerConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        retry_after_s=args.retry_after,
        max_body_bytes=args.max_body_kb * 1000,
        budget_ms=args.budget_ms,
        budget_steps=args.budget_steps,
        cache_dir=args.cache_dir,
        cache_backend=args.cache_backend,
        audit=args.audit,
        drain_timeout_s=args.drain_timeout,
    )


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.selftest:
        return run_selftest(config_from_args(args))

    service = AnalysisService(config_from_args(args))

    async def _run() -> int:
        server = await PanoramaServer(service).start()
        # graceful drain: SIGTERM/SIGINT stop admission, let in-flight
        # requests finish within --drain-timeout, then exit 5 (the
        # interrupted-but-consistent code the batch CLIs share).  The
        # handlers go in before the ready file is written, so a signal
        # sent once it appears drains too
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-Unix loop / nested loop: ^C stays a KeyboardInterrupt
        print(
            f"panorama-serve {__version__} listening on {server.url} "
            f"(pid {service.health()['pid']}, max in-flight "
            f"{service.config.max_inflight})",
            file=sys.stderr,
        )
        if args.ready_file:
            Path(args.ready_file).write_text(
                f"{server.host} {server.port}\n"
            )
        serving = asyncio.ensure_future(server.serve_forever())
        waiting = asyncio.ensure_future(stop.wait())
        try:
            await asyncio.wait(
                {serving, waiting}, return_when=asyncio.FIRST_COMPLETED
            )
            if stop.is_set():
                print(
                    "panorama-serve: draining (in-flight requests have "
                    f"{service.config.drain_timeout_s:g}s to finish; new "
                    "requests get 503)",
                    file=sys.stderr,
                )
                clean = await server.drain()
                print(
                    "panorama-serve: drained cleanly (exit 5)"
                    if clean
                    else "panorama-serve: drain timeout expired (exit 5)",
                    file=sys.stderr,
                )
                return EXIT_INTERRUPTED
            return 0
        finally:
            serving.cancel()
            waiting.cancel()
            await asyncio.gather(serving, waiting, return_exceptions=True)
            await server.aclose()

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:
        print("panorama-serve: shutting down (exit 5)", file=sys.stderr)
        return EXIT_INTERRUPTED


# --------------------------------------------------------------------------- #
# loopback selftest
# --------------------------------------------------------------------------- #


def run_selftest(config: ServerConfig) -> int:
    """Drive the daemon end to end over loopback HTTP and report.

    Covers every endpoint: health, warm-vs-cold analyze with verdict
    identity against the in-process pipeline, the NDJSON stream, the
    watch protocol with a real edit, the 422 source-error path, and
    deterministic 429 saturation (the ceiling is dropped to zero for
    one request — in-process, so no race).  Exit 0 iff everything held.
    """
    from ..kernels import KERNELS
    from ..kernels.figure1 import FIGURE_1A

    config.port = 0  # never collide with a real deployment
    failures: list[str] = []

    def check(label: str, ok: bool, detail: str = "") -> None:
        print(f"  {'ok ' if ok else 'FAIL'} {label}"
              + (f" ({detail})" if detail else ""), file=sys.stderr)
        if not ok:
            failures.append(label)

    service = AnalysisService(config)
    with ServerThread(service) as thread, \
            PanoramaClient(port=thread.port) as client:
        print(
            f"panorama-serve selftest on {thread.server.url}", file=sys.stderr
        )

        health = client.health()
        check("GET /v1/health", health.get("status") == "ok")

        # verdict identity vs the in-process pipeline, cold then warm
        expected = [
            loop_report_row(r)
            for r in Panorama().compile(FIGURE_1A).loops
        ]
        # cold memos for the daemon's first request: a compile numbers
        # its fresh symbols from 1, so the ground truth's compile would
        # answer every symbolic question that request asks
        profiler.clear_caches()
        first = client.analyze(FIGURE_1A, name="figure1a.f")
        second = client.analyze(FIGURE_1A, name="figure1a.f")
        check(
            "POST /v1/analyze matches in-process verdicts",
            first["loops"] == expected,
        )
        check(
            "verdicts stable across repeated requests",
            second["loops"] == first["loops"],
        )
        served = second["request"]["summary_cache"]
        check(
            "identical request served whole from the result tier",
            served["result_hits"] == 1 and served["stores"] == 0,
            f"{served['result_hits']} result hit(s)",
        )
        # a comment-only edit misses the result tier, so the routine
        # summaries and the symbolic memos must carry it
        edited = client.analyze(FIGURE_1A + "C selftest edit\n", name="figure1a.f")
        warmed = edited["request"]["summary_cache"]
        rate1 = first["request"]["hit_rate"] or 0.0
        rate2 = edited["request"]["hit_rate"] or 0.0
        check(
            "resident caches warmed a comment-edited request",
            edited["loops"] == first["loops"]
            and warmed["result_hits"] == 0
            and warmed["hits"] > 0
            and warmed["misses"] == 0
            and warmed["stores"] == 0
            and rate2 > rate1,
            f"hit rate {rate1:.3f} -> {rate2:.3f}",
        )

        events = list(client.analyze_stream(FIGURE_1A, name="figure1a.f"))
        kinds = [e.get("event") for e in events]
        check(
            "NDJSON stream shape",
            kinds
            and kinds[0] == "routine_started"
            and kinds[-1] == "done"
            and "loop_verdict" in kinds,
            "->".join(dict.fromkeys(kinds)),
        )

        # watch protocol: full first revision, then a touched routine
        big = KERNELS[0]
        sid = client.watch_open(name="watch.f")
        rev1 = client.watch_submit(sid, big.source, sizes=dict(big.sizes))
        edited = big.source.replace("DO ", "DO  ", 1)  # whitespace only
        rev2 = client.watch_submit(sid, edited, sizes=dict(big.sizes))
        check(
            "watch: first revision analyzes everything",
            bool(rev1["report"]["changed"]) and not rev1["report"]["reused"],
        )
        check(
            "watch: whitespace edit invalidates nothing",
            not rev2["report"]["changed"] and bool(rev2["report"]["reused"]),
            f"reused {len(rev2['report']['reused'])} routine(s)",
        )
        client.watch_close(sid)
        try:
            client.watch_submit(sid, big.source)
            check("watch: closed session rejected", False)
        except ServiceError as exc:
            check("watch: closed session rejected", exc.status == 404)

        # typed 422 on bad source; the daemon must keep answering after
        try:
            client.analyze("THIS IS NOT FORTRAN ][", name="bad.f")
            check("422 on malformed source", False)
        except ServiceError as exc:
            check(
                "422 on malformed source",
                exc.status == 422 and exc.kind in ("source", "analysis"),
                f"kind={exc.kind}",
            )

        # deterministic saturation: ceiling 0 → immediate 429 (a
        # non-retrying client, so the raw rejection is observable)
        ceiling = service.config.max_inflight
        service.config.max_inflight = 0
        try:
            with PanoramaClient(port=thread.port, retries=0) as fail_fast:
                fail_fast.analyze(FIGURE_1A)
            check("429 on saturation", False)
        except ServiceError as exc:
            check(
                "429 on saturation",
                exc.status == 429 and exc.retry_after is not None,
                f"Retry-After={exc.retry_after}",
            )
        finally:
            service.config.max_inflight = ceiling

        after = client.analyze(FIGURE_1A, name="figure1a.f")
        check(
            "daemon healthy after rejections",
            after["loops"] == expected,
        )

        stats = client.stats()
        check(
            "GET /v1/stats",
            stats["requests"]["analyze"] >= 4
            and stats["admission"]["rejected"] >= 1
            and stats["responses"].get("422", 0) >= 1,
        )
        print(json.dumps(stats["admission"], sort_keys=True), file=sys.stderr)

    if failures:
        print(f"selftest FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("selftest OK", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
