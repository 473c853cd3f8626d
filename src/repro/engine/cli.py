"""``panorama-batch``: bulk analysis with workers and a persistent cache.

Examples::

    panorama-batch a.f b.f c.f --jobs 4 --cache-dir ~/.panorama-cache
    panorama-batch --kernels --jobs 4 --stats-json stats.json
    panorama-batch --kernels --json          # full machine-readable output

Also home of what ``panorama-campaign`` shares with it: the engine flag
group (:func:`add_engine_flags`) and the run path (:func:`run_engine`).
The analysis and audit groups come from :mod:`repro.driver.flags`.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from types import SimpleNamespace
from typing import Any, Callable, Optional, Sequence

from .. import __version__
from ..dataflow import AnalysisOptions
from ..diagnostics import render_text, write_sarif
from ..driver.flags import (
    add_analysis_flags,
    add_audit_flags,
    add_machine_flag,
    audit_requested,
    options_from_args,
)
from ..driver.report import format_stats, format_table, yes_no
from ..errors import EXIT_INTERRUPTED, EXIT_USAGE
from . import ledger as ledger_mod
from .backends import BACKEND_KINDS
from .batch import (
    BatchEngine,
    BatchItem,
    BatchReport,
    items_from_kernel_registry,
    items_from_paths,
)


def add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """The engine group ``panorama-batch`` and ``panorama-campaign``
    share; :func:`run_engine` reads it."""
    group = parser.add_argument_group("engine (docs/engine.md)")
    group.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1: in-process)",
    )
    group.add_argument(
        "--cache-dir", metavar="PATH",
        help="durable summary-cache directory (shared by workers and "
        "by shards)",
    )
    group.add_argument(
        "--cache-backend", choices=list(BACKEND_KINDS),
        help="durable tier: pickle files (disk, the default) or the "
        "multi-process SQLite tier (shared)",
    )
    add_machine_flag(group)
    group.add_argument(
        "--stats-json", metavar="PATH",
        help="write the run's telemetry (timings, stats, cache counters); "
        "campaign shards feed these files to --rollup",
    )
    group.add_argument(
        "--ledger", metavar="PATH",
        help="journal run progress to this append-only JSONL ledger "
        "(one record per item transition; feed it to --resume)",
    )
    group.add_argument(
        "--resume", metavar="LEDGER",
        help="resume an interrupted run from its ledger: completed "
        "items are served from the journal, in-flight and failed ones "
        "re-dispatched; refuses a ledger written for a different run",
    )
    group.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="on SIGTERM/SIGINT, give in-flight items this long to "
        "finish before abandoning them (default 10; exit code 5)",
    )


def build_arg_parser() -> argparse.ArgumentParser:
    """The panorama-batch CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="panorama-batch",
        description=(
            "Batch front end to the Panorama analyzer: fan Fortran sources "
            "across worker processes with a persistent, content-addressed "
            "summary cache."
        ),
    )
    parser.add_argument(
        "sources", nargs="*", help="Fortran source files to analyze"
    )
    parser.add_argument(
        "--kernels",
        action="store_true",
        help="also analyze the built-in Perfect-benchmark kernel suite",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit all results as JSON on stdout instead of tables",
    )
    add_engine_flags(parser)
    add_analysis_flags(parser)
    resilience = parser.add_argument_group(
        "resilience (docs/robustness.md)"
    )
    resilience.add_argument(
        "--timeout-per-item",
        type=float,
        metavar="SECONDS",
        help="declare an in-flight item hung after this long "
        "(pool mode only; default: wait forever)",
    )
    resilience.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="retry a failed item up to N times before quarantining it "
        "(default 2; source errors are never retried)",
    )
    add_audit_flags(parser)
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    return parser


def prepare_ledger(ledger_path, resume_path, identity, prog):
    """``(writer, replay)`` for the --ledger/--resume flags.

    Raises ``SystemExit(EXIT_USAGE)`` after printing the reason when the
    flags conflict, the ledger cannot be opened, or — the crucial
    refusal — its identity header describes a different run.
    """
    if resume_path:
        if ledger_path and os.path.abspath(ledger_path) != os.path.abspath(
            resume_path
        ):
            print(
                f"{prog}: --ledger and --resume must name the same file",
                file=sys.stderr,
            )
            raise SystemExit(EXIT_USAGE)
        try:
            replay = ledger_mod.replay(resume_path)
            ledger_mod.verify_identity(replay.header, identity)
        except OSError as exc:
            print(f"{prog}: cannot resume: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        except ledger_mod.LedgerMismatch as exc:
            print(f"{prog}: refusing to resume: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        return (
            ledger_mod.LedgerWriter(resume_path, identity, resume=True),
            replay,
        )
    if ledger_path:
        try:
            return ledger_mod.LedgerWriter(ledger_path, identity), None
        except OSError as exc:
            print(f"{prog}: cannot open ledger: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
    return None, None


def install_drain_handlers(engine: BatchEngine):
    """SIGTERM/SIGINT → graceful drain; returns a restore callback.

    The handler only sets an event the run loop polls, so it is
    async-signal-safe; in-flight items finish inside the engine's
    drain timeout and the run exits interrupted-but-consistent.
    """
    previous = {}

    def _drain(signum, frame):
        engine.request_drain()

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, _drain)
        except (ValueError, OSError):  # non-main thread, or unsupported
            pass

    def restore():
        for sig, handler in previous.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):
                pass

    return restore


def run_engine(
    args: argparse.Namespace,
    items: Sequence[BatchItem],
    options: AnalysisOptions,
    show: Callable[[BatchReport], None],
    *,
    campaign: Optional[dict[str, Any]] = None,
    audit: bool = False,
    strict_audit: bool = False,
    **engine_kw: Any,
) -> int:
    """The run path of ``panorama-batch`` and ``panorama-campaign``.

    Opens the ledger the engine flags name, runs *items* on a
    :class:`BatchEngine` built from those flags with SIGTERM/SIGINT
    draining it, hands the report to *show*, writes ``--stats-json``
    and returns the exit code, explaining a nonzero one on stderr.
    *campaign* is a campaign shard's provenance (seed, generator
    version, count, shard): it joins the ledger identity and the stats
    export.  *engine_kw* passes further :class:`BatchEngine` settings.
    """
    kind = "campaign" if campaign else "batch"
    prog = f"panorama-{kind}"
    identity = ledger_mod.run_identity(
        kind,
        items,
        options,
        audit=audit,
        machine=not args.no_machine,
        campaign=campaign,
    )
    try:
        writer, replay = prepare_ledger(
            args.ledger, args.resume, identity, prog
        )
    except SystemExit as exc:
        return int(exc.code or 0)
    engine = BatchEngine(
        options,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        run_machine_model=not args.no_machine,
        audit=audit,
        cache_backend=args.cache_backend,
        ledger=writer,
        resume=replay,
        drain_timeout=args.drain_timeout,
        **engine_kw,
    )
    restore_signals = install_drain_handlers(engine)
    try:
        report = engine.run(items)
    finally:
        restore_signals()
        if writer is not None:
            writer.close()
    if campaign:
        report.telemetry.campaign = {**campaign, "items": len(items)}
    show(report)
    if args.stats_json:
        report.telemetry.write_json(args.stats_json)

    shard = f"shard {campaign['shard']} " if campaign else ""
    code = report.exit_code()
    if code in (0, 3) and strict_audit and report.audit_errors():
        # a soundness finding trumps the degraded-verdicts code
        code = 4
        print(
            f"{prog}: strict audit failed: "
            f"{len(report.audit_errors())} error-severity diagnostic(s) "
            "(exit 4)",
            file=sys.stderr,
        )
    elif code == 3:
        print(
            f"{prog}: {shard}completed with degradations "
            "(see docs/robustness.md; exit 3)",
            file=sys.stderr,
        )
    elif code == EXIT_INTERRUPTED:
        ledger_path = args.ledger or args.resume
        hint = (
            f" (resume with --resume {ledger_path})" if ledger_path else ""
        )
        print(
            f"{prog}: {shard}interrupted; finalized progress is flushed "
            f"and consistent{hint} (exit 5)",
            file=sys.stderr,
        )
    return code


def print_report(report: BatchReport, args: argparse.Namespace) -> None:
    """``panorama-batch`` output: JSON or per-item tables, and SARIF."""
    run_audit = audit_requested(args)
    if args.json:
        print(
            json.dumps(
                {
                    "results": [
                        res.payload
                        if res.ok
                        else {
                            "name": res.name,
                            "error": res.error,
                            "error_kind": res.error_kind,
                            "attempts": res.attempts,
                            "quarantined": res.quarantined,
                        }
                        for res in report.results
                    ],
                    "telemetry": report.telemetry.as_dict(),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for res in report.results:
            if not res.ok:
                tag = res.error_kind or "error"
                flag = " [quarantined]" if res.quarantined else ""
                print(
                    f"--- {res.name}: ERROR ({tag}, "
                    f"{res.attempts} attempt(s)){flag} ---\n{res.error}",
                    file=sys.stderr,
                )
                continue
            rows = [
                [
                    row["loop"],
                    row["var"],
                    row["status"],
                    yes_no(row["used_dataflow"]),
                    ", ".join(row["privatized"]),
                    f"{row['speedup']:.1f}x" if row["parallel"] else "-",
                ]
                for row in res.rows()
            ]
            print(
                format_table(
                    ["loop", "index", "status", "dataflow", "privatized",
                     "est. speedup"],
                    rows,
                    title=f"Panorama verdicts ({res.name})",
                )
            )
            print()
        print(report.telemetry.summary_line())
        tele = report.telemetry
        print(
            format_stats(
                SimpleNamespace(**tele.stats, symbolic=tele.symbolic),
                cache_backend=tele.cache_backend,
            )
        )
        if run_audit:
            a = report.telemetry.audit
            print(
                f"audit: {a['loops_audited']} loop(s), "
                f"{a['pairs_checked']} pair(s); "
                f"{a['confirmed']} confirmed, {a['guarded']} guarded, "
                f"{a['undecided']} undecided, "
                f"{a['oracle_conflicts']} oracle conflict(s), "
                f"{a['lint']} lint, {a['sanitizer']} sanitizer"
            )
            diags = report.audit_diagnostics()
            if diags:
                print(render_text(diags))

    if run_audit and args.sarif:
        write_sarif(report.audit_diagnostics(), args.sarif)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_arg_parser().parse_args(argv)
    try:
        items = items_from_paths(args.sources)
    except OSError as exc:
        print(f"panorama-batch: cannot read source: {exc}", file=sys.stderr)
        return 2
    if args.kernels:
        items.extend(items_from_kernel_registry())
    if not items:
        print("panorama-batch: no sources (pass files or --kernels)",
              file=sys.stderr)
        return 2
    return run_engine(
        args,
        items,
        options_from_args(args),
        lambda report: print_report(report, args),
        audit=audit_requested(args),
        strict_audit=args.strict_audit,
        timeout_per_item=args.timeout_per_item,
        max_attempts=max(1, args.retries + 1),
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
