"""Command-line interface: ``panorama [options] file.f``.

Runs the full pipeline on a Fortran source file and prints the per-loop
verdicts, optionally with loop summaries, the HSG, and technique
ablations.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .. import __version__
from ..diagnostics import render_text, write_sarif
from ..errors import EXIT_HARD_FAILURE, EXIT_USAGE, classify_exception, describe_failure
from .flags import (
    add_analysis_flags,
    add_audit_flags,
    add_machine_flag,
    audit_requested,
    options_from_args,
    read_source,
)
from .panorama import Panorama
from .report import format_perf, format_stats, format_table, result_to_dict, yes_no


def build_arg_parser() -> argparse.ArgumentParser:
    """The panorama CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="panorama",
        description=(
            "Symbolic array dataflow analysis for array privatization and "
            "loop parallelization (reproduction of Gu, Li & Lee, SC'95)."
        ),
    )
    parser.add_argument("source", help="Fortran source file ('-' for stdin)")
    parser.add_argument(
        "--summaries",
        action="store_true",
        help="print MOD/UE loop summaries for every analyzed loop",
    )
    parser.add_argument(
        "--dump-hsg", action="store_true", help="print the HSG of every routine"
    )
    add_machine_flag(parser)
    parser.add_argument(
        "--emit",
        choices=["omp", "sgi"],
        help="print the program annotated with parallelization directives",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the per-loop verdicts as machine-readable JSON",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the compile's stage timings, hot-path counters and "
        "symbolic-cache hit/miss gauges after the verdicts",
    )
    add_analysis_flags(parser)
    add_audit_flags(parser)
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_arg_parser().parse_args(argv)
    name = Path(str(args.source)).name
    try:
        source = read_source(args.source)
    except OSError as exc:
        print(f"panorama: cannot read source: {exc}", file=sys.stderr)
        return EXIT_USAGE

    panorama = Panorama(
        options_from_args(args), run_machine_model=not args.no_machine
    )
    audit_report = None
    try:
        result = panorama.compile(source)
        if audit_requested(args):
            from ..audit import audit_compilation

            audit_report = audit_compilation(result, name, source=source)
    except Exception as exc:
        # a refused program gets the daemon's one-line answer; any other
        # kind is a bug or a fault, and its traceback is worth reading
        kind = classify_exception(exc)
        if kind not in ("source", "analysis"):
            raise
        print(f"panorama: {kind} error: {describe_failure(exc)}", file=sys.stderr)
        return EXIT_HARD_FAILURE
    # 3 = degraded-but-complete: some verdicts are budget fallbacks
    exit_code = 3 if result.degraded_loops() else 0

    if audit_report is not None:
        if args.sarif:
            write_sarif(audit_report.diagnostics(), args.sarif)
        if args.strict_audit and audit_report.errors():
            # 4 = the audit found a confirmed disagreement; it trumps
            # the degraded-verdicts code because it is a soundness bug,
            # not a capacity shortfall
            exit_code = 4

    if args.json:
        # same serializer the batch engine ships results with
        print(
            json.dumps(
                result_to_dict(result, name=name, audit=audit_report),
                indent=2,
                sort_keys=True,
            )
        )
        return exit_code

    if args.dump_hsg:
        for unit in result.program.units:
            print(f"--- HSG of {unit.name} ---")
            print(result.hsg.graph(unit.name).dump())
            print()

    rows = []
    for report in result.loops:
        rows.append(
            [
                report.loop_id(),
                report.var,
                report.status.value,
                yes_no(report.used_dataflow),
                ", ".join(report.verdict.privatized) if report.verdict else "",
                ", ".join(report.verdict.reductions) if report.verdict else "",
                f"{report.speedup:.1f}x" if report.parallel else "-",
            ]
        )
    print(
        format_table(
            ["loop", "index", "status", "dataflow", "privatized",
             "reductions", "est. speedup"],
            rows,
            title=f"Panorama verdicts ({name})",
        )
    )
    print()
    print(result.summary_line())
    print(format_stats(result.analyzer.stats, result.timings))

    if args.profile:
        print()
        print(format_perf(result.analyzer.stats.symbolic, result.timings))

    if args.summaries:
        for report in result.loops:
            if report.verdict and report.verdict.record:
                print()
                print(report.verdict.record)

    if audit_report is not None:
        print()
        print(audit_report.summary_line())
        diags = audit_report.diagnostics()
        if diags:
            print(render_text(diags))

    if args.emit:
        from ..codegen import annotate

        print()
        print(annotate(result, style=args.emit))
    if exit_code == 4:
        print(
            "panorama: strict audit failed: "
            f"{len(audit_report.errors())} error-severity diagnostic(s) "
            "(exit 4)",
            file=sys.stderr,
        )
    elif exit_code == 3:
        print(
            f"panorama: {len(result.degraded_loops())} loop verdict(s) "
            "degraded by budget exhaustion (exit 3)",
            file=sys.stderr,
        )
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
