"""Command-line settings shared by the Panorama CLIs, each declared once.

``panorama`` and ``panorama-batch`` take the analysis and audit groups
built here, and :func:`options_from_args` is where their parsed flags
become :class:`~repro.dataflow.options.AnalysisOptions`.  The engine
group of ``panorama-batch`` and ``panorama-campaign`` lives in
:mod:`repro.engine.cli`, so importing this module (and ``panorama``)
loads no part of the engine.
"""

from __future__ import annotations

import argparse

from ..dataflow.options import ANALYSIS_FLAGS, TECHNIQUES, AnalysisOptions


def add_analysis_flags(parser: argparse.ArgumentParser) -> None:
    """The five settings :meth:`AnalysisOptions.from_flags` takes."""
    group = parser.add_argument_group("analysis")
    group.add_argument(
        "--ablate", choices=sorted(TECHNIQUES), action="append", default=[],
        help="disable a technique (repeatable): T1 symbolic, "
        "T2 IF conditions, T3 interprocedural",
    )
    group.add_argument(
        "--no-fm", action="store_true",
        help="disable the Fourier-Motzkin fallback prover",
    )
    group.add_argument(
        "--no-frontier", action="store_true",
        help="disable the frontier pass (array-content facts and "
        "scan/recurrence recognition; docs/frontier.md)",
    )
    group.add_argument(
        "--budget-ms", type=float, metavar="MS",
        help="per-file analysis deadline; on exhaustion the remaining "
        "loops degrade to conservative 'unknown (budget)' verdicts (exit 3)",
    )
    group.add_argument(
        "--budget-steps", type=int, metavar="N",
        help="per-file symbolic step budget (deterministic analogue of "
        "--budget-ms)",
    )


def add_audit_flags(parser: argparse.ArgumentParser) -> None:
    """``--audit``, ``--sarif`` and ``--strict-audit``."""
    group = parser.add_argument_group("auditing (docs/auditing.md)")
    group.add_argument(
        "--audit", action="store_true",
        help="run the static race auditor over every parallel verdict and "
        "print its diagnostics (PAN1xx/PAN2xx/PAN3xx)",
    )
    group.add_argument(
        "--sarif", metavar="PATH",
        help="write the audit diagnostics as a SARIF 2.1.0 log "
        "(implies --audit)",
    )
    group.add_argument(
        "--strict-audit", action="store_true",
        help="exit 4 when the audit finds a confirmed disagreement or an "
        "internal-consistency violation (implies --audit)",
    )


def add_machine_flag(parser) -> None:
    """``--no-machine``: shared by ``panorama`` and the engine group."""
    parser.add_argument(
        "--no-machine", action="store_true",
        help="skip cost/speedup estimation",
    )


def options_from_args(args: argparse.Namespace) -> AnalysisOptions:
    """The analysis group's parsed flags as :class:`AnalysisOptions`."""
    return AnalysisOptions.from_flags(
        **{name: getattr(args, name) for name in ANALYSIS_FLAGS}
    )


def audit_requested(args: argparse.Namespace) -> bool:
    """``--sarif`` and ``--strict-audit`` both imply ``--audit``."""
    return bool(args.audit or args.sarif or args.strict_audit)
