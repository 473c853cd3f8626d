"""Parallel code generation: directive-annotated Fortran output.

The paper notes (section 6) that Panorama "does not generate parallel
FORTRAN source code for any specific machine, although work is underway
for Silicon Graphics Power Challenges" — the loops were marked parallel
internally.  This module completes that step: it regenerates the program
from the AST with parallelization directives attached to every loop the
analysis proves parallel, in either of two styles:

* ``sgi`` — Power-Challenge-era ``C$DOACROSS`` with ``LOCAL``/``SHARE``/
  ``REDUCTION`` clauses (what the paper targeted);
* ``omp`` — modern ``C$OMP PARALLEL DO`` with ``PRIVATE``/``REDUCTION``
  and ``LASTPRIVATE`` (driven by the copy-out analysis).

Only the outermost parallel loop of each nest is annotated (no nested
parallelism, matching the paper's loop-level model).  Directives are
Fortran comments, so the generated text still parses with this package's
own frontend — round-trip tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..driver.panorama import CompilationResult, LoopReport
from ..fortran.ast_nodes import DoLoop, IfBlock, ProgramUnit, Stmt
from ..fortran.printers import unparse_stmt
from ..hsg.cfg import FlowGraph
from ..hsg.nodes import LoopNode
from ..parallelize import LoopStatus, find_reductions


@dataclass(frozen=True)
class DirectiveClauses:
    """The clause sets of one parallelized loop."""

    index_vars: tuple[str, ...]  # the loop's own + inner indices
    private: tuple[str, ...]  # privatized arrays and scalars
    lastprivate: tuple[str, ...]  # privatized arrays needing copy-out
    reductions: tuple[tuple[str, str], ...]  # (operator, variable)
    #: induction variables: private after rewriting to their closed forms
    inductions: tuple[str, ...]
    shared: tuple[str, ...]


def _inner_indices(loop: LoopNode) -> list[str]:
    out: list[str] = []

    def rec(graph: FlowGraph) -> None:
        for node in graph.nodes:
            if isinstance(node, LoopNode):
                out.append(node.var)
                rec(node.body)

    rec(loop.body)
    return list(dict.fromkeys(out))


def clauses_for(report: LoopReport, result: CompilationResult) -> DirectiveClauses:
    """Derive directive clauses from a parallel loop's analysis results."""
    verdict = report.verdict
    loop_node = _find_loop_node(result, report)
    inner = _inner_indices(loop_node) if loop_node is not None else []
    privatized = list(verdict.privatized) if verdict else []
    reductions: list[tuple[str, str]] = []
    if verdict:
        ops = {}
        if loop_node is not None:
            ops = {r.name: r.operator for r in find_reductions(loop_node.body)}
        for name in verdict.reductions:
            reductions.append((ops.get(name, "+"), name))
    copy_out = tuple(
        d.name for d in report.copy_out if d.needs_copy_out
    )
    inductions = tuple(verdict.inductions) if verdict else ()
    private = tuple(
        sorted(
            (set(privatized) | set(inductions))
            - set(copy_out) - set(inner) - {report.var}
        )
    )
    shared = _shared_variables(result, report, loop_node, set(private)
                               | set(copy_out) | set(inner) | {report.var}
                               | {name for _, name in reductions})
    return DirectiveClauses(
        index_vars=tuple([report.var] + inner),
        private=private,
        lastprivate=copy_out,
        reductions=tuple(reductions),
        inductions=inductions,
        shared=tuple(shared),
    )


def _shared_variables(
    result: CompilationResult,
    report: LoopReport,
    loop_node: Optional[LoopNode],
    not_shared: set[str],
) -> list[str]:
    if report.verdict is None or report.verdict.record is None:
        return []
    record = report.verdict.record
    names = record.mod_i.arrays() | record.ue_i.arrays()
    return sorted(n for n in names if n not in not_shared and "@" not in n)


def _find_loop_node(
    result: CompilationResult, report: LoopReport
) -> Optional[LoopNode]:
    for unit_name, loop in result.hsg.all_loops():
        if (
            unit_name == report.routine
            and loop.lineno == report.lineno
            and loop.var == report.var
        ):
            return loop
    return None


def _format_clause_list(names: tuple[str, ...]) -> str:
    return ", ".join(name.upper() for name in names)


def directive_lines(clauses: DirectiveClauses, style: str) -> list[str]:
    """Render one loop's directive (possibly continued over lines)."""
    if style == "sgi":
        local = _format_clause_list(
            tuple(clauses.index_vars) + clauses.private + clauses.lastprivate
        )
        parts = [f"LOCAL({local})" if local else ""]
        if clauses.shared:
            parts.append(f"SHARE({_format_clause_list(clauses.shared)})")
        for op, name in clauses.reductions:
            parts.append(f"REDUCTION({name.upper()})")
        body = ", ".join(p for p in parts if p)
        return [f"C$DOACROSS {body}"]
    if style == "omp":
        lines = ["C$OMP PARALLEL DO"]
        priv = tuple(clauses.index_vars[1:]) + clauses.private
        if priv:
            lines.append(f"C$OMP&  PRIVATE({_format_clause_list(priv)})")
        if clauses.lastprivate:
            lines.append(
                f"C$OMP&  LASTPRIVATE({_format_clause_list(clauses.lastprivate)})"
            )
        for op, name in clauses.reductions:
            omp_op = {"+": "+", "*": "*", "min": "MIN", "max": "MAX"}.get(op, "+")
            lines.append(f"C$OMP&  REDUCTION({omp_op}:{name.upper()})")
        if clauses.shared:
            lines.append(f"C$OMP&  SHARED({_format_clause_list(clauses.shared)})")
        return lines
    raise ValueError(f"unknown directive style {style!r}")


def scan_directive_lines(report: LoopReport) -> list[str]:
    """The scan-schedule hint for a PARALLEL_SCAN loop.

    A scan is *not* a plain parallel DO — running it under DOACROSS/OMP
    PARALLEL DO would race on the carried chain — so the hint names the
    recurrence and the two-pass schedule instead, as a comment directive
    a scan-aware backend (or a human) can act on.
    """
    matches = report.verdict.scan_matches if report.verdict else []
    if not matches:
        return ["C$PAR SCAN SCHEDULE(TWO-PASS)"]
    inner = ", ".join(
        f"{m.name.upper()}: {m.shape.replace('_', '-')} over {m.operator}"
        f" distance {m.distance}"
        for m in matches
    )
    return [f"C$PAR SCAN({inner}) SCHEDULE(TWO-PASS)"]


def annotate(result: CompilationResult, style: str = "omp") -> str:
    """Regenerate the program with parallelization directives.

    Loops the analysis proved parallel (directly, after privatization, or
    as reductions) get a directive; everything else is emitted verbatim.
    Only the outermost parallel loop of a nest is annotated.
    """
    by_location: dict[tuple[str, int, str], LoopReport] = {}
    for report in result.loops:
        by_location[(report.routine, report.lineno, report.var)] = report

    out_lines: list[str] = []
    for unit in result.program.units:
        out_lines.extend(_emit_unit(unit, result, by_location, style))
        out_lines.append("")
    return "\n".join(out_lines).rstrip() + "\n"


def _emit_unit(
    unit: ProgramUnit,
    result: CompilationResult,
    by_location: dict,
    style: str,
) -> list[str]:
    header = {
        "program": f"      PROGRAM {unit.name}",
        "subroutine": f"      SUBROUTINE {unit.name}({', '.join(unit.params)})",
        "function": f"      FUNCTION {unit.name}({', '.join(unit.params)})",
    }[unit.kind]
    lines = [header]
    for decl in unit.decls:
        lines.extend("      " + l.strip() for l in unparse_stmt(decl, 0))
    lines.extend(
        _emit_block(unit.body, unit.name, result, by_location, style, 1, False)
    )
    lines.append("      END")
    return lines


def _emit_block(
    stmts: list[Stmt],
    routine: str,
    result: CompilationResult,
    by_location: dict,
    style: str,
    indent: int,
    inside_parallel: bool,
) -> list[str]:
    pad = "      " + "  " * (indent - 1)
    out: list[str] = []
    for stmt in stmts:
        if isinstance(stmt, DoLoop):
            report = by_location.get((routine, stmt.lineno, stmt.var))
            scan_this = (
                report is not None
                and report.status is LoopStatus.PARALLEL_SCAN
                and not inside_parallel
            )
            annotate_this = (
                report is not None
                and report.parallel
                and not scan_this
                and not inside_parallel
            )
            if scan_this:
                # directives are comments: column 1, never indented
                out.extend(scan_directive_lines(report))
            elif annotate_this:
                clauses = clauses_for(report, result)
                out.extend(directive_lines(clauses, style))
            step = f", {stmt.step}" if stmt.step is not None else ""
            label = f"{stmt.label} " if stmt.label is not None else ""
            out.append(
                f"{pad}{label}DO {stmt.var} = {stmt.start}, {stmt.stop}{step}"
            )
            out.extend(
                _emit_block(
                    stmt.body,
                    routine,
                    result,
                    by_location,
                    style,
                    indent + 1,
                    inside_parallel or annotate_this or scan_this,
                )
            )
            out.append(f"{pad}ENDDO")
            if annotate_this and style == "omp":
                out.append("C$OMP END PARALLEL DO")
            continue
        if isinstance(stmt, IfBlock):
            for arm_idx, (cond, body) in enumerate(stmt.arms):
                key = "IF" if arm_idx == 0 else "ELSEIF"
                out.append(f"{pad}{key} ({cond}) THEN")
                out.extend(
                    _emit_block(body, routine, result, by_location, style,
                                indent + 1, inside_parallel)
                )
            if stmt.orelse:
                out.append(f"{pad}ELSE")
                out.extend(
                    _emit_block(stmt.orelse, routine, result, by_location,
                                style, indent + 1, inside_parallel)
                )
            out.append(f"{pad}ENDIF")
            continue
        for line in unparse_stmt(stmt, 0):
            out.append(pad + line.strip())
    return out
