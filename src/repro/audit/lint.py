"""Front-end lint (PAN2xx): flag constructs the analysis only survives
conservatively, so "serial"/"unknown" verdicts stop being unexplainable.

* ``PAN201`` — a DO loop with a premature exit (GOTO/RETURN out of the
  body): the classifier refuses to parallelize it outright (5.4);
* ``PAN202`` — a backward-GOTO cycle condensed by ``hsg/condense.py``:
  every array referenced inside is summarized as wholly read and written
  (guard Δ, region Ω), which poisons any enclosing loop's summary;
* ``PAN203`` — CALL-site aliasing the interprocedural summaries do not
  model: an actual array argument that is also visible to the callee
  through a COMMON block, or the same array passed twice in one call.
"""

from __future__ import annotations

from ..diagnostics import Diagnostic, resolve_span
from ..driver.panorama import CompilationResult
from ..fortran.ast_nodes import NameRef
from ..hsg.cfg import walk, walk_cycle
from ..hsg.nodes import BasicBlockNode, CallNode, CondensedNode


def _first_lineno(node: CondensedNode) -> int:
    for member, _ in walk_cycle(node):
        if isinstance(member, BasicBlockNode):
            for stmt in member.stmts:
                if getattr(stmt, "lineno", 0):
                    return stmt.lineno
    return 0


def lint_program(
    result: CompilationResult, file: str, source: str | None = None
) -> list[Diagnostic]:
    """All PAN2xx findings for one compiled program."""
    out: list[Diagnostic] = []

    # PAN201: premature loop exits
    for unit_name, loop in result.hsg.all_loops():
        if loop.has_premature_exit:
            out.append(
                Diagnostic(
                    code="PAN201",
                    message=(
                        f"loop {unit_name}/{loop.source_label or loop.var} "
                        "has a premature exit; it is analyzed conservatively "
                        "and can never be reported parallel"
                    ),
                    span=resolve_span(file, loop.lineno, source),
                    data={"routine": unit_name, "loop": loop.var},
                )
            )

    analyzed = result.analyzed
    for unit in result.program.units:
        unit_name = unit.name
        for node, _ in walk(result.hsg.graph(unit_name)):
            # PAN202: condensed backward-GOTO cycles
            if isinstance(node, CondensedNode):
                out.append(
                    Diagnostic(
                        code="PAN202",
                        message=(
                            f"{unit_name}: backward-GOTO cycle of "
                            f"{len(node.members)} node(s) condensed; its "
                            "array accesses are summarized as wholly read "
                            "and written"
                        ),
                        span=resolve_span(file, _first_lineno(node), source),
                        data={"routine": unit_name},
                    )
                )
            # PAN203: CALL-site aliasing
            if isinstance(node, CallNode):
                callee = node.call.name
                try:
                    callee_table = analyzed.table(callee)
                except KeyError:
                    callee_table = None
                caller_table = analyzed.table(unit_name)
                array_args: list[str] = []
                for arg in node.call.args:
                    if isinstance(arg, NameRef) and caller_table.is_array(
                        arg.name
                    ):
                        array_args.append(arg.name)
                lineno = getattr(node.call, "lineno", 0)
                dupes = {a for a in array_args if array_args.count(a) > 1}
                for name in sorted(dupes):
                    out.append(
                        Diagnostic(
                            code="PAN203",
                            message=(
                                f"{unit_name}: array {name} passed more than "
                                f"once to {callee}; the callee's dummies "
                                "alias each other"
                            ),
                            span=resolve_span(file, lineno, source),
                            data={"routine": unit_name, "callee": callee},
                        )
                    )
                if callee_table is None:
                    continue
                for name in dict.fromkeys(array_args):
                    block = caller_table.common_block_of(name)
                    if block is not None and block in callee_table.commons:
                        if name in callee_table.commons.get(block, []):
                            out.append(
                                Diagnostic(
                                    code="PAN203",
                                    message=(
                                        f"{unit_name}: array {name} is "
                                        f"passed to {callee} and also "
                                        f"visible there via COMMON "
                                        f"/{block or ' '}/ — the dummy and "
                                        "the COMMON copy alias"
                                    ),
                                    span=resolve_span(file, lineno, source),
                                    data={
                                        "routine": unit_name,
                                        "callee": callee,
                                        "common": block,
                                    },
                                )
                            )
    return out
