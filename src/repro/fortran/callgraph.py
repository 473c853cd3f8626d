"""Call-graph construction and the acyclicity check (paper section 4).

The analysis assumes "the program contains no recursive calls"; this module
builds the call graph from ``CALL`` statements and resolved function
references, verifies it is a DAG, and provides the bottom-up order used by
interprocedural summary computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CallGraphError
from .ast_nodes import Apply, CallStmt, Stmt
from .semantics import AnalyzedProgram


@dataclass
class CallGraph:
    """Edges between program-unit names; only calls to units defined in the
    program are recorded (externals are opaque)."""

    callees: dict[str, set[str]] = field(default_factory=dict)
    callers: dict[str, set[str]] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)  # bottom-up (callees first)

    def calls(self, caller: str) -> frozenset[str]:
        """The callees of *caller* defined within the program."""
        return frozenset(self.callees.get(caller, ()))

    def is_leaf(self, name: str) -> bool:
        """True when the unit calls no program-defined routine."""
        return not self.callees.get(name)


def _called_names(stmt: Stmt) -> set[str]:
    out = {stmt.name} if isinstance(stmt, CallStmt) else set()
    for expr in stmt.exprs():
        for node in expr.walk():
            if isinstance(node, Apply) and node.is_array is False:
                out.add(node.name)
    return out


def build_call_graph(analyzed: AnalyzedProgram) -> CallGraph:
    """Build and topologically order the call graph; raises on recursion."""
    graph = CallGraph()
    unit_names = analyzed.unit_names()
    for unit in analyzed.program.units:
        edges: set[str] = set()
        for stmt in unit.walk_statements():
            edges |= _called_names(stmt) & unit_names
        edges.discard(unit.name)  # direct self-recursion caught below too
        graph.callees[unit.name] = edges
        for callee in edges:
            graph.callers.setdefault(callee, set()).add(unit.name)
    for unit in analyzed.program.units:
        for stmt in unit.walk_statements():
            if unit.name in _called_names(stmt):
                raise CallGraphError(f"recursive call in {unit.name}")
    graph.order = _topological_bottom_up(graph, list(unit_names))
    return graph


def _topological_bottom_up(graph: CallGraph, names: list[str]) -> list[str]:
    """Callees before callers; raises :class:`CallGraphError` on cycles."""
    color: dict[str, int] = {}
    order: list[str] = []

    def visit(name: str, stack: list[str]) -> None:
        state = color.get(name, 0)
        if state == 1:
            cycle = " -> ".join(stack + [name])
            raise CallGraphError(f"recursive call chain: {cycle}")
        if state == 2:
            return
        color[name] = 1
        for callee in sorted(graph.callees.get(name, ())):
            visit(callee, stack + [name])
        color[name] = 2
        order.append(name)

    for name in sorted(names):
        visit(name, [])
    return order
