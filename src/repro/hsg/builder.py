"""AST → Hierarchical Supergraph construction (paper section 4).

Each program unit gets a flow subgraph whose nodes are basic blocks,
IF-condition nodes (one condition per node), loop nodes (with the loop
body as an attached subgraph, back edge removed), and call nodes.

GOTO handling:

* forward GOTOs within the same subgraph become plain edges;
* a GOTO whose target lies outside the current loop body is a *premature
  exit*: the edge is routed to the body's exit node and the loop is
  flagged, which makes the dataflow layer approximate its loop-variant
  summaries conservatively (paper section 5.4);
* backward GOTOs create cycles that are condensed afterwards
  (:mod:`repro.hsg.condense`), in the routine's graph and in every loop
  body (a backward GOTO inside a DO body is how F77 writes a WHILE loop).

``RETURN``/``STOP`` route to the unit's exit; inside a loop body they are
treated as premature exits of every enclosing loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import HSGError
from ..fortran.ast_nodes import (
    Assign,
    CallStmt,
    Continue,
    Declaration,
    DimensionStmt,
    DoLoop,
    Goto,
    IfBlock,
    IoStmt,
    LogicalIf,
    MiscDecl,
    ParameterStmt,
    CommonStmt,
    Return,
    Stmt,
    Stop,
)
from ..fortran.callgraph import CallGraph, build_call_graph
from ..fortran.semantics import AnalyzedProgram
from .cfg import EdgeLabel, FlowGraph, walk
from .condense import condense_cycles
from .nodes import (
    BasicBlockNode,
    CallNode,
    HSGNode,
    IfConditionNode,
    LoopNode,
)

_SIMPLE = (Assign, IoStmt, Continue, MiscDecl, Declaration, DimensionStmt,
           ParameterStmt, CommonStmt)

Frontier = list[tuple[HSGNode, EdgeLabel]]


@dataclass
class HSG:
    """The hierarchical supergraph: one flow subgraph per routine, plus the
    call graph that links call nodes to callee subgraphs."""

    analyzed: AnalyzedProgram
    graphs: dict[str, FlowGraph]
    call_graph: CallGraph
    #: loops by routine, in source order (outermost first)
    loops: dict[str, list[LoopNode]] = field(default_factory=dict)
    #: the loops enclosing each loop in its routine, outermost first
    enclosing: dict[LoopNode, tuple[LoopNode, ...]] = field(default_factory=dict)

    def graph(self, unit_name: str) -> FlowGraph:
        """The flow subgraph of one routine."""
        return self.graphs[unit_name]

    def all_loops(self) -> list[tuple[str, LoopNode]]:
        """Every (routine, LoopNode) pair, outermost first."""
        out = []
        for unit in self.analyzed.program.units:
            for loop in self.loops.get(unit.name, ()):
                out.append((unit.name, loop))
        return out


def build_hsg(analyzed: AnalyzedProgram) -> HSG:
    """Build flow subgraphs for every unit and link the hierarchy."""
    call_graph = build_call_graph(analyzed)
    graphs: dict[str, FlowGraph] = {}
    loops: dict[str, list[LoopNode]] = {}
    enclosing: dict[LoopNode, tuple[LoopNode, ...]] = {}
    for unit in analyzed.program.units:
        graph = _Builder().build_unit(unit.body)
        graphs[unit.name] = graph
        loops[unit.name] = _collect_loops(graph)
        enclosing.update(
            (node, outer) for node, outer in walk(graph) if isinstance(node, LoopNode)
        )
    return HSG(analyzed, graphs, call_graph, loops, enclosing)


def _collect_loops(graph: FlowGraph) -> list[LoopNode]:
    out: list[LoopNode] = []

    def rec(g: FlowGraph) -> None:
        for node in g.topological():
            if isinstance(node, LoopNode):
                out.append(node)
                rec(node.body)

    rec(graph)
    return out


class _Builder:
    """Builds one flow subgraph from a statement list."""

    def __init__(self) -> None:
        self.graph = FlowGraph()
        self.labels: dict[int, HSGNode] = {}
        self.pending_gotos: list[tuple[HSGNode, EdgeLabel, int]] = []
        self.pending_returns: Frontier = []
        self.had_return = False
        self._current_bb: Optional[BasicBlockNode] = None
        self._frontier: Frontier = [(self.graph.entry, None)]

    # -- public entry points -----------------------------------------------------

    def build_unit(self, stmts: list[Stmt]) -> FlowGraph:
        self._emit_block(stmts)
        self._close(to_exit=True)
        self._resolve_gotos(escape_to_exit=False)
        self.graph.prune_unreachable()
        condense_cycles(self.graph)
        return self.graph

    def build_loop_body(self, stmts: list[Stmt]) -> tuple[FlowGraph, bool]:
        """Build a loop-body subgraph; returns (graph, premature_exit)."""
        self._emit_block(stmts)
        self._close(to_exit=True)
        premature = self._resolve_gotos(escape_to_exit=True)
        premature = premature or self.had_return
        # returns inside the body escape through the body exit
        for node, label in self.pending_returns:
            self.graph.add_edge(node, self.graph.exit, label)
        self.pending_returns.clear()
        self.graph.prune_unreachable()
        condense_cycles(self.graph)
        return self.graph, premature

    # -- plumbing ------------------------------------------------------------------

    def _attach(self, node: HSGNode) -> None:
        """Connect all dangling edges to *node* and make it the frontier."""
        self.graph.add_node(node)
        for src, label in self._frontier:
            self.graph.add_edge(src, node, label)
        self._frontier = [(node, None)]

    def _flush(self) -> None:
        self._current_bb = None

    def _bb(self) -> BasicBlockNode:
        if self._current_bb is None:
            bb = BasicBlockNode([])
            self._attach(bb)
            self._current_bb = bb
        return self._current_bb

    def _record_label(self, label: Optional[int], node: HSGNode) -> None:
        if label is None:
            return
        if label in self.labels:
            raise HSGError(f"duplicate statement label {label}")
        self.labels[label] = node

    def _close(self, to_exit: bool) -> None:
        if to_exit:
            for src, label in self._frontier:
                self.graph.add_edge(src, self.graph.exit, label)
        self._frontier = []
        self._current_bb = None
        for node, label in self.pending_returns:
            self.graph.add_edge(node, self.graph.exit, label)
        self.pending_returns.clear()

    def _resolve_gotos(self, escape_to_exit: bool) -> bool:
        """Wire pending GOTO edges; returns True if any escaped the graph."""
        escaped = False
        for src, label, target in self.pending_gotos:
            dest = self.labels.get(target)
            if dest is None:
                if not escape_to_exit:
                    raise HSGError(f"unresolved GOTO target {target}")
                escaped = True
                self.graph.add_edge(src, self.graph.exit, label)
            else:
                self.graph.add_edge(src, dest, label)
        self.pending_gotos.clear()
        return escaped

    # -- statement dispatch ----------------------------------------------------------

    def _emit_block(self, stmts: list[Stmt]) -> None:
        for stmt in stmts:
            self._emit(stmt)

    def _emit(self, stmt: Stmt) -> None:
        if isinstance(stmt, _SIMPLE):
            if stmt.label is not None:
                self._flush()
            bb = self._bb()
            bb.stmts.append(stmt)
            self._record_label(stmt.label, bb)
            if stmt.label is not None:
                # the *next* simple statement must start a new block only if
                # it is itself a label target; sharing the block is fine
                pass
            return
        if isinstance(stmt, Goto):
            anchor: HSGNode
            if stmt.label is not None:
                # a labeled GOTO must be its own jump target block
                self._flush()
            if self._current_bb is not None:
                anchor = self._current_bb
            else:
                anchor = BasicBlockNode([])
                self._attach(anchor)
            self._record_label(stmt.label, anchor)
            self.pending_gotos.append((anchor, None, stmt.target))
            self._frontier = []
            self._flush()
            return
        if isinstance(stmt, (Return, Stop)):
            anchor = self._bb()
            self._record_label(stmt.label, anchor)
            self.pending_returns.extend(self._frontier)
            self.had_return = True
            self._frontier = []
            self._flush()
            return
        if isinstance(stmt, LogicalIf):
            self._flush()
            cond = IfConditionNode(stmt.cond, lineno=stmt.lineno)
            self._attach(cond)
            self._record_label(stmt.label, cond)
            inner = stmt.stmt
            if isinstance(inner, Goto):
                self.pending_gotos.append((cond, True, inner.target))
                self._frontier = [(cond, False)]
            elif isinstance(inner, (Return, Stop)):
                self.pending_returns.append((cond, True))
                self.had_return = True
                self._frontier = [(cond, False)]
            else:
                self._frontier = [(cond, True)]
                self._flush()
                self._emit(inner)
                taken = self._frontier
                self._frontier = taken + [(cond, False)]
            self._flush()
            return
        if isinstance(stmt, IfBlock):
            self._flush()
            joined: Frontier = []
            false_edge: Frontier = self._frontier
            for arm_cond, arm_body in stmt.arms:
                cond = IfConditionNode(arm_cond, lineno=stmt.lineno)
                self.graph.add_node(cond)
                for src, label in false_edge:
                    self.graph.add_edge(src, cond, label)
                if stmt.arms[0][0] is arm_cond:
                    self._record_label(stmt.label, cond)
                self._frontier = [(cond, True)]
                self._flush()
                self._emit_block(arm_body)
                joined.extend(self._frontier)
                false_edge = [(cond, False)]
            if stmt.orelse:
                self._frontier = false_edge
                self._flush()
                self._emit_block(stmt.orelse)
                joined.extend(self._frontier)
            else:
                joined.extend(false_edge)
            self._frontier = joined
            self._flush()
            return
        if isinstance(stmt, DoLoop):
            self._flush()
            body_builder = _Builder()
            body_graph, premature = body_builder.build_loop_body(stmt.body)
            self.had_return = self.had_return or body_builder.had_return
            loop = LoopNode(
                var=stmt.var,
                start=stmt.start,
                stop=stmt.stop,
                step=stmt.step,
                body=body_graph,
                lineno=stmt.lineno,
                source_label=stmt.label if stmt.label is not None else stmt.end_label,
                has_premature_exit=premature or body_builder.had_return,
            )
            self._attach(loop)
            self._record_label(stmt.label, loop)
            self._flush()
            return
        if isinstance(stmt, CallStmt):
            self._flush()
            node = CallNode(stmt)
            self._attach(node)
            self._record_label(stmt.label, node)
            self._flush()
            return
        raise HSGError(f"cannot build flow graph for {type(stmt).__name__}")
