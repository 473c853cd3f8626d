"""Flow subgraphs: directed graphs of HSG nodes with labeled edges.

Edges carry an optional branch label: ``True``/``False`` for the two
successors of an :class:`~repro.hsg.nodes.IfConditionNode`, ``None``
otherwise.  After construction and condensation every flow subgraph is a
DAG with a unique entry and a unique exit, which is what the backward
summary propagation of section 4.1 requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import HSGError
from .nodes import EntryNode, ExitNode, HSGNode, LoopNode

EdgeLabel = Optional[bool]


@dataclass
class FlowGraph:
    """A flow subgraph with unique entry/exit."""

    entry: HSGNode = field(default_factory=EntryNode)
    exit: HSGNode = field(default_factory=ExitNode)
    _succs: dict[HSGNode, list[tuple[HSGNode, EdgeLabel]]] = field(
        default_factory=dict
    )
    _preds: dict[HSGNode, list[tuple[HSGNode, EdgeLabel]]] = field(
        default_factory=dict
    )
    nodes: list[HSGNode] = field(default_factory=list)

    def __post_init__(self) -> None:
        for node in (self.entry, self.exit):
            if node not in self._succs:
                self._register(node)

    def _register(self, node: HSGNode) -> None:
        if node not in self._succs:
            self._succs[node] = []
            self._preds[node] = []
            self.nodes.append(node)

    def add_node(self, node: HSGNode) -> HSGNode:
        """Register a node (idempotent); returns it."""
        self._register(node)
        return node

    def add_edge(self, src: HSGNode, dst: HSGNode, label: EdgeLabel = None) -> None:
        """Add a labeled edge, registering endpoints as needed."""
        self._register(src)
        self._register(dst)
        if (dst, label) not in self._succs[src]:
            self._succs[src].append((dst, label))
            self._preds[dst].append((src, label))

    def succs(self, node: HSGNode) -> list[tuple[HSGNode, EdgeLabel]]:
        """The (successor, label) pairs of a node."""
        return list(self._succs.get(node, ()))

    def preds(self, node: HSGNode) -> list[tuple[HSGNode, EdgeLabel]]:
        """The (predecessor, label) pairs of a node."""
        return list(self._preds.get(node, ()))

    def remove_edges_of(self, node: HSGNode) -> None:
        """Disconnect a node from all neighbours."""
        for dst, label in self._succs.get(node, ()):
            self._preds[dst] = [
                (s, l) for s, l in self._preds[dst] if s is not node
            ]
        self._succs[node] = []
        for src, label in list(self._preds.get(node, ())):
            self._succs[src] = [
                (d, l) for d, l in self._succs[src] if d is not node
            ]
        self._preds[node] = []

    def remove_node(self, node: HSGNode) -> None:
        """Remove a node and its edges."""
        self.remove_edges_of(node)
        self.nodes = [n for n in self.nodes if n is not node]
        self._succs.pop(node, None)
        self._preds.pop(node, None)

    # -- orders -----------------------------------------------------------------

    def topological(self) -> list[HSGNode]:
        """Entry-to-exit topological order; raises on cycles."""
        indeg = {n: len(self._preds[n]) for n in self.nodes}
        ready = [n for n in self.nodes if indeg[n] == 0]
        order: list[HSGNode] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for succ, _ in self._succs[node]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.nodes):
            raise HSGError("flow subgraph contains a cycle")
        return order

    def reverse_topological(self) -> list[HSGNode]:
        """Exit-to-entry order (for backward passes)."""
        return list(reversed(self.topological()))

    def is_dag(self) -> bool:
        """Is the graph acyclic?"""
        try:
            self.topological()
            return True
        except HSGError:
            return False

    def reachable(self) -> set[HSGNode]:
        """Nodes reachable from the entry."""
        seen = {self.entry}
        stack = [self.entry]
        while stack:
            node = stack.pop()
            for succ, _ in self._succs.get(node, ()):
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen

    def prune_unreachable(self) -> None:
        """Drop nodes unreachable from the entry (keep exit)."""
        reachable = self.reachable()
        reachable.add(self.exit)
        for node in [n for n in self.nodes if n not in reachable]:
            self.remove_node(node)

    def __len__(self) -> int:
        return len(self.nodes)

    def dump(self, indent: str = "") -> str:
        """Human-readable listing (diagnostics and doc examples)."""
        lines = []
        for node in self.topological():
            succs = ", ".join(
                f"{d.node_id}" + (f"[{l}]" if l is not None else "")
                for d, l in self._succs[node]
            )
            lines.append(f"{indent}{node.describe()} -> {succs or '-'}")
            if isinstance(node, LoopNode):
                lines.append(node.body.dump(indent + "    "))
        return "\n".join(lines)
