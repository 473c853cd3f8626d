"""Hierarchical Supergraph (HSG): interprocedural hierarchical flow graphs.

An enhancement of Myers' supergraph (paper section 4): per-routine flow
subgraphs with basic blocks, IF-condition nodes, compound loop nodes
(bodies as attached subgraphs, back edges removed), and call nodes linked
to callee subgraphs.  Backward-GOTO cycles are condensed so every subgraph
is a DAG.
"""

from .builder import HSG, build_hsg
from .cfg import EdgeLabel, FlowGraph, walk, walk_cycle
from .condense import condense_cycles
from .nodes import (
    BasicBlockNode,
    CallNode,
    CondensedNode,
    EntryNode,
    ExitNode,
    HSGNode,
    IfConditionNode,
    LoopNode,
)

__all__ = [
    "BasicBlockNode",
    "CallNode",
    "CondensedNode",
    "EdgeLabel",
    "EntryNode",
    "ExitNode",
    "FlowGraph",
    "HSG",
    "HSGNode",
    "IfConditionNode",
    "LoopNode",
    "build_hsg",
    "condense_cycles",
    "walk",
    "walk_cycle",
]
