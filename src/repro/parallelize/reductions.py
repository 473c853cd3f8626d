"""Reduction recognition.

A scalar ``s`` is a reduction in a loop when every statement touching it
has the shape ``s = s ⊕ expr`` (⊕ in ``+ - * min max``) with ``s``
appearing nowhere else in the loop (not in conditions, subscripts, other
right-hand sides, or call arguments).  Such loops parallelize with a
per-processor partial result combined afterwards — the standard treatment
the Polaris/Panorama generation of compilers applied.

Array reductions ``A(e) = A(e) ⊕ expr`` (same subscript on both sides) are
recognized the same way.

Guarded conditional assignments ``IF (e .GT. t) t = e`` are the
comparison-written form of ``t = max(t, e)`` (and ``.LT.`` of ``min``):
the guard is the only place the accumulator is read, so the usual
"accumulator appears nowhere else" rule gets a per-statement exemption
when the guard and the assignment pair up exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fortran.ast_nodes import Apply, Assign, BinOp, Expr, IoStmt, NameRef
from ..hsg.cfg import FlowGraph, walk
from ..hsg.nodes import BasicBlockNode, CallNode, IfConditionNode, LoopNode

_REDUCTION_INTRINSICS = {"min", "max", "amin1", "amax1", "min0", "max0",
                         "dmin1", "dmax1"}


@dataclass(frozen=True)
class Reduction:
    name: str
    operator: str  # '+', '-', '*', 'min', 'max'
    is_array: bool


def _same_expr(a: Expr, b: Expr) -> bool:
    return str(a) == str(b)


def _reduction_shape(stmt: Assign) -> str | None:
    """The reduction operator if ``stmt`` is ``t = t ⊕ e``, else ``None``."""
    target = stmt.target
    value = stmt.value

    def is_target(e: Expr) -> bool:
        if isinstance(target, NameRef):
            return isinstance(e, NameRef) and e.name == target.name
        if isinstance(target, Apply):
            return (
                isinstance(e, Apply)
                and e.name == target.name
                and len(e.args) == len(target.args)
                and all(_same_expr(x, y) for x, y in zip(e.args, target.args))
            )
        return False

    def flatten(e: Expr, op: str, sign: int) -> list[tuple[Expr, int]]:
        """Signed terms of an associative ``op`` chain ('-' folds into '+')."""
        if isinstance(e, BinOp) and (
            e.op == op or (op == "+" and e.op == "-")
        ):
            right_sign = -sign if e.op == "-" else sign
            return flatten(e.left, op, sign) + flatten(e.right, op, right_sign)
        return [(e, sign)]

    if isinstance(value, BinOp) and value.op in ("+", "-", "*"):
        op = "+" if value.op in ("+", "-") else "*"
        terms = flatten(value, op, 1)
        hits = [(t, s) for t, s in terms if is_target(t)]
        if len(hits) == 1 and hits[0][1] == 1:
            # accumulator appears exactly once, positively
            return op
    if (
        isinstance(value, Apply)
        and value.is_array is False
        and value.name in _REDUCTION_INTRINSICS
        and any(is_target(arg) for arg in value.args)
    ):
        return "min" if "min" in value.name else "max"
    return None


def _count_occurrences(expr: Expr, name: str) -> int:
    count = 0
    for node in expr.walk():
        if isinstance(node, (NameRef, Apply)) and node.name == name:
            count += 1
    return count


#: relation → operator when the guard reads ``e REL t`` (assigning t = e);
#: flipped when the target is on the left
_GUARD_OPS = {".gt.": "max", ".ge.": "max", ".lt.": "min", ".le.": "min"}
_FLIP = {"max": "min", "min": "max"}


def _guarded_minmax(
    graph: FlowGraph, cond: IfConditionNode
) -> tuple[str, Assign, str] | None:
    """Match ``IF (e REL t) t = e`` → ``(name, assign, 'min'|'max')``.

    The True arm must be a single-assignment basic block whose target is
    one side of the relation and whose value is the other side — exactly
    the conditional-replacement idiom of min/max searches.
    """
    guard = cond.cond
    if not isinstance(guard, BinOp) or guard.op not in _GUARD_OPS:
        return None
    arm = None
    for succ, label in graph.succs(cond):
        if label is True:
            if not isinstance(succ, BasicBlockNode):
                return None
            stmts = [s for s in succ.stmts if isinstance(s, Assign)]
            if len(stmts) != 1 or len(succ.stmts) != 1:
                return None
            arm = stmts[0]
    if arm is None:
        return None
    target = arm.target
    if isinstance(target, NameRef):
        name = target.name
    elif isinstance(target, Apply):
        name = target.name
    else:
        return None
    if _count_occurrences(arm.value, name):
        return None
    for t_side, e_side, flip in (
        (guard.right, guard.left, False),
        (guard.left, guard.right, True),
    ):
        if _same_expr(t_side, target) and _same_expr(e_side, arm.value):
            op = _GUARD_OPS[guard.op]
            return name, arm, _FLIP[op] if flip else op
    return None


def find_reductions(body: FlowGraph) -> list[Reduction]:
    """Reductions over the statements of a loop body subgraph.

    A condensed backward-GOTO cycle's members are read like any other
    node: an update that runs an unknown number of times still reduces,
    and every other mention of a name in the cycle disqualifies it.  So
    does an I/O item: a PRINT would show a partial sum, and a READ
    replaces the accumulator.
    """
    assigns: list[Assign] = []
    other_exprs: list[Expr] = []
    cond_sites: list[tuple[FlowGraph, IfConditionNode]] = []
    for node, enclosing in walk(body, members=True):
        if isinstance(node, BasicBlockNode):
            for stmt in node.stmts:
                if isinstance(stmt, Assign):
                    assigns.append(stmt)
                elif isinstance(stmt, IoStmt):
                    other_exprs.extend(stmt.items)
        elif isinstance(node, IfConditionNode):
            other_exprs.append(node.cond)
            # a cycle member is in no graph: its guard pairs with no arm
            cond_sites.append((enclosing[-1].body if enclosing else body, node))
        elif isinstance(node, LoopNode):
            other_exprs.append(node.start)
            other_exprs.append(node.stop)
            if node.step is not None:
                other_exprs.append(node.step)
        elif isinstance(node, CallNode):
            other_exprs.extend(node.call.args)

    # guarded min/max pairs: guard + arm are exempt from the
    # "appears nowhere else" rule for their own accumulator
    minmax: dict[str, list[tuple[Expr, Assign, str]]] = {}
    for graph, cond in cond_sites:
        matched = _guarded_minmax(graph, cond)
        if matched is not None:
            name, arm, op = matched
            minmax.setdefault(name, []).append((cond.cond, arm, op))

    # group candidate statements by target name
    by_name: dict[str, list[Assign]] = {}
    for stmt in assigns:
        name = stmt.target.name  # type: ignore[union-attr]
        by_name.setdefault(name, []).append(stmt)

    out: list[Reduction] = []
    for name, stmts in sorted(by_name.items()):
        pairs = minmax.get(name, [])
        guarded_arms = [arm for _g, arm, _op in pairs]
        guard_exprs = [g for g, _arm, _op in pairs]
        plain = [s for s in stmts if s not in guarded_arms]
        ops = {_reduction_shape(s) for s in plain}
        ops |= {op for _g, _arm, op in pairs}
        if None in ops or len(ops) != 1:
            continue
        (op,) = ops
        # the name must not appear anywhere outside its reduction
        # statements (matched guards excepted: they ARE the ⊕ read)
        if any(
            _count_occurrences(e, name)
            for e in other_exprs
            if not any(e is g for g in guard_exprs)
        ):
            continue
        if any(
            _count_occurrences(other.value, name)
            or _count_occurrences(other.target, name)
            for other in assigns
            if other not in stmts
        ):
            continue
        # each plain reduction statement reads the target exactly once
        # on the rhs; guarded arms read it exactly once — in the guard
        if any(_count_occurrences(s.value, name) != 1 for s in plain):
            continue
        if any(_count_occurrences(g, name) != 1 for g in guard_exprs):
            continue
        is_array = isinstance(stmts[0].target, Apply)
        out.append(Reduction(name, op, is_array))  # type: ignore[arg-type]
    return out
