"""Recurrence/scan recognition (the GRASSP-style frontier recognizer).

Layered on :mod:`.reductions`: where a reduction folds a loop's values
into one cell, a *scan* keeps every intermediate — the classic prefix
computation ``X(i) = X(i-d) ⊕ e(i)`` and its relatives.  Such loops
carry a true flow dependence (the GAR tests rightly refuse them), yet
they parallelize by decomposition: partition the iteration space,
compute local partials per chunk, combine chunk summaries in
logarithmic passes, then finalize each chunk with its incoming prefix.

Recognized shapes:

* ``prefix_scan`` — ``X(v) = X(v-d) ⊕ e`` with ``⊕ ∈ {+, *, min, max}``
  (``-`` folds into ``+``), constant distance ``d ≥ 1``, ``X`` touched
  nowhere else in the body, ``e`` loop-invariant apart from ``v``;
* ``affine_scan`` — ``X(v) = a*X(v-d) + e`` with constant ``a``: the
  linear first-order recurrence, parallelized by composing affine maps
  ``x ↦ a·x + b`` (function composition is associative);
* ``segmented_scan`` — one IF/ELSE whose arms are a ``prefix_scan``
  update and a restart ``X(v) = e₂``, guard free of ``X``: a scan that
  resets at segment boundaries, still two-pass parallelizable with a
  (value, restart-seen) combine;
* ``running_scalar`` — ``s = s ⊕ e`` where ``s`` is *also read
  elsewhere* in the body (what disqualifies it as a plain reduction):
  the per-iteration prefix values are reconstructed by an exclusive
  scan over the ``e`` stream.

Every guard against interleaving matters for soundness of the two-pass
schedule: the increment stream must be computable *before* the prefix
pass, so no name feeding ``e`` (or a guard) may be written in the body.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..fortran.ast_nodes import (
    Apply,
    Assign,
    BinOp,
    Continue,
    Expr,
    IntLit,
    NameRef,
    UnOp,
)
from ..hsg.cfg import FlowGraph
from ..hsg.nodes import (
    BasicBlockNode,
    CallNode,
    CondensedNode,
    IfConditionNode,
    LoopNode,
)
from .reductions import _REDUCTION_INTRINSICS, _reduction_shape

#: shapes the recognizer emits
PREFIX_SCAN = "prefix_scan"
AFFINE_SCAN = "affine_scan"
SEGMENTED_SCAN = "segmented_scan"
RUNNING_SCALAR = "running_scalar"


@dataclass(frozen=True)
class RecurrenceMatch:
    """One recognized scan/recurrence, with its decomposition recipe."""

    name: str
    shape: str  # PREFIX_SCAN | AFFINE_SCAN | SEGMENTED_SCAN | RUNNING_SCALAR
    operator: str  # '+', '*', 'min', 'max', 'affine'
    distance: int = 1
    is_array: bool = True
    #: the recurrence is guarded (segmented or conditional update)
    guarded: bool = False
    #: multiplier of the affine form (None for pure ⊕ scans)
    coefficient: Optional[str] = None
    lineno: int = 0
    detail: str = ""

    def to_payload(self) -> dict[str, Any]:
        """Machine-checkable evidence record (docs/frontier.md)."""
        out: dict[str, Any] = {
            "kind": "recurrence",
            "variable": self.name,
            "shape": self.shape,
            "operator": self.operator,
            "distance": self.distance,
            "array": self.is_array,
            "guarded": self.guarded,
            "lineno": self.lineno,
        }
        if self.coefficient is not None:
            out["coefficient"] = self.coefficient
        if self.detail:
            out["detail"] = self.detail
        return out

    def matches_payload(self, payload: dict[str, Any]) -> bool:
        """True when this match re-derives *payload* (evidence replay).

        ``detail`` and ``lineno`` are presentation fields and carry no
        claim, so they are excluded from the comparison.
        """
        mine = self.to_payload()
        return all(
            mine.get(key) == value
            for key, value in payload.items()
            if key not in ("detail", "lineno")
        )


# --------------------------------------------------------------------------- #
# body shape helpers
# --------------------------------------------------------------------------- #


def _count(expr: Expr, name: str) -> int:
    return sum(
        1
        for node in expr.walk()
        if isinstance(node, (NameRef, Apply)) and node.name == name
    )


def _flat_nodes(body: FlowGraph) -> Optional[list]:
    """Body nodes when the body is scan-analyzable (no nests/calls/cycles)."""
    for node in body.nodes:
        if isinstance(node, (LoopNode, CallNode, CondensedNode)):
            return None
    return [
        n
        for n in body.nodes
        if isinstance(n, (BasicBlockNode, IfConditionNode))
    ]


def _stream_ready(exprs: list[Expr], written: set[str], loop_var: str) -> bool:
    """Can these expressions be evaluated before the prefix pass?

    True when no name they read is written in the loop body (the loop
    index itself is fine: chunk workers know their iteration numbers).
    """
    for e in exprs:
        for node in e.walk():
            if isinstance(node, (NameRef, Apply)):
                if node.name != loop_var and node.name in written:
                    return False
    return True


def _linear_form(expr: Expr) -> Optional[tuple[dict[str, int], int]]:
    """``(coefficients by name, constant)`` of an integer-linear expr."""
    if isinstance(expr, IntLit):
        return {}, expr.value
    if isinstance(expr, NameRef):
        return {expr.name: 1}, 0
    if isinstance(expr, UnOp) and expr.op == "-":
        inner = _linear_form(expr.operand)
        if inner is None:
            return None
        coeffs, const = inner
        return {k: -v for k, v in coeffs.items()}, -const
    if isinstance(expr, BinOp) and expr.op in ("+", "-"):
        left = _linear_form(expr.left)
        right = _linear_form(expr.right)
        if left is None or right is None:
            return None
        sign = -1 if expr.op == "-" else 1
        coeffs = dict(left[0])
        for k, v in right[0].items():
            coeffs[k] = coeffs.get(k, 0) + sign * v
        return coeffs, left[1] + sign * right[1]
    if isinstance(expr, BinOp) and expr.op == "*":
        left = _linear_form(expr.left)
        right = _linear_form(expr.right)
        if left is None or right is None:
            return None
        for (ca, ka), (cb, kb) in ((left, right), (right, left)):
            if not ca:  # pure constant times linear
                return {k: ka * v for k, v in cb.items()}, ka * kb
        return None
    return None


def _prev_read(
    expr: Expr, name: str, loop_var: str, target_args: list[Expr]
) -> Optional[int]:
    """Distance ``d`` if *expr* is exactly ``name(v - d)`` with ``d ≥ 1``."""
    if not (isinstance(expr, Apply) and expr.name == name):
        return None
    if len(expr.args) != 1 or len(target_args) != 1:
        return None
    sub = _linear_form(expr.args[0])
    tgt = _linear_form(target_args[0])
    if sub is None or tgt is None:
        return None
    coeffs = dict(tgt[0])
    for k, v in sub[0].items():
        coeffs[k] = coeffs.get(k, 0) - v
    if any(v != 0 for v in coeffs.values()):
        return None
    delta = tgt[1] - sub[1]
    if delta <= 0:
        return None
    return delta


def _scan_update_shape(
    stmt: Assign, loop_var: str
) -> Optional[tuple[str, int, Optional[str], list[Expr]]]:
    """Decompose ``X(v) = X(v-d) ⊕ e`` / ``a*X(v-d) + e``.

    Returns ``(operator, distance, coefficient, increment_exprs)``.
    """
    target = stmt.target
    if not isinstance(target, Apply):
        return None
    name = target.name
    value = stmt.value

    # min/max intrinsics: one argument is the previous cell
    if (
        isinstance(value, Apply)
        and value.is_array is False
        and value.name in _REDUCTION_INTRINSICS
    ):
        prevs = [
            (k, _prev_read(arg, name, loop_var, target.args))
            for k, arg in enumerate(value.args)
        ]
        hits = [(k, d) for k, d in prevs if d is not None]
        others = [arg for k, arg in enumerate(value.args) if (k, None) in prevs]
        if len(hits) == 1 and all(_count(o, name) == 0 for o in others):
            op = "min" if "min" in value.name else "max"
            return op, hits[0][1], None, others
        return None

    if not isinstance(value, BinOp):
        return None

    if value.op in ("+", "-"):
        # flatten the sum; exactly one term must be the previous cell
        # (optionally scaled by a constant — the affine recurrence)
        terms: list[tuple[Expr, int]] = []

        def flatten(e: Expr, sign: int) -> None:
            if isinstance(e, BinOp) and e.op in ("+", "-"):
                flatten(e.left, sign)
                flatten(e.right, -sign if e.op == "-" else sign)
            else:
                terms.append((e, sign))

        flatten(value, 1)
        prev_terms = []
        inc_terms = []
        for term, sign in terms:
            d = _prev_read(term, name, loop_var, target.args)
            if d is not None:
                prev_terms.append((term, sign, d, None))
                continue
            if (
                isinstance(term, BinOp)
                and term.op == "*"
                and _count(term, name) == 1
            ):
                for coef, prev in (
                    (term.left, term.right),
                    (term.right, term.left),
                ):
                    d = _prev_read(prev, name, loop_var, target.args)
                    if d is not None and _count(coef, name) == 0:
                        prev_terms.append((term, sign, d, coef))
                        break
                else:
                    return None
                continue
            if _count(term, name):
                return None
            inc_terms.append(term)
        if len(prev_terms) != 1:
            return None
        _term, sign, distance, coef = prev_terms[0]
        if coef is None and sign == 1:
            return "+", distance, None, inc_terms
        # a*X(v-d) + e — the general linear first-order form
        coef_text = str(coef) if coef is not None else "1"
        if sign == -1:
            coef_text = f"-({coef_text})"
        return "affine", distance, coef_text, inc_terms

    if value.op == "*":
        factors: list[Expr] = []

        def flat_mul(e: Expr) -> None:
            if isinstance(e, BinOp) and e.op == "*":
                flat_mul(e.left)
                flat_mul(e.right)
            else:
                factors.append(e)

        flat_mul(value)
        hits = [
            (f, _prev_read(f, name, loop_var, target.args)) for f in factors
        ]
        prevs = [(f, d) for f, d in hits if d is not None]
        others = [f for f, d in hits if d is None]
        if len(prevs) == 1 and all(_count(o, name) == 0 for o in others):
            return "*", prevs[0][1], None, others
        return None
    return None


# --------------------------------------------------------------------------- #
# the recognizer
# --------------------------------------------------------------------------- #


def find_recurrences(loop: LoopNode) -> list[RecurrenceMatch]:
    """Scan/recurrence matches over one loop body."""
    flat = _flat_nodes(loop.body)
    if flat is None:
        return []
    blocks = [n for n in flat if isinstance(n, BasicBlockNode)]
    conds = [n for n in flat if isinstance(n, IfConditionNode)]
    assigns: list[Assign] = [
        stmt
        for block in blocks
        for stmt in block.stmts
        if isinstance(stmt, Assign)
    ]
    # a flat body writes only through its assignments
    written = {stmt.target.name for stmt in assigns}  # type: ignore[union-attr]
    if any(
        not isinstance(stmt, (Assign, Continue))
        for block in blocks
        for stmt in block.stmts
    ):
        return []

    out: list[RecurrenceMatch] = []
    out.extend(_array_scans(loop, assigns, conds, written))
    out.extend(_scalar_scans(loop, assigns, conds, written))
    return sorted(out, key=lambda m: m.name)


def _array_scans(
    loop: LoopNode,
    assigns: list[Assign],
    conds: list[IfConditionNode],
    written: set[str],
) -> list[RecurrenceMatch]:
    by_name: dict[str, list[Assign]] = {}
    for stmt in assigns:
        if isinstance(stmt.target, Apply):
            by_name.setdefault(stmt.target.name, []).append(stmt)

    out: list[RecurrenceMatch] = []
    for name, stmts in by_name.items():
        # the array may appear nowhere outside its own update statements
        other_reads = sum(
            _count(s.target, name) + _count(s.value, name)
            for s in assigns
            if s not in stmts
        )
        cond_reads = sum(_count(c.cond, name) for c in conds)
        if other_reads or cond_reads:
            continue

        if len(stmts) == 1 and not conds:
            # unguarded single update: plain or affine scan.  Guarded
            # single updates are NOT scans: an iteration that skips the
            # write leaves a stale cell the chain then reads.
            stmt = stmts[0]
            shape = _scan_update_shape(stmt, loop.var)
            if shape is None:
                continue
            op, distance, coef, incs = shape
            if not _stream_ready(incs, written, loop.var):
                continue
            out.append(
                RecurrenceMatch(
                    name=name,
                    shape=AFFINE_SCAN if op == "affine" else PREFIX_SCAN,
                    operator="+" if op == "affine" else op,
                    distance=distance,
                    is_array=True,
                    coefficient=coef,
                    lineno=stmt.lineno,
                    detail=str(stmt),
                )
            )
            continue

        if len(stmts) == 2 and len(conds) == 1:
            # segmented scan: IF (g) restart ELSE update (either order),
            # every iteration writing exactly one of the two
            cond = conds[0]
            if _count(cond.cond, name):
                continue
            if not _segment_arms(loop, cond, stmts):
                continue
            shapes = [_scan_update_shape(s, loop.var) for s in stmts]
            updates = [
                (s, sh) for s, sh in zip(stmts, shapes) if sh is not None
            ]
            restarts = [s for s, sh in zip(stmts, shapes) if sh is None]
            if len(updates) != 1 or len(restarts) != 1:
                continue
            restart = restarts[0]
            if _count(restart.value, name):
                continue
            if str(restart.target) != str(updates[0][0].target):
                continue
            op, distance, coef, incs = updates[0][1]
            if op == "affine" or distance != 1:
                continue
            streams = incs + [restart.value, cond.cond]
            if not _stream_ready(streams, written, loop.var):
                continue
            out.append(
                RecurrenceMatch(
                    name=name,
                    shape=SEGMENTED_SCAN,
                    operator=op,
                    distance=1,
                    is_array=True,
                    guarded=True,
                    lineno=updates[0][0].lineno,
                    detail=f"IF ({cond.cond}) segment restart; {updates[0][0]}",
                )
            )
    return out


def _segment_arms(
    loop: LoopNode, cond: IfConditionNode, stmts: list[Assign]
) -> bool:
    """Are *stmts* exactly the two single-assign arms of *cond*?"""
    arms: list[Assign] = []
    for succ, label in loop.body.succs(cond):
        if label not in (True, False):
            return False
        if not isinstance(succ, BasicBlockNode):
            return False
        if len(succ.stmts) != 1 or not isinstance(succ.stmts[0], Assign):
            return False
        arms.append(succ.stmts[0])
    return len(arms) == 2 and all(s in arms for s in stmts)


def _scalar_scans(
    loop: LoopNode,
    assigns: list[Assign],
    conds: list[IfConditionNode],
    written: set[str],
) -> list[RecurrenceMatch]:
    by_name: dict[str, list[Assign]] = {}
    for stmt in assigns:
        if isinstance(stmt.target, NameRef):
            by_name.setdefault(stmt.target.name, []).append(stmt)

    out: list[RecurrenceMatch] = []
    for name, stmts in by_name.items():
        ops = {_reduction_shape(s) for s in stmts}
        if None in ops or len(ops) != 1:
            continue
        (op,) = ops
        if op not in ("+", "*", "min", "max"):
            continue
        # a *reduction* forbids other reads of the accumulator; a scan
        # requires at least one — otherwise the cheaper rewrite applies
        other_reads = sum(
            _count(s.value, name) + _count(s.target, name)
            for s in assigns
            if s not in stmts
        )
        if other_reads == 0:
            continue
        if any(_count(c.cond, name) for c in conds):
            continue
        if any(_count(s.value, name) != 1 for s in stmts):
            continue
        if conds:
            # the updates must be unconditional: a guarded update still
            # scans (identity increment) but pairing updates with guard
            # paths needs dominator info this recognizer does not build
            continue
        streams = [s.value for s in stmts]
        if not _stream_ready_minus_self(streams, written, loop.var, name):
            continue
        out.append(
            RecurrenceMatch(
                name=name,
                shape=RUNNING_SCALAR,
                operator=op,
                distance=1,
                is_array=False,
                lineno=stmts[0].lineno,
                detail=str(stmts[0]),
            )
        )
    return out


def _stream_ready_minus_self(
    exprs: list[Expr], written: set[str], loop_var: str, accumulator: str
) -> bool:
    """Stream readiness where the accumulator's own read is expected."""
    return _stream_ready(exprs, written - {accumulator}, loop_var)
