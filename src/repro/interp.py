"""A concrete interpreter for the Fortran subset.

Executes programs over the HSG flow graphs (control flow — GOTOs,
RETURNs, IF arms — is already resolved there), with Fortran
call-by-reference semantics: arrays and scalars are storage cells shared
between caller and callee.

Primary purpose: **empirical validation of the analysis**.  The
interpreter reports every array/scalar read and write through observer
hooks, so the test suite can compare actual per-iteration access sets
against the symbolic ``MOD_i``/``UE_i`` summaries and check privatization
verdicts against real cross-iteration value flow
(see ``tests/integration/test_soundness.py``).

Unsupported (raises :class:`InterpreterError`): condensed GOTO cycles,
loops with premature exits, READ statements, character data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import ReproError
from .fortran.ast_nodes import (
    Apply,
    Assign,
    BinOp,
    Continue,
    Declaration,
    DimensionStmt,
    Expr,
    IntLit,
    IoStmt,
    LogicalLit,
    MiscDecl,
    NameRef,
    ParameterStmt,
    CommonStmt,
    RealLit,
    StringLit,
    UnOp,
)
from .fortran.parser import parse_program
from .fortran.semantics import AnalyzedProgram, SymbolTable, analyze
from .hsg import (
    BasicBlockNode,
    CallNode,
    CondensedNode,
    ExitNode,
    IfConditionNode,
    LoopNode,
    build_hsg,
)


class InterpreterError(ReproError):
    """Program uses a feature the interpreter does not support."""


@dataclass
class ScalarCell:
    """A mutable scalar storage cell (call-by-reference)."""

    name: str
    value: object = 0

    def get(self):
        """Current value."""
        return self.value

    def set(self, value) -> None:
        """Store a value."""
        self.value = value


@dataclass
class ArrayStorage:
    """Array storage keyed by raw index tuples (bounds are not checked —
    the analysis itself is the subject under test, not the program)."""

    name: str
    rank: int
    cells: dict[tuple[int, ...], object] = field(default_factory=dict)

    def get(self, idx: tuple[int, ...]):
        """Current value."""
        return self.cells.get(idx, 0.0)

    def set(self, idx: tuple[int, ...], value) -> None:
        """Store a value."""
        self.cells[idx] = value


@dataclass
class AccessEvent:
    """One dynamic access, as reported to observers."""

    kind: str  # 'read' | 'write'
    name: str  # the name at the access site (callee-local for formals)
    index: tuple[int, ...]  # () for scalars
    is_array: bool
    #: the storage object — identity maps accesses back to *caller*
    #: variables across call-by-reference boundaries
    storage: object = None


Observer = Callable[[AccessEvent], None]


def _idiv(a: int, b: int) -> int:
    """Integer division truncating toward zero (Fortran ``/``)."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _mod(a, p):
    """Fortran ``MOD``: the remainder takes the sign of *a*."""
    if isinstance(a, int) and isinstance(p, int):
        return a - _idiv(a, p) * p
    return math.fmod(a, p)


def _nint(x) -> int:
    """Fortran ``NINT``: nearest integer, halves away from zero."""
    whole = int(x)
    if abs(x - whole) >= 0.5:
        return whole + (1 if x > 0 else -1)
    return whole


def _as_type(table: SymbolTable, name: str, value):
    """*value* converted to the type of scalar *name*, as a Fortran
    assignment converts it (INTEGER truncates toward zero)."""
    kind = table.type_of(name)
    if kind == "integer":
        return int(value)
    if kind in ("real", "doubleprecision"):
        return float(value)
    return value


_INTRINSICS: dict[str, Callable] = {
    "abs": abs, "iabs": abs, "dabs": abs,
    "max": max, "max0": max, "amax1": max, "dmax1": max,
    "min": min, "min0": min, "amin1": min, "dmin1": min,
    "mod": _mod, "amod": math.fmod, "dmod": math.fmod,
    "sqrt": math.sqrt, "dsqrt": math.sqrt,
    "exp": math.exp, "dexp": math.exp,
    "log": math.log, "alog": math.log, "dlog": math.log,
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "dsin": math.sin, "dcos": math.cos,
    "atan": math.atan, "atan2": math.atan2, "datan": math.atan,
    "int": int, "ifix": int, "idint": int,
    "float": float, "real": float, "dble": float, "sngl": float,
    "nint": _nint, "idnint": _nint,
    "sign": lambda a, b: abs(a) if b >= 0 else -abs(a),
    "isign": lambda a, b: abs(a) if b >= 0 else -abs(a),
}


class Frame:
    """One routine activation: name → storage object."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        self.storage: dict[str, object] = {}

    def cell(self, name: str) -> ScalarCell:
        """The scalar cell for *name*, created on first use."""
        obj = self.storage.get(name)
        if obj is None:
            obj = ScalarCell(name, _as_type(self.table, name, 0))
            self.storage[name] = obj
        if not isinstance(obj, ScalarCell):
            raise InterpreterError(f"{name} used as both scalar and array")
        return obj

    def array(self, name: str) -> ArrayStorage:
        """The array storage for *name*, created on first use."""
        obj = self.storage.get(name)
        if obj is None:
            info = self.table.arrays.get(name)
            rank = info.rank if info else 1
            obj = ArrayStorage(name, rank)
            self.storage[name] = obj
        if not isinstance(obj, ArrayStorage):
            raise InterpreterError(f"{name} used as both array and scalar")
        return obj


class Interpreter:
    """Executes an analyzed program over its HSG."""

    def __init__(
        self,
        analyzed: AnalyzedProgram,
        observer: Optional[Observer] = None,
        loop_hook: Optional[Callable] = None,
        max_steps: int = 5_000_000,
        hsg=None,
    ) -> None:
        self.analyzed = analyzed
        self.hsg = hsg if hsg is not None else build_hsg(analyzed)
        self.observer = observer
        #: loop_hook(routine, loop_node, index_value, phase) with phase in
        #: {'iter', 'exit'} — lets validators bucket accesses per iteration
        #: and distinguish same-named loops by node identity
        self.loop_hook = loop_hook
        self.max_steps = max_steps
        self.steps = 0
        self.commons: dict[tuple[str, str], object] = {}

    # -- entry points ------------------------------------------------------------

    def run_main(self) -> Frame:
        """Execute the main program; returns its frame."""
        main = self.analyzed.program.main()
        frame = self._fresh_frame(main.name)
        self._run_unit(main.name, frame)
        return frame

    def run_routine(self, name: str, **args) -> Frame:
        """Run one routine with Python values for its dummy arguments.

        Scalars: ints/floats/bools.  Arrays: dicts ``{(i, ...): value}``
        or lists (1-based 1-D).
        """
        unit = self.analyzed.unit(name)
        table = self.analyzed.table(name)
        frame = self._fresh_frame(name)
        for formal in unit.params:
            if formal not in args:
                continue
            value = args[formal]
            if table.is_array(formal):
                storage = ArrayStorage(formal, table.arrays[formal].rank)
                if isinstance(value, dict):
                    storage.cells.update(value)
                else:
                    for i, v in enumerate(value, start=1):
                        storage.cells[(i,)] = v
                frame.storage[formal] = storage
            else:
                frame.storage[formal] = ScalarCell(formal, value)
        self._run_unit(name, frame)
        return frame

    # -- frames --------------------------------------------------------------------

    def _fresh_frame(self, unit_name: str) -> Frame:
        table = self.analyzed.table(unit_name)
        frame = Frame(table)
        # bind COMMON members to program-wide storage
        for block, names in table.commons.items():
            for name in names:
                key = (block, name)
                if key not in self.commons:
                    if table.is_array(name):
                        self.commons[key] = ArrayStorage(
                            name, table.arrays[name].rank
                        )
                    else:
                        self.commons[key] = ScalarCell(
                            name, _as_type(table, name, 0)
                        )
                frame.storage[name] = self.commons[key]
        return frame

    # -- graph execution ------------------------------------------------------------

    def _run_unit(self, unit_name: str, frame: Frame) -> None:
        self._run_graph(self.hsg.graph(unit_name), unit_name, frame)

    def _run_graph(self, graph, unit_name: str, frame: Frame) -> None:
        node = graph.entry
        while node is not None:
            self.steps += 1
            if self.steps > self.max_steps:
                raise InterpreterError("step budget exceeded")
            taken: Optional[bool] = None
            if isinstance(node, ExitNode):
                return
            if isinstance(node, CondensedNode):
                raise InterpreterError(
                    "cannot execute a condensed GOTO cycle"
                )
            if isinstance(node, BasicBlockNode):
                for stmt in node.stmts:
                    self._exec_simple(stmt, frame)
            elif isinstance(node, IfConditionNode):
                taken = bool(self._eval(node.cond, frame))
            elif isinstance(node, LoopNode):
                self._exec_loop(node, unit_name, frame)
            elif isinstance(node, CallNode):
                self._exec_call(node, frame)
            # choose the successor
            succs = graph.succs(node)
            if taken is None:
                if not succs:
                    return
                if len(succs) > 1:
                    raise InterpreterError(
                        f"ambiguous control flow at {node.describe()}"
                    )
                node = succs[0][0]
            else:
                matching = [d for d, label in succs if label is taken]
                if not matching:
                    matching = [d for d, label in succs if label is None]
                if len(matching) != 1:
                    raise InterpreterError(
                        f"bad branch structure at {node.describe()}"
                    )
                node = matching[0]

    def _exec_loop(self, loop, unit_name: str, frame: Frame) -> None:
        if loop.has_premature_exit:
            raise InterpreterError(
                f"loop {loop.var} has a premature exit; not executable"
            )
        lo = self._eval(loop.start, frame)
        hi = self._eval(loop.stop, frame)
        step = self._eval(loop.step, frame) if loop.step is not None else 1
        if step == 0:
            raise InterpreterError("zero DO step")
        index_cell = frame.cell(loop.var)
        value = int(lo)
        while (value <= hi) if step > 0 else (value >= hi):
            index_cell.set(value)
            if self.loop_hook:
                self.loop_hook(unit_name, loop, value, "iter")
            # the header's index update is a real write (observed so trace
            # validators see index reads as covered)
            self._notify("write", loop.var, (), False, index_cell)
            self._run_graph(loop.body, unit_name, frame)
            value += int(step)
        index_cell.set(value)
        self._notify("write", loop.var, (), False, index_cell)
        if self.loop_hook:
            self.loop_hook(unit_name, loop, value, "exit")

    def _exec_call(self, node, frame: Frame) -> None:
        callee = node.callee
        if callee not in self.analyzed.unit_names():
            raise InterpreterError(f"call to external routine {callee}")
        unit = self.analyzed.unit(callee)
        callee_frame = self._fresh_frame(callee)
        if len(node.call.args) > len(unit.params):
            raise InterpreterError(f"too many arguments to {callee}")
        for formal, actual in zip(unit.params, node.call.args):
            callee_frame.storage[formal] = self._argument_storage(
                actual, frame, formal, callee
            )
        self._run_unit(callee, callee_frame)

    def _argument_storage(self, actual: Expr, frame: Frame, formal: str,
                          callee: str):
        callee_table = self.analyzed.table(callee)
        if isinstance(actual, NameRef):
            if frame.table.is_array(actual.name):
                return frame.array(actual.name)
            if callee_table.is_array(formal):
                raise InterpreterError(
                    f"scalar {actual.name} passed for array formal {formal}"
                )
            return frame.cell(actual.name)
        if isinstance(actual, Apply) and actual.is_array:
            raise InterpreterError(
                "array-element actual arguments are not supported"
            )
        # expression actual: pass a fresh cell holding the value
        return ScalarCell(formal, self._eval(actual, frame))

    # -- statements ------------------------------------------------------------------

    def _exec_simple(self, stmt, frame: Frame) -> None:
        if isinstance(stmt, Assign):
            value = self._eval(stmt.value, frame)
            target = stmt.target
            if isinstance(target, Apply):
                idx = tuple(int(self._eval(a, frame)) for a in target.args)
                storage = frame.array(target.name)
                storage.set(idx, value)
                self._notify("write", target.name, idx, True, storage)
            else:
                cell = frame.cell(target.name)
                cell.set(_as_type(frame.table, target.name, value))
                self._notify("write", target.name, (), False, cell)
            return
        if isinstance(stmt, Continue):
            return
        if isinstance(stmt, IoStmt):
            if stmt.kind == "read":
                raise InterpreterError("READ is not supported")
            for item in stmt.items:
                self._eval(item, frame)  # reads observed
            return
        if isinstance(
            stmt, (MiscDecl, Declaration, DimensionStmt, ParameterStmt,
                   CommonStmt)
        ):
            return
        raise InterpreterError(f"cannot execute {type(stmt).__name__}")

    def _notify(self, kind, name, idx, is_array, storage):
        if self.observer:
            self.observer(AccessEvent(kind, name, idx, is_array, storage))

    # -- expressions --------------------------------------------------------------------

    def _eval(self, expr: Expr, frame: Frame):
        if isinstance(expr, IntLit):
            return expr.value
        if isinstance(expr, RealLit):
            return float(expr.text.replace("d", "e").rstrip("e") or 0)
        if isinstance(expr, LogicalLit):
            return expr.value
        if isinstance(expr, StringLit):
            return expr.value
        if isinstance(expr, NameRef):
            if expr.name in frame.table.parameters:
                return self._eval(frame.table.parameters[expr.name], frame)
            if frame.table.is_array(expr.name):
                raise InterpreterError(f"array {expr.name} used as a value")
            cell = frame.cell(expr.name)
            self._notify("read", expr.name, (), False, cell)
            return cell.get()
        if isinstance(expr, Apply):
            if expr.is_array:
                idx = tuple(int(self._eval(a, frame)) for a in expr.args)
                storage = frame.array(expr.name)
                self._notify("read", expr.name, idx, True, storage)
                return storage.get(idx)
            fn = _INTRINSICS.get(expr.name)
            if fn is None:
                raise InterpreterError(
                    f"user function calls not supported: {expr.name}"
                )
            return fn(*(self._eval(a, frame) for a in expr.args))
        if isinstance(expr, UnOp):
            value = self._eval(expr.operand, frame)
            if expr.op == "-":
                return -value
            if expr.op == "+":
                return value
            if expr.op == ".not.":
                return not value
            raise InterpreterError(f"bad unary {expr.op}")
        if isinstance(expr, BinOp):
            op = expr.op
            if op == ".and.":
                return bool(self._eval(expr.left, frame)) and bool(
                    self._eval(expr.right, frame)
                )
            if op == ".or.":
                return bool(self._eval(expr.left, frame)) or bool(
                    self._eval(expr.right, frame)
                )
            left = self._eval(expr.left, frame)
            right = self._eval(expr.right, frame)
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if isinstance(left, int) and isinstance(right, int):
                    return _idiv(left, right)
                return left / right
            if op == "**":
                if isinstance(left, int) and isinstance(right, int) and right < 0:
                    return _idiv(1, left ** -right)
                return left ** right
            if op == ".eq.":
                return left == right
            if op == ".ne.":
                return left != right
            if op == ".lt.":
                return left < right
            if op == ".le.":
                return left <= right
            if op == ".gt.":
                return left > right
            if op == ".ge.":
                return left >= right
            if op == ".eqv.":
                return bool(left) == bool(right)
            if op == ".neqv.":
                return bool(left) != bool(right)
            raise InterpreterError(f"bad operator {op}")
        raise InterpreterError(f"cannot evaluate {type(expr).__name__}")


def run_program(source: str, observer: Optional[Observer] = None) -> Frame:
    """Parse, analyze, and execute a whole program (convenience)."""
    interp = Interpreter(analyze(parse_program(source)), observer)
    return interp.run_main()
