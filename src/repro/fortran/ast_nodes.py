"""AST node classes for the Fortran-77 subset.

Expressions and statements are small immutable-ish dataclasses.  Name
references are parsed as :class:`NameRef` (variable) or :class:`Apply`
(name followed by an argument list) — whether an ``Apply`` is an array
reference or a function call is resolved by :mod:`repro.fortran.semantics`
using the declaration tables, as required by Fortran's grammar.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

# --------------------------------------------------------------------------- #
# expressions
# --------------------------------------------------------------------------- #


@dataclass
class Expr:
    """Base class for expression nodes."""

    def children(self) -> Sequence["Expr"]:
        """Direct sub-expressions."""
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Depth-first iteration over the subtree."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass
class IntLit(Expr):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass
class RealLit(Expr):
    text: str

    def __str__(self) -> str:
        return self.text


@dataclass
class LogicalLit(Expr):
    value: bool

    def __str__(self) -> str:
        return ".TRUE." if self.value else ".FALSE."


@dataclass
class StringLit(Expr):
    value: str

    def __str__(self) -> str:
        return f"'{self.value}'"


@dataclass
class NameRef(Expr):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass
class Apply(Expr):
    """``name(arg, ...)`` — array element or function call (see semantics)."""

    name: str
    args: list[Expr]
    is_array: Optional[bool] = None  # filled in by semantic analysis

    def children(self) -> Sequence[Expr]:
        """Direct sub-expressions."""
        return self.args

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


@dataclass
class RangeSub(Expr):
    """An array-section subscript ``lo:hi`` (used in declarations)."""

    lo: Optional[Expr]
    hi: Optional[Expr]

    def children(self) -> Sequence[Expr]:
        """Direct sub-expressions."""
        return [e for e in (self.lo, self.hi) if e is not None]

    def __str__(self) -> str:
        lo = str(self.lo) if self.lo is not None else ""
        hi = str(self.hi) if self.hi is not None else ""
        return f"{lo}:{hi}"


@dataclass
class UnOp(Expr):
    op: str  # '-', '+', '.not.'
    operand: Expr

    def children(self) -> Sequence[Expr]:
        """Direct sub-expressions."""
        return (self.operand,)

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@dataclass
class BinOp(Expr):
    op: str  # '+', '-', '*', '/', '**', relationals, '.and.', '.or.', '.eqv.', '.neqv.'
    left: Expr
    right: Expr

    def children(self) -> Sequence[Expr]:
        """Direct sub-expressions."""
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


# --------------------------------------------------------------------------- #
# statements
# --------------------------------------------------------------------------- #


@dataclass
class Stmt:
    """Base class for statement nodes."""

    label: Optional[int] = field(default=None, kw_only=True)
    lineno: int = field(default=0, kw_only=True)

    def body_blocks(self) -> Sequence[list["Stmt"]]:
        """Nested statement lists (for tree walks)."""
        return ()

    def exprs(self) -> Sequence[Expr]:
        """The expressions this statement evaluates itself (not those of
        the statements in its body)."""
        return ()

    def walk(self) -> Iterator["Stmt"]:
        """Depth-first iteration over the subtree."""
        yield self
        for block in self.body_blocks():
            for stmt in block:
                yield from stmt.walk()


@dataclass
class Assign(Stmt):
    target: Union[NameRef, Apply]
    value: Expr

    def exprs(self) -> Sequence[Expr]:
        """Expressions this statement evaluates itself."""
        return (self.target, self.value)

    def __str__(self) -> str:
        return f"{self.target} = {self.value}"


@dataclass
class CallStmt(Stmt):
    name: str
    args: list[Expr]

    def exprs(self) -> Sequence[Expr]:
        """Expressions this statement evaluates itself."""
        return self.args

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"CALL {self.name}({inner})"


@dataclass
class IfBlock(Stmt):
    """Structured IF/ELSEIF/ELSE/ENDIF."""

    arms: list[tuple[Expr, list[Stmt]]]  # (condition, body) for IF/ELSEIF
    orelse: list[Stmt]

    def body_blocks(self) -> Sequence[list[Stmt]]:
        """Nested statement lists (for tree walks)."""
        return [body for _, body in self.arms] + [self.orelse]

    def exprs(self) -> Sequence[Expr]:
        """Expressions this statement evaluates itself."""
        return [cond for cond, _ in self.arms]

    def __str__(self) -> str:
        return f"IF ({self.arms[0][0]}) THEN ..."


@dataclass
class LogicalIf(Stmt):
    """``IF (cond) stmt`` — one-armed logical IF."""

    cond: Expr
    stmt: Stmt

    def body_blocks(self) -> Sequence[list[Stmt]]:
        """Nested statement lists (for tree walks)."""
        return ([self.stmt],)

    def exprs(self) -> Sequence[Expr]:
        """Expressions this statement evaluates itself."""
        return (self.cond,)

    def __str__(self) -> str:
        return f"IF ({self.cond}) {self.stmt}"


@dataclass
class DoLoop(Stmt):
    var: str
    start: Expr
    stop: Expr
    step: Optional[Expr]
    body: list[Stmt]
    end_label: Optional[int] = None

    def body_blocks(self) -> Sequence[list[Stmt]]:
        """Nested statement lists (for tree walks)."""
        return (self.body,)

    def exprs(self) -> Sequence[Expr]:
        """Expressions this statement evaluates itself."""
        return [e for e in (self.start, self.stop, self.step) if e is not None]

    def __str__(self) -> str:
        step = f", {self.step}" if self.step is not None else ""
        return f"DO {self.var} = {self.start}, {self.stop}{step}"


@dataclass
class Goto(Stmt):
    target: int

    def __str__(self) -> str:
        return f"GOTO {self.target}"


@dataclass
class Continue(Stmt):
    def __str__(self) -> str:
        return "CONTINUE"


@dataclass
class Return(Stmt):
    def __str__(self) -> str:
        return "RETURN"


@dataclass
class Stop(Stmt):
    def __str__(self) -> str:
        return "STOP"


@dataclass
class IoStmt(Stmt):
    """WRITE/PRINT/READ — modeled as uses (writes for READ) of its items."""

    kind: str  # 'write' | 'print' | 'read'
    items: list[Expr]

    def exprs(self) -> Sequence[Expr]:
        """Expressions this statement evaluates itself."""
        return self.items

    def __str__(self) -> str:
        return f"{self.kind.upper()} ..."


# ----- declarations (kept in the unit prologue) ------------------------------ #


@dataclass
class Declaration(Stmt):
    """Type declaration: ``INTEGER a, b(10)`` etc."""

    type_name: str  # 'integer' | 'real' | 'logical' | 'doubleprecision' | ...
    entities: list[tuple[str, list[Expr]]]  # (name, dim declarators; [] = scalar)

    def __str__(self) -> str:
        return f"{self.type_name.upper()} ..."


@dataclass
class DimensionStmt(Stmt):
    entities: list[tuple[str, list[Expr]]]

    def __str__(self) -> str:
        return "DIMENSION ..."


@dataclass
class ParameterStmt(Stmt):
    bindings: list[tuple[str, Expr]]

    def __str__(self) -> str:
        return "PARAMETER ..."


@dataclass
class CommonStmt(Stmt):
    block: str
    entities: list[tuple[str, list[Expr]]]

    def __str__(self) -> str:
        return f"COMMON /{self.block}/ ..."


@dataclass
class MiscDecl(Stmt):
    """IMPLICIT / EXTERNAL / INTRINSIC / DATA / SAVE — parsed, not analyzed."""

    kind: str
    text: str

    def __str__(self) -> str:
        return self.text


# --------------------------------------------------------------------------- #
# program units
# --------------------------------------------------------------------------- #


@dataclass
class ProgramUnit:
    """A PROGRAM / SUBROUTINE / FUNCTION unit."""

    kind: str  # 'program' | 'subroutine' | 'function'
    name: str
    params: list[str]
    decls: list[Stmt]
    body: list[Stmt]
    result_type: Optional[str] = None  # for functions
    lineno: int = 0

    def walk_statements(self) -> Iterator[Stmt]:
        """Depth-first iteration over all statements."""
        for stmt in self.body:
            yield from stmt.walk()

    def __str__(self) -> str:
        return f"{self.kind.upper()} {self.name}"


@dataclass
class Program:
    """A whole parsed source file: all program units."""

    units: list[ProgramUnit]

    def unit(self, name: str) -> ProgramUnit:
        """Look up a program unit by name."""
        for u in self.units:
            if u.name == name:
                return u
        raise KeyError(name)

    def main(self) -> ProgramUnit:
        """The main program (or the first unit)."""
        for u in self.units:
            if u.kind == "program":
                return u
        return self.units[0]

    def __str__(self) -> str:
        return f"Program({', '.join(u.name for u in self.units)})"
