"""Semantic analysis: symbol tables and reference resolution.

Fortran's grammar cannot distinguish ``A(I)`` the array element from
``A(I)`` the function call; this pass resolves every :class:`Apply` using
the unit's declarations, the program's unit names, and the intrinsic
table, and records per-unit symbol information used by the analyses:

* array declarations with per-dimension bounds,
* scalar types (declared or implicit ``i``–``n`` integer rule),
* ``PARAMETER`` constants,
* dummy parameters and ``COMMON`` membership.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import SemanticError
from .ast_nodes import (
    Apply,
    Assign,
    CallStmt,
    CommonStmt,
    Declaration,
    DimensionStmt,
    DoLoop,
    Expr,
    IfBlock,
    IntLit,
    IoStmt,
    LogicalIf,
    NameRef,
    ParameterStmt,
    Program,
    ProgramUnit,
    RangeSub,
    Stmt,
)

#: Fortran intrinsics the subset recognizes (never treated as user arrays)
INTRINSICS = frozenset(
    {
        "abs", "iabs", "dabs", "min", "max", "min0", "max0", "amin1", "amax1",
        "dmin1", "dmax1", "mod", "amod", "dmod", "sqrt", "dsqrt", "exp",
        "dexp", "log", "alog", "dlog", "sin", "cos", "tan", "dsin", "dcos",
        "atan", "atan2", "datan", "int", "ifix", "idint", "float", "real",
        "dble", "sngl", "sign", "isign", "dsign", "nint", "idnint", "len",
        "char", "ichar", "cmplx", "aimag", "conjg",
    }
)


@dataclass
class ArrayInfo:
    """Declared shape of one array."""

    name: str
    #: per-dimension (lower, upper) bound expressions; lower defaults to 1,
    #: upper is None for assumed-size ``(*)`` declarations
    bounds: list[tuple[Expr, Optional[Expr]]]

    @property
    def rank(self) -> int:
        return len(self.bounds)


@dataclass
class SymbolTable:
    """Per-unit symbol information."""

    unit: ProgramUnit
    arrays: dict[str, ArrayInfo] = field(default_factory=dict)
    scalar_types: dict[str, str] = field(default_factory=dict)
    parameters: dict[str, Expr] = field(default_factory=dict)
    commons: dict[str, list[str]] = field(default_factory=dict)
    externals: set[str] = field(default_factory=set)

    def is_array(self, name: str) -> bool:
        """Is *name* a declared (or inferred) array?"""
        return name in self.arrays

    def is_dummy(self, name: str) -> bool:
        """Is *name* a dummy argument of the unit?"""
        return name in self.unit.params

    def type_of(self, name: str) -> str:
        """Declared or implicit type of a scalar."""
        if name in self.scalar_types:
            return self.scalar_types[name]
        return "integer" if name[0] in "ijklmn" else "real"

    def element_type(self, name: str) -> str:
        """Element type of an array: declared type, else the implicit
        rule (``type_of`` records declared types for scalars only)."""
        for decl in self.unit.decls:
            if isinstance(decl, Declaration):
                for entity, _dims in decl.entities:
                    if entity == name:
                        return decl.type_name
        return self.type_of(name)

    def is_logical(self, name: str) -> bool:
        """Is *name* LOGICAL-typed?"""
        return self.type_of(name) == "logical"

    def common_block_of(self, name: str) -> Optional[str]:
        """The COMMON block containing *name*, if any."""
        for block, names in self.commons.items():
            if name in names:
                return block
        return None


@dataclass
class AnalyzedProgram:
    """A parsed program plus its per-unit symbol tables."""

    program: Program
    tables: dict[str, SymbolTable]

    def table(self, unit_name: str) -> SymbolTable:
        """The symbol table of one unit."""
        return self.tables[unit_name]

    def unit(self, name: str) -> ProgramUnit:
        """Look up a program unit by name."""
        return self.program.unit(name)

    def unit_names(self) -> frozenset[str]:
        """Names of all program units."""
        return frozenset(self.tables)


def analyze(program: Program) -> AnalyzedProgram:
    """Build symbol tables and resolve array-vs-call for every unit."""
    unit_names = {u.name for u in program.units}
    function_names = {u.name for u in program.units if u.kind == "function"}
    tables: dict[str, SymbolTable] = {}
    for unit in program.units:
        table = _collect_declarations(unit)
        _resolve_applies(unit, table, unit_names, function_names)
        tables[unit.name] = table
    return AnalyzedProgram(program, tables)


def _collect_declarations(unit: ProgramUnit) -> SymbolTable:
    table = SymbolTable(unit)
    for decl in unit.decls:
        if isinstance(decl, Declaration):
            for name, dims in decl.entities:
                if dims:
                    _declare_array(table, name, dims)
                else:
                    table.scalar_types[name] = decl.type_name
        elif isinstance(decl, DimensionStmt):
            for name, dims in decl.entities:
                if not dims:
                    raise SemanticError(
                        f"DIMENSION entry without bounds: {name} in {unit.name}"
                    )
                _declare_array(table, name, dims)
        elif isinstance(decl, ParameterStmt):
            for name, value in decl.bindings:
                table.parameters[name] = value
        elif isinstance(decl, CommonStmt):
            names = []
            for name, dims in decl.entities:
                names.append(name)
                if dims:
                    _declare_array(table, name, dims)
            table.commons.setdefault(decl.block or "", []).extend(names)
    return table


def _declare_array(table: SymbolTable, name: str, dims: list[Expr]) -> None:
    bounds: list[tuple[Expr, Optional[Expr]]] = []
    for dim in dims:
        if isinstance(dim, RangeSub):
            lo = dim.lo if dim.lo is not None else IntLit(1)
            hi = dim.hi
            if isinstance(hi, NameRef) and hi.name == "*":
                hi = None
            bounds.append((lo, hi))
        elif isinstance(dim, NameRef) and dim.name == "*":
            bounds.append((IntLit(1), None))
        else:
            bounds.append((IntLit(1), dim))
    if name in table.arrays and table.arrays[name].rank != len(bounds):
        raise SemanticError(f"conflicting declarations for array {name}")
    table.arrays[name] = ArrayInfo(name, bounds)


def _resolve_applies(
    unit: ProgramUnit,
    table: SymbolTable,
    unit_names: set[str],
    function_names: set[str],
) -> None:
    def visit_expr(expr: Expr) -> None:
        for node in expr.walk():
            if isinstance(node, Apply):
                node.is_array = _classify(node.name, table, function_names)

    def visit_stmt(stmt: Stmt) -> None:
        if isinstance(stmt, Assign):
            visit_expr(stmt.target)
            visit_expr(stmt.value)
            if isinstance(stmt.target, Apply) and not stmt.target.is_array:
                # assignment to name(...) forces it to be an array (or a
                # statement function, which the subset does not support)
                if stmt.target.name in function_names:
                    raise SemanticError(
                        f"assignment to function {stmt.target.name} in {unit.name}"
                    )
                _declare_array(
                    table,
                    stmt.target.name,
                    [NameRef("*") for _ in stmt.target.args],
                )
                stmt.target.is_array = True
        elif isinstance(stmt, CallStmt):
            for arg in stmt.args:
                visit_expr(arg)
        elif isinstance(stmt, (IfBlock,)):
            for cond, _ in stmt.arms:
                visit_expr(cond)
        elif isinstance(stmt, LogicalIf):
            visit_expr(stmt.cond)
        elif isinstance(stmt, DoLoop):
            visit_expr(stmt.start)
            visit_expr(stmt.stop)
            if stmt.step is not None:
                visit_expr(stmt.step)
        elif isinstance(stmt, IoStmt):
            for item in stmt.items:
                visit_expr(item)

    for stmt in unit.walk_statements():
        visit_stmt(stmt)
    # two passes: the first may have declared implicit arrays used before
    # their first assignment in statement order
    for stmt in unit.walk_statements():
        visit_stmt(stmt)


def _classify(name: str, table: SymbolTable, function_names: set[str]) -> bool:
    """True if *name* used with an argument list denotes an array."""
    if table.is_array(name):
        return True
    if name in INTRINSICS or name in function_names or name in table.externals:
        return False
    # undeclared, not a known function: Fortran would make this an external
    # function reference
    return False
