"""AST unparser — regenerates Fortran-ish source from the AST.

Used for diagnostics (the analysis reports quote statements), round-trip
tests of the parser, and the examples' pretty output.  The output is
free-form style with ``ENDDO``/``ENDIF`` terminators.
"""

from __future__ import annotations

from .ast_nodes import (
    Assign,
    CallStmt,
    CommonStmt,
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
    Program,
    ProgramUnit,
    Return,
    Stmt,
    Stop,
)


def unparse_stmt(stmt: Stmt, indent: int = 0) -> list[str]:
    """Render one statement (plus nested blocks) as lines."""
    pad = "  " * indent
    label = f"{stmt.label} " if stmt.label is not None else ""

    def line(text: str) -> str:
        return f"{pad}{label}{text}"

    if isinstance(stmt, Assign):
        return [line(f"{stmt.target} = {stmt.value}")]
    if isinstance(stmt, CallStmt):
        args = ", ".join(str(a) for a in stmt.args)
        return [line(f"CALL {stmt.name}({args})")]
    if isinstance(stmt, IfBlock):
        out = [line(f"IF ({stmt.arms[0][0]}) THEN")]
        for s in stmt.arms[0][1]:
            out.extend(unparse_stmt(s, indent + 1))
        for cond, body in stmt.arms[1:]:
            out.append(f"{pad}ELSEIF ({cond}) THEN")
            for s in body:
                out.extend(unparse_stmt(s, indent + 1))
        if stmt.orelse:
            out.append(f"{pad}ELSE")
            for s in stmt.orelse:
                out.extend(unparse_stmt(s, indent + 1))
        out.append(f"{pad}ENDIF")
        return out
    if isinstance(stmt, LogicalIf):
        inner = unparse_stmt(stmt.stmt, 0)[0].strip()
        return [line(f"IF ({stmt.cond}) {inner}")]
    if isinstance(stmt, DoLoop):
        step = f", {stmt.step}" if stmt.step is not None else ""
        out = [line(f"DO {stmt.var} = {stmt.start}, {stmt.stop}{step}")]
        for s in stmt.body:
            out.extend(unparse_stmt(s, indent + 1))
        out.append(f"{pad}ENDDO")
        return out
    if isinstance(stmt, Goto):
        return [line(f"GOTO {stmt.target}")]
    if isinstance(stmt, Continue):
        return [line("CONTINUE")]
    if isinstance(stmt, Return):
        return [line("RETURN")]
    if isinstance(stmt, Stop):
        return [line("STOP")]
    if isinstance(stmt, IoStmt):
        items = ", ".join(str(i) for i in stmt.items)
        return [line(f"{stmt.kind.upper()} *, {items}")]
    if isinstance(stmt, Declaration):
        ents = ", ".join(
            name + (f"({', '.join(str(d) for d in dims)})" if dims else "")
            for name, dims in stmt.entities
        )
        return [line(f"{stmt.type_name.upper()} {ents}")]
    if isinstance(stmt, DimensionStmt):
        ents = ", ".join(
            f"{name}({', '.join(str(d) for d in dims)})"
            for name, dims in stmt.entities
        )
        return [line(f"DIMENSION {ents}")]
    if isinstance(stmt, ParameterStmt):
        binds = ", ".join(f"{n} = {v}" for n, v in stmt.bindings)
        return [line(f"PARAMETER ({binds})")]
    if isinstance(stmt, CommonStmt):
        ents = ", ".join(name for name, _ in stmt.entities)
        blk = f"/{stmt.block}/ " if stmt.block else ""
        return [line(f"COMMON {blk}{ents}")]
    if isinstance(stmt, MiscDecl):
        return [line(stmt.text.upper())]
    return [line(f"! <unprintable {type(stmt).__name__}>")]


def unparse_unit(unit: ProgramUnit) -> str:
    """Render a whole program unit."""
    header = {
        "program": f"PROGRAM {unit.name}",
        "subroutine": f"SUBROUTINE {unit.name}({', '.join(unit.params)})",
        "function": f"FUNCTION {unit.name}({', '.join(unit.params)})",
    }[unit.kind]
    if unit.kind == "function" and unit.result_type:
        header = f"{unit.result_type.upper()} {header}"
    lines = [header]
    for decl in unit.decls:
        lines.extend(unparse_stmt(decl, 1))
    for stmt in unit.body:
        lines.extend(unparse_stmt(stmt, 1))
    lines.append("END")
    return "\n".join(lines)


def unparse_program(program: Program) -> str:
    """Render every unit of a program."""
    return "\n\n".join(unparse_unit(u) for u in program.units)
