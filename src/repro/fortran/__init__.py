"""Fortran-77 subset frontend: source handling, lexer, parser, semantics.

A from-scratch substrate standing in for Panorama's C frontend: it turns
Fortran source into an AST with resolved array references, per-unit symbol
tables, and an acyclic call graph.  Each name loads its submodule on
first use (:mod:`repro.lazy`).
"""

from ..lazy import exports

__all__, __getattr__ = exports(__name__, {
    "ast_nodes": (
        "Apply", "Assign", "BinOp", "CallStmt", "CommonStmt", "Continue",
        "Declaration", "DimensionStmt", "DoLoop", "Expr", "Goto", "IfBlock",
        "IntLit", "IoStmt", "LogicalIf", "LogicalLit", "MiscDecl", "NameRef",
        "ParameterStmt", "Program", "ProgramUnit", "RangeSub", "RealLit",
        "Return", "Stmt", "Stop", "StringLit", "UnOp",
    ),
    "callgraph": ("CallGraph", "build_call_graph"),
    "lexer": ("tokenize",),
    "parser": ("parse_program", "parse_unit"),
    "printers": ("unparse_program", "unparse_stmt", "unparse_unit"),
    "semantics": (
        "INTRINSICS", "AnalyzedProgram", "ArrayInfo", "SymbolTable", "analyze",
    ),
    "source": ("LogicalLine", "normalize"),
})
