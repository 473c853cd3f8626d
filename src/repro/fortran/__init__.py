"""Fortran-77 subset frontend: source handling, lexer, parser, semantics.

A from-scratch substrate standing in for Panorama's C frontend: it turns
Fortran source into an AST with resolved array references, per-unit symbol
tables, and an acyclic call graph.
"""

from .ast_nodes import (
    Apply,
    Assign,
    BinOp,
    CallStmt,
    CommonStmt,
    Continue,
    Declaration,
    DimensionStmt,
    DoLoop,
    Expr,
    Goto,
    IfBlock,
    IntLit,
    IoStmt,
    LogicalIf,
    LogicalLit,
    MiscDecl,
    NameRef,
    ParameterStmt,
    Program,
    ProgramUnit,
    RangeSub,
    RealLit,
    Return,
    Stmt,
    Stop,
    StringLit,
    UnOp,
)
from .callgraph import CallGraph, build_call_graph
from .lexer import tokenize
from .parser import parse_program, parse_unit
from .printers import unparse_program, unparse_stmt, unparse_unit
from .semantics import (
    INTRINSICS,
    AnalyzedProgram,
    ArrayInfo,
    SymbolTable,
    analyze,
)
from .source import LogicalLine, normalize

__all__ = [
    "AnalyzedProgram",
    "Apply", "ArrayInfo", "Assign", "BinOp", "CallGraph", "CallStmt",
    "CommonStmt", "Continue", "Declaration", "DimensionStmt", "DoLoop",
    "Expr", "Goto", "INTRINSICS", "IfBlock", "IntLit", "IoStmt",
    "LogicalIf", "LogicalLit", "LogicalLine", "MiscDecl", "NameRef",
    "ParameterStmt", "Program", "ProgramUnit", "RangeSub", "RealLit",
    "Return", "Stmt", "Stop", "StringLit", "SymbolTable", "UnOp",
    "analyze", "build_call_graph", "normalize", "parse_program",
    "parse_unit", "tokenize", "unparse_program", "unparse_stmt",
    "unparse_unit",
]
