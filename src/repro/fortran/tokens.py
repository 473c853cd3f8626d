"""Token kinds and the token data type for the Fortran-subset lexer."""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokKind(enum.Enum):
    """Token kinds produced by the lexer."""

    NAME = "name"
    INT = "int"
    REAL = "real"
    STRING = "string"
    # operators / punctuation
    LPAREN = "("
    RPAREN = ")"
    COMMA = ","
    COLON = ":"
    ASSIGN = "="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    POWER = "**"
    CONCAT = "//"
    # relational
    EQ = ".eq."
    NE = ".ne."
    LT = ".lt."
    LE = ".le."
    GT = ".gt."
    GE = ".ge."
    # logical
    AND = ".and."
    OR = ".or."
    NOT = ".not."
    EQV = ".eqv."
    NEQV = ".neqv."
    TRUE = ".true."
    FALSE = ".false."
    EOF = "<eof>"


#: dotted keywords recognized by the lexer
DOT_OPERATORS = {
    ".eq.": TokKind.EQ,
    ".ne.": TokKind.NE,
    ".lt.": TokKind.LT,
    ".le.": TokKind.LE,
    ".gt.": TokKind.GT,
    ".ge.": TokKind.GE,
    ".and.": TokKind.AND,
    ".or.": TokKind.OR,
    ".not.": TokKind.NOT,
    ".eqv.": TokKind.EQV,
    ".neqv.": TokKind.NEQV,
    ".true.": TokKind.TRUE,
    ".false.": TokKind.FALSE,
}

#: free-form relational spellings mapped onto the canonical dotted kinds
FREEFORM_RELOPS = {
    "==": TokKind.EQ,
    "/=": TokKind.NE,
    "<": TokKind.LT,
    "<=": TokKind.LE,
    ">": TokKind.GT,
    ">=": TokKind.GE,
}


class Token(NamedTuple):
    """One token: its kind, spelling, line and 0-based column."""

    kind: TokKind
    text: str
    lineno: int
    col: int

    def is_name(self, *names: str) -> bool:
        """Is this a NAME token with one of the given spellings?"""
        return self.kind is TokKind.NAME and self.text in names

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})"
