"""Tokenizer for the Fortran-77 subset.

Operates on one already-normalized logical line at a time (see
:mod:`repro.fortran.source`), with one compiled regular expression.
Token-level quirks handled here:

* ``**`` vs ``*``, ``//`` vs ``/``;
* dotted operators ``.eq.`` ``.and.`` ... and logical constants;
* free-form relational spellings ``==`` ``/=`` ``<=`` etc.;
* integer vs real literals (a ``.`` followed by a letter starts a dotted
  operator, not a real literal — ``1.eq.2`` lexes as ``1 .eq. 2``).

Names are Unicode-aware (a letter or ``_``, then ``str.isalnum``
characters or ``_``); digits are decimal digits.  A numeric symbol that
is neither, such as ``²`` or ``½``, cannot start a token.
"""

from __future__ import annotations

import re

from ..errors import LexError
from .tokens import DOT_OPERATORS, FREEFORM_RELOPS, TokKind, Token

_DOTTED = "|".join(word.strip(".") for word in DOT_OPERATORS)

_TOKEN = re.compile(
    r"[ \t]*(?:"
    # a "1." that is not "1 .eq." is real; so is an exponent
    rf"(?P<real>(?:\d+\.(?!(?:{_DOTTED})\.)\d*|\.\d+)(?:[ed][+-]?\d+)?"
    r"|\d+[ed][+-]?\d+)"
    r"|(?P<int>\d+)"
    r"|(?P<name>[^\W\d]\w*)"
    rf"|(?P<op>\.(?:{_DOTTED})\.|\*\*|//|==|/=|<=|>=|[<>()=,:+\-*/])"
    # a closing quote is one not doubled (a doubled quote is escaped)
    r"""|(?P<string>'[^']*(?:''[^']*)*'(?!')|"[^"]*(?:""[^"]*)*"(?!"))"""
    r"|(?P<eof>\Z)"
    r"|(?P<bad>[\s\S]))"
)

_PUNCTUATION = (
    TokKind.LPAREN, TokKind.RPAREN, TokKind.COMMA, TokKind.COLON,
    TokKind.ASSIGN, TokKind.PLUS, TokKind.MINUS, TokKind.STAR,
    TokKind.SLASH, TokKind.POWER, TokKind.CONCAT,
)
_OPERATORS = {
    **DOT_OPERATORS,
    **FREEFORM_RELOPS,
    **{kind.value: kind for kind in _PUNCTUATION},
}


def tokenize(text: str, lineno: int = 0) -> list[Token]:
    """Tokenize one logical line; appends an EOF token."""
    tokens: list[Token] = []
    for m in _TOKEN.finditer(text):
        group = m.lastgroup
        word = m[group]
        col = m.start(group)
        if group == "name":
            # [^\W\d] also takes non-ASCII numeric symbols such as '½'
            if word[0] > "z" and not word[0].isalpha():
                raise LexError(f"unexpected character {word[0]!r}", lineno, col)
            tokens.append(Token(TokKind.NAME, word, lineno, col))
        elif group == "op":
            tokens.append(Token(_OPERATORS[word], word, lineno, col))
        elif group == "int":
            tokens.append(Token(TokKind.INT, word, lineno, col))
        elif group == "real":
            tokens.append(Token(TokKind.REAL, word, lineno, col))
        elif group == "string":
            quote = word[0]
            body = word[1:-1].replace(quote + quote, quote)
            tokens.append(Token(TokKind.STRING, body, lineno, col))
        elif group == "eof":
            tokens.append(Token(TokKind.EOF, "", lineno, col))
            break
        elif word == ".":
            raise LexError("unexpected '.'", lineno, col)
        elif word in "'\"":
            raise LexError("unterminated character literal", lineno, col)
        else:
            raise LexError(f"unexpected character {word!r}", lineno, col)
    return tokens
