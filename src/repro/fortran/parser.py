"""Recursive-descent parser for the Fortran-77 subset.

Grammar coverage (everything the Perfect-benchmark kernels and the paper's
examples need, plus the usual surrounding forms):

* program units: ``PROGRAM``, ``SUBROUTINE``, ``[type] FUNCTION``, ``END``
* declarations: type statements (with ``*len``), ``DIMENSION``,
  ``PARAMETER``, ``COMMON``, ``IMPLICIT``/``EXTERNAL``/``INTRINSIC``/
  ``DATA``/``SAVE`` (parsed, kept as opaque :class:`MiscDecl`)
* executable: assignment, ``CALL``, block IF/ELSEIF/ELSE/ENDIF, logical IF,
  ``DO`` (both ``ENDDO`` and labeled terminator styles, including shared
  terminators), ``GOTO``, ``CONTINUE``, ``RETURN``, ``STOP``,
  ``WRITE``/``PRINT``/``READ``
* expressions with full Fortran operator precedence, by precedence
  climbing over one operator table.

Each logical line is tokenized once: the line a block parser looks ahead
at is the line the statement parser then reads, and a logical IF's
statement is parsed from the rest of its own line's tokens.

The parser is deliberately strict: anything outside the subset raises
:class:`~repro.errors.ParseError` with a line number rather than guessing.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ParseError
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
from .lexer import tokenize
from .source import LogicalLine, normalize
from .tokens import TokKind, Token

_TYPE_NAMES = {
    "integer",
    "real",
    "logical",
    "complex",
    "character",
    "doubleprecision",
}

_DECL_KEYWORDS = _TYPE_NAMES | {
    "dimension",
    "parameter",
    "common",
    "implicit",
    "external",
    "intrinsic",
    "data",
    "save",
    "double",
}

#: binary operators by binding level (higher binds tighter); the BinOp
#: spelling is the kind's value, so ``==`` builds the same node as ``.eq.``
_BINARY = {
    TokKind.EQV: 1, TokKind.NEQV: 1,
    TokKind.OR: 2,
    TokKind.AND: 3,
    TokKind.EQ: 5, TokKind.NE: 5, TokKind.LT: 5,
    TokKind.LE: 5, TokKind.GT: 5, TokKind.GE: 5,
    TokKind.PLUS: 6, TokKind.MINUS: 6,
    TokKind.STAR: 7, TokKind.SLASH: 7,
    TokKind.POWER: 8,
}
#: ``.not.`` heads an operand of .and./.or./.eqv.; a sign heads an
#: operand of a relational; one relational at most; ``**`` nests right
_NOT, _REL, _ADD, _POW = 4, 5, 6, 8


def parse_program(source: str) -> Program:
    """Parse a whole source file into a :class:`Program`."""
    lines = normalize(source)
    units: list[ProgramUnit] = []
    chunk: list[LogicalLine] = []
    for line in lines:
        chunk.append(line)
        if _is_end_statement(line.text):
            units.append(_parse_unit(chunk))
            chunk = []
    if chunk:
        units.append(_parse_unit(chunk))
    if not units:
        raise ParseError("empty program")
    return Program(units)


def parse_unit(source: str) -> ProgramUnit:
    """Parse a single program unit (convenience for tests)."""
    return parse_program(source).units[0]


def _is_end_statement(text: str) -> bool:
    words = text.split()
    if not words or words[0] != "end":
        return False
    return len(words) == 1 or words[1] in (
        "program",
        "subroutine",
        "function",
    )


def _parse_unit(lines: list[LogicalLine]) -> ProgramUnit:
    parser = _UnitParser(lines)
    return parser.parse()


class _Cursor:
    """Token cursor over one logical line."""

    def __init__(self, line: LogicalLine) -> None:
        self.line = line
        self.tokens = tokenize(line.text, line.lineno)
        self.pos = 0

    def peek(self, offset: int = 0) -> Token:
        # callers look past a token only when it is not the EOF token
        return self.tokens[self.pos + offset]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokKind.EOF:
            self.pos += 1
        return tok

    def accept(self, kind: TokKind) -> Optional[Token]:
        if self.peek().kind is kind:
            return self.next()
        return None

    def accept_name(self, *names: str) -> Optional[Token]:
        if self.peek().is_name(*names):
            return self.next()
        return None

    def expect(self, kind: TokKind, what: str = "") -> Token:
        tok = self.next()
        if tok.kind is not kind:
            raise ParseError(
                f"expected {what or kind.value!r}, got {tok}", self.line.lineno
            )
        return tok

    def expect_name(self, *names: str) -> Token:
        tok = self.next()
        if tok.kind is not TokKind.NAME or (names and tok.text not in names):
            raise ParseError(
                f"expected {'/'.join(names) or 'a name'}, got {tok}",
                self.line.lineno,
            )
        return tok

    def at_eof(self) -> bool:
        return self.peek().kind is TokKind.EOF

    def require_eof(self) -> None:
        if not self.at_eof():
            raise ParseError(
                f"trailing tokens starting at {self.peek()}", self.line.lineno
            )

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line.lineno)


class _UnitParser:
    """Parses one program unit from its logical lines."""

    def __init__(self, lines: list[LogicalLine]) -> None:
        self.lines = lines
        self.index = 0
        #: the next line's tokens, once something has looked at them
        self._lookahead: Optional[_Cursor] = None
        # stack of labels that enclosing labeled-DO loops are waiting for,
        # to support shared terminators (DO 10 ... DO 10 ... 10 CONTINUE)
        self._pending_do_labels: list[int] = []

    # -- line-level plumbing ----------------------------------------------------

    def _peek_line(self) -> Optional[LogicalLine]:
        if self.index < len(self.lines):
            return self.lines[self.index]
        return None

    def _peek_cursor(self) -> _Cursor:
        """The next line's cursor, tokenized once however often peeked."""
        if self._lookahead is None:
            self._lookahead = _Cursor(self.lines[self.index])
        return self._lookahead

    def _next_line(self) -> LogicalLine:
        line = self.lines[self.index]
        self.index += 1
        self._lookahead = None
        return line

    # -- unit structure ------------------------------------------------------------

    def parse(self) -> ProgramUnit:
        kind, name, params, result_type, lineno = self._parse_header()
        decls: list[Stmt] = []
        body: list[Stmt] = []
        in_decls = True
        while True:
            line = self._peek_line()
            if line is None:
                raise ParseError(f"missing END for unit {name}", lineno)
            if _is_end_statement(line.text):
                self._next_line()
                break
            cur = self._peek_cursor()
            if in_decls and self._line_is_declaration(line, cur):
                decls.append(self._parse_declaration(cur, self._next_line()))
                continue
            in_decls = False
            body.append(self._parse_one())
        return ProgramUnit(
            kind=kind,
            name=name,
            params=params,
            decls=decls,
            body=body,
            result_type=result_type,
            lineno=lineno,
        )

    def _parse_header(self) -> tuple[str, str, list[str], Optional[str], int]:
        line = self._peek_line()
        if line is None:
            raise ParseError("empty unit")
        cur = self._peek_cursor()
        tok = cur.peek()
        result_type: Optional[str] = None
        if tok.is_name("program"):
            self._next_line()
            cur.next()
            name = cur.expect_name().text
            cur.require_eof()
            return "program", name, [], None, line.lineno
        if tok.is_name("subroutine"):
            self._next_line()
            cur.next()
            name = cur.expect_name().text
            params = self._parse_params(cur)
            cur.require_eof()
            return "subroutine", name, params, None, line.lineno
        # typed or untyped FUNCTION
        words = [t for t in cur.tokens if t.kind is TokKind.NAME]
        if any(t.text == "function" for t in words[:3]):
            self._next_line()
            first = cur.next()
            if first.text in _TYPE_NAMES or first.text == "double":
                result_type = first.text
                if first.text == "double":
                    cur.expect_name("precision")
                    result_type = "doubleprecision"
                cur.expect_name("function")
            elif first.text != "function":
                raise cur.error(f"bad function header at {first}")
            name = cur.expect_name().text
            params = self._parse_params(cur)
            cur.require_eof()
            return "function", name, params, result_type, line.lineno
        # headerless: an implicit main program
        return "program", "main", [], None, line.lineno

    @staticmethod
    def _parse_params(cur: _Cursor) -> list[str]:
        params: list[str] = []
        if cur.accept(TokKind.LPAREN):
            if not cur.accept(TokKind.RPAREN):
                while True:
                    params.append(cur.expect_name().text)
                    if cur.accept(TokKind.RPAREN):
                        break
                    cur.expect(TokKind.COMMA)
        return params

    # -- declarations ------------------------------------------------------------------

    @staticmethod
    def _line_is_declaration(line: LogicalLine, cur: _Cursor) -> bool:
        """Does *line*, whose statement *cur* starts, open with a
        declaration keyword?"""
        words = line.text.replace("*", " ").replace("(", " ").split()
        if not words:
            return False
        head = words[0]
        if head == "double" and len(words) > 1 and words[1] == "precision":
            return True
        if head in _DECL_KEYWORDS:
            # "real x" is a declaration; "real = 2" is an assignment to a
            # variable named real — distinguish by the '=' position
            return cur.peek(1).kind is not TokKind.ASSIGN
        return False

    def _parse_declaration(self, cur: _Cursor, line: LogicalLine) -> Stmt:
        head = cur.expect_name().text
        if head == "double":
            cur.expect_name("precision")
            head = "doubleprecision"
        if head in _TYPE_NAMES:
            # optional *len
            if cur.accept(TokKind.STAR):
                if not (cur.accept(TokKind.INT) or cur.accept(TokKind.LPAREN)):
                    raise cur.error("bad length specifier")
                # skip "(...)" length forms
                depth = 1 if cur.tokens[cur.pos - 1].kind is TokKind.LPAREN else 0
                while depth:
                    tok = cur.next()
                    if tok.kind is TokKind.LPAREN:
                        depth += 1
                    elif tok.kind is TokKind.RPAREN:
                        depth -= 1
            entities = self._parse_entity_list(cur)
            cur.require_eof()
            return Declaration(head, entities, label=line.label, lineno=line.lineno)
        if head == "dimension":
            entities = self._parse_entity_list(cur)
            cur.require_eof()
            return DimensionStmt(entities, label=line.label, lineno=line.lineno)
        if head == "parameter":
            cur.expect(TokKind.LPAREN)
            bindings: list[tuple[str, Expr]] = []
            while True:
                name = cur.expect_name().text
                cur.expect(TokKind.ASSIGN)
                bindings.append((name, self._parse_expr(cur)))
                if cur.accept(TokKind.RPAREN):
                    break
                cur.expect(TokKind.COMMA)
            cur.require_eof()
            return ParameterStmt(bindings, label=line.label, lineno=line.lineno)
        if head == "common":
            block = ""
            if cur.accept(TokKind.SLASH):
                block = cur.expect_name().text
                cur.expect(TokKind.SLASH)
            entities = self._parse_entity_list(cur)
            cur.require_eof()
            return CommonStmt(block, entities, label=line.label, lineno=line.lineno)
        # implicit / external / intrinsic / data / save: keep the raw text
        return MiscDecl(head, line.text, label=line.label, lineno=line.lineno)

    def _parse_entity_list(self, cur: _Cursor) -> list[tuple[str, list[Expr]]]:
        entities: list[tuple[str, list[Expr]]] = []
        while True:
            name = cur.expect_name().text
            dims: list[Expr] = []
            if cur.accept(TokKind.LPAREN):
                while True:
                    dims.append(self._parse_dim_declarator(cur))
                    if cur.accept(TokKind.RPAREN):
                        break
                    cur.expect(TokKind.COMMA)
            entities.append((name, dims))
            if not cur.accept(TokKind.COMMA):
                break
        return entities

    def _parse_dim_declarator(self, cur: _Cursor) -> Expr:
        if cur.peek().kind is TokKind.STAR:
            cur.next()
            return NameRef("*")
        lo = self._parse_expr(cur)
        if cur.accept(TokKind.COLON):
            if cur.peek().kind is TokKind.STAR:
                cur.next()
                return RangeSub(lo, NameRef("*"))
            hi = self._parse_expr(cur)
            return RangeSub(lo, hi)
        return lo

    # -- statements -----------------------------------------------------------------------

    def _parse_one(self) -> Stmt:
        """Parse the next statement (and any block it heads)."""
        cur = self._peek_cursor()
        return self._parse_line(cur, self._next_line())

    def _parse_line(self, cur: _Cursor, line: LogicalLine) -> Stmt:
        """The statement *cur* starts; *line* gives its label and text."""
        tok = cur.peek()
        if tok.kind is not TokKind.NAME:
            raise cur.error(f"cannot parse statement starting with {tok}")
        text = tok.text
        if text == "if":
            return self._parse_if(cur, line)
        if text == "do" and not self._looks_like_assignment(cur):
            return self._parse_do(cur, line)
        if text == "goto":
            cur.next()
            target = int(cur.expect(TokKind.INT).text)
            cur.require_eof()
            return Goto(target, label=line.label, lineno=line.lineno)
        if text == "go" and cur.peek(1).is_name("to"):
            cur.next()
            cur.next()
            target = int(cur.expect(TokKind.INT).text)
            cur.require_eof()
            return Goto(target, label=line.label, lineno=line.lineno)
        if text == "call" and not self._looks_like_assignment(cur):
            return self._parse_call(cur, line)
        if text == "continue" and cur.peek(1).kind is TokKind.EOF:
            cur.next()
            return Continue(label=line.label, lineno=line.lineno)
        if text == "return" and cur.peek(1).kind is TokKind.EOF:
            cur.next()
            return Return(label=line.label, lineno=line.lineno)
        if text == "stop":
            return Stop(label=line.label, lineno=line.lineno)
        if text in ("write", "print", "read") and not self._looks_like_assignment(cur):
            return self._parse_io(cur, line)
        if text in ("enddo", "endif", "else", "elseif") or (
            text == "end" and cur.peek(1).is_name("do", "if")
        ):
            raise cur.error(f"unexpected block terminator {text!r}")
        if self._line_is_declaration(line, cur):
            # tolerated late declaration
            return self._parse_declaration(cur, line)
        return self._parse_assignment(cur, line)

    @staticmethod
    def _looks_like_assignment(cur: _Cursor) -> bool:
        """Heuristic: NAME '=' or NAME '(' ... ')' '=' begins an assignment.

        Needed because e.g. ``do`` / ``call`` / ``write`` are legal variable
        names in Fortran.
        """
        if cur.peek(1).kind is TokKind.ASSIGN:
            # "do i = 1, 10" also matches NAME '=' after consuming 'do i';
            # here we test the *first* token, so 'do = 3' is an assignment
            return True
        if cur.peek(1).kind is TokKind.LPAREN:
            depth = 0
            i = 1
            while True:
                tok = cur.peek(i)
                if tok.kind is TokKind.EOF:
                    return False
                if tok.kind is TokKind.LPAREN:
                    depth += 1
                elif tok.kind is TokKind.RPAREN:
                    depth -= 1
                    if depth == 0:
                        return cur.peek(i + 1).kind is TokKind.ASSIGN
                i += 1
        return False

    def _parse_assignment(self, cur: _Cursor, line: LogicalLine) -> Assign:
        target = self._parse_primary(cur)
        if not isinstance(target, (NameRef, Apply)):
            raise cur.error(f"bad assignment target {target}")
        cur.expect(TokKind.ASSIGN, "'='")
        value = self._parse_expr(cur)
        cur.require_eof()
        return Assign(target, value, label=line.label, lineno=line.lineno)

    def _parse_call(self, cur: _Cursor, line: LogicalLine) -> CallStmt:
        cur.next()  # 'call'
        name = cur.expect_name().text
        args: list[Expr] = []
        if cur.accept(TokKind.LPAREN):
            if not cur.accept(TokKind.RPAREN):
                while True:
                    args.append(self._parse_expr(cur))
                    if cur.accept(TokKind.RPAREN):
                        break
                    cur.expect(TokKind.COMMA)
        cur.require_eof()
        return CallStmt(name, args, label=line.label, lineno=line.lineno)

    def _parse_io(self, cur: _Cursor, line: LogicalLine) -> IoStmt:
        kind = cur.next().text
        items: list[Expr] = []
        if kind in ("write", "read") and cur.accept(TokKind.LPAREN):
            # skip the control list (unit, format, ...)
            depth = 1
            while depth:
                tok = cur.next()
                if tok.kind is TokKind.EOF:
                    raise cur.error("unterminated I/O control list")
                if tok.kind is TokKind.LPAREN:
                    depth += 1
                elif tok.kind is TokKind.RPAREN:
                    depth -= 1
        elif kind == "print":
            # PRINT fmt, items — skip the format designator
            if cur.peek().kind in (TokKind.STAR, TokKind.INT, TokKind.STRING):
                cur.next()
            if not cur.accept(TokKind.COMMA) and not cur.at_eof():
                raise cur.error("bad PRINT statement")
        while not cur.at_eof():
            items.append(self._parse_expr(cur))
            if not cur.accept(TokKind.COMMA):
                break
        cur.require_eof()
        return IoStmt(kind, items, label=line.label, lineno=line.lineno)

    # -- IF forms ----------------------------------------------------------------------------

    def _parse_if(self, cur: _Cursor, line: LogicalLine) -> Stmt:
        cur.next()  # 'if'
        cur.expect(TokKind.LPAREN)
        cond = self._parse_expr(cur)
        cur.expect(TokKind.RPAREN)
        if cur.accept_name("then"):
            cur.require_eof()
            return self._parse_if_block(cond, line)
        # logical IF: the rest of the line is one statement
        inner_line = LogicalLine(_remaining_text(cur), None, line.lineno)
        inner = self._parse_line(cur, inner_line)
        if isinstance(inner, (IfBlock, LogicalIf, DoLoop)):
            raise cur.error("illegal statement in logical IF")
        return LogicalIf(cond, inner, label=line.label, lineno=line.lineno)

    def _parse_if_block(self, cond: Expr, line: LogicalLine) -> IfBlock:
        arms: list[tuple[Expr, list[Stmt]]] = [(cond, [])]
        orelse: list[Stmt] = []
        current = arms[0][1]
        while True:
            nxt = self._peek_line()
            if nxt is None:
                raise ParseError("missing ENDIF", line.lineno)
            cur = self._peek_cursor()
            tok = cur.peek()
            if tok.is_name("endif") or (
                tok.is_name("end") and cur.peek(1).is_name("if")
            ):
                self._next_line()
                break
            if tok.is_name("elseif") or (
                tok.is_name("else") and cur.peek(1).is_name("if")
            ):
                self._next_line()
                cur.next()
                if cur.peek().is_name("if"):
                    cur.next()
                cur.expect(TokKind.LPAREN)
                arm_cond = self._parse_expr(cur)
                cur.expect(TokKind.RPAREN)
                cur.expect_name("then")
                cur.require_eof()
                arms.append((arm_cond, []))
                current = arms[-1][1]
                continue
            if tok.is_name("else") and cur.peek(1).kind is TokKind.EOF:
                self._next_line()
                current = orelse
                continue
            current.append(self._parse_one())
        return IfBlock(arms, orelse, label=line.label, lineno=line.lineno)

    # -- DO loops ----------------------------------------------------------------------------

    def _parse_do(self, cur: _Cursor, line: LogicalLine) -> DoLoop:
        cur.next()  # 'do'
        end_label: Optional[int] = None
        lbl = cur.accept(TokKind.INT)
        if lbl is not None:
            end_label = int(lbl.text)
        var = cur.expect_name().text
        cur.expect(TokKind.ASSIGN)
        start = self._parse_expr(cur)
        cur.expect(TokKind.COMMA)
        stop = self._parse_expr(cur)
        step: Optional[Expr] = None
        if cur.accept(TokKind.COMMA):
            step = self._parse_expr(cur)
        cur.require_eof()
        body: list[Stmt] = []
        if end_label is None:
            while True:
                nxt = self._peek_line()
                if nxt is None:
                    raise ParseError("missing ENDDO", line.lineno)
                c2 = self._peek_cursor()
                if c2.peek().is_name("enddo") or (
                    c2.peek().is_name("end") and c2.peek(1).is_name("do")
                ):
                    self._next_line()
                    if nxt.label is not None:
                        # "1 ENDDO": a GOTO to this label jumps to the loop
                        # bottom — keep it addressable as a trailing CONTINUE
                        body.append(Continue(label=nxt.label, lineno=nxt.lineno))
                    break
                body.append(self._parse_one())
        else:
            self._pending_do_labels.append(end_label)
            while True:
                nxt = self._peek_line()
                if nxt is None:
                    raise ParseError(
                        f"missing terminator label {end_label}", line.lineno
                    )
                if nxt.label == end_label:
                    break
                body.append(self._parse_one())
            self._pending_do_labels.pop()
            shared = end_label in self._pending_do_labels
            if not shared:
                body.append(self._parse_one())
            else:
                # the enclosing DO with the same label will consume it; this
                # loop body ends with an implicit CONTINUE
                body.append(Continue(label=None, lineno=nxt.lineno))
        return DoLoop(
            var,
            start,
            stop,
            step,
            body,
            end_label=end_label,
            label=line.label,
            lineno=line.lineno,
        )

    # -- expressions ----------------------------------------------------------------------------

    def _parse_expr(self, cur: _Cursor, level: int = 1) -> Expr:
        """An expression of operators binding at *level* or tighter."""
        tok = cur.peek()
        if tok.kind is TokKind.NOT and level <= _NOT:
            cur.next()
            left: Expr = UnOp(".not.", self._parse_expr(cur, _NOT))
            top = _NOT - 1  # only looser operators may follow it
        elif tok.kind in (TokKind.MINUS, TokKind.PLUS) and level <= _ADD:
            cur.next()
            left = self._parse_expr(cur, _ADD + 1)
            if tok.kind is TokKind.MINUS:
                left = UnOp("-", left)
            top = _ADD
        else:
            left = self._parse_primary(cur)
            top = _POW
        while True:
            op = cur.peek()
            prec = _BINARY.get(op.kind)
            if prec is None or not level <= prec <= top:
                return left
            cur.next()
            right = self._parse_expr(cur, prec if prec == _POW else prec + 1)
            left = BinOp(op.kind.value, left, right)
            top = prec - 1 if prec == _REL else prec  # relationals never chain

    def _parse_primary(self, cur: _Cursor) -> Expr:
        tok = cur.peek()
        if tok.kind is TokKind.INT:
            cur.next()
            return IntLit(int(tok.text))
        if tok.kind is TokKind.REAL:
            cur.next()
            return RealLit(tok.text)
        if tok.kind is TokKind.STRING:
            cur.next()
            return StringLit(tok.text)
        if tok.kind is TokKind.TRUE:
            cur.next()
            return LogicalLit(True)
        if tok.kind is TokKind.FALSE:
            cur.next()
            return LogicalLit(False)
        if tok.kind is TokKind.MINUS:
            cur.next()
            return UnOp("-", self._parse_primary(cur))
        if tok.kind is TokKind.LPAREN:
            cur.next()
            inner = self._parse_expr(cur)
            cur.expect(TokKind.RPAREN)
            return inner
        if tok.kind is TokKind.NAME:
            cur.next()
            if cur.accept(TokKind.LPAREN):
                args: list[Expr] = []
                if not cur.accept(TokKind.RPAREN):
                    while True:
                        args.append(self._parse_arg(cur))
                        if cur.accept(TokKind.RPAREN):
                            break
                        cur.expect(TokKind.COMMA)
                return Apply(tok.text, args)
            return NameRef(tok.text)
        raise cur.error(f"unexpected token {tok} in expression")

    def _parse_arg(self, cur: _Cursor) -> Expr:
        """An actual argument / subscript, allowing ``lo:hi`` sections."""
        if cur.peek().kind is TokKind.COLON:
            cur.next()
            hi = self._parse_expr(cur)
            return RangeSub(None, hi)
        expr = self._parse_expr(cur)
        if cur.accept(TokKind.COLON):
            if cur.peek().kind in (TokKind.COMMA, TokKind.RPAREN):
                return RangeSub(expr, None)
            hi = self._parse_expr(cur)
            return RangeSub(expr, hi)
        return expr


def _remaining_text(cur: _Cursor) -> str:
    """The text of the rest of the cursor's line (a logical IF's statement)."""
    if cur.at_eof():
        raise cur.error("empty logical IF body")
    col = cur.peek().col
    return cur.line.text[col:]
