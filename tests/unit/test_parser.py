"""Unit tests for the Fortran-subset parser."""

import pytest

from repro.errors import ParseError
from repro.fortran import (
    Apply,
    Assign,
    BinOp,
    CallStmt,
    CommonStmt,
    Continue,
    Declaration,
    DimensionStmt,
    DoLoop,
    Goto,
    IfBlock,
    IntLit,
    IoStmt,
    LogicalIf,
    NameRef,
    ParameterStmt,
    Return,
    Stop,
    UnOp,
    parse_program,
    parse_unit,
)


def body_of(source: str):
    return parse_unit(source).body


def first_stmt(statement: str):
    src = f"      SUBROUTINE s\n      {statement}\n      END\n"
    return body_of(src)[0]


def expr_of(text: str):
    stmt = first_stmt(f"zz = {text}")
    assert isinstance(stmt, Assign)
    return stmt.value


class TestUnits:
    def test_program_unit(self):
        u = parse_unit("      PROGRAM main\n      x = 1\n      END\n")
        assert u.kind == "program" and u.name == "main"

    def test_subroutine_with_params(self):
        u = parse_unit("      SUBROUTINE f(a, b)\n      a = b\n      END\n")
        assert u.kind == "subroutine"
        assert u.params == ["a", "b"]

    def test_function_typed(self):
        u = parse_unit(
            "      INTEGER FUNCTION g(x)\n      g = x\n      END\n"
        )
        assert u.kind == "function"
        assert u.result_type == "integer"

    def test_double_precision_function(self):
        u = parse_unit(
            "      DOUBLE PRECISION FUNCTION g(x)\n      g = x\n      END\n"
        )
        assert u.result_type == "doubleprecision"

    def test_headerless_main(self):
        u = parse_unit("      x = 1\n      END\n")
        assert u.kind == "program" and u.name == "main"

    def test_multiple_units(self):
        p = parse_program(
            "      PROGRAM a\n      x = 1\n      END\n"
            "      SUBROUTINE b\n      y = 2\n      END\n"
        )
        assert [u.name for u in p.units] == ["a", "b"]

    def test_missing_end_rejected(self):
        with pytest.raises(ParseError):
            parse_unit("      SUBROUTINE s\n      x = 1\n")

    def test_empty_program_rejected(self):
        with pytest.raises(ParseError):
            parse_program("")


class TestDeclarations:
    def test_type_declaration(self):
        u = parse_unit(
            "      SUBROUTINE s\n      REAL a(10), b\n      a(1) = b\n      END\n"
        )
        decl = u.decls[0]
        assert isinstance(decl, Declaration)
        assert decl.entities[0][0] == "a"
        assert len(decl.entities[0][1]) == 1
        assert decl.entities[1] == ("b", [])

    def test_dimension(self):
        u = parse_unit(
            "      SUBROUTINE s\n      DIMENSION w(5, n)\n      w(1,1) = 0\n      END\n"
        )
        assert isinstance(u.decls[0], DimensionStmt)

    def test_parameter(self):
        u = parse_unit(
            "      SUBROUTINE s\n      PARAMETER (n = 10, m = n + 1)\n"
            "      x = n\n      END\n"
        )
        decl = u.decls[0]
        assert isinstance(decl, ParameterStmt)
        assert decl.bindings[0][0] == "n"

    def test_common(self):
        u = parse_unit(
            "      SUBROUTINE s\n      COMMON /blk/ a, b(3)\n      a = 1\n      END\n"
        )
        decl = u.decls[0]
        assert isinstance(decl, CommonStmt)
        assert decl.block == "blk"

    def test_star_length_type(self):
        u = parse_unit(
            "      SUBROUTINE s\n      INTEGER*4 k\n      k = 1\n      END\n"
        )
        assert isinstance(u.decls[0], Declaration)

    def test_assumed_size_dimension(self):
        u = parse_unit(
            "      SUBROUTINE s(a)\n      REAL a(*)\n      a(1) = 0\n      END\n"
        )
        assert isinstance(u.decls[0], Declaration)

    def test_bounds_range_declarator(self):
        u = parse_unit(
            "      SUBROUTINE s\n      REAL a(0:10)\n      a(0) = 1\n      END\n"
        )
        assert isinstance(u.decls[0], Declaration)


class TestStatements:
    def test_assignment(self):
        s = first_stmt("x = y + 1")
        assert isinstance(s, Assign)
        assert isinstance(s.target, NameRef)

    def test_array_assignment(self):
        s = first_stmt("a(i, j) = 0")
        assert isinstance(s.target, Apply)
        assert len(s.target.args) == 2

    def test_call_with_args(self):
        s = first_stmt("CALL foo(x, y + 1)")
        assert isinstance(s, CallStmt)
        assert s.name == "foo" and len(s.args) == 2

    def test_call_without_args(self):
        s = first_stmt("CALL foo")
        assert isinstance(s, CallStmt) and s.args == []

    def test_goto_forms(self):
        assert isinstance(first_stmt("GOTO 10"), Goto)
        assert isinstance(first_stmt("GO TO 10"), Goto)

    def test_continue_return_stop(self):
        assert isinstance(first_stmt("CONTINUE"), Continue)
        assert isinstance(first_stmt("RETURN"), Return)
        assert isinstance(first_stmt("STOP"), Stop)

    def test_write_print(self):
        s = first_stmt("WRITE (6, *) x, y")
        assert isinstance(s, IoStmt) and len(s.items) == 2
        s = first_stmt("PRINT *, x")
        assert isinstance(s, IoStmt) and s.kind == "print"

    def test_variable_named_call_assignable(self):
        s = first_stmt("call = 3")
        assert isinstance(s, Assign) and s.target.name == "call"

    def test_variable_named_do_assignable(self):
        s = first_stmt("do = 3")
        assert isinstance(s, Assign)


class TestIfForms:
    def test_logical_if(self):
        s = first_stmt("IF (x .GT. 0) y = 1")
        assert isinstance(s, LogicalIf)
        assert isinstance(s.stmt, Assign)

    def test_logical_if_goto(self):
        s = first_stmt("IF (x .GT. 0) GOTO 10")
        assert isinstance(s, LogicalIf)
        assert isinstance(s.stmt, Goto)

    def test_block_if(self):
        src = (
            "      SUBROUTINE s\n"
            "      IF (x .GT. 0) THEN\n"
            "        y = 1\n"
            "      ELSEIF (x .LT. 0) THEN\n"
            "        y = 2\n"
            "      ELSE\n"
            "        y = 3\n"
            "      ENDIF\n"
            "      END\n"
        )
        s = body_of(src)[0]
        assert isinstance(s, IfBlock)
        assert len(s.arms) == 2
        assert len(s.orelse) == 1

    def test_else_if_spelled_out(self):
        src = (
            "      SUBROUTINE s\n"
            "      IF (p) THEN\n"
            "        y = 1\n"
            "      ELSE IF (q) THEN\n"
            "        y = 2\n"
            "      END IF\n"
            "      END\n"
        )
        s = body_of(src)[0]
        assert isinstance(s, IfBlock) and len(s.arms) == 2

    def test_missing_endif_rejected(self):
        with pytest.raises(ParseError):
            parse_unit(
                "      SUBROUTINE s\n      IF (p) THEN\n      y = 1\n      END\n"
            )


class TestDoLoops:
    def test_enddo_form(self):
        src = (
            "      SUBROUTINE s\n      DO i = 1, n\n        a(i) = 0\n"
            "      ENDDO\n      END\n"
        )
        s = body_of(src)[0]
        assert isinstance(s, DoLoop)
        assert s.var == "i" and s.step is None

    def test_step(self):
        src = (
            "      SUBROUTINE s\n      DO i = 1, n, 2\n        a(i) = 0\n"
            "      ENDDO\n      END\n"
        )
        assert body_of(src)[0].step is not None

    def test_labeled_terminator(self):
        src = (
            "      SUBROUTINE s\n      DO 10 i = 1, n\n        a(i) = 0\n"
            " 10   CONTINUE\n      END\n"
        )
        s = body_of(src)[0]
        assert isinstance(s, DoLoop)
        assert s.end_label == 10
        assert isinstance(s.body[-1], Continue)

    def test_shared_terminator(self):
        src = (
            "      SUBROUTINE s\n"
            "      DO 10 i = 1, n\n"
            "      DO 10 j = 1, m\n"
            "        a(i) = j\n"
            " 10   CONTINUE\n"
            "      END\n"
        )
        outer = body_of(src)[0]
        assert isinstance(outer, DoLoop)
        inner = outer.body[0]
        assert isinstance(inner, DoLoop) and inner.var == "j"

    def test_labeled_enddo_keeps_label(self):
        src = (
            "      SUBROUTINE s\n      DO k = 2, 5\n"
            "        IF (b(k) .GT. 0) GOTO 1\n        a(k) = 0\n"
            " 1    ENDDO\n      END\n"
        )
        loop = body_of(src)[0]
        assert isinstance(loop.body[-1], Continue)
        assert loop.body[-1].label == 1

    def test_missing_enddo_rejected(self):
        with pytest.raises(ParseError):
            parse_unit("      SUBROUTINE s\n      DO i = 1, n\n      x = 1\n      END\n")


class TestExpressions:
    def test_precedence_mul_over_add(self):
        e = expr_of("a + b * c")
        assert isinstance(e, BinOp) and e.op == "+"
        assert isinstance(e.right, BinOp) and e.right.op == "*"

    def test_power_right_associative(self):
        e = expr_of("a ** b ** c")
        assert e.op == "**"
        assert isinstance(e.right, BinOp) and e.right.op == "**"

    def test_unary_minus(self):
        e = expr_of("-a + b")
        assert e.op == "+"
        assert isinstance(e.left, UnOp)

    def test_relational_nonassociative(self):
        e = expr_of("a + 1 .LT. b * 2")
        assert e.op == ".lt."

    def test_logical_precedence(self):
        e = expr_of("p .OR. q .AND. r")
        assert e.op == ".or."
        assert isinstance(e.right, BinOp) and e.right.op == ".and."

    def test_not_binds_tighter_than_and(self):
        e = expr_of(".NOT. p .AND. q")
        assert e.op == ".and."
        assert isinstance(e.left, UnOp)

    def test_parentheses(self):
        e = expr_of("(a + b) * c")
        assert e.op == "*"
        assert isinstance(e.left, BinOp) and e.left.op == "+"

    def test_apply_args(self):
        e = expr_of("f(a, b + 1)")
        assert isinstance(e, Apply) and len(e.args) == 2

    def test_int_literal(self):
        e = expr_of("42")
        assert isinstance(e, IntLit) and e.value == 42

    def test_freeform_relops(self):
        e = expr_of("a <= b")
        assert e.op == ".le."


class TestExpressionTrees:
    """Whole trees, so a rewrite of the expression parser keeps each
    quirk: a sign heads an additive operand, ``.not.`` is a prefix of a
    logical operand, one relational at most, ``**`` nests right, and a
    primary-level minus binds tighter than ``**``."""

    @pytest.mark.parametrize(
        "text, tree",
        [
            ("-a*b", UnOp("-", BinOp("*", NameRef("a"), NameRef("b")))),
            ("-a**2", UnOp("-", BinOp("**", NameRef("a"), IntLit(2)))),
            ("a*-b", BinOp("*", NameRef("a"), UnOp("-", NameRef("b")))),
            (
                "a**-b**c",
                BinOp("**", NameRef("a"), BinOp("**", UnOp("-", NameRef("b")), NameRef("c"))),
            ),
            ("a-b-c", BinOp("-", BinOp("-", NameRef("a"), NameRef("b")), NameRef("c"))),
            ("a/b*c", BinOp("*", BinOp("/", NameRef("a"), NameRef("b")), NameRef("c"))),
            ("+a*b", BinOp("*", NameRef("a"), NameRef("b"))),
            (".not.a.and.b", BinOp(".and.", UnOp(".not.", NameRef("a")), NameRef("b"))),
            (".not.a.eq.b", UnOp(".not.", BinOp(".eq.", NameRef("a"), NameRef("b")))),
            (
                "a.lt.b.eqv.c",
                BinOp(".eqv.", BinOp(".lt.", NameRef("a"), NameRef("b")), NameRef("c")),
            ),
            ("x.and..not.y", BinOp(".and.", NameRef("x"), UnOp(".not.", NameRef("y")))),
        ],
    )
    def test_tree(self, text, tree):
        assert expr_of(text) == tree

    def test_chained_relational_is_rejected(self):
        with pytest.raises(ParseError) as err:
            expr_of("a.lt.b.lt.c")
        assert str(err.value) == "trailing tokens starting at LT('.lt.') (line 2)"
