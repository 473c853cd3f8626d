"""Unit tests for the tokenizer."""

import pytest

from repro.errors import LexError
from repro.fortran import tokenize
from repro.fortran.tokens import TokKind


def kinds(text):
    return [t.kind for t in tokenize(text)][:-1]  # drop EOF


def texts(text):
    return [t.text for t in tokenize(text)][:-1]


class TestBasics:
    def test_names_and_ints(self):
        assert kinds("abc 123") == [TokKind.NAME, TokKind.INT]

    def test_underscore_names(self):
        assert texts("my_var") == ["my_var"]

    def test_operators(self):
        assert kinds("( ) , : = + - * /") == [
            TokKind.LPAREN, TokKind.RPAREN, TokKind.COMMA, TokKind.COLON,
            TokKind.ASSIGN, TokKind.PLUS, TokKind.MINUS, TokKind.STAR,
            TokKind.SLASH,
        ]

    def test_power_vs_star(self):
        assert kinds("a ** b * c") == [
            TokKind.NAME, TokKind.POWER, TokKind.NAME, TokKind.STAR,
            TokKind.NAME,
        ]

    def test_concat(self):
        assert kinds("a // b") == [TokKind.NAME, TokKind.CONCAT, TokKind.NAME]

    def test_eof_token_present(self):
        assert tokenize("x")[-1].kind is TokKind.EOF

    def test_unknown_char_raises(self):
        with pytest.raises(LexError):
            tokenize("a ; b")


class TestDottedOperators:
    def test_relational(self):
        assert kinds("a .eq. b .ne. c") == [
            TokKind.NAME, TokKind.EQ, TokKind.NAME, TokKind.NE, TokKind.NAME,
        ]

    def test_logical(self):
        assert kinds(".not. p .and. q .or. r") == [
            TokKind.NOT, TokKind.NAME, TokKind.AND, TokKind.NAME,
            TokKind.OR, TokKind.NAME,
        ]

    def test_logical_constants(self):
        assert kinds(".true. .false.") == [TokKind.TRUE, TokKind.FALSE]

    def test_int_dot_operator_disambiguation(self):
        # "1.eq.2" must lex as INT EQ INT, not as reals
        assert kinds("1.eq.2") == [TokKind.INT, TokKind.EQ, TokKind.INT]

    def test_bare_dot_rejected(self):
        with pytest.raises(LexError):
            tokenize("a . b")


class TestFreeFormRelops:
    def test_two_char(self):
        assert kinds("a == b /= c <= d >= e") == [
            TokKind.NAME, TokKind.EQ, TokKind.NAME, TokKind.NE,
            TokKind.NAME, TokKind.LE, TokKind.NAME, TokKind.GE, TokKind.NAME,
        ]

    def test_one_char(self):
        assert kinds("a < b > c") == [
            TokKind.NAME, TokKind.LT, TokKind.NAME, TokKind.GT, TokKind.NAME,
        ]


class TestNumbers:
    def test_real_with_fraction(self):
        toks = tokenize("1.5")
        assert toks[0].kind is TokKind.REAL and toks[0].text == "1.5"

    def test_real_trailing_dot(self):
        assert tokenize("2.")[0].kind is TokKind.REAL

    def test_real_leading_dot(self):
        assert tokenize(".5")[0].kind is TokKind.REAL

    def test_exponent_forms(self):
        for text in ("1e5", "1.5e-3", "2d0", "1.0e+10"):
            assert tokenize(text)[0].kind is TokKind.REAL, text

    def test_int_then_name_exponentless(self):
        toks = tokenize("1edge")
        # '1e' not followed by digits: INT then NAME
        assert [t.kind for t in toks][:2] == [TokKind.INT, TokKind.NAME]


class TestStrings:
    def test_single_quotes(self):
        tok = tokenize("'hello'")[0]
        assert tok.kind is TokKind.STRING and tok.text == "hello"

    def test_escaped_quote(self):
        assert tokenize("'don''t'")[0].text == "don't"

    def test_double_quotes(self):
        assert tokenize('"hi"')[0].text == "hi"

    def test_unterminated_raises(self):
        with pytest.raises(LexError):
            tokenize("'oops")


def triples(text):
    return [(t.kind, t.text, t.col) for t in tokenize(text)]


class TestExactTokens:
    """Kinds, texts and columns, EOF included."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            (
                "1.eq.2",
                [(TokKind.INT, "1", 0), (TokKind.EQ, ".eq.", 1),
                 (TokKind.INT, "2", 5), (TokKind.EOF, "", 6)],
            ),
            ("1.e5", [(TokKind.REAL, "1.e5", 0), (TokKind.EOF, "", 4)]),
            (".5d0", [(TokKind.REAL, ".5d0", 0), (TokKind.EOF, "", 4)]),
            ("'it''s'", [(TokKind.STRING, "it's", 0), (TokKind.EOF, "", 7)]),
            (
                "a /= b",
                [(TokKind.NAME, "a", 0), (TokKind.NE, "/=", 2),
                 (TokKind.NAME, "b", 5), (TokKind.EOF, "", 6)],
            ),
            # names take str.isalpha/str.isalnum characters, not just ASCII
            (
                "café = π_1",
                [(TokKind.NAME, "café", 0), (TokKind.ASSIGN, "=", 5),
                 (TokKind.NAME, "π_1", 7), (TokKind.EOF, "", 10)],
            ),
            # ... and digits are decimal digits in any script
            (
                "x\u0663 = \u0663 + 1",
                [(TokKind.NAME, "x\u0663", 0), (TokKind.ASSIGN, "=", 3),
                 (TokKind.INT, "\u0663", 5), (TokKind.PLUS, "+", 7),
                 (TokKind.INT, "1", 9), (TokKind.EOF, "", 10)],
            ),
        ],
    )
    def test_tokens(self, text, expected):
        assert triples(text) == expected

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a . b", "unexpected '.' (line 0, col 2)"),
            ("x = 'it''", "unterminated character literal (line 0, col 4)"),
            ("y = \u00bd", "unexpected character '\u00bd' (line 0, col 4)"),
            # a numeric symbol that is not a decimal digit starts no token
            ("y = 2\u00b2", "unexpected character '\u00b2' (line 0, col 5)"),
        ],
    )
    def test_errors(self, text, message):
        with pytest.raises(LexError) as err:
            tokenize(text)
        assert str(err.value) == message
