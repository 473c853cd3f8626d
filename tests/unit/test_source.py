"""Unit tests for Fortran source normalization."""

import pytest

from repro import Panorama
from repro.errors import SourceError, classify_exception
from repro.fortran import normalize


class TestComments:
    def test_c_comment_lines(self):
        lines = normalize("C hello\n      x = 1\n* star comment\n")
        assert len(lines) == 1
        assert lines[0].text == "x = 1"

    def test_bang_comment_line(self):
        lines = normalize("  ! note\n      x = 1\n")
        assert len(lines) == 1

    def test_inline_bang_comment(self):
        lines = normalize("      x = 1 ! trailing\n")
        assert lines[0].text == "x = 1"

    def test_bang_inside_string_kept(self):
        lines = normalize("      s = 'a!b'\n")
        assert "'a!b'" in lines[0].text

    def test_blank_lines_skipped(self):
        assert normalize("\n\n      x = 1\n\n") [0].text == "x = 1"


class TestLabels:
    def test_label_extracted(self):
        lines = normalize("  10  x = 1\n")
        assert lines[0].label == 10
        assert lines[0].text == "x = 1"

    def test_no_label(self):
        assert normalize("      x = 1\n")[0].label is None

    def test_label_without_statement_rejected(self):
        with pytest.raises(SourceError):
            normalize("  10\n")

    def test_lineno_recorded(self):
        lines = normalize("C c\n      x = 1\n      y = 2\n")
        assert [l.lineno for l in lines] == [2, 3]

    def test_numeric_symbol_is_no_label_digit(self):
        # '²' is a digit to str.isdigit but not a decimal: int() rejects
        # it, so a label scan must stop there and leave it to the lexer
        assert normalize("   ²0 continue\n")[0].label is None
        with pytest.raises(Exception) as info:
            Panorama().compile("      program p\n   ²0 continue\n      end\n")
        assert classify_exception(info.value) == "source"


class TestContinuations:
    def test_fixed_form_continuation(self):
        src = "      x = 1 +\n     &    2\n"
        lines = normalize(src)
        assert len(lines) == 1
        assert lines[0].text == "x = 1 + 2"

    def test_fixed_form_multiple_continuations(self):
        src = "      x = 1 +\n     1    2 +\n     2    3\n"
        lines = normalize(src)
        assert lines[0].text == "x = 1 + 2 + 3"

    def test_free_form_trailing_ampersand(self):
        src = "      x = 1 + &\n        2\n"
        lines = normalize(src)
        assert lines[0].text == "x = 1 + 2"

    def test_case_lowered_outside_strings(self):
        lines = normalize("      CALL Foo('KEEP Me')\n")
        assert lines[0].text == "call foo('KEEP Me')"
