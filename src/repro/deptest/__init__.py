"""Conventional dependence tests (the paper's cheap pre-filter and the
classical baseline its symbolic analysis improves on)."""

from .banerjee import LoopBounds, banerjee_test, banerjee_test_dimension
from .ddg import PairResult, ScreenReport, ScreenVerdict, screen_loop
from .gcd import gcd_test, gcd_test_dimension
from .range_test import siv_independent
from .subscript import (
    AffineForm,
    ArrayReference,
    affine_form,
    collect_references,
)

__all__ = [
    "AffineForm",
    "ArrayReference",
    "LoopBounds",
    "PairResult",
    "ScreenReport",
    "ScreenVerdict",
    "affine_form",
    "banerjee_test",
    "banerjee_test_dimension",
    "collect_references",
    "gcd_test",
    "gcd_test_dimension",
    "screen_loop",
    "siv_independent",
]
