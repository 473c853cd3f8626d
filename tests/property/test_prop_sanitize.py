"""Property tests: the GAR algebra never trips its own sampling
sanitizer, and the sanitizer actually catches planted violations."""

import pytest
from hypothesis import given, settings

from repro.regions import GARList, sanitize
from repro.regions.gar_ops import intersect_lists, subtract_lists, union_lists
from repro.symbolic import Comparer

from .strategies import gar_lists

CMP = Comparer()


@pytest.fixture(autouse=True)
def sanitizer_on():
    """Force the sanitizer on for each example; never leak state."""
    sanitize.reset()
    sanitize.enable()
    yield
    sanitize.reset()


@settings(deadline=None, max_examples=60)
@given(gar_lists(), gar_lists())
def test_union_never_violates(a, b):
    sanitize.drain()  # hypothesis reuses the fixture across examples
    union_lists(a, b, CMP)
    assert sanitize.drain() == []


@settings(deadline=None, max_examples=60)
@given(gar_lists(), gar_lists())
def test_intersect_never_violates(a, b):
    sanitize.drain()
    intersect_lists(a, b, CMP)
    assert sanitize.drain() == []


@settings(deadline=None, max_examples=60)
@given(gar_lists(), gar_lists())
def test_subtract_never_violates(a, b):
    sanitize.drain()
    subtract_lists(a, b, CMP)
    assert sanitize.drain() == []


@settings(deadline=None, max_examples=40)
@given(gar_lists(rank=2), gar_lists(rank=2))
def test_rank2_ops_never_violate(a, b):
    sanitize.drain()
    union_lists(a, b, CMP)
    intersect_lists(a, b, CMP)
    subtract_lists(a, b, CMP)
    assert sanitize.drain() == []


class TestSanitizerCatchesViolations:
    """The gate itself must be live: a wrong result must produce PAN301."""

    def test_dropped_union_elements_are_reported(self, cmp):
        from repro.regions import GAR, Range, RegularRegion
        from repro.symbolic import Predicate

        sanitize.drain()
        full = GARList(
            [GAR(Predicate.true(), RegularRegion("a", [Range(1, 4, 1)]))]
        )
        sanitize.check("union", full, full, GARList.empty())
        findings = sanitize.drain()
        assert findings and findings[0].code == "PAN301"
        assert "misses" in findings[0].message
        assert findings[0].data["op"] == "union"

    def test_invented_subtract_elements_are_reported(self, cmp):
        from repro.regions import GAR, Range, RegularRegion
        from repro.symbolic import Predicate

        small = GARList(
            [GAR(Predicate.true(), RegularRegion("a", [Range(1, 2, 1)]))]
        )
        big = GARList(
            [GAR(Predicate.true(), RegularRegion("a", [Range(1, 9, 1)]))]
        )
        sanitize.drain()
        sanitize.check("subtract", small, GARList.empty(), big)
        findings = sanitize.drain()
        assert findings and findings[0].code == "PAN301"
        assert "invented" in findings[0].message

    def test_disabled_sanitizer_is_silent(self, cmp):
        from repro.regions import GAR, Range, RegularRegion
        from repro.symbolic import Predicate

        sanitize.disable()
        full = GARList(
            [GAR(Predicate.true(), RegularRegion("a", [Range(1, 4, 1)]))]
        )
        union_lists(full, full, cmp)
        assert not sanitize.enabled()
        assert sanitize.drain() == []

    def test_env_var_is_read_once_until_reset(self, monkeypatch):
        monkeypatch.setenv(sanitize.ENV_VAR, "1")
        sanitize.reset()
        assert sanitize.enabled()
        monkeypatch.setenv(sanitize.ENV_VAR, "0")
        assert sanitize.enabled()  # resolved once per process
        sanitize.reset()
        assert not sanitize.enabled()
        sanitize.enable()
        assert sanitize.enabled()
        monkeypatch.delenv(sanitize.ENV_VAR)
        sanitize.reset()
        assert not sanitize.enabled()
