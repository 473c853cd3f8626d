"""Unit tests for the public invalidation-report surface
(repro.engine.incremental: IncrementalReport + diff_revisions)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dataflow import AnalysisOptions
from repro.engine.batch import BatchItem, compile_item
from repro.engine.cache import SummaryCache
from repro.engine.incremental import IncrementalReport, diff_revisions
from repro.kernels.figure1 import FIGURE_1C


@dataclass
class FakeHooks:
    """Just the CachingHooks fields diff_revisions consumes."""

    fingerprints: dict = field(default_factory=dict)
    callees: dict = field(default_factory=dict)
    unit_hashes: dict = field(default_factory=dict)
    reused: set = field(default_factory=set)
    computed: set = field(default_factory=set)


def hooks_for(unit_hashes, callees=None, reused=(), computed=()):
    return FakeHooks(
        fingerprints={name: f"fp:{h}" for name, h in unit_hashes.items()},
        callees={k: frozenset(v) for k, v in (callees or {}).items()},
        unit_hashes=dict(unit_hashes),
        reused=set(reused),
        computed=set(computed),
    )


class TestDiffRevisions:
    def test_first_revision_everything_changed(self):
        hooks = hooks_for({"main": "h1", "sub": "h2"}, computed={"main", "sub"})
        report = diff_revisions("prog.f", {}, hooks)
        assert report.changed == ["main", "sub"]
        assert report.invalidated == []
        assert report.computed == ["main", "sub"]
        assert report.reused == []

    def test_identical_revision_changes_nothing(self):
        hashes = {"main": "h1", "sub": "h2"}
        hooks = hooks_for(hashes, reused={"main", "sub"})
        report = diff_revisions("prog.f", hashes, hooks)
        assert report.changed == []
        assert report.invalidated == []
        assert report.reused == ["main", "sub"]
        assert report.affected() == []

    def test_own_change_detected_by_hash(self):
        hooks = hooks_for({"main": "h1", "sub": "NEW"})
        report = diff_revisions("prog.f", {"main": "h1", "sub": "h2"}, hooks)
        assert report.changed == ["sub"]
        assert report.invalidated == []

    def test_new_routine_counts_as_changed(self):
        hooks = hooks_for({"main": "h1", "fresh": "h9"})
        report = diff_revisions("prog.f", {"main": "h1"}, hooks)
        assert report.changed == ["fresh"]

    def test_caller_invalidated_transitively(self):
        # main -> mid -> leaf; editing leaf stales both callers
        hooks = hooks_for(
            {"main": "h1", "mid": "h2", "leaf": "NEW"},
            callees={"main": {"mid"}, "mid": {"leaf"}, "leaf": set()},
        )
        report = diff_revisions(
            "prog.f", {"main": "h1", "mid": "h2", "leaf": "h3"}, hooks
        )
        assert report.changed == ["leaf"]
        assert report.invalidated == ["main", "mid"]
        assert report.affected() == ["leaf", "main", "mid"]

    def test_sibling_not_invalidated(self):
        # main calls both; editing left must not drag right in
        hooks = hooks_for(
            {"main": "h1", "left": "NEW", "right": "h3"},
            callees={"main": {"left", "right"}, "left": set(), "right": set()},
        )
        report = diff_revisions(
            "prog.f", {"main": "h1", "left": "h2", "right": "h3"}, hooks
        )
        assert report.changed == ["left"]
        assert report.invalidated == ["main"]
        assert "right" not in report.affected()

    def test_changed_routine_not_double_counted_as_invalidated(self):
        # a changed caller of a changed callee stays in `changed` only
        hooks = hooks_for(
            {"main": "NEW1", "leaf": "NEW2"},
            callees={"main": {"leaf"}, "leaf": set()},
        )
        report = diff_revisions(
            "prog.f", {"main": "h1", "leaf": "h2"}, hooks
        )
        assert report.changed == ["leaf", "main"]
        assert report.invalidated == []

    def test_cyclic_call_graph_terminates(self):
        # mutual recursion: the frontier loop must converge, not spin
        hooks = hooks_for(
            {"a": "NEW", "b": "h2"},
            callees={"a": {"b"}, "b": {"a"}},
        )
        report = diff_revisions("prog.f", {"a": "h1", "b": "h2"}, hooks)
        assert report.changed == ["a"]
        assert report.invalidated == ["b"]


class TestReportSerialization:
    def test_to_dict_drops_fingerprints(self):
        report = IncrementalReport(
            name="prog.f",
            changed=["a"],
            invalidated=["b"],
            reused=["c"],
            computed=["a", "b"],
            fingerprints={"a": "fp1", "b": "fp2", "c": "fp3"},
        )
        payload = report.to_dict()
        assert payload == {
            "name": "prog.f",
            "changed": ["a"],
            "invalidated": ["b"],
            "reused": ["c"],
            "computed": ["a", "b"],
        }
        assert "fingerprints" not in payload

    def test_affected_is_sorted_union(self):
        report = IncrementalReport(
            name="p", changed=["z", "a"], invalidated=["m", "a"]
        )
        assert report.affected() == ["a", "m", "z"]

    def test_summary_line_mentions_counts(self):
        report = IncrementalReport(
            name="p.f", changed=["a"], invalidated=["b", "c"], reused=["d"]
        )
        line = report.summary_line()
        assert "1 changed" in line and "2 invalidated" in line


class TestEngineIntegration:
    def test_engine_edit_propagates_through_callers(self):
        cache = SummaryCache()

        def revise(source, previous):
            _, _, hooks = compile_item(
                BatchItem("fig1c.f", source), AnalysisOptions(), cache,
                machine=True, audit=False,
            )
            return diff_revisions("fig1c.f", previous, hooks), hooks.unit_hashes

        first, hashes = revise(FIGURE_1C, {})
        assert first.invalidated == []
        assert sorted(first.changed) == first.affected()

        # edit only subroutine `in`; `main` calls it, `out` does not
        edited = FIGURE_1C.replace("B(J) = x", "B(J) = x * 1.0")
        assert edited != FIGURE_1C
        report, _ = revise(edited, hashes)
        assert len(report.changed) == 1
        assert report.invalidated  # the caller
        assert report.reused  # the untouched sibling
        assert set(report.reused).isdisjoint(report.affected())
        # the changed routine plus every affected one was recomputed
        assert set(report.affected()) <= set(report.computed)
