"""Unit tests for the call-graph-topology-aware batch scheduler."""

from __future__ import annotations

import pytest

from repro.dataflow import AnalysisOptions
from repro.engine import (
    BatchEngine,
    BatchItem,
    plan_schedule,
    resolve_schedule_mode,
)
from repro.engine.scheduler import item_topology
from repro.kernels.synthetic import make_driver, make_routine

LIB_A = make_routine("liba", "private", 200)
LIB_B = make_routine("libb", "reduction", 200)
APP_AB = make_driver("appab", ["liba", "libb"], 200) + LIB_A + LIB_B
APP_A = make_driver("appa", ["liba"], 200) + LIB_A

OPTS = AnalysisOptions()


class TestItemTopology:
    def test_bare_routine_is_pure_provider(self):
        topo = item_topology(LIB_A, OPTS)
        assert len(topo.provides) == 1
        assert topo.consumes == frozenset()
        assert not topo.opaque

    def test_app_consumes_its_callees(self):
        topo = item_topology(APP_AB, OPTS)
        lib_a = item_topology(LIB_A, OPTS)
        lib_b = item_topology(LIB_B, OPTS)
        # the embedded routines carry the same fingerprints as the
        # standalone library items — that identity is the whole game
        assert lib_a.provides < topo.consumes or lib_a.provides <= topo.consumes
        assert lib_b.provides <= topo.consumes
        # the driver itself has no in-item caller: it is provided
        assert len(topo.provides) == 1

    def test_unparseable_source_is_opaque(self):
        topo = item_topology("THIS IS NOT FORTRAN ((", OPTS)
        assert topo.opaque
        assert topo.provides == frozenset() == topo.consumes


class TestPlan:
    def test_providers_ordered_before_consumers(self):
        items = [
            BatchItem("app-ab", APP_AB),
            BatchItem("lib-a", LIB_A),
            BatchItem("app-a", APP_A),
            BatchItem("lib-b", LIB_B),
        ]
        plan = plan_schedule(items, OPTS, "topo")
        assert sorted(plan.order) == [0, 1, 2, 3]
        pos = {idx: k for k, idx in enumerate(plan.order)}
        assert pos[1] < pos[0] and pos[3] < pos[0]  # libs before app-ab
        assert pos[1] < pos[2]  # lib-a before app-a
        assert plan.deps[0] == {1, 3}
        assert plan.deps[2] == {1}
        assert plan.edges == 3
        assert plan.gated_items == 2
        assert plan.mode == "topo"

    def test_plan_is_deterministic(self):
        items = [
            BatchItem("a", APP_AB),
            BatchItem("b", LIB_B),
            BatchItem("c", LIB_A),
        ]
        first = plan_schedule(items, OPTS, "topo")
        second = plan_schedule(items, OPTS, "topo")
        assert first.order == second.order
        assert first.deps == second.deps

    def test_identical_library_items_are_not_mutually_gated(self):
        """Symmetric overlap (same provided fingerprint) creates no
        edge: only provider→consumer asymmetry does."""
        items = [BatchItem("l1", LIB_A), BatchItem("l2", LIB_A)]
        plan = plan_schedule(items, OPTS, "topo")
        assert plan.edges == 0
        assert plan.deps == {0: set(), 1: set()}
        assert plan.cyclic_items == 0

    def test_arbitrary_mode_keeps_input_order(self):
        items = [BatchItem("a", APP_AB), BatchItem("b", LIB_A)]
        plan = plan_schedule(items, OPTS, "arbitrary")
        assert plan.order == [0, 1]
        assert plan.edges == 0

    def test_opaque_items_ride_ungated(self):
        items = [
            BatchItem("bad", "NOT FORTRAN"),
            BatchItem("lib", LIB_A),
            BatchItem("app", APP_A),
        ]
        plan = plan_schedule(items, OPTS, "topo")
        assert plan.opaque_items == 1
        assert plan.deps[0] == set()
        assert sorted(plan.order) == [0, 1, 2]


class TestResolveMode:
    def test_explicit_modes_pass_through(self):
        assert resolve_schedule_mode("topo", 10, 4, None) == "topo"
        assert resolve_schedule_mode("arbitrary", 10, 1, "/tmp/c") == "arbitrary"

    def test_auto_in_process_runs_topo(self):
        """In-process runs dispatch in input order under ``auto``: a
        topo plan would re-parse every item for no cache gain."""
        assert resolve_schedule_mode("auto", 10, 1, None) == "arbitrary"
        assert resolve_schedule_mode("auto", 10, 1, "/tmp/c") == "arbitrary"

    def test_in_process_engine_plans_no_topology(self, tmp_path):
        items = [BatchItem("app-a", APP_A), BatchItem("lib-a", LIB_A)]
        engine = BatchEngine(
            OPTS, cache_dir=tmp_path, jobs=1, run_machine_model=False
        )
        assert engine.run(items).ok
        assert engine.last_plan.mode == "arbitrary"

    def test_auto_pool_needs_durable_tier(self):
        assert resolve_schedule_mode("auto", 10, 4, "/tmp/c") == "topo"
        assert resolve_schedule_mode("auto", 10, 4, None) == "arbitrary"

    def test_auto_single_item_is_arbitrary(self):
        assert resolve_schedule_mode("auto", 1, 1, None) == "arbitrary"

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown schedule mode"):
            resolve_schedule_mode("topological", 2, 1, None)
