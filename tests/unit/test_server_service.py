"""Unit tests for the daemon's synchronous core (repro.server.service)."""

from __future__ import annotations

import pytest

from repro.driver.panorama import Panorama
from repro.driver.report import loop_report_row
from repro.kernels.figure1 import FIGURE_1A, FIGURE_1B, FIGURE_1C
from repro.perf import profiler
from repro.server.service import AnalysisService, RequestError, ServerConfig


def make_service(**kwargs) -> AnalysisService:
    return AnalysisService(ServerConfig(**kwargs))


def expected_rows(source: str):
    return [loop_report_row(r) for r in Panorama().compile(source).loops]


class TestRequestShape:
    def test_missing_source_is_400(self):
        service = make_service()
        with pytest.raises(RequestError) as err:
            service.analyze({})
        assert err.value.status == 400
        assert err.value.kind == "request"

    def test_non_dict_body_is_400(self):
        with pytest.raises(RequestError) as err:
            make_service().analyze(["not", "an", "object"])
        assert err.value.status == 400

    def test_empty_source_is_400(self):
        with pytest.raises(RequestError) as err:
            make_service().analyze({"source": "   "})
        assert err.value.status == 400

    def test_bad_sizes_is_400(self):
        with pytest.raises(RequestError) as err:
            make_service().analyze({"source": FIGURE_1A, "sizes": {"n": "big"}})
        assert err.value.status == 400

    def test_unknown_option_is_400(self):
        with pytest.raises(RequestError) as err:
            make_service().analyze(
                {"source": FIGURE_1A, "options": {"turbo": True}}
            )
        assert err.value.status == 400
        assert "turbo" in err.value.message

    def test_bad_ablate_is_400(self):
        with pytest.raises(RequestError) as err:
            make_service().build_options({"options": {"ablate": ["T9"]}})
        assert err.value.status == 400

    def test_negative_budget_is_400(self):
        with pytest.raises(RequestError) as err:
            make_service().build_options({"options": {"budget_ms": -5}})
        assert err.value.status == 400


class TestOptionClamping:
    def test_defaults_inherit_server_ceilings(self):
        service = make_service(budget_ms=250.0, budget_steps=10_000)
        options = service.build_options({})
        assert options.budget_ms == 250.0
        assert options.budget_steps == 10_000

    def test_request_may_tighten(self):
        service = make_service(budget_steps=10_000)
        options = service.build_options(
            {"options": {"budget_steps": 100}}
        )
        assert options.budget_steps == 100

    def test_request_cannot_loosen(self):
        service = make_service(budget_ms=100.0, budget_steps=1_000)
        options = service.build_options(
            {"options": {"budget_ms": 60_000, "budget_steps": 10**9}}
        )
        assert options.budget_ms == 100.0
        assert options.budget_steps == 1_000

    def test_ablations_map_to_techniques(self):
        options = make_service().build_options(
            {"options": {"ablate": ["T1", "T3"], "no_fm": True}}
        )
        assert not options.symbolic
        assert options.if_conditions
        assert not options.interprocedural
        assert not options.use_fm


class TestAnalyze:
    def test_verdicts_match_in_process_pipeline(self):
        payload = make_service().analyze(
            {"source": FIGURE_1A, "name": "fig1a.f"}
        )
        assert payload["name"] == "fig1a.f"
        assert payload["loops"] == expected_rows(FIGURE_1A)
        assert payload["degraded"] is False

    def test_request_block_reports_per_request_counters(self):
        # drop global cache *contents* so the first request is cold; the
        # probes are delta-scoped, so surviving counters don't matter
        profiler.clear_caches()
        service = make_service()
        first = service.analyze({"source": FIGURE_1A})
        second = service.analyze({"source": FIGURE_1A})
        assert first["request"]["elapsed_ms"] > 0
        assert first["request"]["summary_cache"]["result_hits"] == 0
        # identical resubmission: served whole from the result tier —
        # no summary looked up or stored, no symbolic work done
        block = second["request"]
        assert block["summary_cache"]["result_hits"] == 1
        assert block["summary_cache"]["hits"] == 0
        assert block["summary_cache"]["stores"] == 0
        assert block["symbolic"] == {}
        assert second["timings"]["total"] == 0.0
        assert second["symbolic"] == {}
        assert second["loops"] == first["loops"]
        # a comment-only edit misses the result tier: every routine
        # summary is served from the resident cache, and the symbolic
        # memo hit rate rises
        edited = service.analyze(
            {"source": FIGURE_1A + "C comment-only edit\n"}
        )
        block = edited["request"]
        assert block["summary_cache"]["result_hits"] == 0
        assert block["summary_cache"]["hits"] > 0
        assert block["summary_cache"]["misses"] == 0
        assert block["summary_cache"]["stores"] == 0
        assert block["hit_rate"] > first["request"]["hit_rate"]
        assert edited["loops"] == first["loops"]

    def test_malformed_source_is_422_typed(self):
        with pytest.raises(RequestError) as err:
            make_service().analyze({"source": "NOT FORTRAN ]["})
        assert err.value.status == 422
        assert err.value.kind in ("source", "analysis")

    def test_failure_does_not_poison_resident_caches(self):
        service = make_service()
        baseline = service.analyze({"source": FIGURE_1A})
        with pytest.raises(RequestError):
            service.analyze({"source": "       DO BROKEN\n"})
        again = service.analyze({"source": FIGURE_1A})
        assert again["loops"] == baseline["loops"]

    def test_budget_degrades_in_band_not_an_error(self):
        payload = make_service().analyze(
            {"source": FIGURE_1A, "options": {"budget_steps": 1}}
        )
        assert payload["degraded"] is True
        assert payload["request"]["degraded_loops"] > 0
        degraded_rows = [row for row in payload["loops"] if row["degraded"]]
        assert degraded_rows
        # conservative, never optimistic: a degraded loop is not parallel
        assert all(not row["parallel"] for row in degraded_rows)
        assert any(row["status"] == "unknown (budget)" for row in degraded_rows)

    def test_audit_rides_in_payload_when_requested(self):
        payload = make_service().analyze(
            {"source": FIGURE_1A, "audit": True}
        )
        assert "audit" in payload
        assert payload["audit"]["counts"]["loops_audited"] >= 1


class TestStreamEvents:
    def test_event_order_and_identity(self):
        events = []
        payload = make_service().analyze_stream(
            {"source": FIGURE_1B, "name": "fig1b.f"}, events.append
        )
        assert payload is not None
        kinds = [e["event"] for e in events]
        assert kinds[0] == "routine_started"
        assert kinds[-1] == "done"
        verdicts = [e for e in events if e["event"] == "loop_verdict"]
        assert len(verdicts) == len(payload["loops"])
        # each routine announced before its first verdict
        seen: set[str] = set()
        current = None
        for event in events:
            if event["event"] == "routine_started":
                current = event["routine"]
                assert current not in seen
                seen.add(current)
            elif event["event"] == "loop_verdict":
                assert event["routine"] == current

    def test_error_event_closes_stream(self):
        events = []
        payload = make_service().analyze_stream(
            {"source": "NOT FORTRAN"}, events.append
        )
        assert payload is None
        assert events[-1]["event"] == "error"
        assert events[-1]["status"] == 422

    def test_done_event_carries_request_stats(self):
        events = []
        make_service().analyze_stream({"source": FIGURE_1A}, events.append)
        done = events[-1]
        assert done["event"] == "done"
        assert done["loops"] == len(
            [e for e in events if e["event"] == "loop_verdict"]
        )
        assert "hit_rate" in done["request"]


class TestWatchSessions:
    def test_unknown_session_is_404(self):
        with pytest.raises(RequestError) as err:
            make_service().watch_submit("w99", {"source": FIGURE_1A})
        assert err.value.status == 404

    def test_edit_reports_only_invalidated_routines(self):
        service = make_service()
        sid = service.watch_open({"name": "fig.f"})["session"]
        rev1 = service.watch_submit(sid, {"source": FIGURE_1C})
        assert rev1["revision"] == 1
        assert rev1["report"]["changed"]  # first revision: everything
        assert not rev1["report"]["invalidated"]
        assert len(rev1["loops"]) == rev1["total_loops"]

        # edit only subroutine `in`: it changes, its caller `main` is
        # invalidated through the callee fingerprint, `out` is reused
        edited = FIGURE_1C.replace("B(J) = x", "B(J) = x * 1.0")
        assert edited != FIGURE_1C
        rev2 = service.watch_submit(sid, {"source": edited})
        assert rev2["revision"] == 2
        report = rev2["report"]
        assert len(report["changed"]) == 1
        assert report["invalidated"]
        assert report["reused"]
        affected = set(report["changed"]) | set(report["invalidated"])
        assert set(report["reused"]).isdisjoint(affected)
        # the response carries only the loops the edit may have moved
        assert {row["routine"] for row in rev2["loops"]} <= affected
        assert len(rev2["loops"]) < rev2["total_loops"]

    def test_close_then_submit_is_404(self):
        service = make_service()
        sid = service.watch_open({})["session"]
        closed = service.watch_close(sid)
        assert closed["closed"] is True
        with pytest.raises(RequestError) as err:
            service.watch_submit(sid, {"source": FIGURE_1A})
        assert err.value.status == 404

    def test_watch_error_does_not_advance_revision(self):
        service = make_service()
        sid = service.watch_open({})["session"]
        service.watch_submit(sid, {"source": FIGURE_1A})
        with pytest.raises(RequestError):
            service.watch_submit(sid, {"source": "BAD ]["})
        rev = service.watch_submit(sid, {"source": FIGURE_1A})
        assert rev["revision"] == 2
        # unchanged resubmission after the failure: everything reused
        assert not rev["report"]["changed"]
        assert rev["report"]["reused"]



class TestFailureMapping:
    """A watch revision maps a failed compile exactly as an analyze
    request does (docs/server.md: 422 for refusals, 500 for OOM)."""

    @pytest.mark.parametrize("endpoint", ["analyze", "watch"])
    @pytest.mark.parametrize(
        "exc, status, kind",
        [(RecursionError, 422, "analysis"), (MemoryError, 500, "oom")],
        ids=["recursion", "memory"],
    )
    def test_compile_failure(self, monkeypatch, endpoint, exc, status, kind):
        def fail(*args, **kwargs):
            raise exc()

        monkeypatch.setattr(Panorama, "compile", fail)
        service = make_service()
        with pytest.raises(RequestError) as err:
            if endpoint == "analyze":
                service.analyze({"source": FIGURE_1A})
            else:
                sid = service.watch_open({})["session"]
                service.watch_submit(sid, {"source": FIGURE_1A})
        assert (err.value.status, err.value.kind) == (status, kind)


class TestIntrospection:
    def test_health_shape(self):
        health = make_service().health()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0

    def test_stats_rolls_up_requests(self):
        service = make_service()
        service.analyze({"source": FIGURE_1A})
        service.note_request("analyze")
        service.note_response(200)
        stats = service.stats()
        assert stats["requests"]["analyze"] == 1
        assert stats["responses"]["200"] == 1
        assert stats["telemetry"]["files"] == 1
        assert stats["telemetry"]["loops"] == len(expected_rows(FIGURE_1A))
        assert stats["summary_cache"]["stores"] > 0
        assert stats["server"]["watch_sessions"] == 0
