"""Integration tests for the resident analysis daemon.

One :class:`~repro.server.app.ServerThread` per module drives the whole
HTTP request path — admission, routing, the single-analysis-thread
executor, NDJSON streaming — against the real pipeline, asserting the
daemon's verdicts are bit-identical to in-process compiles and that
saturation/malformed input degrade to 429/422 without taking the
process down or poisoning the resident caches.
"""

from __future__ import annotations

import http.client
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.driver.panorama import Panorama
from repro.driver.report import loop_report_row
from repro.kernels import KERNELS
from repro.kernels.figure1 import FIGURE_1A, FIGURE_1C
from repro.perf import profiler
from repro.server import (
    AnalysisService,
    PanoramaClient,
    ServerConfig,
    ServerThread,
    ServiceError,
)

BAD_SOURCE = "THIS IS NOT FORTRAN ]["

#: one entry per distinct program text in the registry (kernels of the
#: same program share their source; re-analyzing them adds nothing)
PROGRAMS = list({k.source: k for k in KERNELS}.values())


def expected_rows(source: str, sizes=None) -> list[dict]:
    """The sequential in-process ground truth for one program."""
    result = Panorama(sizes=sizes).compile(source)
    return [loop_report_row(r) for r in result.loops]


@pytest.fixture(scope="module")
def server():
    service = AnalysisService(ServerConfig(max_inflight=32))
    with ServerThread(service) as thread:
        yield thread


@pytest.fixture(scope="module")
def client(server):
    return PanoramaClient(port=server.port)


class TestAnalyzeIdentity:
    def test_registry_verdicts_match_sequential_runs(self, client):
        for kernel in PROGRAMS:
            sizes = dict(kernel.sizes)
            payload = client.analyze(
                kernel.source, name=kernel.full_id, sizes=sizes
            )
            assert payload["loops"] == expected_rows(kernel.source, sizes), (
                f"daemon verdicts diverged for {kernel.full_id}"
            )
            assert payload["name"] == kernel.full_id

    def test_repeat_requests_are_stable_and_warmer(self, client):
        profiler.clear_caches()  # cold contents; probes are delta-scoped
        kernel = PROGRAMS[0]
        sizes = dict(kernel.sizes)
        # a source text no earlier test sent, so the first request
        # misses the result tier
        source = kernel.source + "C repeat probe\n"
        first = client.analyze(source, sizes=sizes)
        second = client.analyze(source, sizes=sizes)
        assert second["loops"] == first["loops"]
        assert first["request"]["summary_cache"]["result_hits"] == 0
        # the resident-cache payoff, observed over the wire: the
        # identical resubmission is served whole, writing nothing
        assert second["request"]["summary_cache"]["result_hits"] == 1
        assert second["request"]["summary_cache"]["hits"] == 0
        assert second["request"]["summary_cache"]["stores"] == 0
        assert second["request"]["elapsed_ms"] < first["request"]["elapsed_ms"]
        # a comment-only edit misses the result tier; every summarized
        # routine replays from the cache, nothing new is written, and
        # the symbolic hit rate is strictly higher than the first's
        edited = client.analyze(
            kernel.source + "C repeat probe, edited\n", sizes=sizes
        )
        assert edited["loops"] == first["loops"]
        assert edited["request"]["summary_cache"]["result_hits"] == 0
        assert edited["request"]["summary_cache"]["hits"] > 0
        assert edited["request"]["summary_cache"]["stores"] == 0
        assert (
            edited["request"]["summary_cache"]["misses"]
            <= first["request"]["summary_cache"]["misses"]
        )
        assert edited["request"]["hit_rate"] > first["request"]["hit_rate"]


class TestConcurrency:
    def test_overlapping_mixed_requests(self, client, server):
        """N overlapping requests, valid and invalid interleaved: every
        valid answer is bit-identical to its sequential ground truth,
        every invalid one is a clean 422 — no cross-talk, no crash."""
        valid = PROGRAMS[: min(3, len(PROGRAMS))]
        ground_truth = {
            k.full_id: expected_rows(k.source, dict(k.sizes)) for k in valid
        }
        jobs = []
        for i in range(8):
            if i % 2 == 0:
                jobs.append(valid[(i // 2) % len(valid)])
            else:
                jobs.append(None)  # an invalid submission

        def run(job):
            # one client per worker: http.client connections are not
            # thread-safe, client objects are just host/port holders
            c = PanoramaClient(port=client.port)
            if job is None:
                with pytest.raises(ServiceError) as err:
                    c.analyze(BAD_SOURCE, name="bad.f")
                return ("error", err.value.status, err.value.kind)
            payload = c.analyze(
                job.source, name=job.full_id, sizes=dict(job.sizes)
            )
            return ("ok", job.full_id, payload["loops"])

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(run, jobs))

        oks = [r for r in results if r[0] == "ok"]
        errors = [r for r in results if r[0] == "error"]
        assert len(oks) == 4 and len(errors) == 4
        for _, full_id, rows in oks:
            assert rows == ground_truth[full_id], full_id
        for _, status, kind in errors:
            assert status == 422
            assert kind in ("source", "analysis")
        # the daemon is still healthy afterwards
        assert client.health()["status"] == "ok"

    def test_saturation_answers_429_with_retry_after(self, server):
        """Fill the only analysis slot with a blocked request, then watch
        the next one bounce off admission control — deterministically."""
        service = AnalysisService(ServerConfig(max_inflight=1))
        release = threading.Event()
        started = threading.Event()
        real_analyze = service.analyze

        def blocking_analyze(body, on_event=None):
            started.set()
            assert release.wait(timeout=30)
            return real_analyze(body, on_event)

        service.analyze = blocking_analyze
        with ServerThread(service) as thread:
            # retries=0: this test asserts on the raw 429 rejection
            c = PanoramaClient(port=thread.port, retries=0)
            holder: dict = {}

            def occupy():
                holder["payload"] = c.analyze(FIGURE_1A, name="slow.f")

            t = threading.Thread(target=occupy)
            t.start()
            try:
                assert started.wait(timeout=30)
                with pytest.raises(ServiceError) as err:
                    c.analyze(FIGURE_1A, name="bounced.f")
                assert err.value.status == 429
                assert err.value.kind == "saturated"
                assert err.value.retry_after is not None
                # health/stats stay answerable while the slot is held:
                # the event loop never blocks on analysis
                stats = c.stats()
                assert stats["admission"]["in_flight"] == 1
                assert stats["admission"]["rejected"] >= 1
            finally:
                release.set()
                t.join(timeout=60)
            # the occupying request finished normally after release
            assert holder["payload"]["loops"] == expected_rows(FIGURE_1A)


class TestFailureContainment:
    def test_malformed_source_is_422_and_caches_stay_clean(self, client):
        baseline = client.analyze(FIGURE_1A, name="clean.f")
        with pytest.raises(ServiceError) as err:
            client.analyze(BAD_SOURCE, name="bad.f")
        assert err.value.status == 422
        assert err.value.kind in ("source", "analysis")
        again = client.analyze(FIGURE_1A, name="clean.f")
        assert again["loops"] == baseline["loops"]

    def test_malformed_json_body_is_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request(
                "POST", "/v1/analyze", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            payload = json.loads(resp.read())
        finally:
            conn.close()
        assert resp.status == 400
        assert payload["error"]["kind"] == "protocol"

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.request("GET", "/v1/nope")
        assert err.value.status == 404

    def test_wrong_method_is_405_with_allow(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("DELETE", "/v1/analyze")
            resp = conn.getresponse()
            resp.read()
            allow = resp.headers.get("Allow")
        finally:
            conn.close()
        assert resp.status == 405
        assert allow == "POST"

    def test_oversized_body_is_413(self):
        # a dedicated server with a tiny body cap: the rejected payload
        # still fits in the socket buffer, so the client reliably gets
        # the 413 instead of racing a mid-upload connection reset
        service = AnalysisService(ServerConfig(max_body_bytes=1000))
        with ServerThread(service) as thread:
            conn = http.client.HTTPConnection(
                "127.0.0.1", thread.port, timeout=30
            )
            try:
                conn.request(
                    "POST", "/v1/analyze",
                    body=json.dumps({"source": "C" * 2000}).encode(),
                    headers={"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                resp.read()
            finally:
                conn.close()
        assert resp.status == 413


class TestStreaming:
    def test_stream_matches_blocking_verdicts(self, client):
        kernel = PROGRAMS[0]
        blocking = client.analyze(kernel.source, sizes=dict(kernel.sizes))
        events = list(
            client.analyze_stream(kernel.source, sizes=dict(kernel.sizes))
        )
        kinds = [e["event"] for e in events]
        assert kinds[0] == "routine_started"
        assert kinds[-1] == "done"
        verdicts = [e for e in events if e["event"] == "loop_verdict"]
        assert len(verdicts) == len(blocking["loops"])
        # streamed rows are the blocking rows minus the machine-model
        # columns (those are only known after the compile finishes)
        for streamed, final in zip(verdicts, blocking["loops"]):
            for key, value in streamed.items():
                if key == "event":
                    continue
                assert final[key] == value
        done = events[-1]
        assert done["loops"] == len(blocking["loops"])
        assert done["parallel_loops"] == blocking["parallel_loops"]

    def test_stream_error_event_for_bad_source(self, client):
        events = list(client.analyze_stream(BAD_SOURCE, name="bad.f"))
        assert len(events) == 1
        assert events[0]["event"] == "error"
        assert events[0]["status"] == 422


class TestWatchOverHttp:
    def test_watch_lifecycle(self, client):
        sid = client.watch_open(name="watched.f")
        rev1 = client.watch_submit(sid, FIGURE_1C)
        assert rev1["revision"] == 1
        assert rev1["report"]["changed"] and not rev1["report"]["invalidated"]

        edited = FIGURE_1C.replace("B(J) = x", "B(J) = x * 1.0")
        rev2 = client.watch_submit(sid, edited)
        assert rev2["revision"] == 2
        report = rev2["report"]
        assert len(report["changed"]) == 1
        assert report["invalidated"] and report["reused"]
        affected = set(report["changed"]) | set(report["invalidated"])
        assert {row["routine"] for row in rev2["loops"]} <= affected
        assert len(rev2["loops"]) < rev2["total_loops"]

        closed = client.watch_close(sid)
        assert closed["closed"] is True
        with pytest.raises(ServiceError) as err:
            client.watch_submit(sid, FIGURE_1C)
        assert err.value.status == 404


class TestIntrospection:
    def test_stats_reflects_the_session(self, client):
        stats = client.stats()
        assert stats["server"]["uptime_s"] >= 0
        assert stats["requests"]["analyze"] >= 1
        assert stats["responses"].get("200", 0) >= 1
        assert stats["responses"].get("422", 0) >= 1
        assert stats["telemetry"]["files"] >= 1
        assert stats["summary_cache"]["stores"] > 0


class TestGracefulDrain:
    def test_drain_completes_in_flight_and_rejects_new(self):
        """With max_inflight > 1 and both slots occupied, a drain must
        deliver every in-flight verdict (zero dropped) while answering
        new requests 503 + Retry-After, then report a clean drain."""
        service = AnalysisService(
            ServerConfig(max_inflight=2, drain_timeout_s=30.0)
        )
        release = threading.Event()
        started = threading.Event()
        real_analyze = service.analyze

        def blocking_analyze(body, on_event=None):
            # only the first request blocks: the analysis executor is
            # single-threaded, the second stays queued (but in-flight)
            started.set()
            assert release.wait(timeout=30)
            return real_analyze(body, on_event)

        service.analyze = blocking_analyze
        with ServerThread(service) as thread:
            port = thread.port
            holder: dict = {}

            def occupy(slot: str):
                c = PanoramaClient(port=port, retries=0)
                holder[slot] = c.analyze(FIGURE_1A, name=f"{slot}.f")

            workers = [
                threading.Thread(target=occupy, args=(s,)) for s in ("a", "b")
            ]
            for t in workers:
                t.start()
            assert started.wait(timeout=30)
            import time as _time

            t0 = _time.monotonic()
            while service.admission["in_flight"] < 2:  # both admitted
                assert _time.monotonic() - t0 < 30.0
                _time.sleep(0.01)

            drained: dict = {}

            def drain():
                drained["clean"] = thread.drain()

            drainer = threading.Thread(target=drain)
            drainer.start()
            # draining is visible before the in-flight work finishes
            probe = PanoramaClient(port=port, retries=0)
            t0 = _time.monotonic()
            while not service.draining:
                assert _time.monotonic() - t0 < 30.0
                _time.sleep(0.01)
            assert probe.health()["status"] == "draining"
            with pytest.raises(ServiceError) as err:
                probe.analyze(FIGURE_1A, name="late.f")
            assert err.value.status == 503
            assert err.value.kind == "draining"
            assert err.value.retry_after is not None

            release.set()
            for t in workers:
                t.join(timeout=60)
            drainer.join(timeout=60)
            assert drained["clean"] is True
            # zero dropped verdicts: both occupied slots answered fully
            expected = expected_rows(FIGURE_1A)
            assert holder["a"]["loops"] == expected
            assert holder["b"]["loops"] == expected
            assert service.admission["drained_rejects"] >= 1
            assert service.admission["in_flight"] == 0

    def test_drain_closes_idle_keep_alive_connection_quietly(self):
        """A client holding an idle kept-alive connection is closed by
        the drain without any exception reaching the loop's handler."""
        reported: list[dict] = []
        with ServerThread(AnalysisService()) as thread:
            installed = threading.Event()

            def install():
                thread._loop.set_exception_handler(
                    lambda loop, context: reported.append(context)
                )
                installed.set()

            thread._loop.call_soon_threadsafe(install)
            assert installed.wait(timeout=10)
            conn = http.client.HTTPConnection(thread.host, thread.port)
            try:
                conn.request("GET", "/v1/health")
                response = conn.getresponse()
                assert response.status == 200
                response.read()  # the connection stays open, idle
                assert thread.drain(timeout=5.0) is True
            finally:
                conn.close()
        assert reported == []


class TestClientRetries:
    def test_client_rides_out_saturation(self):
        """A retrying client sees one 429, sleeps per Retry-After, and
        succeeds once the slot frees — no ServiceError surfaces."""
        service = AnalysisService(
            ServerConfig(max_inflight=1, retry_after_s=0.1)
        )
        release = threading.Event()
        started = threading.Event()
        real_analyze = service.analyze

        def blocking_analyze(body, on_event=None):
            if not started.is_set():
                started.set()
                assert release.wait(timeout=30)
            return real_analyze(body, on_event)

        service.analyze = blocking_analyze
        with ServerThread(service) as thread:
            port = thread.port
            holder: dict = {}

            def occupy():
                c = PanoramaClient(port=port, retries=0)
                holder["first"] = c.analyze(FIGURE_1A, name="slow.f")

            t = threading.Thread(target=occupy)
            t.start()
            assert started.wait(timeout=30)

            releaser = threading.Timer(0.3, release.set)
            releaser.start()
            try:
                retrying = PanoramaClient(
                    port=port, retries=8, backoff_base=0.05
                )
                payload = retrying.analyze(FIGURE_1A, name="patient.f")
            finally:
                release.set()
                releaser.cancel()
                t.join(timeout=60)
            assert payload["loops"] == expected_rows(FIGURE_1A)
            # admission really did bounce the patient client at least once
            assert service.admission["rejected"] >= 1

    def test_zero_retries_raises_immediately(self):
        service = AnalysisService(ServerConfig(max_inflight=0))
        with ServerThread(service) as thread:
            c = PanoramaClient(port=thread.port, retries=0)
            with pytest.raises(ServiceError) as err:
                c.analyze(FIGURE_1A)
            assert err.value.status == 429
