"""Integration tests for the resident analysis daemon.

One :class:`~repro.server.app.ServerThread` per module drives the whole
HTTP request path — admission, routing, the single-analysis-thread
executor, NDJSON streaming — against the real pipeline, asserting the
daemon's verdicts are bit-identical to in-process compiles and that
saturation/malformed input degrade to 429/422 without taking the
process down or poisoning the resident caches.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.driver.panorama import Panorama
from repro.driver.report import loop_report_row
from repro.engine.cache import CacheStats
from repro.kernels import KERNELS
from repro.kernels.figure1 import FIGURE_1A, FIGURE_1C
from repro.perf import profiler
from repro.server import (
    AnalysisService,
    PanoramaClient,
    PanoramaServer,
    ServerConfig,
    ServerThread,
    ServiceError,
)
from repro.server.cli import run_selftest
from repro.server.http import json_body

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
    with PanoramaClient(port=server.port) as client:
        yield client


@pytest.fixture
def counted(monkeypatch):
    """A daemon of its own, and the writer of every connection it
    accepted, in order; ``ended`` collects them as their handlers end."""
    accepted: list = []
    ended: list = []
    real_handler = PanoramaServer._handle_connection

    async def counting(self, reader, writer):
        accepted.append(writer)
        try:
            await real_handler(self, reader, writer)
        finally:
            ended.append(writer)

    monkeypatch.setattr(PanoramaServer, "_handle_connection", counting)
    with ServerThread(AnalysisService()) as thread:
        yield thread, accepted, ended


def wait_for(predicate, seconds: float = 30.0) -> None:
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.01)


def hold(service: AnalysisService, name: str):
    """Stub *service*'s ``analyze`` on the instance: a request named
    *name* waits there until the returned ``release`` is set, after
    setting ``started``; any other request runs as usual."""
    started, release = threading.Event(), threading.Event()
    real_analyze = service.analyze

    def held_analyze(body, on_event=None):
        if body.get("name") == name:
            started.set()
            assert release.wait(timeout=30)
        return real_analyze(body, on_event)

    service.analyze = held_analyze
    return started, release


#: the ``request.summary_cache`` of an answer served whole
SERVED_WHOLE = {**dict.fromkeys(CacheStats().as_dict(), 0), "result_hits": 1}


def record_loop_exceptions(thread: ServerThread) -> list[dict]:
    """Route every exception the daemon's loop reports into a list."""
    reported: list[dict] = []
    installed = threading.Event()

    def install():
        thread._loop.set_exception_handler(
            lambda loop, context: reported.append(context)
        )
        installed.set()

    thread._loop.call_soon_threadsafe(install)
    assert installed.wait(timeout=10)
    return reported


@contextlib.contextmanager
def fake_daemon(answer: bytes | None):
    """A listener that reads each request's head, writes *answer* and
    ends the stream (None: never answers); yields its port and the
    accepted sockets."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    accepted: list[socket.socket] = []
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            accepted.append(conn)
            if answer is None:
                continue
            conn.settimeout(10)
            head = b""
            while b"\r\n\r\n" not in head:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                head += chunk
            conn.sendall(answer)
            conn.shutdown(socket.SHUT_WR)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1], accepted
    finally:
        stop.set()
        thread.join(timeout=10)
        listener.close()
        for conn in accepted:
            conn.close()


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
            # one client per worker (TestConnections shares one client)
            with PanoramaClient(port=client.port) as c:
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
                c.close()
            # the occupying request finished normally after release
            assert holder["payload"]["loops"] == expected_rows(FIGURE_1A)


class TestServedOnTheLoop:
    """A stored answer is written by the event loop, which never waits
    for the analysis thread: the loop runs no compile, no durable-tier
    read and no instance-level ``analyze``."""

    def test_served_beside_a_running_compile(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        service = AnalysisService(ServerConfig(max_inflight=4))
        started, release = hold(service, "slow.f")
        try:
            with ServerThread(service) as thread, \
                    PanoramaClient(port=thread.port, retries=0) as c:
                c.analyze(FIGURE_1A, name="stored.f")
                holder: dict = {}

                def occupy():
                    with PanoramaClient(port=thread.port, retries=0) as slow:
                        holder["payload"] = slow.analyze(FIGURE_1C, name="slow.f")

                t = threading.Thread(target=occupy)
                t.start()
                try:
                    assert started.wait(timeout=30)
                    served = c.analyze(FIGURE_1A, name="repeat.f")
                    # answered while the analysis thread is still held
                    assert not release.is_set() and t.is_alive()
                    assert served["request"]["summary_cache"] == SERVED_WHOLE
                    assert served["name"] == "repeat.f"
                    assert served["loops"] == expected_rows(FIGURE_1A)
                    stats = c.stats()
                    # unanswered: the held request and this stats request
                    assert (sum(stats["requests"].values())
                            == sum(stats["responses"].values()) + 2)
                    assert stats["admission"]["in_flight"] == 1
                finally:
                    release.set()
                    t.join(timeout=60)
                assert holder["payload"]["loops"] == expected_rows(FIGURE_1C)
                stats = c.stats()
                assert (sum(stats["requests"].values())
                        == sum(stats["responses"].values()) + 1)
                assert stats["requests"]["analyze"] == 3
                assert stats["responses"]["200"] == 4
                assert stats["summary_cache"]["result_hits"] == 1
                assert stats["telemetry"]["files"] == 3
        finally:
            sys.setswitchinterval(interval)

    def test_loop_runs_no_compile_no_durable_read_no_stub(
        self, tmp_path, monkeypatch
    ):
        import repro.server.service as service_module

        ran: dict[str, list[str]] = {
            "stub": [], "compile": [], "durable": [], "served": []
        }

        def recording(kind, fn):
            def wrapper(*args, **kwargs):
                ran[kind].append(threading.current_thread().name)
                return fn(*args, **kwargs)
            return wrapper

        service = AnalysisService(ServerConfig(cache_dir=str(tmp_path)))
        service.analyze = recording("stub", service.analyze)
        backend = service.cache.backend
        backend.get = recording("durable", backend.get)
        monkeypatch.setattr(service_module, "compile_item", recording(
            "compile", service_module.compile_item))
        monkeypatch.setattr(AnalysisService, "_served_body", recording(
            "served", AnalysisService._served_body))
        with ServerThread(service) as thread, \
                PanoramaClient(port=thread.port, retries=0) as c:
            first = c.analyze(FIGURE_1A, name="a.f")
            assert c.analyze(FIGURE_1A, name="b.f")["request"][
                "summary_cache"] == SERVED_WHOLE
            # from the durable tier: read on the analysis thread, then
            # served from memory on the loop
            service.cache.clear_memory()
            durable = c.analyze(FIGURE_1A, name="c.f")
            assert durable["request"]["summary_cache"]["result_hits"] == 1
            assert durable["request"]["summary_cache"]["disk_errors"] == 0
            again = c.analyze(FIGURE_1A, name="d.f")
            assert again["request"]["summary_cache"] == SERVED_WHOLE
        assert first["loops"] == durable["loops"] == again["loops"]
        # the loop tried each request from memory; it served two
        assert ran["served"] == ["panorama-serve"] * 4
        assert len(ran["stub"]) == 2 and len(ran["compile"]) == 1
        assert ran["durable"]
        for kind in ("stub", "compile", "durable"):
            assert all(
                name.startswith("panorama-analysis") for name in ran[kind]
            ), (kind, ran[kind])

    def test_served_body_is_canonical(self, server):
        """The spliced body is byte-identical to ``json_body`` of its
        payload, audited or not."""
        kernel = PROGRAMS[0]
        for audit in (False, True):
            body = json.dumps({
                "source": kernel.source, "name": kernel.full_id,
                "sizes": dict(kernel.sizes), "audit": audit,
            })
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=60)
            try:
                for _ in range(2):
                    conn.request("POST", "/v1/analyze", body=body)
                    raw = conn.getresponse().read()
            finally:
                conn.close()
            payload = json.loads(raw)
            assert payload["request"]["summary_cache"] == SERVED_WHOLE
            assert raw == json_body(payload)
            assert ("audit" in payload) is audit


class TestServedAdmission:
    """A stored answer passes the same admission and drain checks as a
    compile before the loop writes it."""

    def test_saturated_daemon_answers_429_to_served_and_compile(self):
        service = AnalysisService(ServerConfig(max_inflight=1))
        started, release = hold(service, "slow.f")
        with ServerThread(service) as thread, \
                PanoramaClient(port=thread.port, retries=0) as c:
            c.analyze(FIGURE_1A, name="stored.f")

            def occupy():
                with PanoramaClient(port=thread.port, retries=0) as slow:
                    slow.analyze(FIGURE_1C, name="slow.f")

            t = threading.Thread(target=occupy)
            t.start()
            try:
                assert started.wait(timeout=30)
                for source in (FIGURE_1A, FIGURE_1C + "C unseen\n"):
                    with pytest.raises(ServiceError) as err:
                        c.analyze(source, name="bounced.f")
                    assert err.value.status == 429
                    assert err.value.kind == "saturated"
                    assert err.value.retry_after is not None
                assert service.admission["rejected"] == 2
            finally:
                release.set()
                t.join(timeout=60)
            # the slot is free again: the stored answer is served
            served = c.analyze(FIGURE_1A, name="later.f")
            assert served["request"]["summary_cache"] == SERVED_WHOLE
            assert c.stats()["admission"]["in_flight"] == 0

    def test_draining_daemon_answers_503_to_served(self):
        service = AnalysisService(
            ServerConfig(max_inflight=4, drain_timeout_s=30.0)
        )
        started, release = hold(service, "slow.f")
        with ServerThread(service) as thread:
            with PanoramaClient(port=thread.port, retries=0) as c:
                c.analyze(FIGURE_1A, name="stored.f")
            holder: dict = {}

            def occupy():
                with PanoramaClient(port=thread.port, retries=0) as slow:
                    holder["payload"] = slow.analyze(FIGURE_1C, name="slow.f")

            t = threading.Thread(target=occupy)
            t.start()
            assert started.wait(timeout=30)
            drained: dict = {}
            drainer = threading.Thread(
                target=lambda: drained.setdefault("clean", thread.drain())
            )
            drainer.start()
            try:
                wait_for(lambda: service.draining)
                with PanoramaClient(port=thread.port, retries=0) as probe:
                    with pytest.raises(ServiceError) as err:
                        probe.analyze(FIGURE_1A, name="late.f")
                assert err.value.status == 503
                assert err.value.kind == "draining"
                assert err.value.retry_after is not None
            finally:
                release.set()
                t.join(timeout=60)
                drainer.join(timeout=60)
        assert drained["clean"] is True
        assert holder["payload"]["loops"] == expected_rows(FIGURE_1C)
        assert service.admission["drained_rejects"] == 1
        assert service.cache.stats.result_hits == 0


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
                with PanoramaClient(port=port, retries=0) as c:
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
            probe.close()

    def test_drain_closes_idle_keep_alive_connection_quietly(self):
        """A client holding an idle kept-alive connection is closed by
        the drain without any exception reaching the loop's handler."""
        with ServerThread(AnalysisService()) as thread:
            reported = record_loop_exceptions(thread)
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

    def test_drain_timeout_cancels_running_request_quietly(self):
        """A request still running when the drain times out is
        cancelled: its client sees the connection close, and no
        exception reaches the loop's handler."""
        service = AnalysisService()
        release = threading.Event()
        started = threading.Event()
        real_analyze = service.analyze

        def blocking_analyze(body, on_event=None):
            started.set()
            assert release.wait(timeout=30)
            return real_analyze(body, on_event)

        service.analyze = blocking_analyze
        outcome: dict = {}
        with ServerThread(service) as thread:
            reported = record_loop_exceptions(thread)

            def occupy():
                with PanoramaClient(port=thread.port, retries=0) as c:
                    try:
                        outcome["payload"] = c.analyze(FIGURE_1A, name="slow.f")
                    except OSError as exc:
                        outcome["error"] = exc

            t = threading.Thread(target=occupy)
            t.start()
            try:
                assert started.wait(timeout=30)
                assert thread.drain(timeout=0.5) is False
                t.join(timeout=30)
                assert not t.is_alive()
            finally:
                release.set()
                t.join(timeout=60)
        # a new connection, closed unanswered: retries=0 reports it
        assert isinstance(outcome.get("error"), ConnectionResetError)
        assert reported == []

    def test_drain_timeout_over_kept_connection_resends_once(self, counted):
        """On a kept connection, the close of a request cancelled by the
        drain timeout looks like an idle close: the request goes once
        more, on a new connection, which the closed listener refuses."""
        thread, accepted, _ = counted
        release = threading.Event()
        started = threading.Event()
        real_analyze = thread.service.analyze

        def blocking_analyze(body, on_event=None):
            started.set()
            assert release.wait(timeout=30)
            return real_analyze(body, on_event)

        thread.service.analyze = blocking_analyze
        outcome: dict = {}
        with PanoramaClient(port=thread.port, retries=0) as c:
            c.health()  # the connection is kept, idle

            def occupy():
                try:
                    outcome["payload"] = c.analyze(FIGURE_1A, name="slow.f")
                except OSError as exc:
                    outcome["error"] = exc

            t = threading.Thread(target=occupy)
            t.start()
            try:
                assert started.wait(timeout=30)
                assert thread.drain(timeout=0.5) is False
                t.join(timeout=30)
                assert not t.is_alive()
            finally:
                release.set()
                t.join(timeout=60)
        assert isinstance(outcome.get("error"), ConnectionRefusedError)
        assert len(accepted) == 1

    def test_stop_with_an_open_client_is_prompt(self):
        """A client's idle kept connection does not hold the daemon's
        shutdown: from Python 3.12 on, the listener's wait_closed() waits
        for every accepted connection to close."""
        thread = ServerThread(AnalysisService()).start()
        loop_thread = thread._thread
        with PanoramaClient(port=thread.port, retries=0) as c:
            assert c.health()["status"] == "ok"
            t0 = time.monotonic()
            thread.stop()
            assert time.monotonic() - t0 < 5.0
            assert not loop_thread.is_alive()

    def test_sigterm_with_an_open_client_drains_to_exit_5(self, tmp_path):
        """SIGTERM, sent to a ``panorama-serve`` process while a client
        keeps its connection open, drains the daemon to exit 5."""
        ready = tmp_path / "ready"
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server.cli", "--port", "0",
             "--ready-file", str(ready)],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        try:
            wait_for(lambda: ready.exists()
                     and ready.read_text().endswith("\n"))
            host, port = ready.read_text().split()
            with PanoramaClient(host=host, port=int(port), retries=0) as c:
                assert c.health()["status"] == "ok"
                proc.send_signal(signal.SIGTERM)
                stderr = proc.communicate(timeout=30)[1]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 5, stderr
        assert "drained cleanly (exit 5)" in stderr


class TestConnections:
    """One kept connection per client and thread, and the transport
    failures a client reports."""

    def test_sequential_requests_share_one_connection(self, counted):
        thread, accepted, _ = counted
        with PanoramaClient(port=thread.port, retries=0) as c:
            for _ in range(3):
                assert c.analyze(FIGURE_1A)["loops"] == expected_rows(FIGURE_1A)
            with pytest.raises(ServiceError) as err:
                c.analyze(BAD_SOURCE)
            assert err.value.status == 422
            assert c.health()["status"] == "ok"
            assert c.stats()["requests"]["analyze"] == 4
        assert len(accepted) == 1

    def test_idle_connection_closed_by_daemon_is_reopened(self, counted):
        thread, accepted, ended = counted
        with PanoramaClient(port=thread.port, retries=0) as c:
            assert c.health()["status"] == "ok"
            # the daemon closes the kept connection while it sits idle
            thread._loop.call_soon_threadsafe(accepted[0].close)
            wait_for(lambda: len(ended) == 1)
            payload = c.analyze(FIGURE_1A)
        assert payload["loops"] == expected_rows(FIGURE_1A)
        assert len(accepted) == 2

    def test_connection_close_answer_then_normal_request(self):
        # a 413 is answered with Connection: close (max_body_bytes as in
        # test_oversized_body_is_413; FIGURE_1A's body fits under it)
        service = AnalysisService(ServerConfig(max_body_bytes=1000))
        with ServerThread(service) as thread:
            with PanoramaClient(port=thread.port, retries=0) as c:
                with pytest.raises(ServiceError) as err:
                    c.analyze("C" * 2000)
                assert err.value.status == 413
                assert c.health()["status"] == "ok"
                payload = c.analyze(FIGURE_1A)
        assert payload["loops"] == expected_rows(FIGURE_1A)

    def test_abandoned_stream_then_json_request(self, counted):
        thread, accepted, ended = counted
        kernel = PROGRAMS[0]
        with PanoramaClient(port=thread.port, retries=0) as c:
            assert c.health()["status"] == "ok"
            stream = c.analyze_stream(kernel.source, sizes=dict(kernel.sizes))
            assert next(stream)["event"] == "routine_started"
            assert next(stream)["event"] == "loop_verdict"
            stream.close()  # abandoned halfway: its connection closes
            payload = c.analyze(kernel.source, sizes=dict(kernel.sizes))
        assert payload["loops"] == expected_rows(
            kernel.source, dict(kernel.sizes)
        )
        # the stream ran on a connection of its own, the JSON requests
        # on the kept one
        assert len(accepted) == 2
        wait_for(lambda: len(ended) == 2)

    def test_one_client_shared_by_threads(self, counted):
        thread, accepted, _ = counted
        jobs = PROGRAMS * 3
        ground_truth = {
            k.full_id: expected_rows(k.source, dict(k.sizes)) for k in PROGRAMS
        }

        # switch threads often, so that two of them would catch one
        # connection at once if the client let them
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with PanoramaClient(port=thread.port, timeout=30) as shared:

                def run(kernel):
                    payload = shared.analyze(
                        kernel.source, name=kernel.full_id,
                        sizes=dict(kernel.sizes),
                    )
                    return kernel.full_id, payload["loops"]

                with ThreadPoolExecutor(max_workers=8) as pool:
                    results = list(pool.map(run, jobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert [full_id for full_id, _ in results] == [k.full_id for k in jobs]
        for full_id, rows in results:
            assert rows == ground_truth[full_id], full_id
        # threads that send at once use one connection each, no more
        assert 1 <= len(accepted) <= 8

    def test_refused_port_raises_connection_refused(self):
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))  # bound, never listening
            port = holder.getsockname()[1]
            with pytest.raises(ConnectionRefusedError):
                PanoramaClient(port=port, retries=0).health()
            # retries govern a refusal too; the type survives them
            with pytest.raises(ConnectionRefusedError):
                PanoramaClient(port=port, retries=1, backoff_base=0.01).health()

    def test_stalled_daemon_raises_timeout(self):
        with fake_daemon(None) as (port, accepted):
            c = PanoramaClient(port=port, timeout=0.5)
            t0 = time.monotonic()
            with pytest.raises(TimeoutError):
                c.health()
            assert time.monotonic() - t0 >= 0.5
            # a timeout is not retried
            assert len(accepted) == 1

    def test_new_connection_closed_unanswered_is_not_resent(self):
        with fake_daemon(b"") as (port, accepted):
            with pytest.raises(ConnectionResetError):
                PanoramaClient(port=port, retries=0).health()
            assert len(accepted) == 1

    def test_unsupported_framing_raises_connection_error(self):
        chunked = (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n"
        )
        with fake_daemon(chunked) as (port, accepted):
            with pytest.raises(ConnectionError, match="Transfer-Encoding: chunked"):
                PanoramaClient(port=port, timeout=10).health()
            # a framing the daemon never writes is not retried
            assert len(accepted) == 1


def test_selftest_passes():
    assert run_selftest(ServerConfig()) == 0


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
                with PanoramaClient(port=port, retries=0) as c:
                    holder["first"] = c.analyze(FIGURE_1A, name="slow.f")

            t = threading.Thread(target=occupy)
            t.start()
            assert started.wait(timeout=30)

            releaser = threading.Timer(0.3, release.set)
            releaser.start()
            try:
                with PanoramaClient(
                    port=port, retries=8, backoff_base=0.05
                ) as retrying:
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
            with PanoramaClient(port=thread.port, retries=0) as c:
                with pytest.raises(ServiceError) as err:
                    c.analyze(FIGURE_1A)
            assert err.value.status == 429
