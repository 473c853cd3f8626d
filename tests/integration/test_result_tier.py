"""Integration: the result tier serves unchanged items whole.

A served item must be indistinguishable from a fresh compile in every
verdict row, over the Perfect registry, ``FRONTIER_KERNELS`` and a
fixed-seed campaign, through the batch engine (in-process and pooled,
on both durable backends) and the daemon's service (plain and
streaming).  The tier must recover from a corrupt entry, never store a
failed or degraded item, stay inert in the modes that exist to exercise
the real pipeline, and leave the same ledger trail a compile does.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sqlite3

import pytest

from repro.dataflow import AnalysisOptions
from repro.driver.panorama import Panorama
from repro.engine import (
    BatchEngine,
    BatchItem,
    DiskBackend,
    SharedSQLiteBackend,
    SummaryCache,
    items_from_kernel_registry,
)
from repro.engine.cache import result_key
from repro.engine.campaign import generate_campaign
from repro.engine.campaign import main as campaign_main
from repro.engine.ledger import replay
from repro.driver.report import loop_report_row, result_to_dict
from repro.kernels import FRONTIER_KERNELS
from repro.regions import sanitize
from repro.resilience import faults
from repro.server.service import AnalysisService

CAMPAIGN_SEED, CAMPAIGN_COUNT = 5, 12

BAD = BatchItem(name="bad.f", source="      this is not fortran\n")


@pytest.fixture(scope="module")
def corpus():
    return (
        items_from_kernel_registry()
        + [BatchItem(name=k.name, source=k.source) for k in FRONTIER_KERNELS]
        + generate_campaign(CAMPAIGN_COUNT, seed=CAMPAIGN_SEED)
    )


@pytest.fixture(scope="module")
def fresh_rows(corpus):
    """Each item's rows from a fresh in-process compile."""
    return {
        item.name: [
            loop_report_row(r)
            for r in Panorama(sizes=item.sizes).compile(item.source).loops
        ]
        for item in corpus
    }


@pytest.fixture(autouse=True)
def no_fault_plan(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reset()
    yield
    faults.reset()


def as_bytes(rows) -> str:
    return json.dumps(rows)


def key_of(item: BatchItem, options=None, machine=True, audit=False) -> str:
    return result_key(
        item.source, options or AnalysisOptions(), item.sizes, machine, audit,
        item.name,
    )


class TestServedEqualsFresh:
    @pytest.mark.parametrize("backend", ["disk", "shared"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_engine(self, corpus, fresh_rows, tmp_path, jobs, backend):
        def run():
            engine = BatchEngine(
                cache_dir=tmp_path, jobs=jobs, cache_backend=backend
            )
            report = engine.run(corpus)
            engine.cache.close()
            assert report.ok
            return report

        cold = run()
        assert cold.telemetry.cache.result_hits == 0
        warm = run()
        assert warm.telemetry.cache.result_hits == len(corpus)
        assert as_bytes(warm.verdict_rows()) == as_bytes(fresh_rows)
        assert as_bytes(cold.verdict_rows()) == as_bytes(fresh_rows)
        for res in warm.results:
            # a served item reports only the work it did: none
            assert set(res.payload["timings"].values()) == {0.0}
            assert res.payload["symbolic"] == {}
            assert res.payload["name"] == res.name

    def test_service(self, corpus, fresh_rows):
        service = AnalysisService()
        for item in corpus:
            body = {"source": item.source, "name": item.name,
                    "sizes": dict(item.sizes)}
            service.analyze(body)
            served = service.analyze(body)
            assert served["request"]["summary_cache"]["result_hits"] == 1
            assert served["name"] == item.name
            assert as_bytes(served["loops"]) == as_bytes(fresh_rows[item.name])

    def test_stream_replays_the_compile_events(self, corpus, fresh_rows):
        service = AnalysisService()
        distinct = {item.source: item for item in corpus}.values()
        for item in distinct:
            body = {"source": item.source, "name": item.name,
                    "sizes": dict(item.sizes), "audit": True}
            missed, served = [], []
            service.analyze_stream(body, missed.append)
            payload = service.analyze_stream(body, served.append)
            assert missed[-1]["request"]["summary_cache"]["result_hits"] == 0
            assert served[-1]["request"]["summary_cache"]["result_hits"] == 1
            strip = [
                [{k: v for k, v in e.items() if k != "request"} for e in events]
                for events in (missed, served)
            ]
            assert strip[0] == strip[1]
            assert as_bytes(payload["loops"]) == as_bytes(fresh_rows[item.name])


class TestRecovery:
    @pytest.mark.parametrize("backend", ["disk", "shared"])
    def test_corrupt_entry_is_quarantined_and_recomputed(
        self, tmp_path, backend
    ):
        items = generate_campaign(3, seed=CAMPAIGN_SEED)

        def run():
            engine = BatchEngine(cache_dir=tmp_path, cache_backend=backend)
            report = engine.run(items)
            engine.cache.close()
            return report

        cold = run()
        key = key_of(items[0])
        if backend == "disk":
            path = DiskBackend(tmp_path).path(key)
            data = bytearray(path.read_bytes())
            data[-1] ^= 0xFF  # a bit flip inside the checksummed payload
            path.write_bytes(bytes(data))
        else:
            db = tmp_path / SharedSQLiteBackend.DB_NAME
            with sqlite3.connect(db) as conn:
                conn.execute(
                    "UPDATE summaries SET digest = zeroblob(32)"
                    " WHERE fingerprint = ?", (key,),
                )
        again = run()
        assert again.ok
        assert again.telemetry.cache.quarantined == 1
        assert again.result(items[0].name).cache_stats.result_hits == 0
        assert again.telemetry.cache.result_hits == len(items) - 1
        assert again.verdict_rows() == cold.verdict_rows()
        # the recomputed result was stored again
        assert run().telemetry.cache.result_hits == len(items)

    def test_supervised_run_with_every_item_served(self, tmp_path):
        """A per-item timeout puts even one miss on the pool; with no
        miss at all the run builds no pool."""
        items = generate_campaign(2, seed=CAMPAIGN_SEED)
        for hits in (0, len(items)):
            report = BatchEngine(
                cache_dir=tmp_path, jobs=2, timeout_per_item=30.0
            ).run(items)
            assert report.ok
            assert report.telemetry.cache.result_hits == hits

    def test_failed_items_are_never_stored(self, tmp_path):
        good = generate_campaign(1, seed=CAMPAIGN_SEED)[0]
        for _ in range(2):
            report = BatchEngine(cache_dir=tmp_path).run([BAD, good])
            assert report.result(BAD.name).error_kind == "source"
        assert report.result(good.name).cache_stats.result_hits == 1
        assert report.result(BAD.name).cache_stats.result_hits == 0
        assert SummaryCache(tmp_path).get_result(key_of(BAD), BAD.name) is None

    def test_degraded_payloads_are_never_stored(self):
        item = items_from_kernel_registry()[0]
        result = Panorama(AnalysisOptions(budget_steps=1)).compile(item.source)
        payload = result_to_dict(result, name=item.name)
        assert any(row["degraded"] for row in payload["loops"])
        cache = SummaryCache()
        cache.put_result("k", payload)
        assert cache.get_result("k", item.name) is None
        clean = dict(payload, loops=[], stats=dict(payload["stats"]))
        clean["stats"]["budget_degradations"] = 1
        cache.put_result("k", clean)
        assert cache.get_result("k", item.name) is None


class TestInertModes:
    ITEMS = generate_campaign(3, seed=CAMPAIGN_SEED)

    def run(self, cache_dir, options=None):
        return BatchEngine(options, cache_dir=cache_dir).run(self.ITEMS)

    def assert_inert(self, tmp_path, arm, options=None):
        """Armed runs neither read a warm tier nor write a cold one."""
        options = options or AnalysisOptions()
        warm_dir, cold_dir = tmp_path / "warm", tmp_path / "cold"
        warm = SummaryCache(warm_dir)
        for item, res in zip(self.ITEMS, self.run(tmp_path / "fresh").results):
            warm.put_result(key_of(item, options), res.payload)
        with arm():
            assert self.run(warm_dir, options).telemetry.cache.result_hits == 0
            self.run(cold_dir, options)
        cold = SummaryCache(cold_dir)
        for item in self.ITEMS:
            assert cold.get_result(key_of(item, options), item.name) is None
        return warm_dir

    def test_budget(self, tmp_path):
        budgeted = AnalysisOptions(budget_ms=600_000.0)
        self.assert_inert(tmp_path, contextlib.nullcontext, budgeted)
        service = AnalysisService()
        body = {"source": self.ITEMS[0].source,
                "options": {"budget_steps": 10**9}}
        service.analyze(body)
        served = service.analyze(body)
        assert served["request"]["summary_cache"]["result_hits"] == 0

    def test_fault_plan(self, tmp_path):
        @contextlib.contextmanager
        def plan():
            faults.install(faults.parse_plan("item.error:no-such-item"))
            try:
                yield
            finally:
                faults.reset()

        warm_dir = self.assert_inert(tmp_path, plan)
        # disarmed, the same warm tier is served
        hits = self.run(warm_dir).telemetry.cache.result_hits
        assert hits == len(self.ITEMS)

    def test_sanitizer(self, tmp_path):
        @contextlib.contextmanager
        def armed():
            sanitize.enable()
            try:
                yield
            finally:
                sanitize.reset()

        warm_dir = self.assert_inert(tmp_path, armed)
        hits = self.run(warm_dir).telemetry.cache.result_hits
        assert hits == len(self.ITEMS)


class TestAuditKeys:
    def test_audit_results_are_keyed_by_name(self, tmp_path):
        item = items_from_kernel_registry()[0]
        renamed = dataclasses.replace(item, name="renamed.f")

        def run(items):
            return BatchEngine(cache_dir=tmp_path, audit=True).run(items)

        run([item])
        report = run([item, renamed])
        assert report.result(item.name).cache_stats.result_hits == 1
        assert report.result(renamed.name).cache_stats.result_hits == 0
        for res in report.results:
            diagnostics = res.payload["audit"]["diagnostics"]
            assert diagnostics
            assert {d["span"]["file"] for d in diagnostics} == {res.name}
        # without the audit, the name is not part of the key
        BatchEngine(cache_dir=tmp_path).run([item])
        plain = BatchEngine(cache_dir=tmp_path).run([renamed])
        assert plain.telemetry.cache.result_hits == 1
        assert plain.results[0].payload["name"] == renamed.name


class TestLedger:
    SCOREBOARD = ("files", "errors", "loops", "parallel_loops", "verdicts")

    def test_served_items_are_journaled_and_resumable(self, tmp_path):
        base = ["--count", str(CAMPAIGN_COUNT), "--seed", str(CAMPAIGN_SEED),
                "--no-machine", "--cache-dir", str(tmp_path / "tier")]
        ledger = tmp_path / "run.jsonl"

        def campaign(*args):
            stats = tmp_path / "stats.json"
            assert campaign_main(base + [*args, "--stats-json", str(stats)]) == 0
            return json.loads(stats.read_text())

        reference = campaign()  # uninterrupted, fills the tier
        served = campaign("--ledger", str(ledger))
        assert served["cache"]["result_hits"] == CAMPAIGN_COUNT
        journal = replay(ledger)
        assert sorted(journal.done) == list(range(CAMPAIGN_COUNT))
        assert journal.ended == "complete"

        # a crash after five finalized items leaves a prefix of the
        # journal: the header and five done records
        lines = ledger.read_text().splitlines(keepends=True)
        ledger.write_text("".join(lines[:6]))
        assert replay(ledger).completed == 5
        resumed = campaign("--resume", str(ledger))
        assert resumed["resilience"]["resumed_items"] == 5
        # five records keep the counters they were journaled with, and
        # the other seven are served again
        assert resumed["cache"]["result_hits"] == CAMPAIGN_COUNT
        assert replay(ledger).completed == CAMPAIGN_COUNT
        for key in self.SCOREBOARD:
            assert resumed[key] == reference[key] == served[key], key
