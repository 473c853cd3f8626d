"""Unit tests for the durable run ledger (engine/ledger.py): identity
binding, transition replay, torn-line tolerance, and digest checking."""

from __future__ import annotations

import json

import pytest

from repro.dataflow import AnalysisOptions
from repro.engine import BatchEngine, BatchItem
from repro.engine.batch import BatchItemResult
from repro.engine.cache import CacheStats
from repro.engine.ledger import (
    LEDGER_VERSION,
    LedgerMismatch,
    LedgerWriter,
    items_digest,
    payload_digest,
    replay,
    run_identity,
    verify_identity,
)
from repro.resilience import faults

ITEMS = [
    BatchItem(name="a.f", source="      PROGRAM A\n      END\n"),
    BatchItem(name="b.f", source="      PROGRAM B\n      END\n", sizes={"N": 8}),
]


def identity(**kw):
    kw.setdefault("kind", "batch")
    kw.setdefault("items", ITEMS)
    kw.setdefault("options", AnalysisOptions())
    return run_identity(**kw)


def done_result(name: str = "a.f") -> BatchItemResult:
    return BatchItemResult(
        name=name,
        payload={"loops": [], "parallel_loops": 0, "name": name},
        cache_stats=CacheStats(hits=1),
        attempts=1,
    )


def failed_result(name: str = "b.f", quarantined: bool = False):
    return BatchItemResult(
        name=name,
        error="boom: injected\ntraceback line",
        error_kind="internal",
        attempts=3,
        quarantined=quarantined,
    )


class TestIdentity:
    def test_identity_is_stable(self):
        assert identity() == identity()

    def test_item_edit_changes_digest(self):
        edited = [ITEMS[0], BatchItem(name="b.f", source="      END\n")]
        assert items_digest(ITEMS) != items_digest(edited)

    def test_item_reorder_changes_digest(self):
        assert items_digest(ITEMS) != items_digest(list(reversed(ITEMS)))

    def test_sizes_change_digest(self):
        resized = [
            ITEMS[0],
            BatchItem(name="b.f", source=ITEMS[1].source, sizes={"N": 9}),
        ]
        assert items_digest(ITEMS) != items_digest(resized)

    def test_options_change_identity(self):
        assert identity() != identity(options=AnalysisOptions(use_fm=False))

    def test_campaign_provenance_in_identity(self):
        camp = identity(
            kind="campaign",
            campaign={"seed": 1, "generator_version": 1, "count": 2,
                      "shard": "1/2"},
        )
        assert camp != identity(kind="campaign")

    def test_verify_accepts_matching_header(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with LedgerWriter(path, identity()):
            pass
        rep = replay(path)
        verify_identity(rep.header, identity())  # must not raise

    def test_verify_rejects_mismatch(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with LedgerWriter(path, identity()):
            pass
        rep = replay(path)
        with pytest.raises(LedgerMismatch, match="options"):
            verify_identity(
                rep.header, identity(options=AnalysisOptions(use_fm=False))
            )

    def test_verify_rejects_wrong_version(self):
        with pytest.raises(LedgerMismatch, match="version"):
            verify_identity(
                {"ledger_version": LEDGER_VERSION + 1, "identity": {}},
                identity(),
            )

    def test_replay_requires_header(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('{"type":"item","state":"done","index":0}\n')
        with pytest.raises(LedgerMismatch, match="header"):
            replay(path)


class TestTransitions:
    def test_done_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with LedgerWriter(path, identity()) as w:
            w.record_dispatched(0, "a.f", 1)
            w.record_done(0, done_result())
            w.record_end("complete")
        rep = replay(path)
        assert rep.completed == 1
        assert not rep.in_flight and not rep.failed
        assert rep.ended == "complete"
        record = rep.done[0]
        assert record["name"] == "a.f"
        assert record["payload"]["name"] == "a.f"
        assert record["cache_stats"]["hits"] == 1

    def test_dispatched_without_done_is_in_flight(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with LedgerWriter(path, identity()) as w:
            w.record_dispatched(0, "a.f", 1)
            w.record_dispatched(1, "b.f", 1)
            w.record_done(1, done_result("b.f"))
        rep = replay(path)
        assert rep.in_flight == {0}
        assert set(rep.done) == {1}
        assert rep.ended is None  # no end marker: the run crashed

    def test_failed_and_quarantined_states(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with LedgerWriter(path, identity()) as w:
            w.record_failed(0, failed_result("a.f"))
            w.record_failed(1, failed_result("b.f", quarantined=True))
        rep = replay(path)
        assert rep.failed[0]["state"] == "failed"
        assert rep.failed[1]["state"] == "quarantined"
        assert rep.failed[0]["error"] == ["boom: injected"]

    def test_retry_after_failure_last_record_wins(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with LedgerWriter(path, identity()) as w:
            w.record_failed(0, failed_result("a.f"))
            w.record_dispatched(0, "a.f", 2)
            w.record_done(0, done_result())
        rep = replay(path)
        assert set(rep.done) == {0}
        assert not rep.failed and not rep.in_flight

    def test_resume_marker_resets_end(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with LedgerWriter(path, identity()) as w:
            w.record_done(0, done_result())
            w.record_end("interrupted")
        with LedgerWriter(path, identity(), resume=True) as w:
            w.record_done(1, done_result("b.f"))
            w.record_end("complete")
        rep = replay(path)
        assert rep.resumes == 1
        assert rep.completed == 2
        assert rep.ended == "complete"


class TestCorruptionTolerance:
    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with LedgerWriter(path, identity()) as w:
            w.record_done(0, done_result())
        text = path.read_text()
        full_line = text.splitlines()[-1]
        path.write_text(text + full_line[: len(full_line) // 2])  # no \n
        rep = replay(path)
        assert rep.torn_lines == 1
        assert rep.completed == 1  # the intact record survives

    def test_digest_mismatch_demotes_to_rerun(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with LedgerWriter(path, identity()) as w:
            w.record_done(0, done_result())
        lines = path.read_text().splitlines()
        record = json.loads(lines[-1])
        record["payload"]["parallel_loops"] = 99  # bit-flip the verdict
        lines[-1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        rep = replay(path)
        assert rep.invalid_records == 1
        assert rep.completed == 0  # not trusted, will re-run

    def test_unknown_record_types_counted_not_fatal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with LedgerWriter(path, identity()) as w:
            w.record_done(0, done_result())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type":"future-extension"}\n')
            fh.write('{"type":"item","state":"done","index":"x"}\n')
            fh.write("[1,2,3]\n")
        rep = replay(path)
        assert rep.completed == 1
        assert rep.invalid_records == 3

    def test_payload_digest_roundtrips_through_json(self):
        payload = {"loops": [{"speedup": 1.3333}], "x": [1, 2.5, None]}
        again = json.loads(json.dumps(payload))
        assert payload_digest(payload) == payload_digest(again)


class TestLedgerWriteFault:
    def test_injected_torn_write_wedges_writer(self, tmp_path, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "ledger.write:item@2")
        faults.reset()
        try:
            path = tmp_path / "run.jsonl"
            with LedgerWriter(path, identity()) as w:
                w.record_done(0, done_result())
                w.record_done(1, done_result("b.f"))  # torn mid-line
                w.record_done(2, done_result())  # dropped: writer wedged
                w.record_end("complete")
        finally:
            faults.reset()
        rep = replay(path)
        assert rep.torn_lines == 1
        assert set(rep.done) == {0}  # only the pre-fault record survives
        assert rep.ended is None


class TestEngineIntegration:
    def test_engine_writes_and_serves_ledger(self, tmp_path):
        path = tmp_path / "run.jsonl"
        items = [
            BatchItem(
                name="loop.f",
                source=(
                    "      SUBROUTINE s(a, n)\n"
                    "      REAL a(10)\n"
                    "      INTEGER n, i\n"
                    "      DO 10 i = 1, n\n"
                    "        a(i) = 1.0\n"
                    "   10 CONTINUE\n"
                    "      END\n"
                ),
            )
        ]
        ident = run_identity("batch", items, AnalysisOptions())
        with LedgerWriter(path, ident) as w:
            first = BatchEngine(AnalysisOptions(), jobs=1, ledger=w).run(items)
        assert first.ok and first.exit_code() == 0
        rep = replay(path)
        verify_identity(rep.header, ident)
        assert rep.completed == 1 and rep.ended == "complete"

        # resume: everything is served from the ledger, nothing re-runs
        with LedgerWriter(path, ident, resume=True) as w:
            second = BatchEngine(
                AnalysisOptions(), jobs=1, ledger=w, resume=rep
            ).run(items)
        assert second.ok
        res = second.result("loop.f")
        assert res.from_ledger
        assert res.payload == first.result("loop.f").payload
        assert second.telemetry.resilience["resumed_items"] == 1
        assert second.verdict_rows() == first.verdict_rows()
