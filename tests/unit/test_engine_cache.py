"""Unit tests for the engine's fingerprinting and two-tier summary cache."""

import dataclasses
import pickle

from repro.dataflow import AnalysisOptions
from repro.dataflow.context import LoopSummaryRecord
from repro.dataflow.summary import Summary, scalar_gar
from repro.engine import (
    CACHE_FORMAT_VERSION,
    DISK_MAGIC,
    RoutineCacheEntry,
    SummaryCache,
    fingerprint_program,
    options_key,
    unit_source_hash,
)
from repro.engine.cache import result_key
from repro.fortran import analyze, parse_program
from repro.fortran.callgraph import build_call_graph
from repro.regions import GARList
from repro.symbolic import SymExpr

CALLER_CALLEE = (
    "      SUBROUTINE top(a, n)\n"
    "      REAL a(100)\n"
    "      INTEGER n, i\n"
    "      DO i = 1, n\n"
    "        CALL leaf(a, i)\n"
    "      ENDDO\n"
    "      END\n"
    "      SUBROUTINE leaf(a, i)\n"
    "      REAL a(100)\n"
    "      INTEGER i\n"
    "      a(i) = {rhs}\n"
    "      END\n"
    "      SUBROUTINE other(b)\n"
    "      REAL b(10)\n"
    "      b(1) = 0.0\n"
    "      END\n"
)


def fingerprints(source, options=None):
    program = parse_program(source)
    analyzed = analyze(program)
    graph = build_call_graph(analyzed)
    return fingerprint_program(program, graph, options or AnalysisOptions())


class TestFingerprints:
    def test_deterministic_across_parses(self):
        src = CALLER_CALLEE.format(rhs="1.0")
        assert fingerprints(src) == fingerprints(src)

    def test_whitespace_and_case_normalized(self):
        a = fingerprints(CALLER_CALLEE.format(rhs="1.0"))
        b = fingerprints(CALLER_CALLEE.format(rhs="1.0").replace(
            "a(i) = 1.0", "A(I)  =   1.0"
        ))
        assert a == b

    def test_callee_change_invalidates_caller(self):
        a = fingerprints(CALLER_CALLEE.format(rhs="1.0"))
        b = fingerprints(CALLER_CALLEE.format(rhs="2.0"))
        assert a["leaf"] != b["leaf"]
        assert a["top"] != b["top"]  # transitive through the call edge
        assert a["other"] == b["other"]  # unrelated routine untouched

    def test_options_change_invalidates_everything(self):
        src = CALLER_CALLEE.format(rhs="1.0")
        a = fingerprints(src)
        b = fingerprints(src, AnalysisOptions(symbolic=False))
        assert all(a[name] != b[name] for name in a)

    def test_options_key_covers_every_toggle(self):
        base = AnalysisOptions()
        for variant in (
            AnalysisOptions(symbolic=False),
            AnalysisOptions(if_conditions=False),
            AnalysisOptions(interprocedural=False),
            AnalysisOptions(use_fm=False),
            AnalysisOptions(index_array_forms=(("ix", SymExpr.const(3)),)),
        ):
            assert options_key(variant) != options_key(base)

    def test_result_key_and_fingerprints_cover_every_input(self):
        base = AnalysisOptions()
        variants = {
            "index_array_forms": (("ix", SymExpr.const(3)),),
            "budget_ms": 250.0,
            "budget_steps": 1000,
        }
        src = CALLER_CALLEE.format(rhs="1.0")
        args = dict(
            source=src, options=base, sizes={"n": 10}, machine=True,
            audit=False, name="a.f",
        )
        key = result_key(**args)
        base_fps = fingerprints(src, base)
        for f in dataclasses.fields(AnalysisOptions):
            value = getattr(base, f.name)
            variant = not value if isinstance(value, bool) else variants[f.name]
            options = dataclasses.replace(base, **{f.name: variant})
            assert result_key(**{**args, "options": options}) != key, f.name
            changed = fingerprints(src, options)
            assert all(changed[r] != base_fps[r] for r in base_fps), f.name
        for change in (
            {"sizes": {"n": 11}},
            {"sizes": {}},
            {"machine": False},
            {"audit": True},
            {"source": src.replace("1.0", "2.0", 1)},
            {"source": src + " "},
        ):
            assert result_key(**{**args, **change}) != key, change
        # the name matters only when auditing: diagnostics carry it
        assert result_key(**{**args, "name": "b.f"}) == key
        audited = {**args, "audit": True}
        assert result_key(**audited) != result_key(**{**audited, "name": "b.f"})

    def test_unit_source_hash_is_per_routine(self):
        program = parse_program(CALLER_CALLEE.format(rhs="1.0"))
        edited = parse_program(CALLER_CALLEE.format(rhs="2.0"))
        assert unit_source_hash(program, "leaf") != unit_source_hash(
            edited, "leaf"
        )
        assert unit_source_hash(program, "top") == unit_source_hash(
            edited, "top"
        )


def make_entry(fp="ab" * 32, routine="top"):
    gars = GARList([scalar_gar("t")])
    record = LoopSummaryRecord(
        routine=routine,
        var="i",
        lo=SymExpr.const(1),
        hi=SymExpr.const(10),
        step=SymExpr.const(1),
        mod=gars,
        ue=gars,
    )
    key = (routine, "i", None, 4, frozenset())
    return RoutineCacheEntry(
        fingerprint=fp,
        routine=routine,
        summary=Summary(mod=gars, ue=GARList.empty()),
        loop_records={key: record},
    )


class TestSummaryCache:
    def test_memory_roundtrip(self):
        cache = SummaryCache()
        entry = make_entry()
        cache.put(entry)
        got = cache.get(entry.fingerprint)
        assert got is not None
        assert got.routine == "top"
        assert cache.stats.hits == 1 and cache.stats.memory_hits == 1

    def test_disk_roundtrip_through_pickle(self, tmp_path):
        entry = make_entry()
        SummaryCache(tmp_path).put(entry)
        # a brand-new cache instance sees only the disk tier
        fresh = SummaryCache(tmp_path)
        got = fresh.get(entry.fingerprint)
        assert got is not None
        assert fresh.stats.disk_hits == 1
        assert str(got.summary) == str(entry.summary)
        (key,) = got.loop_records
        assert str(got.loop_records[key]) == str(entry.loop_records[key])

    def test_miss_counts(self, tmp_path):
        cache = SummaryCache(tmp_path)
        assert cache.get("00" * 32) is None
        assert cache.stats.misses == 1

    def test_lru_eviction(self):
        cache = SummaryCache(max_memory_entries=2)
        for i in range(3):
            cache.put(make_entry(fp=f"{i:02d}" * 32))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # the oldest entry fell out of the (memory-only) cache
        assert cache.get("00" * 32) is None

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        entry = make_entry()
        cache = SummaryCache(tmp_path)
        cache.put(entry)
        path = cache._path(entry.fingerprint)
        path.write_bytes(b"not a pickle")
        fresh = SummaryCache(tmp_path)
        assert fresh.get(entry.fingerprint) is None
        assert fresh.stats.disk_errors == 1

    def test_version_mismatch_is_a_miss(self, tmp_path):
        entry = make_entry()
        cache = SummaryCache(tmp_path)
        cache.put(entry)
        path = cache._path(entry.fingerprint)
        path.write_bytes(
            pickle.dumps((CACHE_FORMAT_VERSION + 1, entry))
        )
        fresh = SummaryCache(tmp_path)
        assert fresh.get(entry.fingerprint) is None

    def test_stats_delta(self):
        cache = SummaryCache()
        entry = make_entry()
        cache.put(entry)
        before = cache.stats.copy()
        cache.get(entry.fingerprint)
        delta = cache.stats.delta(before)
        assert delta.hits == 1 and delta.stores == 0


class TestQuarantine:
    """Bad disk entries are verified (magic + SHA-256) before unpickling
    and moved aside to ``quarantine/`` — never re-read, never trusted."""

    def corrupt_and_read(self, tmp_path, mutate):
        entry = make_entry()
        cache = SummaryCache(tmp_path)
        cache.put(entry)
        path = cache._path(entry.fingerprint)
        mutate(path, entry)
        fresh = SummaryCache(tmp_path)
        got = fresh.get(entry.fingerprint)
        return got, fresh, path

    def quarantined_files(self, tmp_path):
        qdir = tmp_path / "quarantine"
        return sorted(p.name for p in qdir.iterdir()) if qdir.exists() else []

    def test_garbage_bytes_are_quarantined(self, tmp_path):
        got, fresh, path = self.corrupt_and_read(
            tmp_path, lambda p, e: p.write_bytes(b"not a pickle")
        )
        assert got is None
        assert fresh.stats.disk_errors == 1
        assert fresh.stats.quarantined == 1
        assert not path.exists()  # moved, not left to poison later reads
        (name,) = self.quarantined_files(tmp_path)
        assert name.endswith(".badmagic")

    def test_truncated_entry_fails_checksum(self, tmp_path):
        def truncate(path, entry):
            data = path.read_bytes()
            path.write_bytes(data[: len(data) - 7])  # torn write

        got, fresh, path = self.corrupt_and_read(tmp_path, truncate)
        assert got is None
        assert fresh.stats.quarantined == 1
        (name,) = self.quarantined_files(tmp_path)
        assert name.endswith(".checksum")

    def test_bit_flip_in_payload_fails_checksum(self, tmp_path):
        def flip(path, entry):
            data = bytearray(path.read_bytes())
            data[-1] ^= 0xFF
            path.write_bytes(bytes(data))

        got, fresh, path = self.corrupt_and_read(tmp_path, flip)
        assert got is None
        assert fresh.stats.quarantined == 1

    def test_version_mismatch_is_quarantined(self, tmp_path):
        import hashlib

        def downgrade(path, entry):
            # a well-formed container carrying a foreign format version
            payload = pickle.dumps((CACHE_FORMAT_VERSION + 1, entry))
            path.write_bytes(
                DISK_MAGIC + hashlib.sha256(payload).digest() + payload
            )

        got, fresh, path = self.corrupt_and_read(tmp_path, downgrade)
        assert got is None
        assert fresh.stats.quarantined == 1
        (name,) = self.quarantined_files(tmp_path)
        assert name.endswith(".version")

    def test_quarantined_entry_is_recomputable(self, tmp_path):
        # after quarantining, a put stores a good entry under the same
        # fingerprint and reads hit again
        got, fresh, path = self.corrupt_and_read(
            tmp_path, lambda p, e: p.write_bytes(b"junk")
        )
        assert got is None
        entry = make_entry()
        fresh.put(entry)
        fresh.clear_memory()
        assert fresh.get(entry.fingerprint) is not None

    def test_quarantined_counter_merges(self):
        from repro.engine import CacheStats

        a, b = CacheStats(quarantined=2), CacheStats(quarantined=3)
        a.merge(b)
        assert a.quarantined == 5
        assert CacheStats(**a.as_dict()).quarantined == 5

    def test_stats_methods_cover_every_field(self):
        import dataclasses

        from repro.engine import CacheStats

        names = [f.name for f in dataclasses.fields(CacheStats)]
        a = CacheStats(*range(1, len(names) + 1))
        assert list(a.as_dict()) == names
        assert a.as_dict() == {n: i for i, n in enumerate(names, 1)}
        b = a.copy()
        assert b == a and b is not a
        b.merge(a)
        assert b.as_dict() == {n: 2 * i for i, n in enumerate(names, 1)}
        assert b.delta(a) == a
