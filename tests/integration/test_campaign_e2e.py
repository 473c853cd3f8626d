"""Integration: sharded campaigns over one shared cache tier.

Two shards of a seeded campaign run as separate CLI invocations against
one shared SQLite tier; the union of their verdicts must equal an
unsharded run of the same corpus verdict for verdict, and the merged
rollup must carry the campaign provenance (seed, generator version).
"""

from __future__ import annotations

import json

from repro.dataflow import AnalysisOptions
from repro.engine import BatchEngine
from repro.engine.campaign import (
    GENERATOR_VERSION,
    generate_campaign,
    main as campaign_main,
    shard_items,
)

SEED, COUNT = 11, 14


def _verdicts(report):
    out = {}
    for res in report.results:
        out[res.name] = (
            [tuple((k, tuple(v) if isinstance(v, list) else v)
                   for k, v in sorted(r.items()))
             for r in res.rows()]
            if res.ok else ("ERROR", res.error_kind)
        )
    return out


def _run(items, cache_dir=None, backend=None):
    engine = BatchEngine(
        AnalysisOptions(), cache_dir=cache_dir, jobs=1,
        run_machine_model=False, cache_backend=backend,
    )
    report = engine.run(items)
    engine.cache.close()
    return report


class TestShardedEqualsUnsharded:
    def test_union_of_shards_matches(self, tmp_path):
        corpus = generate_campaign(COUNT, seed=SEED)
        unsharded = _verdicts(_run(list(corpus)))

        tier = tmp_path / "tier"
        merged: dict = {}
        for spec in ((1, 2), (2, 2)):
            shard = shard_items(corpus, *spec)
            report = _run(shard, cache_dir=str(tier), backend="shared")
            merged.update(_verdicts(report))
        assert merged == unsharded

    def test_second_shard_reuses_first_shards_summaries(self, tmp_path):
        corpus = generate_campaign(40, seed=3)
        tier = tmp_path / "tier"
        first = _run(shard_items(corpus, 1, 2), cache_dir=str(tier),
                     backend="shared")
        second = _run(shard_items(corpus, 2, 2), cache_dir=str(tier),
                      backend="shared")
        assert first.telemetry.cache.stores > 0
        assert second.telemetry.cache.shared_hits > 0


class TestCampaignCLI:
    def test_two_shard_cli_flow(self, tmp_path, capsys):
        tier, s1, s2 = (tmp_path / "tier", tmp_path / "s1.json",
                        tmp_path / "s2.json")
        base = ["--count", str(COUNT), "--seed", str(SEED),
                "--cache-dir", str(tier), "--cache-backend", "shared",
                "--no-machine"]
        assert campaign_main(base + ["--shard", "1/2",
                                     "--stats-json", str(s1)]) == 0
        assert campaign_main(base + ["--shard", "2/2",
                                     "--stats-json", str(s2)]) == 0

        for path, spec in ((s1, "1/2"), (s2, "2/2")):
            payload = json.loads(path.read_text())
            camp = payload["campaign"]
            assert camp["seed"] == SEED
            assert camp["generator_version"] == GENERATOR_VERSION
            assert camp["count"] == COUNT
            assert camp["shard"] == spec
            assert payload["cache_backend"] == "shared"

        out = tmp_path / "rollup.json"
        assert campaign_main(["--rollup", str(out),
                              str(s1), str(s2)]) == 0
        rollup = json.loads(out.read_text())
        assert rollup["shards"] == 2
        assert rollup["files"] == COUNT
        assert rollup["campaign"]["shards"] == ["1/2", "2/2"]
        board = capsys.readouterr().out
        assert f"seed={SEED}" in board

    def test_rollup_refuses_mixed_seeds(self, tmp_path, capsys):
        tier = tmp_path / "tier"
        s1, s2 = tmp_path / "a.json", tmp_path / "b.json"
        for seed, path in ((1, s1), (2, s2)):
            assert campaign_main(
                ["--count", "4", "--seed", str(seed), "--no-machine",
                 "--cache-dir", str(tier), "--stats-json", str(path)]
            ) == 0
        assert campaign_main(["--rollup", "-", str(s1), str(s2)]) == 2
        assert "different campaigns" in capsys.readouterr().err

    def test_list_mode_is_pure(self, capsys):
        assert campaign_main(["--count", "6", "--seed", "5", "--shard",
                              "1/2", "--list"]) == 0
        first = capsys.readouterr().out
        assert campaign_main(["--count", "6", "--seed", "5", "--shard",
                              "1/2", "--list"]) == 0
        assert capsys.readouterr().out == first
        assert len(first.splitlines()) == 3
