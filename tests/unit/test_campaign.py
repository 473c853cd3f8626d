"""Unit tests for campaign generation, sharding, and stats rollups."""

from __future__ import annotations

import json

import pytest

from repro.engine.campaign import (
    GENERATOR_VERSION,
    build_library,
    format_scoreboard,
    generate_campaign,
    load_rollup,
    merge_rollups,
    parse_shard,
    shard_items,
)


class TestGenerator:
    def test_same_seed_same_corpus(self):
        a = generate_campaign(50, seed=42)
        b = generate_campaign(50, seed=42)
        assert [(i.name, i.source) for i in a] == [
            (i.name, i.source) for i in b
        ]

    def test_different_seeds_differ(self):
        a = generate_campaign(50, seed=1)
        b = generate_campaign(50, seed=2)
        assert [(i.name, i.source) for i in a] != [
            (i.name, i.source) for i in b
        ]

    def test_mix_contains_all_item_kinds(self):
        kinds = {i.name.split("-")[0] for i in generate_campaign(100, seed=0)}
        assert kinds == {"lib", "app", "nest"}

    def test_count_respected(self):
        assert len(generate_campaign(17, seed=3)) == 17
        with pytest.raises(ValueError):
            generate_campaign(0)

    def test_library_pool_repeats_across_items(self):
        """App items embed byte-identical routine sources — the identity
        that makes cross-item cache reuse possible."""
        library = dict(build_library(5, 8))
        items = generate_campaign(60, seed=5, library_size=8)
        embedded = [
            i for i in items if i.name.startswith("app-")
            if any(src in i.source for src in library.values())
        ]
        assert embedded  # at least one app embeds a pool routine verbatim


class TestSharding:
    def test_parse_shard(self):
        assert parse_shard("1/2") == (1, 2)
        assert parse_shard("3/3") == (3, 3)
        for bad in ("0/2", "3/2", "2", "a/b", "1/0", "-1/2"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def test_round_robin_partition_is_exact(self):
        items = generate_campaign(41, seed=9)
        shards = [shard_items(items, i, 4) for i in (1, 2, 3, 4)]
        names = [x.name for s in shards for x in s]
        assert sorted(names) == sorted(i.name for i in items)
        assert len(set(names)) == len(items)
        # round-robin: sizes differ by at most one
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_single_shard_is_identity(self):
        items = generate_campaign(10, seed=0)
        assert [i.name for i in shard_items(items, 1, 1)] == [
            i.name for i in items
        ]


def _payload(**over):
    base = {
        "files": 2, "errors": 0, "loops": 6, "parallel_loops": 4, "jobs": 1,
        "wall_seconds": 1.5,
        "timings": {"total": 1.0},
        "stats": {"nodes_visited": 10, "peak_gar_list": 3},
        "cache": {"hits": 4, "misses": 2},
        "resilience": {"retries": 0},
        "audit": {},
        "symbolic": {},
        "verdicts": {"parallel": 4, "serial": 2},
        "cache_backend": "shared",
        "sched": {"mode": "topo", "edges": 3, "gated_items": 2,
                  "cyclic_items": 0, "opaque_items": 0, "topo_hits": 2},
        "campaign": {"seed": 7, "generator_version": GENERATOR_VERSION,
                     "count": 20, "shard": "1/2"},
    }
    base.update(over)
    return base


class TestRollup:
    def test_counters_sum_and_peaks_max(self):
        second = _payload(
            files=3, loops=9, wall_seconds=2.0,
            stats={"nodes_visited": 5, "peak_gar_list": 9},
            verdicts={"parallel": 5, "parallel (reduction)": 4},
            campaign={"seed": 7, "generator_version": GENERATOR_VERSION,
                      "count": 20, "shard": "2/2"},
        )
        merged = merge_rollups([_payload(), second])
        assert merged["shards"] == 2
        assert merged["files"] == 5
        assert merged["loops"] == 15
        assert merged["stats"]["nodes_visited"] == 15
        assert merged["stats"]["peak_gar_list"] == 9  # max, not sum
        assert merged["verdicts"] == {
            "parallel": 9, "serial": 2, "parallel (reduction)": 4
        }
        assert merged["cache"]["hits"] == 8
        assert merged["cache"]["hit_rate"] == pytest.approx(8 / 12, abs=1e-4)
        assert merged["wall_seconds"] == {"total": 3.5, "max": 2.0}
        assert merged["sched"]["topo_hits"] == 4
        assert merged["campaign"]["seed"] == 7
        assert merged["campaign"]["shards"] == ["1/2", "2/2"]

    def test_seed_and_version_recorded(self):
        merged = merge_rollups([_payload()])
        assert merged["campaign"]["generator_version"] == GENERATOR_VERSION
        assert merged["campaign"]["seed"] == 7
        board = format_scoreboard(merged)
        assert f"seed=7" in board and f"generator=v{GENERATOR_VERSION}" in board

    def test_mixed_campaigns_refused(self):
        other = _payload(
            campaign={"seed": 8, "generator_version": GENERATOR_VERSION,
                      "count": 20, "shard": "2/2"}
        )
        with pytest.raises(ValueError, match="different campaigns"):
            merge_rollups([_payload(), other])

    def test_empty_refused(self):
        with pytest.raises(ValueError):
            merge_rollups([])

    @staticmethod
    def _shard(spec: str) -> dict:
        return _payload(
            campaign={"seed": 7, "generator_version": GENERATOR_VERSION,
                      "count": 20, "shard": spec}
        )

    def test_repeated_shard_refused(self):
        with pytest.raises(ValueError, match="repeated shard: 1/2"):
            merge_rollups([self._shard("1/2"), self._shard("1/2")])

    def test_whole_corpus_with_a_shard_refused(self):
        with pytest.raises(ValueError, match="different partitions"):
            merge_rollups([self._shard("1/1"), self._shard("1/2")])

    def test_shards_of_different_partitions_refused(self):
        with pytest.raises(ValueError, match="different partitions"):
            merge_rollups([self._shard("1/2"), self._shard("1/3")])

    def test_cli_refuses_a_repeated_shard_with_exit_2(self, tmp_path, capsys):
        from repro.engine.campaign import main

        shard = tmp_path / "s1.json"
        shard.write_text(json.dumps(self._shard("1/2")))
        assert main(["--rollup", "-", str(shard), str(shard)]) == 2
        assert "rollup failed: refusing to merge a repeated shard" in (
            capsys.readouterr().err
        )

    def test_load_rollup_from_files(self, tmp_path):
        p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
        p1.write_text(json.dumps(_payload()))
        p2.write_text(json.dumps(_payload(
            campaign={"seed": 7, "generator_version": GENERATOR_VERSION,
                      "count": 20, "shard": "2/2"})))
        merged = load_rollup([str(p1), str(p2)])
        assert merged["shards"] == 2


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_module_once(self):
        """``python -m repro.engine.campaign`` must not find the module
        already imported by its package: runpy then warns that the
        module executes twice."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.engine.campaign", "--list", "--count", "2"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert len(out.stdout.split()) == 2
