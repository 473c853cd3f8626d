"""The metrics outputs keep one schema.

Pins the nested key sets of every machine-readable output that carries
counters or timings: ``panorama --json``, ``panorama-batch
--stats-json`` and its ledger ``done`` record, two ``panorama-campaign``
shards and their ``--rollup``, ``GET /v1/stats`` and a daemon
``request`` block.  Keys under ``symbolic``, ``perf``, ``verdicts`` and
``responses`` follow the data (cache names, verdict kinds, status
codes), so only the key itself is pinned there.

Also covers the ``panorama --profile`` report and the stage clocks.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

import pytest

import repro.contents
from repro.driver import cli as driver_cli
from repro.driver.panorama import Panorama
from repro.engine import campaign
from repro.engine import cli as batch_cli
from repro.kernels import FRONTIER_KERNELS
from repro.kernels.figure1 import FIGURE_1A
from repro.server import AnalysisService, PanoramaClient, ServerThread

#: keys whose children are data, not schema
DATA_KEYED = {"symbolic", "perf", "verdicts", "responses"}


def shape(value, path: str = "", out: dict | None = None) -> dict[str, str]:
    """Nested key sets of a JSON value: parent path → its sorted keys.

    The members of a list share the path ``<list>[]``.
    """
    out = {} if out is None else out
    if isinstance(value, dict):
        keys = set(out.get(path, "").split()) | set(value)
        out[path] = " ".join(sorted(keys))
        for key, item in value.items():
            if key not in DATA_KEYED:
                shape(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for item in value:
            shape(item, f"{path}[]", out)
    return out


ROW = (
    "conflicts copy_out degraded evidence inductions label lineno loop "
    "parallel pct_sequential privatized reductions routine scans schedule "
    "screen serial_reasons speedup status used_dataflow var"
)
TIMINGS = "conventional dataflow frontend machine parse total"
STATS = (
    "budget_degradations content_facts frontier_upgrades "
    "loops_summarized nodes_visited peak_gar_list recurrence_matches "
    "routines_summarized"
)
CACHE = (
    "breaker_recoveries breaker_skipped breaker_trips contention_retries "
    "disk_errors disk_hits evictions hits memory_hits misses quarantine_evicted "
    "quarantined result_hits shared_hits shared_misses stores"
)
RESILIENCE = (
    "degraded_items degraded_loops pool_rebuilds quarantined resumed_items "
    "retries timeouts worker_crashes"
)
AUDIT = (
    "audited_files confirmed evidence_replay evidence_unsupported guarded "
    "lint loops_audited oracle_conflicts pairs_checked sanitizer skipped "
    "undecided"
)
PAYLOAD = {
    "": "loops name parallel_loops stats symbolic timings",
    "loops[]": ROW,
    # the variables whose privatization test failed in FIGURE_1A
    "loops[].conflicts": "a kc",
    "loops[].copy_out[]": "name needs_copy_out",
    "stats": STATS,
    "timings": TIMINGS,
}


def telemetry(campaign_keys: str = "") -> dict[str, str]:
    """The ``--stats-json`` export (``EngineTelemetry.as_dict``)."""
    return {
        "": (
            "audit cache cache_backend campaign constraint_backend errors "
            "files interrupted jobs loops parallel_loops resilience "
            "stats symbolic timings verdicts wall_seconds"
        ),
        "audit": AUDIT,
        "cache": CACHE,
        "campaign": campaign_keys,
        "resilience": RESILIENCE,
        "stats": STATS,
        "timings": TIMINGS,
    }


EXPECTED = {
    "panorama --json": PAYLOAD,
    "panorama-batch --stats-json": telemetry(),
    "ledger done record": {
        "": (
            "attempt cache_stats digest index name payload state type"
        ),
        "cache_stats": CACHE,
        **{f"payload.{k}" if k else "payload": v for k, v in PAYLOAD.items()},
    },
    **{
        f"campaign shard {spec}": telemetry(
            "count generator_version items seed shard"
        )
        for spec in ("1/2", "2/2")
    },
    "campaign --rollup": {
        "": (
            "audit cache cache_backends campaign errors files jobs loops "
            "parallel_loops resilience shards stats symbolic timings "
            "verdicts wall_seconds"
        ),
        "audit": AUDIT,
        "cache": CACHE + " hit_rate",
        "campaign": "count generator_version seed shards",
        "resilience": RESILIENCE,
        "stats": STATS,
        "timings": TIMINGS,
        "wall_seconds": "max total",
    },
    "GET /v1/stats": {
        "": (
            "admission cache_backend constraint_backend hit_rate perf "
            "requests responses server summary_cache telemetry"
        ),
        "admission": (
            "draining drained_rejects in_flight max_inflight rejected "
            "retry_after_s"
        ),
        "requests": (
            "analyze analyze_stream health stats watch_close watch_open "
            "watch_submit"
        ),
        "server": "pid started_at uptime_s version watch_sessions",
        "summary_cache": CACHE,
        **{f"telemetry.{k}" if k else "telemetry": v
           for k, v in telemetry().items()},
    },
    "daemon request block": {
        "": "degraded_loops elapsed_ms hit_rate summary_cache symbolic",
        "summary_cache": CACHE,
    },
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Every pinned output, produced once through the real entry points."""
    tmp = tmp_path_factory.mktemp("schema")
    src = tmp / "fig1a.f"
    src.write_text(FIGURE_1A)
    out: dict = {}

    def run(main, argv) -> str:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
        return stdout.getvalue()

    out["panorama --json"] = json.loads(
        run(driver_cli.main, [str(src), "--json"])
    )

    stats, ledger = tmp / "batch.json", tmp / "batch.jsonl"
    run(batch_cli.main, [str(src), "--stats-json", str(stats),
                         "--ledger", str(ledger)])
    out["panorama-batch --stats-json"] = json.loads(stats.read_text())
    records = [json.loads(line) for line in ledger.read_text().splitlines()]
    out["ledger done record"] = next(
        r for r in records if r.get("state") == "done"
    )

    shards = [tmp / "s1.json", tmp / "s2.json"]
    for spec, path in zip(("1/2", "2/2"), shards):
        run(campaign.main, ["--count", "4", "--seed", "3", "--shard", spec,
                            "--no-machine", "--stats-json", str(path)])
        out[f"campaign shard {spec}"] = json.loads(path.read_text())
    rollup = tmp / "rollup.json"
    run(campaign.main, ["--rollup", str(rollup), *map(str, shards)])
    out["campaign --rollup"] = json.loads(rollup.read_text())

    with ServerThread(AnalysisService()) as thread:
        client = PanoramaClient(port=thread.port)
        payload = client.analyze(FIGURE_1A, name="fig1a.f")
        out["daemon request block"] = payload["request"]
        out["GET /v1/stats"] = client.stats()
    return out


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_key_sets_are_pinned(outputs, name):
    want = {
        path: " ".join(sorted(keys.split()))
        for path, keys in EXPECTED[name].items()
    }
    assert shape(outputs[name]) == want


def test_profile_prints_stage_counter_and_cache_tables(tmp_path, capsys):
    src = tmp_path / "fig1a.f"
    src.write_text(FIGURE_1A)
    assert driver_cli.main([str(src), "--profile"]) == 0
    out = capsys.readouterr().out
    stages = out[out.index("stage timings"):].split("\n\n")[0].splitlines()
    assert [line.split()[0] for line in stages[4:]] == [
        "parse", "frontend", "conventional", "dataflow", "machine", "total",
    ]
    assert "hot-path counters" in out
    assert "sum_loop_calls" in out
    assert "symbolic caches" in out
    assert "hit rate" in out


def test_content_inference_counts_as_dataflow(monkeypatch):
    """Every compile-time step between parse and the machine model falls
    in a stage: content inference is charged to ``dataflow``."""
    original = repro.contents.infer_program

    def slow(*args, **kwargs):
        time.sleep(0.2)
        return original(*args, **kwargs)

    monkeypatch.setattr(repro.contents, "infer_program", slow)
    kernel = next(k for k in FRONTIER_KERNELS if k.name == "idx_gather")
    timings = Panorama().compile(kernel.source).timings
    assert timings.dataflow >= 0.2
