"""Analysis daemon benchmark: cold process per file vs resident daemon.

The CLI pays the full cost on every invocation — interpreter start,
imports, and a symbolically cold process.  The daemon pays it once:
a repeated request is served whole from the result tier, and an edited
one hits warm interning tables, proof memos, and the content-addressed
summary cache.  This benchmark measures that gap over the kernel
registry and asserts the daemon's verdicts stay bit-identical to the
one-process-per-file CLI ground truth.

``PANORAMA_BENCH_CHECK_ONLY=1`` (the CI smoke gate) trims the corpus to
two programs and skips every wall-clock assertion — identity checks
only, immune to loaded shared runners.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import repro
from repro.driver.report import format_table
from repro.kernels import KERNELS
from repro.perf import profiler
from repro.server import AnalysisService, PanoramaClient, ServerThread

from conftest import emit

CHECK_ONLY = bool(os.environ.get("PANORAMA_BENCH_CHECK_ONLY"))

#: one entry per distinct program text (kernels of one program share it)
PROGRAMS = list({k.source: k for k in KERNELS}.values())
if CHECK_ONLY:
    PROGRAMS = PROGRAMS[:2]

#: the src/ directory the subprocesses must import repro from
_SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _cold_process_run(programs):
    """One fresh ``panorama --json`` process per program, like a build
    system or editor plugin shelling out would."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    verdicts = {}
    t0 = time.perf_counter()
    for kernel in programs:
        with tempfile.NamedTemporaryFile(
            "w", suffix=".f", delete=False
        ) as handle:
            handle.write(kernel.source)
            path = handle.name
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.driver.cli", path, "--json"],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
        finally:
            os.unlink(path)
        verdicts[kernel.full_id] = json.loads(proc.stdout)["loops"]
    return (time.perf_counter() - t0) * 1000.0, verdicts


def _daemon_pass(client, programs, suffix=""):
    """One request per program against a running daemon; *suffix* is
    appended to every source (a comment line makes a new text with the
    same routines).  Returns wall ms, verdicts, and the summed
    per-request summary-cache and symbolic counters."""
    verdicts = {}
    cache: dict[str, int] = {}
    symbolic: dict[str, float] = {}
    t0 = time.perf_counter()
    for kernel in programs:
        payload = client.analyze(kernel.source + suffix, name=kernel.full_id)
        verdicts[kernel.full_id] = payload["loops"]
        request = payload["request"]
        for key, value in request["summary_cache"].items():
            cache[key] = cache.get(key, 0) + value
        for key, value in request["symbolic"].items():
            symbolic[key] = symbolic.get(key, 0) + value
    return (time.perf_counter() - t0) * 1000.0, verdicts, (cache, symbolic)


def _bench_rows():
    cold_ms, cold_verdicts = _cold_process_run(PROGRAMS)

    service = AnalysisService()
    with ServerThread(service) as thread, \
            PanoramaClient(port=thread.port) as client:
        first_ms, first_verdicts, (first_cache, first_symbolic) = (
            _daemon_pass(client, PROGRAMS)
        )
        warm_ms, warm_verdicts, (warm_cache, _) = _daemon_pass(
            client, PROGRAMS
        )
        edited_ms, edited_verdicts, (edited_cache, edited_symbolic) = (
            _daemon_pass(client, PROGRAMS, suffix="C comment-only edit\n")
        )
        stats = client.stats()

    n = len(PROGRAMS)
    rows = [
        [
            "cold process per file (CLI)",
            n,
            f"{cold_ms:.0f}",
            f"{cold_ms / n:.1f}",
            "1.00x",
        ],
        [
            "resident daemon, first pass",
            n,
            f"{first_ms:.0f}",
            f"{first_ms / n:.1f}",
            f"{cold_ms / max(first_ms, 1e-9):.2f}x",
        ],
        [
            "resident daemon, warm pass (served whole)",
            n,
            f"{warm_ms:.0f}",
            f"{warm_ms / n:.1f}",
            f"{cold_ms / max(warm_ms, 1e-9):.2f}x",
        ],
        [
            "resident daemon, comment-only edits",
            n,
            f"{edited_ms:.0f}",
            f"{edited_ms / n:.1f}",
            f"{cold_ms / max(edited_ms, 1e-9):.2f}x",
        ],
    ]
    checks = {
        "cold_ms": cold_ms,
        "first_ms": first_ms,
        "warm_ms": warm_ms,
        "edited_ms": edited_ms,
        "first_identical": first_verdicts == cold_verdicts,
        "warm_identical": warm_verdicts == cold_verdicts,
        "edited_identical": edited_verdicts == cold_verdicts,
        # every identical request is served whole, storing nothing
        "warm_served": warm_cache["result_hits"] == n
        and warm_cache["stores"] == 0,
        # every edited request misses the result tier and hits every
        # routine summary the first pass stored, so the symbolic memos
        # run warmer than on the first pass
        "edited_warm": edited_cache["result_hits"] == 0
        and edited_cache["hits"] == first_cache["stores"]
        and edited_cache["stores"] == 0
        and profiler.hit_rate(edited_symbolic)
        > profiler.hit_rate(first_symbolic),
        "result_hits": stats["summary_cache"]["result_hits"],
        "responses_200": stats["responses"].get("200", 0),
    }
    return rows, checks


def test_server_throughput(benchmark):
    rows, checks = benchmark.pedantic(_bench_rows, rounds=1, iterations=1)
    table = format_table(
        ["configuration", "programs", "wall ms", "ms/program",
         "speedup vs cold CLI"],
        rows,
        title=(
            f"Analysis daemon: {len(PROGRAMS)} registry program(s), "
            "cold-process-per-file vs resident requests"
        ),
    )
    emit("server", table)
    # the whole point of a daemon: same bits, different bill
    assert checks["first_identical"], table
    assert checks["warm_identical"], table
    assert checks["edited_identical"], table
    assert checks["warm_served"], table
    assert checks["edited_warm"], table
    assert checks["result_hits"] == len(PROGRAMS), table
    assert checks["responses_200"] >= 3 * len(PROGRAMS), table
    if CHECK_ONLY:
        return
    # a warm daemon request must beat forking a fresh interpreter; the
    # daemon's *first* pass already should (imports amortized)
    assert checks["warm_ms"] < checks["cold_ms"], table
    assert checks["edited_ms"] < checks["cold_ms"], table
    assert checks["first_ms"] < checks["cold_ms"], table
