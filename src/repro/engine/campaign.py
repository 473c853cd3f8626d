"""``panorama-campaign``: seeded mass corpora, sharding, and rollups.

A *campaign* is a fleet-scale measurement run: a deterministic mass
generator scales the synthetic kernels to tens of thousands of
programs, a ``--shard i/N`` partitioner splits one corpus across N
independent engine processes sharing one durable cache tier, and the
rollup mode merges the per-shard ``--stats-json`` exports into a single
scoreboard (verdict histogram, cache hit rates, wall-clock).

Determinism is the contract: the corpus is a pure function of
``(seed, generator version, count)``, every shard records that
provenance in its stats export, and the rollup refuses to merge shards
generated from different seeds, a shard twice, or shards of different
partitions — so any scoreboard line can be reproduced exactly from the
line itself.

The corpus is deliberately *caller-heavy*: a pool of library routines
(:func:`~repro.kernels.synthetic.make_routine`) repeats across many
app items (driver + embedded library sources), so identical routines
carry identical summary fingerprints in every item that embeds them,
and the first item to reach a routine summarizes it for the rest —
through the memory tier in one process, through the shared durable
tier across pool workers and shards (``benchmarks/bench_campaign.py``).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Any, Optional, Sequence

from .. import __version__
from ..dataflow import AnalysisOptions
from ..kernels.synthetic import (
    ROUTINE_PATTERNS,
    make_driver,
    make_loop_nest,
    make_routine,
)
from ..perf import profiler
from .batch import BatchItem
from .cli import add_engine_flags, run_engine

#: bump when the generator's output changes for a fixed seed (recorded
#: in every rollup so old scoreboard lines stay reproducible against
#: the code that produced them)
GENERATOR_VERSION = 1

#: declared array extents the generator draws from
_SPANS = (200, 500, 1000)


# --------------------------------------------------------------------------- #
# generation
# --------------------------------------------------------------------------- #


def build_library(seed: int, size: int) -> list[tuple[str, str]]:
    """The campaign's routine pool: *size* ``(name, source)`` pairs.

    Names encode the draw index so the pool is collision-free; sources
    repeat patterns and spans, so distinct routines still share
    analysis structure (and distinct *items* embedding the same routine
    share fingerprints).
    """
    # string seeds hash via sha512 (deterministic across processes,
    # unlike tuple seeds which fall back to randomized hash())
    rng = random.Random(f"panorama-library-v{GENERATOR_VERSION}-{seed}")
    pool: list[tuple[str, str]] = []
    for idx in range(size):
        pattern = rng.choice(ROUTINE_PATTERNS)
        span = rng.choice(_SPANS)
        name = f"L{idx:03d}{pattern[:3].upper()}"
        pool.append((name, make_routine(name, pattern, span)))
    return pool


def generate_campaign(
    count: int,
    seed: int = 0,
    library_size: Optional[int] = None,
    max_calls: int = 3,
) -> list[BatchItem]:
    """A deterministic corpus of *count* batch items.

    The mix is caller-heavy: ~1/4 *library* items (one bare routine
    from the pool), ~3/5 *app* items (a driver calling 1..max_calls
    pool routines, sources embedded), and the rest self-contained
    ``make_loop_nest`` scaling programs.  Repeat runs with the same
    ``(seed, count, knobs)`` produce byte-identical corpora.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if library_size is None:
        library_size = max(4, min(64, count // 8))
    library = build_library(seed, library_size)
    rng = random.Random(
        f"panorama-campaign-v{GENERATOR_VERSION}-{seed}-{count}"
    )
    items: list[BatchItem] = []
    for k in range(count):
        roll = rng.random()
        if roll < 0.25:
            name, source = library[rng.randrange(len(library))]
            items.append(BatchItem(name=f"lib-{k:06d}-{name}", source=source))
        elif roll < 0.85:
            picks = rng.sample(
                range(len(library)), k=rng.randint(1, min(max_calls, len(library)))
            )
            callees = [library[i][0] for i in picks]
            source = make_driver(
                f"APP{k:06d}", callees, trips=rng.choice((20, 50, 80))
            ) + "".join(library[i][1] for i in picks)
            items.append(BatchItem(name=f"app-{k:06d}", source=source))
        else:
            source = make_loop_nest(
                depth=rng.randint(1, 3),
                width=rng.randint(1, 4),
                routines=rng.randint(1, 3),
            )
            items.append(BatchItem(name=f"nest-{k:06d}", source=source))
    return items


# --------------------------------------------------------------------------- #
# sharding
# --------------------------------------------------------------------------- #


def parse_shard(spec: str) -> tuple[int, int]:
    """``"i/N"`` → ``(i, N)``; 1-based, validated."""
    head, sep, tail = spec.partition("/")
    if not sep:
        raise ValueError(f"shard spec {spec!r} is not of the form i/N")
    try:
        index, total = int(head), int(tail)
    except ValueError:
        raise ValueError(f"shard spec {spec!r} is not of the form i/N") from None
    if total < 1 or not 1 <= index <= total:
        raise ValueError(
            f"shard spec {spec!r} out of range (need 1 <= i <= N)"
        )
    return index, total


def shard_items(
    items: Sequence[BatchItem], index: int, total: int
) -> list[BatchItem]:
    """Round-robin partition: shard *index* of *total* (1-based).

    Round-robin (not contiguous blocks) so every shard sees the same
    mix of item kinds — shard wall-clocks stay comparable and no shard
    is accidentally starved of library items.
    """
    return list(items[index - 1 :: total])


# --------------------------------------------------------------------------- #
# rollup
# --------------------------------------------------------------------------- #

_SUM_TOP = ("files", "errors", "loops", "parallel_loops", "jobs")
_MERGE_DICTS = (
    "timings", "stats", "cache", "resilience", "audit", "symbolic", "verdicts"
)


def merge_rollups(payloads: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Merge per-shard ``--stats-json`` payloads into one scoreboard.

    Counter dicts fold by :func:`repro.perf.profiler.merge` (numbers
    add, ``peak_*`` keys max), wall-clock reports both the fleet total
    and the critical-path max.  A scoreboard must describe exactly one
    reproducible corpus, each item once, so shards are refused when
    their campaign provenance conflicts (seed, generator version or
    count), when a shard spec repeats, or when their partitions differ
    (``1/2`` with ``1/3``, or ``1/1`` with any ``i/2``).
    """
    if not payloads:
        raise ValueError("nothing to merge")
    out: dict[str, Any] = {"shards": len(payloads)}
    for key in _SUM_TOP:
        out[key] = sum(int(p.get(key, 0)) for p in payloads)
    for key in _MERGE_DICTS:
        merged: dict[str, Any] = {}
        for p in payloads:
            profiler.merge(merged, p.get(key, {}))
        out[key] = merged
    out["wall_seconds"] = {
        "total": sum(float(p.get("wall_seconds", 0.0)) for p in payloads),
        "max": max(float(p.get("wall_seconds", 0.0)) for p in payloads),
    }
    hits = out["cache"].get("hits", 0)
    misses = out["cache"].get("misses", 0)
    out["cache"]["hit_rate"] = (
        round(hits / (hits + misses), 4) if hits + misses else 0.0
    )
    out["cache_backends"] = sorted(
        {p.get("cache_backend", "memory") for p in payloads}
    )

    campaigns = [p.get("campaign") or {} for p in payloads]
    tagged = [c for c in campaigns if c]
    if tagged:
        identity = {
            (c.get("seed"), c.get("generator_version"), c.get("count"))
            for c in tagged
        }
        if len(identity) > 1:
            raise ValueError(
                f"refusing to merge shards from different campaigns: {identity}"
            )
        shards = sorted(c.get("shard", "1/1") for c in tagged)
        repeated = sorted({s for s in shards if shards.count(s) > 1})
        if repeated:
            raise ValueError(
                f"refusing to merge a repeated shard: {', '.join(repeated)}"
            )
        partitions = {parse_shard(s)[1] for s in shards}
        if len(partitions) > 1:
            raise ValueError(
                "refusing to merge shards of different partitions: "
                f"{', '.join(shards)}"
            )
        seed, version, count = next(iter(identity))
        out["campaign"] = {
            "seed": seed,
            "generator_version": version,
            "count": count,
            "shards": shards,
        }
    return out


def load_rollup(paths: Sequence[str]) -> dict[str, Any]:
    """Read per-shard stats files and merge them.

    Each file must hold a ``--stats-json`` export: a JSON object with
    an integer ``files`` count whose counter blocks are objects.
    Anything else raises :class:`ValueError` naming the file.
    """
    payloads = []
    for path in paths:
        with open(path) as fh:
            payload = json.load(fh)
        if not (
            isinstance(payload, dict)
            and type(payload.get("files")) is int
            and all(isinstance(payload.get(k, {}), dict) for k in _MERGE_DICTS)
        ):
            raise ValueError(f"{path} is not a --stats-json export")
        payloads.append(payload)
    return merge_rollups(payloads)


def format_scoreboard(rollup: dict[str, Any]) -> str:
    """Human-readable scoreboard for one merged campaign."""
    lines = []
    camp = rollup.get("campaign", {})
    if camp:
        lines.append(
            f"campaign: seed={camp['seed']} "
            f"generator=v{camp['generator_version']} count={camp['count']} "
            f"shards={','.join(camp.get('shards', []))}"
        )
    lines.append(
        f"{rollup['shards']} shard(s): {rollup['files']} file(s), "
        f"{rollup['errors']} error(s), {rollup['loops']} loop(s) "
        f"({rollup['parallel_loops']} parallel)"
    )
    verdicts = rollup.get("verdicts", {})
    if verdicts:
        hist = ", ".join(
            f"{k}={int(v)}" for k, v in sorted(verdicts.items())
        )
        lines.append(f"verdicts: {hist}")
    cache = rollup.get("cache", {})
    lines.append(
        f"cache[{'/'.join(rollup.get('cache_backends', []))}]: "
        f"{int(cache.get('hits', 0))} hit(s), "
        f"{int(cache.get('misses', 0))} miss(es), "
        f"hit rate {cache.get('hit_rate', 0.0):.1%}"
    )
    wall = rollup.get("wall_seconds", {})
    lines.append(
        f"wall: {wall.get('total', 0.0):.2f}s total, "
        f"{wall.get('max', 0.0):.2f}s critical path"
    )
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panorama-campaign",
        description=(
            "Seeded mass-analysis campaigns: generate a deterministic "
            "corpus, run one shard of it, or merge per-shard stats into "
            "a scoreboard."
        ),
    )
    parser.add_argument(
        "--count", type=int, default=100, metavar="N",
        help="corpus size before sharding (default 100)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="generator seed; recorded in the stats rollup (default 0)",
    )
    parser.add_argument(
        "--shard", metavar="i/N",
        help="run only shard i of N (1-based round-robin partition)",
    )
    add_engine_flags(parser)
    parser.add_argument(
        "--list", action="store_true",
        help="print the generated item names and exit (no analysis)",
    )
    parser.add_argument(
        "--rollup", metavar="OUT", nargs="?", const="-",
        help="merge per-shard stats files (positionals) into OUT "
        "('-' or omitted value: stdout only)",
    )
    parser.add_argument(
        "stats_files", nargs="*", metavar="STATS.JSON",
        help="per-shard stats files to merge (with --rollup)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)

    if args.rollup is not None:
        if not args.stats_files:
            print(
                "panorama-campaign: --rollup needs per-shard stats files",
                file=sys.stderr,
            )
            return 2
        try:
            rollup = load_rollup(args.stats_files)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"panorama-campaign: rollup failed: {exc}", file=sys.stderr)
            return 2
        if args.rollup != "-":
            with open(args.rollup, "w") as fh:
                json.dump(rollup, fh, indent=2, sort_keys=True)
                fh.write("\n")
        print(format_scoreboard(rollup))
        return 0

    try:
        corpus = generate_campaign(args.count, seed=args.seed)
    except ValueError as exc:
        print(f"panorama-campaign: {exc}", file=sys.stderr)
        return 2
    shard_spec = args.shard or "1/1"
    try:
        index, total = parse_shard(shard_spec)
    except ValueError as exc:
        print(f"panorama-campaign: {exc}", file=sys.stderr)
        return 2
    items = shard_items(corpus, index, total)

    if args.list:
        for item in items:
            print(item.name)
        return 0

    def show(report) -> None:
        print(f"shard {shard_spec}: {report.telemetry.summary_line()}")
        for res in report.results:
            if not res.ok:
                print(
                    f"--- {res.name}: ERROR ({res.error_kind}) ---\n"
                    f"{res.error}",
                    file=sys.stderr,
                )

    return run_engine(
        args,
        items,
        AnalysisOptions(),
        show,
        campaign={
            "seed": args.seed,
            "generator_version": GENERATOR_VERSION,
            "count": args.count,
            "shard": shard_spec,
        },
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
