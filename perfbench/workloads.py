"""The four benchmark workloads, driven from outside the program.

Every workload has three phases, run in this order in a fresh process:

* ``check`` -- a fixed amount of work, traced, that yields exact
  counters (symbolic work, cache traffic, calls per layer).  It runs
  first because some counters depend on the process's allocation
  history, so they repeat exactly only in a fresh interpreter with
  ``PYTHONHASHSEED=0``.  ``--smoke`` runs this phase alone.
* ``setup`` -- what a user pays before timed work can start; its time
  is ``setup_s``.
* ``window`` -- timed work for a fixed number of seconds, in whole
  rounds, every operation's output checked; then, for some workloads,
  untimed work that checks another entry point and gives the memory.

An *input* is one program analyzed: a registry program or frontier
kernel (in-process or in a fresh ``panorama`` process), a campaign item,
or a daemon request.  The end-to-end metrics are the same on every
workload:

==============  ==========================================================
``setup_s``     median set-up time (see each workload)
``cold_ms``     ms per input with cold caches
``warm_ms``     ms per input with warm caches
``peak_rss_mb`` peak resident memory of the analyzing child processes
==============  ==========================================================

Every time is a wall time at the reference machine's speed
(:mod:`speed`), and every value is the median of its samples in the
run.  The harness and every process it starts share one CPU.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import trace_child
import tracing
from speed import Speedometer, Timing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
#: the seed the committed reference verdicts and counters belong to
DEFAULT_SEED = 11

# the program under test; importable once the harness put src/ on sys.path
from repro import audit as _audit  # noqa: E402  (module: tracing patches it)
from repro.driver.panorama import Panorama  # noqa: E402
from repro.engine.campaign import generate_campaign  # noqa: E402
from repro.engine.telemetry import loop_report_row  # noqa: E402
from repro.kernels import FRONTIER_KERNELS, KERNELS  # noqa: E402
from repro.perf import profiler  # noqa: E402
from repro.server.client import PanoramaClient, ServiceError  # noqa: E402

#: counters read from profiler snapshots (flat ``counter.<name>`` keys)
_SNAPSHOT_COUNTERS = {
    "symbolic.prove_calls": "counter.prove_calls",
    "symbolic.prove_fm_queries": "counter.prove_fm_queries",
    "symbolic.fm_eliminations": "counter.fm_eliminations",
    "regions.gar_simplify_calls": "counter.gar_simplify_calls",
    "regions.gar_emptiness_checks": "counter.gar_emptiness_checks",
    "dataflow.sum_loop_calls": "counter.sum_loop_calls",
    "dataflow.sum_call_calls": "counter.sum_call_calls",
}


def canonical(rows: Any) -> str:
    """The byte-exact form verdict rows are compared in."""
    return json.dumps(rows, sort_keys=True, separators=(",", ":"))


def digest(rows: Any) -> str:
    return hashlib.sha256(canonical(rows).encode()).hexdigest()


def inprocess_rows(source: str, sizes: Optional[dict] = None) -> list[dict]:
    """Per-loop verdict rows of the in-process pipeline."""
    return [
        loop_report_row(r)
        for r in Panorama(sizes=sizes or {}).compile(source).loops
    ]


def first_diff(label: str, expected: list, got: list) -> str:
    """A one-line description of the first differing verdict row."""
    for want, have in zip(expected, got):
        if canonical(want) != canonical(have):
            keys = sorted(set(want) | set(have))
            key = next(k for k in keys if want.get(k) != have.get(k))
            return (f"{label}: loop {want.get('loop')}: {key}: expected "
                    f"{want.get(key)!r}, got {have.get(key)!r}")
    return f"{label}: expected {len(expected)} loop rows, got {len(got)}"


def load_reference(name: str) -> Optional[dict]:
    path = REFERENCE / f"{name}.json"
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def describe(samples: list[float]) -> dict[str, Any]:
    """Median, min, the highest percentile with >= 10 samples beyond it, n."""
    if not samples:
        return {"n": 0}
    out: dict[str, Any] = {
        "n": len(samples),
        "median": statistics.median(samples),
        "min": min(samples),
    }
    for pct in (99.9, 99, 95, 90, 75):
        if len(samples) * (1 - pct / 100) >= 10:
            out["p_hi"] = percentile(samples, pct)
            out["p_hi_pct"] = pct
            break
    return out


# --------------------------------------------------------------------------- #
# bookkeeping shared by the workloads
# --------------------------------------------------------------------------- #


@dataclass
class Tally:
    """Operations attempted and failed, and every wrong output."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    wrong: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(f"FAILED {message}")

    def mismatch(self, message: str) -> None:
        self.wrong += 1
        self.problems.append(f"WRONG {message}")


@dataclass
class Run:
    """One workload run's context: seed, scratch directory, child env."""

    seed: int
    work: Path
    tally: Tally = field(default_factory=Tally)
    speed: Speedometer = field(default_factory=Speedometer)
    #: spans of traced children (kept only when a trace file is wanted)
    keep_spans: bool = False
    children: list[dict] = field(default_factory=list)
    _next_tag: int = 0

    @property
    def env(self) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONHASHSEED"] = "0"
        return env

    def tag(self, prefix: str) -> str:
        self._next_tag += 1
        return f"{prefix}-{self._next_tag}"


@dataclass
class ChildResult:
    code: int
    maxrss_mb: float
    stdout: str
    stderr: str


class Child:
    """One Panorama CLI process, from spawn to reaped exit.

    Untraced children run ``python -m MODULE ARGS``; traced ones run
    ``trace_child.py`` under ``-X importtime``; ``module=False`` passes
    *args* to the interpreter as they are.  Output goes to files in the
    run's scratch directory, and the child is reaped with ``os.wait4``
    so its peak RSS is known.
    """

    def __init__(self, run: Run, args: list[str], traced: bool = False,
                 module: bool = True) -> None:
        self.run = run
        tag = run.tag(args[0].rsplit(".", 1)[-1] if module else "python")
        self.trace_path = run.work / f"{tag}.trace.json" if traced else None
        cmd = [sys.executable]
        if traced:
            cmd += ["-X", "importtime", str(HERE / "trace_child.py"),
                    str(self.trace_path)]
        elif module:
            cmd += ["-m"]
        self.out_path = run.work / f"{tag}.out"
        self.err_path = run.work / f"{tag}.err"
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.started = time.perf_counter()
            self.proc = subprocess.Popen(
                cmd + args, stdout=out, stderr=err, env=run.env, cwd=ROOT
            )

    def wait(self, timeout: float = 150.0) -> ChildResult:
        """Reap the child (killing it after *timeout* seconds)."""
        timer = threading.Timer(timeout, self._kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = self.err_path.read_text(errors="replace")
        result = ChildResult(
            code=self.proc.returncode,
            maxrss_mb=usage.ru_maxrss / 1024.0,
            stdout=self.out_path.read_text(errors="replace"),
            stderr=stderr,
        )
        trace = self.trace_path and tracing.load_child(str(self.trace_path))
        if trace:
            # the dump plus numpy's share of the import, for the layer table
            trace["numpy_s"] = trace_child.numpy_seconds(stderr)
            if not self.run.keep_spans:
                trace["spans"] = []
            self.run.children.append(trace)
        return result

    def stop(self, timeout: float = 30.0) -> ChildResult:
        """SIGTERM (a graceful drain for the daemon), then reap."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
        return self.wait(timeout)

    def _kill(self) -> None:
        try:
            self.proc.kill()
        except ProcessLookupError:
            pass


def children_summary(children: list[dict]) -> dict[str, Any]:
    """Merged layer table, import cost and covered time of traced children."""
    layers: dict[str, dict[str, float]] = {}
    import_s = numpy_s = ran_s = 0.0
    for child in children:
        tracing.merge_layers(layers, child.get("layers", {}))
        import_s += child.get("import_s", 0.0)
        numpy_s += child.get("numpy_s", 0.0)
        ran_s += child.get("import_s", 0.0) + child.get("main_s", 0.0)
    return {
        "layers": layers,
        "processes": len(children),
        "import_s": import_s,
        "numpy_s": numpy_s,
        # the time the program ran: imports plus main()
        "ran_s": ran_s,
    }


def exact_counters(
    snapshot: dict[str, float], calls: dict[str, dict[str, float]],
    inputs: int,
) -> dict[str, float]:
    """Counters shared by every workload, from a gauge delta and the
    traced call counts of one fixed-work pass."""
    out: dict[str, float] = {
        name: int(snapshot.get(key, 0))
        for name, key in _SNAPSHOT_COUNTERS.items()
    }
    out["symbolic.cache_hit_ratio"] = profiler.hit_rate(snapshot) or 0.0
    count = {layer: int(calls.get(layer, {}).get("calls", 0))
             for layer in tracing.LAYERS}
    screens = count["deptest.screen"]
    # a loop reaches classify only when the conventional screen could
    # not resolve it (dependence possible, or a premature exit)
    out["deptest.screen_resolved_ratio"] = (
        1 - count["parallelize.classify"] / screens if screens else 0.0
    )
    out["fortran.parses_per_item"] = (
        count["fortran.parse"] / inputs if inputs else 0.0
    )
    for layer, n in count.items():
        out[f"{layer}.calls"] = n
    return out


def engine_counters(cache: dict[str, Any], topo_hits: int) -> dict[str, float]:
    hits = int(cache.get("hits", 0))
    misses = int(cache.get("misses", 0))
    return {
        "engine.cache.hits": hits,
        "engine.cache.misses": misses,
        "engine.cache.stores": int(cache.get("stores", 0)),
        "engine.cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "engine.sched.topo_hits": int(topo_hits),
    }


@dataclass
class Window:
    """What one timed window measured."""

    inputs: int = 0
    #: inputs the traced processes served outside the timed operations
    untimed_inputs: int = 0
    #: metric -> per-operation values at the reference speed
    samples: dict[str, list[float]] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    #: wall and reference-speed seconds of every timed operation, for
    #: scaling the traced layer times
    wall_s: float = 0.0
    reference_s: float = 0.0
    #: in-process tracer (harness-side spans) of a traced window
    tracer: Optional[tracing.Tracer] = None
    #: seconds of harness-timed in-process work (coverage denominator)
    inprocess_s: float = 0.0
    #: per-request client latency and id, for the daemon's transport layer
    requests: list[tuple[str, float]] = field(default_factory=list)

    def add(self, metric: str, timings: list[Timing], scale: float,
            inputs: int = 1) -> None:
        """One sample of *metric*: the reference-speed seconds of
        *timings* times *scale*, per input."""
        seconds = sum(t.seconds for t in timings)
        self.wall_s += sum(t.wall_s for t in timings)
        self.reference_s += seconds
        self.samples.setdefault(metric, []).append(seconds * scale / inputs)

    def medians(self, *metrics: str) -> dict[str, float]:
        return {m: statistics.median(self.samples[m]) for m in metrics}


# --------------------------------------------------------------------------- #
# registry / frontier: in-process sweeps plus one CLI process per input
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Input:
    name: str
    source: str
    sizes: dict
    #: frontier kernels carry their interpreter-checked expected verdict
    kernel: Any = None


class SweepWorkload:
    """Compile + audit a fixed program set in-process, cold and warm;
    then one fresh ``panorama FILE --json`` process per program.

    ``setup_s``: a fresh interpreter importing the CLI, the auditor and
    the kernels.  ``cold_ms``/``warm_ms``: compile + audit of one
    program, per sweep over the set (a cold sweep clears every symbolic
    cache first).  The CLI processes after the window are untimed: a
    process is mostly interpreter start-up and imports, which
    ``setup_s`` measures, and one process of 0.4 s varies by about 9%
    however the host's speed is measured.  They check the CLI's output
    and give ``peak_rss_mb``, the largest of them.
    """

    SETUP_PROBES = 5

    def __init__(self, run: Run, name: str, inputs: list[Input]) -> None:
        self.run = run
        self.name = name
        self.order = list(inputs)
        random.Random(f"perfbench-{name}-{run.seed}").shuffle(self.order)
        reference = load_reference(name) or {}
        self.expected = {
            kind: reference.get(kind, {}) for kind in ("inprocess", "cli")
        }
        self.paths = {}
        for index, inp in enumerate(self.order):
            path = run.work / f"{name}-{index}.f"
            path.write_text(inp.source)
            self.paths[inp.name] = path

    # -- operations ---------------------------------------------------------------

    def _expect(self, kind: str, inp: Input, rows: list) -> None:
        want = self.expected[kind].get(inp.name)
        if want is None:
            self.run.tally.mismatch(f"{self.name}: no reference rows for {inp.name}")
        elif canonical(want) != canonical(rows):
            self.run.tally.mismatch(first_diff(f"{self.name} {kind} {inp.name}",
                                               want, rows))

    def analyze(self, inp: Input, tracer: Optional[tracing.Tracer] = None,
                rid: str = "") -> Optional[tuple[Timing, Any]]:
        """One in-process compile + audit; (timing, result) or None."""
        tally = self.run.tally
        tally.attempted += 1
        try:
            with tracer.request(rid) if tracer else nullcontext(), \
                    self.run.speed.time() as timing:
                result = Panorama(sizes=inp.sizes).compile(inp.source)
                report = _audit.audit_compilation(result, inp.name,
                                                  source=inp.source)
        except Exception as exc:  # the boundary: count it, keep measuring
            tally.fail(f"{self.name}: {inp.name}: {type(exc).__name__}: {exc}")
            return None
        self._expect("inprocess", inp, [loop_report_row(r) for r in result.loops])
        counts = report.counts()
        if report.errors() or counts.get("evidence_replay", 0) or counts.get(
            "evidence_unsupported", 0
        ):
            tally.mismatch(f"{self.name}: {inp.name}: audit not clean: {counts}")
        if inp.kernel is not None:
            status = inp.kernel.target_report(result).status.value
            if status != inp.kernel.expect_on:
                tally.mismatch(f"{self.name}: {inp.name}: verdict {status!r}, "
                               f"interpreter ground truth {inp.kernel.expect_on!r}")
        return timing, result

    def sweep(self, cold: bool, tracer=None, label="") -> list[tuple]:
        """Analyze every input once; (input, timing, result) of each success."""
        if cold:
            profiler.clear_caches()
        done = []
        for inp in self.order:
            timed = self.analyze(inp, tracer, f"{inp.name}:{label}")
            if timed is not None:
                done.append((inp, *timed))
        return done

    def cli(self, inp: Input, traced: bool) -> Optional[ChildResult]:
        tally = self.run.tally
        tally.attempted += 1
        child = Child(self.run, ["repro.driver.cli", str(self.paths[inp.name]),
                                 "--json"], traced).wait()
        if child.code != 0:
            tally.fail(f"{self.name}: panorama {inp.name} exited {child.code}: "
                       f"{child.stderr.strip()[-300:]}")
            return None
        try:
            rows = json.loads(child.stdout)["loops"]
        except (json.JSONDecodeError, KeyError) as exc:
            tally.fail(f"{self.name}: panorama {inp.name}: bad --json output: {exc}")
            return None
        self._expect("cli", inp, rows)
        return child

    # -- phases -------------------------------------------------------------------

    def check(self) -> dict[str, Any]:
        """One cold and one warm sweep plus one CLI per input, traced."""
        tracer = tracing.Tracer()
        tracer.install()
        try:
            before = profiler.snapshot()
            results = [
                result
                for cold in (True, False)
                for _, _, result in self.sweep(cold, tracer,
                                               "cold" if cold else "warm")
            ]
            delta = profiler.delta(before, profiler.snapshot())
        finally:
            tracer.uninstall()
        self.run.children.clear()
        for inp in self.order:
            self.cli(inp, traced=True)
        calls = tracing.merge_layers(
            tracer.layers(), children_summary(self.run.children)["layers"]
        )
        # two sweeps and one CLI process per input
        counters = exact_counters(delta, calls, 3 * len(self.order))
        counters.update(engine_counters({}, 0))
        counters["contents.content_facts"] = sum(
            r.analyzer.stats.content_facts for r in results)
        counters["parallelize.frontier_upgrades"] = sum(
            r.analyzer.stats.frontier_upgrades for r in results)
        return {"counters": counters}

    def setup(self) -> Window:
        out = Window()
        for _ in range(self.SETUP_PROBES):
            self.run.tally.attempted += 1
            with self.run.speed.sampling() as timing:
                child = Child(self.run, ["-c", "import repro.driver.cli, "
                                         "repro.audit.auditor, repro.kernels"],
                              module=False).wait()
            if child.code != 0:
                self.run.tally.fail(f"{self.name}: import probe exited "
                                    f"{child.code}: {child.stderr[-300:]}")
                continue
            out.add("setup_s", [timing], 1.0)
        return out

    def window(self, seconds: float, traced: bool) -> Window:
        out = Window()
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install()
        deadline = time.perf_counter() + seconds
        rounds = 0
        try:
            while time.perf_counter() < deadline:
                for metric in ("cold_ms", "warm_ms"):
                    done = self.sweep(metric == "cold_ms", tracer,
                                      f"{metric[:4]}{rounds}")
                    timings = [timing for _, timing, _ in done]
                    out.inprocess_s += sum(t.wall_s for t in timings)
                    out.inputs += len(done)
                    if len(done) == len(self.order):
                        out.add(metric, timings, 1000.0, len(done))
                rounds += 1
        finally:
            if tracer:
                tracer.uninstall()
        out.tracer = tracer
        self.run.children.clear()
        children = [self.cli(inp, traced) for inp in self.order]
        out.untimed_inputs = len(self.order)
        out.values = out.medians("cold_ms", "warm_ms")
        out.values["peak_rss_mb"] = max(c.maxrss_mb for c in children if c)
        return out

    def close(self) -> None:
        pass


def registry_inputs() -> list[Input]:
    """The five distinct Perfect-registry programs (56 loops)."""
    programs = {}
    for kernel in KERNELS:
        programs.setdefault(kernel.program, kernel)
    return [Input(p, k.source, dict(k.sizes)) for p, k in programs.items()]


def frontier_inputs() -> list[Input]:
    return [Input(k.name, k.source, {}, kernel=k) for k in FRONTIER_KERNELS]


# --------------------------------------------------------------------------- #
# campaign: panorama-campaign subprocesses over a seeded corpus
# --------------------------------------------------------------------------- #


def campaign_summary(stats: dict[str, Any]) -> dict[str, Any]:
    """The verdict scoreboard every campaign configuration must agree on."""
    return {key: stats.get(key) for key in
            ("files", "errors", "loops", "parallel_loops", "verdicts")}


class CampaignWorkload:
    """``panorama-campaign --count N --seed S --no-machine``, as a user runs it.

    One round is two processes on one corpus: a cold tier (it writes the
    default durable cache tier) and the same tier again in a fresh
    process (it reads it).  The corpora come from a fixed pool of
    :data:`POOL` campaign seeds, the same for every run; the run's seed
    orders them, and the rounds go through that order again and again.
    How much work an item holds varies between corpora (one of 100
    items holds 282 loops, another 429), so a run on corpora of its own
    would measure its corpora.  The ``--jobs 2`` pool and the one-item
    corpus run in :meth:`check` only: on the one CPU the harness keeps
    to, the pool's time would measure the scheduler.  ``setup_s``:
    ``panorama-campaign --list``.  ``cold_ms``/``warm_ms``: the cold/warm
    process divided by N, the median over one corpus's rounds, averaged
    over the corpora.  ``peak_rss_mb``: the largest process.
    """

    COUNT = 100
    CHECK_COUNT = 40
    SETUP_PROBES = 5
    #: campaign seeds of the corpora every run draws its rounds from
    POOL = tuple(100 * DEFAULT_SEED + i for i in range(3))

    def __init__(self, run: Run) -> None:
        self.run = run
        reference = load_reference("campaign") or {}
        #: "corpus-seed/count" -> the scoreboard every configuration shows
        self.expected: dict[str, Any] = dict(reference.get("runs", {}))
        self.order = list(self.POOL)
        random.Random(f"perfbench-campaign-{run.seed}").shuffle(self.order)

    def corpus_seed(self, round_index: int) -> int:
        return self.order[round_index % len(self.order)]

    def campaign(self, seed: int, count: int, jobs: int = 1,
                 tier: Optional[Path] = None, traced: bool = False,
                 ) -> Optional[tuple[Timing, ChildResult, dict]]:
        tally = self.run.tally
        tally.attempted += 1
        label = f"campaign --seed {seed} --count {count} --jobs {jobs}"
        stats_path = self.run.work / f"{self.run.tag('stats')}.json"
        args = ["repro.engine.campaign", "--count", str(count), "--seed",
                str(seed), "--no-machine", "--jobs", str(jobs),
                "--stats-json", str(stats_path)]
        if tier is not None:
            args += ["--cache-dir", str(tier)]
        with self.run.speed.sampling() as timing:
            child = Child(self.run, args, traced).wait()
        if child.code != 0:
            tally.fail(f"{label} exited {child.code}: "
                       f"{child.stderr.strip()[-300:]}")
            return None
        with open(stats_path) as fh:
            stats = json.load(fh)
        summary = campaign_summary(stats)
        if summary["errors"] or summary["files"] != count:
            tally.fail(f"{label}: {summary['errors']} item error(s), "
                       f"{summary['files']} file(s)")
            return None
        # every configuration agrees with the first run of its corpus,
        # and with the committed scoreboard where there is one
        want = self.expected.setdefault(f"{seed}/{count}", summary)
        if canonical(want) != canonical(summary):
            tally.mismatch(f"{label}: scoreboard {summary} != {want}")
        return timing, child, stats

    def _tier(self) -> Path:
        return self.run.work / self.run.tag("tier")

    def check(self) -> dict[str, Any]:
        """The four configurations once at N=40; the cold one traced."""
        self.run.children.clear()
        seed = self.POOL[0]
        tier = self._tier()
        done = self.campaign(seed, self.CHECK_COUNT, 1, tier, traced=True)
        self.campaign(seed, self.CHECK_COUNT, 1, tier)
        self.campaign(seed, self.CHECK_COUNT, 2, self._tier())
        self.campaign(seed, 1)
        if done is None:
            return {"counters": {}}
        stats = done[2]
        calls = children_summary(self.run.children)["layers"]
        counters = exact_counters(stats.get("symbolic", {}), calls,
                                  self.CHECK_COUNT)
        counters.update(engine_counters(stats.get("cache", {}),
                                        stats.get("sched", {}).get("topo_hits", 0)))
        counters["contents.content_facts"] = stats["stats"].get("content_facts", 0)
        counters["parallelize.frontier_upgrades"] = stats["stats"].get(
            "frontier_upgrades", 0)
        return {"counters": counters}

    def setup(self) -> Window:
        out = Window()
        for _ in range(self.SETUP_PROBES):
            self.run.tally.attempted += 1
            with self.run.speed.sampling() as timing:
                child = Child(self.run, ["repro.engine.campaign", "--list",
                                         "--count", str(self.COUNT), "--seed",
                                         str(self.POOL[0])]).wait()
            if child.code != 0 or len(child.stdout.split()) != self.COUNT:
                self.run.tally.fail(f"campaign --list exited {child.code}")
                continue
            out.add("setup_s", [timing], 1.0)
        return out

    def window(self, seconds: float, traced: bool) -> Window:
        out = Window()
        rss = []
        #: (metric, corpus seed) -> per-item ms of each round
        rounds: dict[tuple[str, int], list[float]] = {}
        self.run.children.clear()
        deadline = time.perf_counter() + seconds
        round_index = 0
        while time.perf_counter() < deadline:
            seed = self.corpus_seed(round_index)
            tier = self._tier()
            for metric in ("cold_ms", "warm_ms"):
                done = self.campaign(seed, self.COUNT, 1, tier, traced)
                if done is not None:
                    out.inputs += self.COUNT
                    out.add(metric, [done[0]], 1000.0, self.COUNT)
                    rounds.setdefault((metric, seed), []).append(
                        out.samples[metric][-1])
                    rss.append(done[1].maxrss_mb)
            shutil.rmtree(tier, ignore_errors=True)
            round_index += 1
        for metric in ("cold_ms", "warm_ms"):
            # every corpus weighs the same, however many rounds it got
            out.values[metric] = statistics.fmean(
                statistics.median(v) for (m, _), v in rounds.items() if m == metric)
        out.values["peak_rss_mb"] = max(rss)
        return out

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------- #
# daemon: one closed-loop client against panorama-serve
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Source:
    name: str
    source: str
    sizes: dict
    kind: str  # "registry" | "frontier" | "corpus"


def _peak_rss_mb(pid: int) -> float:
    """A live process's peak resident memory (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM for pid {pid}")


class Daemon:
    """A running ``panorama-serve --port 0`` and a client for it."""

    def __init__(self, run: Run, traced: bool) -> None:
        ready = run.work / f"{run.tag('ready')}.txt"
        self.child = Child(run, ["repro.server.cli", "--port", "0",
                                 "--ready-file", str(ready)], traced)
        while True:
            text = ready.read_text() if ready.exists() else ""
            if text.endswith("\n"):
                break
            if self.child.proc.poll() is not None:
                raise RuntimeError(
                    f"panorama-serve exited {self.child.proc.returncode} "
                    "before it was ready")
            if time.perf_counter() - self.child.started > 60:
                self.child.stop()
                raise RuntimeError("panorama-serve not ready after 60 s")
            time.sleep(0.001)
        host, port = text.split()
        # no retries: a refused or failed request must count as failed
        self.client = PanoramaClient(host=host, port=int(port), retries=0,
                                     timeout=60)

    def stop(self) -> ChildResult:
        return self.child.stop()


class DaemonWorkload:
    """A closed loop: one client, one request at a time, for the window.

    The mix is seeded and stratified: every block of 20 requests holds
    the 5 registry programs, 2 frontier kernels and the next 13 sources
    of a 300-item campaign corpus (25% / 10% / 65%), shuffled, so every
    window sends the same share of heavy requests.  The requests go
    through the corpus in passes, each in a new seeded order: the first
    pass sends every source once (summary-cache misses) and the later
    ones send them again (hits), so every seed times the same sources
    cold and the same sources warm.  The corpus is the default seed's
    whatever the run's seed, which orders the requests: the items of a
    corpus share one library of generated routines, and from seed to
    seed the median analysis time of an item moves by 18% between the
    quartiles, more than the regression bounds.  A warm-up pass
    over the registry and frontier sources precedes timed work.
    ``setup_s``: spawn to ready-file plus the warm-up (of several
    daemons; the last one serves the window).  ``cold_ms``: the median
    latency of corpus requests whose source the daemon has not seen
    before (summary-cache misses).  ``warm_ms``: the mean latency of
    each source's later requests (hits), the median over sources.
    Registry and frontier requests are the load the corpus requests
    share the daemon with.
    """

    CORPUS = 300
    CHECK_REQUESTS = 60
    SETUPS = 5
    #: requests planned up front; more than any window can send
    BLOCKS = 1000
    #: the daemon's peak memory is read after this many requests of the
    #: window: the summary cache grows with every new source, so a
    #: reading at the end of the window would grow with the machine's speed
    RSS_AFTER = 1000
    REFERENCE_REQUESTS = 1200

    def __init__(self, run: Run) -> None:
        self.run = run
        self.warmup = [
            Source(i.name, i.source, i.sizes, "registry")
            for i in registry_inputs()
        ] + [Source(i.name, i.source, {}, "frontier") for i in frontier_inputs()]
        corpus = [
            Source(item.name, item.source, dict(item.sizes), "corpus")
            for item in generate_campaign(self.CORPUS, seed=DEFAULT_SEED)
        ]
        registry = [s for s in self.warmup if s.kind == "registry"]
        frontier = [s for s in self.warmup if s.kind == "frontier"]
        rng = random.Random(f"perfbench-daemon-{run.seed}")

        def passes():
            while True:
                yield from rng.sample(corpus, len(corpus))

        draws = passes()
        self.plan = []
        for _ in range(self.BLOCKS):
            block = registry + rng.sample(frontier, 2) + [
                next(draws) for _ in range(13)
            ]
            rng.shuffle(block)
            self.plan += block
        reference = load_reference("daemon") or {}
        # the sources do not depend on the seed, so neither do their rows
        self.expected: dict[str, str] = dict(reference.get("digests", {}))
        if reference.get("seed") == run.seed:
            names = [s.name for s in self.plan[: len(reference["requests"])]]
            if names != reference["requests"]:
                run.tally.mismatch("daemon: request mix differs from the reference")
        #: source name -> canonical rows of every response seen
        self.seen: dict[str, set[str]] = {}
        self.sources = {s.name: s for s in self.warmup + corpus}
        self.live: Optional[Daemon] = None

    def request(self, daemon: Daemon, source: Source, rid: str) -> Optional[Timing]:
        tally = self.run.tally
        tally.attempted += 1
        try:
            with self.run.speed.time() as timing:
                payload = daemon.client.analyze(source.source, name=rid,
                                                sizes=source.sizes or None)
        except (ServiceError, OSError, http.client.HTTPException) as exc:
            tally.fail(f"daemon: {rid}: {type(exc).__name__}: {exc}")
            return None
        self.seen.setdefault(source.name, set()).add(canonical(payload["loops"]))
        return timing

    def verify(self) -> None:
        """Every response equals the reference, or the in-process
        pipeline's rows for a source the reference lacks."""
        for name, variants in sorted(self.seen.items()):
            if len(variants) > 1:
                self.run.tally.mismatch(f"daemon: {name}: responses differ "
                                        "between requests")
                continue
            got = next(iter(variants))
            if name not in self.expected:
                source = self.sources[name]
                rows = inprocess_rows(source.source, source.sizes)
                self.expected[name] = digest(rows)
                if canonical(rows) != got:
                    self.run.tally.mismatch(first_diff(f"daemon {name}", rows,
                                                       json.loads(got)))
            elif hashlib.sha256(got.encode()).hexdigest() != self.expected[name]:
                self.run.tally.mismatch(f"daemon: {name}: rows differ from "
                                        "the reference digest")
        self.seen.clear()

    def _warm_up(self, daemon: Daemon) -> list[Timing]:
        return [
            self.request(daemon, s, f"warmup:{s.name}") or Timing()
            for s in self.warmup
        ]

    def _stop(self, daemon: Daemon) -> ChildResult:
        result = daemon.stop()
        # 5 = drained cleanly after SIGTERM (the documented exit code)
        if result.code not in (0, 5):
            self.run.tally.fail(f"daemon exited {result.code}: "
                                f"{result.stderr.strip()[-300:]}")
        return result

    def check(self) -> dict[str, Any]:
        self.run.children.clear()
        daemon = Daemon(self.run, traced=True)
        try:
            self._warm_up(daemon)
            for i, source in enumerate(self.plan[: self.CHECK_REQUESTS]):
                self.request(daemon, source, f"check{i:05d}:{source.name}")
            stats = daemon.client.stats()
        finally:
            self._stop(daemon)
        self.verify()
        calls = children_summary(self.run.children)["layers"]
        inputs = len(self.warmup) + self.CHECK_REQUESTS
        counters = exact_counters(stats["perf"], calls, inputs)
        counters.update(engine_counters(stats["summary_cache"], 0))
        tele = stats["telemetry"]["stats"]
        counters["contents.content_facts"] = tele.get("content_facts", 0)
        counters["parallelize.frontier_upgrades"] = tele.get(
            "frontier_upgrades", 0)
        return {"counters": counters}

    def setup(self) -> Window:
        out = Window()
        for index in range(self.SETUPS):
            with self.run.speed.sampling() as ready:
                daemon = Daemon(self.run, traced=False)
            out.add("setup_s", [ready, *self._warm_up(daemon)], 1.0)
            if index + 1 < self.SETUPS:
                self._stop(daemon)
            else:
                self.live = daemon
        return out

    def window(self, seconds: float, traced: bool) -> Window:
        out = Window()
        self.run.children.clear()
        if traced:
            if self.live is not None:
                self._stop(self.live)
            self.live = Daemon(self.run, traced=True)
            self._warm_up(self.live)
            out.untimed_inputs = len(self.warmup)
        daemon = self.live
        seen_sources = {s.source for s in self.warmup}
        #: corpus source -> its warm latencies
        warm: dict[str, list[float]] = {}
        deadline = time.perf_counter() + seconds
        index = 0
        peak_mb = None
        while time.perf_counter() < deadline and index < len(self.plan):
            source = self.plan[index]
            rid = f"{index:05d}:{source.name}"
            index += 1
            timing = self.request(daemon, source, rid)
            if timing is None:
                continue
            out.inputs += 1
            out.requests.append((rid, timing.wall_s))
            if source.kind == "corpus":
                metric = "warm_ms" if source.source in seen_sources else "cold_ms"
                out.add(metric, [timing], 1000.0)
                if metric == "warm_ms":
                    warm.setdefault(source.source, []).append(
                        out.samples[metric][-1])
            out.samples.setdefault("latency_ms", []).append(timing.seconds * 1000.0)
            seen_sources.add(source.source)
            if out.inputs == self.RSS_AFTER:
                peak_mb = _peak_rss_mb(daemon.child.proc.pid)
        # a window too short to reach the reading sends the rest of its
        # requests untimed (the traced window reports no memory)
        sent = out.inputs
        while peak_mb is None and not traced and index < len(self.plan):
            source = self.plan[index]
            index += 1
            rid = f"{index - 1:05d}:{source.name}"
            if self.request(daemon, source, rid) is not None:
                sent += 1
                if sent == self.RSS_AFTER:
                    peak_mb = _peak_rss_mb(daemon.child.proc.pid)
        self.live = None
        self._stop(daemon)
        self.verify()
        out.values = out.medians("cold_ms")
        # every source weighs the same, however often the window repeated
        # it: a window sends each source once cold, and then between one
        # and three more times depending on its length
        out.values["warm_ms"] = statistics.median(
            statistics.fmean(v) for v in warm.values())
        out.values["p99_ms"] = percentile(out.samples["latency_ms"], 99)
        if peak_mb is not None:
            out.values["peak_rss_mb"] = peak_mb
        return out

    def close(self) -> None:
        if self.live is not None:
            self._stop(self.live)
            self.live = None


WORKLOADS = ("registry", "frontier", "campaign", "daemon")


def make(name: str, run: Run):
    """The workload object for *name*."""
    if name == "registry":
        return SweepWorkload(run, "registry", registry_inputs())
    if name == "frontier":
        return SweepWorkload(run, "frontier", frontier_inputs())
    if name == "campaign":
        return CampaignWorkload(run)
    if name == "daemon":
        return DaemonWorkload(run)
    raise ValueError(f"unknown workload {name!r}")
