"""perfbench: one outside-in benchmark harness for Panorama.

Runs from the root of a checkout; builds nothing (Panorama is pure
Python under ``src/``).  Every mode checks every verdict it produces.

One workload (the last stdout line is the JSON result; ``--trace 1``
reports the per-layer metrics)::

    python3 perfbench/harness.py --workload registry --seed 11 --seconds 20 --trace 0

All four workloads, a summary table, and ``perfbench/results/BENCH_<label>.json``::

    python3 perfbench/harness.py --repeat 3 --trace 1 --label baseline

Check-only (verdicts and exact counters, never wall clock; < 30 s)::

    python3 perfbench/harness.py --smoke

Compare two result files, one row per (workload, metric)::

    python3 perfbench/harness.py --compare results/BENCH_a.json results/BENCH_b.json

Regenerate the committed reference verdicts and counters::

    python3 perfbench/harness.py --write-reference

See perfbench/README.md for the metrics, the workloads and the trace.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 11
DEFAULT_SECONDS = 20
#: end-to-end metrics of one workload only, gated by --compare alone
#: (every metric in BENCHMARK.json has to exist on every workload);
#: bounded like the timings there
EXTRA_END_TO_END = {
    "daemon": [{"name": "p99_ms", "unit": "ms", "better": "lower",
                "bound": 0.24}],
}


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(
        "registry", "frontier", "campaign", "daemon"),
        help="run one workload and print its JSON result (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of a timed window (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: half the window untraced, half traced; "
                        "report the per-layer metrics")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write the traced window as Chrome trace-event "
                        "JSON (open in https://ui.perfetto.dev)")
    parser.add_argument("--smoke", action="store_true",
                        help="check-only: one fixed round per workload, "
                        "verdicts and counters, no timing")
    parser.add_argument("--check-counters", action="store_true",
                        help="fail unless the fixed-work counters equal "
                        "perfbench/reference/counters.json (implied by "
                        "--smoke without --workload)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload (all-workload mode)")
    parser.add_argument("--label",
                        help="write perfbench/results/BENCH_<label>.json")
    parser.add_argument("--out", metavar="PATH",
                        help="write this run's detailed result as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two BENCH files")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate perfbench/reference/ from this checkout")
    return parser.parse_args(argv)


def load_spec() -> dict[str, Any]:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


# --------------------------------------------------------------------------- #
# one workload, in this process
# --------------------------------------------------------------------------- #


def _layer_table(run, plain, traced) -> tuple[dict, dict]:
    """Per-input layer table and trace statistics of a traced window."""
    import tracing
    import workloads

    kids = workloads.children_summary(run.children)
    merged = traced.tracer.layers() if traced.tracer else {}
    tracing.merge_layers(merged, kids["layers"])
    inputs = max(traced.inputs + traced.untimed_inputs, 1)
    # layer times at the reference speed, like the end-to-end metrics
    scale = traced.reference_s / traced.wall_s
    table = {
        layer: {
            "self_ms": row["self_s"] * 1000.0 * scale / inputs,
            "incl_ms": row["incl_s"] * 1000.0 * scale / inputs,
            "calls": row["calls"] / inputs,
        }
        for layer, row in merged.items()
    }
    covered = sum(row["self_s"] for row in merged.values()) + kids["import_s"]
    ran = traced.inprocess_s + kids["ran_s"]
    if traced.requests:
        # the daemon: the server's own span against the client's latency;
        # the difference is transport (HTTP, JSON, scheduling)
        roots: dict[str, float] = {}
        for child in run.children:
            for rid, seconds in child.get("roots", {}).items():
                roots[rid] = roots.get(rid, 0.0) + seconds
        covered = sum(roots.get(rid, 0.0) for rid, _ in traced.requests)
        ran = sum(lat for _, lat in traced.requests)
        per_request = (ran - covered) * 1000.0 * scale / len(traced.requests)
        table["server.transport"] = {
            "self_ms": per_request, "incl_ms": per_request, "calls": 1.0}
    processes = max(kids["processes"], 1)
    stats = {
        "coverage": covered / ran if ran else 0.0,
        # cold inputs do the most traced calls
        "overhead_ratio": traced.values["cold_ms"] / plain.values["cold_ms"],
        "import_s": kids["import_s"] * scale / processes,
        "numpy_s": kids["numpy_s"] * scale / processes,
        "traced_inputs": traced.inputs,
        "spans_dropped": (traced.tracer.dropped() if traced.tracer else 0)
        + sum(child.get("dropped", 0) for child in run.children),
    }
    return table, stats


def _write_chrome(path: str, name: str, run, traced) -> None:
    import tracing

    events = []
    if traced.tracer is not None:
        events += tracing.chrome_events(traced.tracer.spans(), os.getpid(),
                                        f"perfbench {name}", 0)
    for child in run.children:
        events += tracing.chrome_events(child.get("spans", []), child["pid"],
                                        child.get("module", "child"), 0)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def check_counters(name: str, seed: int, counters: dict) -> list[str]:
    """Exact differences from the committed counters (empty = equal)."""
    import workloads

    reference = workloads.load_reference("counters") or {}
    if reference.get("seed") != seed:
        return [f"{name}: reference counters exist for seed "
                f"{reference.get('seed')} only, not {seed}"]
    want = reference.get("workloads", {}).get(name, {})
    return [
        f"{name}: counter {key}: expected {want.get(key)}, got {counters.get(key)}"
        for key in sorted(set(want) | set(counters))
        if want.get(key) != counters.get(key)
    ]


def run_workload(args: argparse.Namespace) -> dict[str, Any]:
    """Run one workload in this process; the detailed result."""
    import workloads

    name = args.workload
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    affinity = os.sched_getaffinity(0)
    # the harness and every process it starts share one CPU, the one the
    # speedometer measures (see speed.py)
    os.sched_setaffinity(0, {max(affinity)})
    run = workloads.Run(seed=args.seed, work=work, keep_spans=bool(args.trace_out))
    detail: dict[str, Any] = {"workload": name, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace}
    workload = None
    try:
        workload = workloads.make(name, run)
        if args.trace or args.smoke or args.check_counters:
            detail.update(workload.check())
        if not args.smoke:
            setup = workload.setup()
            values = setup.medians(*setup.samples)
            if args.trace:
                plain = workload.window(args.seconds / 2, traced=False)
                traced = workload.window(args.seconds / 2, traced=True)
                detail["layers"], detail["trace_stats"] = _layer_table(
                    run, plain, traced)
                if args.trace_out:
                    _write_chrome(args.trace_out, name, run, traced)
                window = plain
            else:
                window = workload.window(args.seconds, traced=False)
            values.update(window.values)
            detail["values"] = values
            detail["samples"] = {k: workloads.describe(v) for k, v in
                                 {**setup.samples, **window.samples}.items()}
    except Exception:  # the boundary: report, never print a result
        run.tally.fail(traceback.format_exc().strip().splitlines()[-1])
        traceback.print_exc()
    finally:
        if workload is not None:
            try:
                workload.close()
            except Exception:
                traceback.print_exc()
        shutil.rmtree(work, ignore_errors=True)
        os.sched_setaffinity(0, affinity)
    if args.check_counters and "counters" in detail:
        for problem in check_counters(name, args.seed, detail["counters"]):
            run.tally.problems.append(f"COUNTER {problem}")
    detail.update(attempted=run.tally.attempted, failed=run.tally.failed,
                  wrong=run.tally.wrong, problems=run.tally.problems)
    return detail


def layer_metrics(detail: dict[str, Any]) -> dict[str, float]:
    """Every per-layer value a traced run can report, flat."""
    import tracing

    out = dict(detail.get("counters", {}))
    layers = detail.get("layers", {})
    for layer in [*tracing.LAYERS, *layers]:
        out[f"{layer}.self_ms"] = layers.get(layer, {}).get("self_ms", 0.0)
    stats = detail.get("trace_stats", {})
    out["driver.import.s"] = stats.get("import_s", 0.0)
    out["trace.coverage"] = stats.get("coverage", 0.0)
    out["trace.overhead_ratio"] = stats.get("overhead_ratio", 0.0)
    return out


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_one(detail: dict[str, Any], spec: dict[str, Any]) -> int:
    """Human lines, then the JSON result line; the exit code."""
    for problem in detail["problems"][:20]:
        print(problem)
    ok = not detail["problems"]
    if detail.get("values") is None and not detail.get("counters"):
        return 1
    if detail["trace"] and "layers" in detail:
        flat = layer_metrics(detail)
        rows = sorted(detail["layers"].items(), key=lambda kv: -kv[1]["self_ms"])
        print(f"{detail['workload']}: per input, traced "
              f"(coverage {flat['trace.coverage']:.1%}, trace overhead "
              f"{flat['trace.overhead_ratio']:.2f}x)")
        for layer, row in rows:
            print(f"  {layer:24s} self {row['self_ms']:9.3f} ms  incl "
                  f"{row['incl_ms']:9.3f} ms  calls {row['calls']:9.2f}")
        wanted = spec["per_layer"]
    elif "values" in detail:
        flat = detail["values"]
        extra = EXTRA_END_TO_END.get(detail["workload"], [])
        for metric in spec["end_to_end"] + extra:
            stats = detail["samples"].get(metric["name"], {})
            print(f"  {detail['workload']:9s} {metric['name']:13s} "
                  f"{flat.get(metric['name'], float('nan')):12.4f} "
                  f"{metric['unit']:5s} "
                  + "  ".join(f"{k}={_fmt(v)}" for k, v in stats.items()))
        wanted = spec["end_to_end"]
    else:
        flat = detail.get("counters", {})
        print(f"{detail['workload']}: {len(flat)} counters; "
              f"{detail['attempted']} operations checked")
        wanted = []
    metrics = {}
    for metric in wanted:
        if metric["name"] not in flat:
            print(f"metric {metric['name']} was not measured", file=sys.stderr)
            return 1
        metrics[metric["name"]] = {"value": flat[metric["name"]],
                                   "unit": metric["unit"]}
    if wanted:
        print(json.dumps({
            "correct": detail["wrong"] == 0,
            "attempted": max(detail["attempted"], 1),
            "failed": detail["failed"],
            "metrics": metrics,
        }))
    return 0 if ok else 1


# --------------------------------------------------------------------------- #
# all workloads, one child process each
# --------------------------------------------------------------------------- #


def run_child(workload: str, args: argparse.Namespace, trace: int,
              smoke: bool = False, check: bool = False,
              trace_out: Optional[str] = None) -> dict[str, Any]:
    """Run one workload in a fresh harness process; its detailed result."""
    WORK.mkdir(parents=True, exist_ok=True)
    out = WORK / f"detail-{workload}-{os.getpid()}.json"
    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--out", str(out)]
    if smoke:
        cmd.append("--smoke")
    if check:
        cmd.append("--check-counters")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=600)
    try:
        with open(out) as fh:
            detail = json.load(fh)
    except (OSError, json.JSONDecodeError):
        sys.stdout.write(proc.stdout)
        detail = {"workload": workload, "problems": [
            f"FAILED {workload}: harness exited {proc.returncode}"],
            "attempted": 1, "failed": 1, "wrong": 0}
    finally:
        out.unlink(missing_ok=True)
    return detail


def environment() -> dict[str, Any]:
    from repro.symbolic.matrix import backend_name

    info: dict[str, Any] = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": len(os.sched_getaffinity(0)),
        "constraint_backend": backend_name(),
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        info["cpu"] = models[0] if models else None
    except OSError:
        info["cpu"] = None
    try:
        info["git_sha"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        info["git_sha"] = None
    return info


def summarize(args, spec, runs, traced) -> dict[str, Any]:
    """The BENCH document of an all-workload run."""
    env = environment()
    bench: dict[str, Any] = {
        "schema": 1,
        "label": args.label,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": env.pop("git_sha"),
        "constraint_backend": env.pop("constraint_backend"),
        "seed": args.seed,
        "python_hash_seed": env.pop("python_hash_seed"),
        "seconds": args.seconds,
        "environment": env,
        "workloads": {},
    }
    for workload, details in runs.items():
        entry: dict[str, Any] = {"end_to_end": {}}
        for metric in spec["end_to_end"] + EXTRA_END_TO_END.get(workload, []):
            values = [d["values"][metric["name"]] for d in details
                      if "values" in d]
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"],
                "median": statistics.median(values) if values else None,
                "runs": values,
                "samples": [d["samples"].get(metric["name"]) for d in details
                            if "samples" in d],
            }
        attempted = sum(d["attempted"] for d in details)
        failed = sum(d["failed"] for d in details)
        entry.update(attempted=attempted, failed=failed,
                     error_rate=failed / attempted if attempted else 0.0)
        if workload in traced:
            for key in ("layers", "counters", "trace_stats"):
                if key in traced[workload]:
                    entry[key] = traced[workload][key]
        bench["workloads"][workload] = entry
    return bench


def print_summary(bench: dict[str, Any]) -> None:
    print(f"{'workload':9s} {'metric':13s} {'median':>12s} unit  runs")
    for workload, entry in bench["workloads"].items():
        for name, metric in entry["end_to_end"].items():
            runs = " ".join(f"{v:.4g}" for v in metric["runs"])
            median = metric["median"]
            print(f"{workload:9s} {name:13s} "
                  f"{median if median is not None else float('nan'):12.4f} "
                  f"{metric['unit']:5s} {runs}")
        print(f"{workload:9s} {'error_rate':13s} {entry['error_rate']:12.4f} "
              f"{'ratio':5s} {entry['failed']}/{entry['attempted']}")
        stats = entry.get("trace_stats")
        if stats:
            print(f"{workload:9s} trace overhead {stats['overhead_ratio']:.2f}x, "
                  f"named layers cover {stats['coverage']:.1%} of traced time")


def run_all(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    import workloads

    if args.smoke:
        problems = []
        for name in workloads.WORKLOADS:
            started = time.perf_counter()
            detail = run_child(name, args, 0, smoke=True, check=True)
            problems += detail["problems"]
            print(f"{name:9s} {detail['attempted']:5d} operations checked, "
                  f"{len(detail.get('counters', {}))} counters "
                  f"({time.perf_counter() - started:.1f} s)")
        for problem in problems:
            print(problem)
        print("smoke OK" if not problems else "smoke FAILED")
        return 0 if not problems else 1
    runs: dict[str, list] = {name: [] for name in workloads.WORKLOADS}
    for rep in range(args.repeat):
        for name in workloads.WORKLOADS:
            # counters come from the traced run when there is one
            check = args.check_counters and rep == 0 and not args.trace
            runs[name].append(run_child(name, args, 0, check=check))
    traced: dict[str, dict] = {}
    if args.trace:
        for name in workloads.WORKLOADS:
            out = None
            if args.trace_out:
                stem = Path(args.trace_out)
                out = str(stem.with_name(f"{stem.stem}-{name}{stem.suffix}"))
            traced[name] = run_child(name, args, 1, check=args.check_counters,
                                     trace_out=out)
    bench = summarize(args, spec, runs, traced)
    print_summary(bench)
    problems = [p for details in runs.values() for d in details
                for p in d["problems"]]
    problems += [p for d in traced.values() for p in d["problems"]]
    for problem in problems[:20]:
        print(problem)
    if args.label:
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"BENCH_{args.label}.json"
        with open(path, "w") as fh:
            json.dump(bench, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0 if not problems else 1


# --------------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------------- #


def spread(values: list[float]) -> Optional[float]:
    """Quartile distance as a share of the median (None below 2 runs).

    Inclusive quartiles: with three runs the exclusive method would
    return the whole range.
    """
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(values)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """better / same / worse, or unresolved when the runs are too noisy."""
    sign = 1.0 if better == "lower" else -1.0
    noisy = any(s is not None and s > bound for s in (spread(a), spread(b)))
    if noisy:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        return "unresolved"
    worse = sign * (statistics.median(b) - statistics.median(a)) / statistics.median(a)
    if worse > bound:
        return "worse"
    if worse < -bound:
        return "better"
    return "same"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    print(f"A = {path_a} ({a.get('git_sha')}), B = {path_b} ({b.get('git_sha')})")
    print(f"{'workload':9s} {'metric':13s} {'A':>11s} {'B':>11s} {'delta':>8s} "
          f"{'bound':>6s} {'spreadA':>8s} {'spreadB':>8s}  verdict")
    worse = 0
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        for name, ma in entry_a["end_to_end"].items():
            mb = entry_b["end_to_end"].get(name)
            if mb is None or not ma["runs"] or not mb["runs"]:
                continue
            va, vb = statistics.median(ma["runs"]), statistics.median(mb["runs"])
            result = verdict(ma["runs"], mb["runs"], ma["better"], ma["bound"])
            worse += result == "worse"
            sa, sb = spread(ma["runs"]), spread(mb["runs"])
            print(f"{workload:9s} {name:13s} {va:11.4f} {vb:11.4f} "
                  f"{(vb - va) / va:+8.1%} {ma['bound']:6.0%} "
                  f"{'-' if sa is None else f'{sa:.1%}':>8s} "
                  f"{'-' if sb is None else f'{sb:.1%}':>8s}  {result}")
    print()
    print(f"{'workload':9s} {'layer (traced, per input)':28s} {'A ms':>10s} "
          f"{'B ms':>10s} {'delta':>8s}")
    for workload, entry_a in a["workloads"].items():
        layers_b = b["workloads"].get(workload, {}).get("layers", {})
        rows = sorted(entry_a.get("layers", {}).items(),
                      key=lambda kv: -kv[1]["self_ms"])
        for layer, row in rows:
            if layer not in layers_b or row["self_ms"] <= 0:
                continue
            other = layers_b[layer]["self_ms"]
            print(f"{workload:9s} {layer:28s} {row['self_ms']:10.4f} "
                  f"{other:10.4f} {(other - row['self_ms']) / row['self_ms']:+8.1%}")
    return 1 if worse else 0


# --------------------------------------------------------------------------- #
# reference verdicts and counters
# --------------------------------------------------------------------------- #


def write_reference(args: argparse.Namespace) -> int:
    """Record this checkout's verdicts and counters as the reference."""
    import workloads
    from repro.driver.panorama import Panorama
    from repro.engine.telemetry import loop_report_row

    if args.seed != DEFAULT_SEED:
        print(f"references are kept for the default seed {DEFAULT_SEED}",
              file=sys.stderr)
        return 2
    out_dir = workloads.REFERENCE
    out_dir.mkdir(exist_ok=True)

    def dump(name: str, payload: Any) -> None:
        with open(out_dir / f"{name}.json", "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {(out_dir / f'{name}.json').relative_to(ROOT)}")

    for name, inputs in (("registry", workloads.registry_inputs()),
                         ("frontier", workloads.frontier_inputs())):
        dump(name, {
            "inprocess": {i.name: workloads.inprocess_rows(i.source, i.sizes)
                          for i in inputs},
            # panorama FILE --json: default sizes, machine model on
            "cli": {i.name: [loop_report_row(r)
                             for r in Panorama().compile(i.source).loops]
                    for i in inputs},
        })

    WORK.mkdir(parents=True, exist_ok=True)
    work = WORK / f"reference-{os.getpid()}"
    work.mkdir()
    try:
        run = workloads.Run(seed=args.seed, work=work)
        campaign = workloads.CampaignWorkload(run)
        campaign.expected = {}
        for count in (campaign.CHECK_COUNT, 1):
            campaign.campaign(campaign.POOL[0], count)
        for seed in campaign.POOL:
            campaign.campaign(seed, campaign.COUNT)
        if run.tally.problems:
            print("\n".join(run.tally.problems), file=sys.stderr)
            return 1
        dump("campaign", {"seed": args.seed, "runs": campaign.expected})
        daemon = workloads.DaemonWorkload(run)
        daemon.close()
        dump("daemon", {
            "seed": args.seed,
            "requests": [s.name for s in daemon.plan[:daemon.REFERENCE_REQUESTS]],
            "digests": {name: workloads.digest(workloads.inprocess_rows(
                s.source, s.sizes)) for name, s in sorted(daemon.sources.items())},
        })
    finally:
        shutil.rmtree(work, ignore_errors=True)

    counters = {}
    for name in workloads.WORKLOADS:
        detail = run_child(name, args, 0, smoke=True)
        if detail["problems"]:
            print("\n".join(detail["problems"]), file=sys.stderr)
            return 1
        counters[name] = detail["counters"]
    dump("counters", {"seed": args.seed, "workloads": counters})
    return 0


# --------------------------------------------------------------------------- #


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not SPEC_PATH.is_file():
        print("perfbench: run from the root of a Panorama checkout "
              "(needs src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # counters such as fm_eliminations depend on string hashing
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(HERE / "harness.py"),
                                   *sys.argv[1:]], env)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    spec = load_spec()
    if args.write_reference:
        code = write_reference(args)
    elif args.workload is None:
        code = run_all(args, spec)
    else:
        detail = run_workload(args)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(detail, fh)
        code = print_one(detail, spec)
    try:
        WORK.rmdir()  # only once empty: another run may still be using it
    except OSError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
