"""The CLIs' shared settings: one declaration, one mapping to options.

``panorama``, ``panorama-batch`` and the daemon's request options must
turn the same settings into equal :class:`AnalysisOptions`; every CLI
keeps its option strings and defaults; ``panorama`` imports no part of
the engine or the daemon; and an engine run whose items the result tier
serves whole imports no analysis layer.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.dataflow import AnalysisOptions
from repro.driver import Panorama
from repro.driver import cli as driver_cli
from repro.driver.flags import options_from_args
from repro.driver.report import loop_report_row
from repro.engine import campaign as campaign_cli
from repro.engine import cli as batch_cli
from repro.kernels import KERNELS
from repro.server import cli as serve_cli
from repro.server.service import AnalysisService, ServerConfig

TECHNIQUE_SUBSETS = [
    combo
    for size in range(4)
    for combo in itertools.combinations(("T1", "T2", "T3"), size)
]
BUDGETS = ((None, None), (250.0, 4000))
SETTINGS = list(
    itertools.product(TECHNIQUE_SUBSETS, (False, True), (False, True), BUDGETS)
)


def _setting_id(setting) -> str:
    ablate, no_fm, no_frontier, (budget_ms, _) = setting
    return "-".join(
        ["".join(ablate) or "all"]
        + ["no_fm"] * no_fm
        + ["no_frontier"] * no_frontier
        + ["budget"] * (budget_ms is not None)
    )


@pytest.fixture(scope="module")
def service():
    return AnalysisService(ServerConfig())


@pytest.mark.parametrize("setting", SETTINGS, ids=_setting_id)
def test_every_front_end_maps_a_setting_to_the_same_options(service, setting):
    ablate, no_fm, no_frontier, (budget_ms, budget_steps) = setting
    argv = [flag for t in ablate for flag in ("--ablate", t)]
    request = {"ablate": list(ablate), "no_fm": no_fm, "no_frontier": no_frontier}
    if no_fm:
        argv.append("--no-fm")
    if no_frontier:
        argv.append("--no-frontier")
    if budget_ms is not None:
        argv += ["--budget-ms", str(budget_ms), "--budget-steps", str(budget_steps)]
        request.update(budget_ms=budget_ms, budget_steps=budget_steps)

    expected = AnalysisOptions(
        symbolic="T1" not in ablate,
        if_conditions="T2" not in ablate,
        interprocedural="T3" not in ablate,
        use_fm=not no_fm,
        frontier=not no_frontier,
        budget_ms=budget_ms,
        budget_steps=budget_steps,
    )
    panorama = driver_cli.build_arg_parser().parse_args(["x.f", *argv])
    batch = batch_cli.build_arg_parser().parse_args(argv)
    assert options_from_args(panorama) == expected
    assert options_from_args(batch) == expected
    assert service.build_options({"options": request}) == expected


# The option strings and defaults of every CLI (``--help`` aside); the
# deleted flags --inject-faults and --library-size are gone.
SUPPRESS = argparse.SUPPRESS
ANALYSIS = {
    "--ablate": [], "--no-fm": False, "--no-frontier": False,
    "--budget-ms": None, "--budget-steps": None,
}
AUDIT = {"--audit": False, "--sarif": None, "--strict-audit": False}
ENGINE = {
    "--jobs": 1, "--cache-dir": None, "--cache-backend": None,
    "--no-machine": False, "--stats-json": None,
    "--ledger": None, "--resume": None, "--drain-timeout": 10.0,
}
PINNED = {
    "panorama": (driver_cli, {
        "source": None, "--summaries": False, "--dump-hsg": False,
        "--no-machine": False, "--emit": None, "--json": False,
        "--profile": False, "--version": SUPPRESS, **ANALYSIS, **AUDIT,
    }),
    "panorama-batch": (batch_cli, {
        "sources": None, "--kernels": False, "--json": False,
        "--timeout-per-item": None, "--retries": 2, "--version": SUPPRESS,
        **ENGINE, **ANALYSIS, **AUDIT,
    }),
    "panorama-campaign": (campaign_cli, {
        "--count": 100, "--seed": 0, "--shard": None, "--list": False,
        "--rollup": None, "stats_files": None, "--version": SUPPRESS,
        **ENGINE,
    }),
    "panorama-serve": (serve_cli, {
        "--host": "127.0.0.1", "--port": 8321, "--max-inflight": 8,
        "--retry-after": 1.0, "--budget-ms": None, "--budget-steps": None,
        "--max-body-kb": 4000, "--cache-dir": None, "--cache-backend": None,
        "--audit": False, "--drain-timeout": 10.0, "--ready-file": None,
        "--selftest": False, "--version": SUPPRESS,
    }),
}
CHOICES = {
    "--ablate": ["T1", "T2", "T3"],
    "--emit": ["omp", "sgi"],
    "--cache-backend": ["disk", "shared"],
}


@pytest.mark.parametrize("prog", sorted(PINNED))
def test_option_strings_and_defaults_are_pinned(prog):
    module, pinned = PINNED[prog]
    parser = module.build_arg_parser()
    assert parser.prog == prog
    actions = {
        (action.option_strings or [action.dest])[-1]: action
        for action in parser._actions
        if "--help" not in action.option_strings
    }
    assert {name: a.default for name, a in actions.items()} == pinned
    for name, choices in CHOICES.items():
        if name in actions:
            assert list(actions[name].choices) == choices, name


def test_panorama_imports_no_engine_daemon_or_sqlite():
    """``panorama`` pays for the analysis only: the engine group and the
    run path live under ``repro.engine``."""
    code = (
        "import sys\n"
        "import repro.driver.cli\n"
        "print(sorted(m for m in sys.modules if m == 'sqlite3'"
        " or m.startswith(('repro.engine', 'repro.server'))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_panorama_json_loads_no_engine_and_matches_in_process_rows(tmp_path):
    """``panorama FILE --json`` serializes with the driver's own rows:
    no engine module, ``sqlite3`` or ``multiprocessing`` is loaded when
    the process exits, and its loops are the in-process verdict rows."""
    kernel = next(k for k in KERNELS if k.program == "TRFD")
    path = tmp_path / "trfd.f"
    path.write_text(kernel.source)
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print(sorted(m for m in sys.modules"
        " if m in ('sqlite3', 'multiprocessing')"
        " or m.startswith('repro.engine')), file=sys.stderr))\n"
        "sys.argv[0] = 'panorama'\n"
        "runpy.run_module('repro.driver.cli', run_name='__main__')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code, str(path), "--json"],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stderr.strip().splitlines()[-1] == "[]"
    expected = [loop_report_row(r) for r in Panorama().compile(kernel.source).loops]
    assert json.loads(out.stdout)["loops"] == json.loads(json.dumps(expected))


#: the analysis layers a process that serves every item whole never
#: loads: exact module names, then package prefixes
ANALYSIS_MODULES = (
    "repro.driver.panorama",
    "repro.dataflow.analyzer",
    "repro.regions.gar",
    "repro.fortran.parser",
)
ANALYSIS_PACKAGES = (
    "repro.symbolic",
    "repro.hsg",
    "repro.parallelize",
    "repro.deptest",
)


def _run_loading(module: str, args: list[str], prelude: str = "") -> tuple:
    """Run ``python -m MODULE ARGS`` after *prelude*: the stdout, the
    analysis modules loaded when the process exits, and the stderr
    lines before that report."""
    code = (
        "import atexit, json, runpy, sys\n"
        + prelude
        + "atexit.register(lambda: print(json.dumps(sorted(m for m in "
        f"sys.modules if m in {ANALYSIS_MODULES!r} or m.startswith("
        f"{ANALYSIS_PACKAGES!r}))), file=sys.stderr))\n"
        f"sys.argv[0] = {module!r}\n"
        f"runpy.run_module({module!r}, run_name='__main__')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    *lines, loaded = out.stderr.strip().splitlines()
    return out.stdout, json.loads(loaded), lines


def test_served_campaign_loads_no_analysis_layer(tmp_path):
    """A warm campaign, every item served by the result tier, ends with
    no analysis layer loaded, and its scoreboard is the cold run's."""
    args = ["--count", "20", "--seed", "1100", "--cache-dir", str(tmp_path)]
    boards, loaded = [], []
    for run in ("cold", "warm"):
        stats = tmp_path / f"{run}.json"
        _, modules, _ = _run_loading(
            "repro.engine.campaign", [*args, "--stats-json", str(stats)]
        )
        export = json.loads(stats.read_text())
        boards.append({key: export[key] for key in (
            "files", "errors", "loops", "parallel_loops", "verdicts")})
        loaded.append(modules)
    assert "repro.driver.panorama" in loaded[0]
    assert loaded[1] == []
    assert boards[1] == boards[0]


def test_campaign_list_loads_no_analysis_layer():
    stdout, loaded, _ = _run_loading(
        "repro.engine.campaign", ["--list", "--count", "20", "--seed", "1100"]
    )
    assert len(stdout.split()) == 20
    assert loaded == []


def test_import_repro_loads_no_pipeline():
    """The root package's names load their subpackages on first use."""
    code = (
        "import sys, repro\n"
        "print(sorted(m for m in sys.modules"
        " if m.startswith(('repro.dataflow', 'repro.driver'))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_pool_parent_loads_pipeline_before_forking(tmp_path):
    """``panorama-batch --jobs 2`` starts without the pipeline and, with
    items to analyze, loads it before it builds the pool, so the forked
    workers inherit it instead of each importing it."""
    for name, stride in (("a.f", 1), ("b.f", 2)):
        (tmp_path / name).write_text(
            "      program p\n      real a(100)\n"
            f"      do 10 i = 1, 100, {stride}\n"
            "         a(i) = i\n   10 continue\n      end\n"
        )
    prelude = (
        "import repro.engine.batch as batch\n"
        "print('at start', 'repro.driver.panorama' in sys.modules,"
        " file=sys.stderr)\n"
        "new_pool = batch._new_pool\n"
        "def probe(workers):\n"
        "    print('at pool', 'repro.driver.panorama' in sys.modules,"
        " file=sys.stderr)\n"
        "    return new_pool(workers)\n"
        "batch._new_pool = probe\n"
    )
    *_, stderr = _run_loading(
        "repro.engine.cli",
        [str(tmp_path / "a.f"), str(tmp_path / "b.f"), "--jobs", "2",
         "--no-machine"],
        prelude,
    )
    assert stderr[:2] == ["at start False", "at pool True"]
