"""Chaos suite: injected faults must degrade the batch, never break it.

Every test drives the real ``BatchEngine`` (real process pools, real
disk cache) under a deterministic :mod:`repro.resilience.faults` plan
and asserts the supervision contract of docs/robustness.md:

* the report is always *complete* — every item has a typed result;
* ``ok=False`` only on the items a fault actually touched;
* transient faults (crash@1, hang@1, error@1) are absorbed by retries;
* persistent faults end in quarantine, not a hung batch;
* with no faults injected, verdicts are bit-identical to a plain run.
"""

from pathlib import Path

import pytest

from repro.dataflow import AnalysisOptions
from repro.engine import BatchEngine, BatchItem
from repro.resilience import faults

ITEM_A = BatchItem(
    name="itema",
    source=(
        "      SUBROUTINE sa(a, n)\n"
        "      REAL a(100)\n"
        "      INTEGER n, i\n"
        "      DO 10 i = 1, n\n"
        "        a(i) = 2.0\n"
        "   10 CONTINUE\n"
        "      END\n"
    ),
)

ITEM_B = BatchItem(
    name="itemb",
    source=(
        "      SUBROUTINE sb(b, m)\n"
        "      REAL b(50)\n"
        "      INTEGER m, j\n"
        "      DO 20 j = 1, m\n"
        "        b(j) = b(j) + 1.0\n"
        "   20 CONTINUE\n"
        "      END\n"
    ),
)


# ITEM_C needs real dataflow analysis (the screen cannot resolve the
# outer loop), so compiling it computes and *stores* routine summaries —
# the cache-fault tests need entries on disk to corrupt
ITEM_C = BatchItem(
    name="itemc",
    source=(
        "      SUBROUTINE sc(a, t, n)\n"
        "      REAL a(100), t(100)\n"
        "      INTEGER n, i, j\n"
        "      DO 10 i = 1, n\n"
        "        DO 20 j = 1, 100\n"
        "          t(j) = a(j) * 2.0\n"
        "   20   CONTINUE\n"
        "        DO 30 j = 1, 100\n"
        "          a(j) = t(j) + 1.0\n"
        "   30   CONTINUE\n"
        "   10 CONTINUE\n"
        "      END\n"
    ),
)


@pytest.fixture(autouse=True)
def fault_env(monkeypatch):
    """Each test sets its plan through the env var (the real transport,
    inherited by pool workers); nothing leaks between tests."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reset()
    yield monkeypatch
    faults.reset()


def inject(monkeypatch, plan: str) -> None:
    monkeypatch.setenv(faults.ENV_VAR, plan)
    faults.reset()


def make_engine(**kw) -> BatchEngine:
    kw.setdefault("jobs", 2)
    kw.setdefault("timeout_per_item", 20.0)
    kw.setdefault("max_attempts", 3)
    kw.setdefault("backoff_base", 0.01)
    return BatchEngine(AnalysisOptions(), **kw)


def assert_clean_rows(report, name: str) -> None:
    rows = report.result(name).rows()
    assert rows, f"{name} produced no verdicts"
    assert all(r["status"] != "unknown (budget)" for r in rows)


class TestWorkerCrash:
    def test_single_crash_is_retried_to_success(self, fault_env):
        inject(fault_env, "worker.crash:itema@1")
        report = make_engine().run([ITEM_A, ITEM_B])
        assert report.complete and report.ok
        assert report.result("itema").attempts >= 2
        assert_clean_rows(report, "itema")
        assert_clean_rows(report, "itemb")
        res = report.telemetry.resilience
        assert res["worker_crashes"] >= 1
        assert res["pool_rebuilds"] >= 1
        assert res["retries"] >= 1
        assert report.exit_code() == 0

    def test_persistent_crash_is_quarantined(self, fault_env):
        inject(fault_env, "worker.crash:itema")
        report = make_engine().run([ITEM_A, ITEM_B])
        assert report.complete
        bad = report.result("itema")
        assert not bad.ok
        assert bad.error_kind == "worker-crash"
        assert bad.quarantined
        assert bad.attempts == 3
        # only the faulted item failed; the innocent one is intact
        assert report.result("itemb").ok
        assert_clean_rows(report, "itemb")
        assert report.telemetry.resilience["quarantined"] == 1
        assert not report.hard_failures()
        assert report.exit_code() == 3


class TestItemTimeout:
    def test_hang_times_out_then_succeeds(self, fault_env):
        inject(fault_env, "item.hang:itema@1")
        report = make_engine(timeout_per_item=1.0).run([ITEM_A, ITEM_B])
        assert report.complete and report.ok
        assert_clean_rows(report, "itema")
        res = report.telemetry.resilience
        assert res["timeouts"] >= 1
        assert res["pool_rebuilds"] >= 1
        assert report.exit_code() == 0

    def test_single_item_hang_still_supervised(self, fault_env):
        # a one-item batch must not fall back to the unsupervised
        # in-process path when a timeout is requested — the hang would
        # block forever with nobody to kill it
        inject(fault_env, "item.hang:itema@1")
        report = make_engine(timeout_per_item=1.0).run([ITEM_A])
        assert report.complete and report.ok
        assert report.telemetry.resilience["timeouts"] >= 1
        assert_clean_rows(report, "itema")

    def test_persistent_hang_is_quarantined_not_deadlocked(self, fault_env):
        inject(fault_env, "item.hang:itema")
        report = make_engine(timeout_per_item=0.5, max_attempts=2).run(
            [ITEM_A, ITEM_B]
        )
        assert report.complete
        bad = report.result("itema")
        assert not bad.ok and bad.error_kind == "timeout"
        assert bad.quarantined
        assert report.result("itemb").ok
        assert report.exit_code() == 3


class TestItemError:
    def test_transient_error_is_retried(self, fault_env):
        inject(fault_env, "item.error:itema@1")
        report = make_engine().run([ITEM_A, ITEM_B])
        assert report.complete and report.ok
        assert report.telemetry.resilience["retries"] >= 1
        assert report.exit_code() == 0

    def test_persistent_error_is_a_hard_failure(self, fault_env):
        inject(fault_env, "item.error:itema")
        report = make_engine().run([ITEM_A, ITEM_B])
        assert report.complete
        bad = report.result("itema")
        assert not bad.ok and bad.error_kind == "internal"
        assert "injected fault" in bad.error
        assert report.result("itemb").ok
        assert report.hard_failures() == [bad]
        assert report.exit_code() == 1


class TestCacheFaults:
    def test_corrupt_cache_entry_recomputes(self, fault_env, tmp_path):
        cache_dir = tmp_path / "cache"
        warm = make_engine(jobs=1, cache_dir=cache_dir)
        baseline = warm.run([ITEM_C])
        assert baseline.telemetry.cache.stores >= 1  # entries on disk
        # second run: the first disk read finds a corrupted entry
        inject(fault_env, "cache.corrupt@1")
        engine = make_engine(jobs=1, cache_dir=cache_dir)
        report = engine.run([ITEM_C])
        assert report.complete and report.ok
        # recomputed, not trusted
        assert report.verdict_rows() == baseline.verdict_rows()
        assert report.telemetry.cache.quarantined >= 1
        assert (cache_dir / "quarantine").exists()

    def test_cache_read_error_is_typed_containment(self, fault_env, tmp_path):
        cache_dir = tmp_path / "cache"
        make_engine(jobs=1, cache_dir=cache_dir).run([ITEM_C])
        inject(fault_env, "cache.read@1")
        report = make_engine(jobs=1, cache_dir=cache_dir).run([ITEM_C])
        assert report.complete  # contained as a typed per-item failure
        bad = report.result("itemc")
        assert not bad.ok and bad.error_kind == "internal"
        assert "injected fault: cache.read" in bad.error


class TestBudgetFault:
    def test_exhausted_budget_degrades_not_fails(self, fault_env):
        inject(fault_env, "budget.exhaust")
        report = make_engine(jobs=1).run([ITEM_A])
        assert report.complete and report.ok  # verdicts, not errors
        rows = report.result("itema").rows()
        assert rows and all(r["status"] == "unknown (budget)" for r in rows)
        assert all(not r["parallel"] for r in rows)
        assert report.degraded
        assert report.telemetry.resilience["degraded_loops"] == len(rows)
        assert report.telemetry.resilience["degraded_items"] == 1
        assert report.exit_code() == 3


class TestNoFaultControl:
    def test_supervised_run_is_bit_identical_to_plain(self):
        plain = BatchEngine(AnalysisOptions(), jobs=1).run([ITEM_A, ITEM_B])
        supervised = make_engine(
            timeout_per_item=30.0, max_attempts=3, retry_seed=7
        ).run([ITEM_A, ITEM_B])
        assert supervised.complete and supervised.ok
        assert supervised.verdict_rows() == plain.verdict_rows()
        assert supervised.exit_code() == plain.exit_code() == 0
        res = supervised.telemetry.resilience
        assert res["retries"] == res["timeouts"] == res["worker_crashes"] == 0

    def test_recovered_chaos_run_matches_control(self, fault_env):
        control = make_engine().run([ITEM_A, ITEM_B]).verdict_rows()
        inject(fault_env, "worker.crash:itema@1")
        chaotic = make_engine().run([ITEM_A, ITEM_B])
        assert chaotic.ok
        assert chaotic.verdict_rows() == control


class TestBackendFaults:
    """The shared-tier fault sites: busy exhaustion, read/write I/O
    errors, and corrupt rows must degrade the cache, never the verdicts."""

    def test_persistent_busy_trips_breaker_campaign_stays_correct(
        self, fault_env, tmp_path
    ):
        control = make_engine(jobs=1).run(
            [ITEM_A, ITEM_B, ITEM_C]
        ).verdict_rows()
        inject(fault_env, "backend.busy")
        engine = make_engine(
            jobs=1, cache_dir=tmp_path / "c", cache_backend="shared"
        )
        report = engine.run([ITEM_A, ITEM_B, ITEM_C])
        assert report.complete and report.ok
        assert report.verdict_rows() == control  # degraded local-only
        cache = report.telemetry.cache
        assert cache.breaker_trips >= 1
        assert cache.breaker_skipped >= 1

    def test_backend_read_write_faults_recompute_not_crash(
        self, fault_env, tmp_path
    ):
        cache_dir = tmp_path / "c"
        warm = make_engine(jobs=1, cache_dir=cache_dir,
                           cache_backend="shared")
        baseline = warm.run([ITEM_C])
        assert baseline.ok
        inject(fault_env, "backend.read;backend.write")
        engine = make_engine(jobs=1, cache_dir=cache_dir,
                             cache_backend="shared")
        report = engine.run([ITEM_C])
        assert report.complete and report.ok
        assert report.verdict_rows() == baseline.verdict_rows()
        assert report.telemetry.cache.disk_errors >= 1

    def test_corrupt_row_mid_campaign_quarantined(self, fault_env, tmp_path):
        cache_dir = tmp_path / "c"
        warm = make_engine(jobs=1, cache_dir=cache_dir,
                           cache_backend="shared")
        baseline = warm.run([ITEM_C])
        assert baseline.telemetry.cache.stores >= 1
        inject(fault_env, "cache.corrupt@1")
        engine = make_engine(jobs=1, cache_dir=cache_dir,
                             cache_backend="shared")
        report = engine.run([ITEM_C])
        assert report.complete and report.ok
        assert report.verdict_rows() == baseline.verdict_rows()
        assert report.telemetry.cache.quarantined >= 1


class TestLedgerFault:
    def test_torn_ledger_write_still_resumable(self, fault_env, tmp_path):
        from repro.dataflow import AnalysisOptions as Opts
        from repro.engine.ledger import (
            LedgerWriter, replay, run_identity, verify_identity,
        )

        items = [ITEM_A, ITEM_B, ITEM_C]
        ident = run_identity("batch", items, Opts())
        path = tmp_path / "run.jsonl"
        # tear the second done record mid-line: the writer wedges, the
        # run itself must still complete and stay correct
        inject(fault_env, "ledger.write:item@4")
        with LedgerWriter(path, ident) as w:
            report = make_engine(jobs=1, ledger=w).run(items)
        assert report.complete and report.ok
        rep = replay(path)
        verify_identity(rep.header, ident)
        assert rep.torn_lines == 1
        assert len(rep.done) < len(items)  # progress was lost, not state
        # resume serves the surviving records and recomputes the rest
        fault_env.delenv(faults.ENV_VAR, raising=False)
        faults.reset()
        with LedgerWriter(path, ident, resume=True) as w:
            resumed = make_engine(
                jobs=1, ledger=w,
                resume=rep,
            ).run(items)
        assert resumed.complete and resumed.ok
        assert resumed.verdict_rows() == report.verdict_rows()
        assert replay(path).ended == "complete"


class TestCrashResume:
    """Subprocess-level acceptance: hard kill and graceful drain both
    leave a ledger that resumes to a bit-identical campaign scoreboard."""

    SCOREBOARD = ("files", "errors", "loops", "parallel_loops", "verdicts")

    @staticmethod
    def env(env_extra=None) -> dict:
        import os as _os

        env = dict(_os.environ)
        root = Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = str(root / "src")
        env.pop(faults.ENV_VAR, None)
        if env_extra:
            env.update(env_extra)
        return env

    def campaign(self, tmp_path, *args, env_extra=None, count=30, seed=5):
        import subprocess
        import sys as _sys

        return subprocess.run(
            [_sys.executable, "-m", "repro.engine.campaign",
             "--count", str(count), "--seed", str(seed), "--jobs", "2",
             *args],
            env=self.env(env_extra), cwd=tmp_path, capture_output=True,
            text=True, timeout=300,
        )

    def scoreboard(self, path) -> dict:
        import json

        stats = json.loads(Path(path).read_text())
        return {k: stats[k] for k in self.SCOREBOARD}

    def test_hard_crash_then_resume_matches_uninterrupted(self, tmp_path):
        ref = self.campaign(
            tmp_path, "--cache-dir", str(tmp_path / "ref-cache"),
            "--stats-json", str(tmp_path / "ref.json"),
        )
        assert ref.returncode == 0, ref.stderr

        ledger = tmp_path / "run.jsonl"
        crashed = self.campaign(
            tmp_path, "--cache-dir", str(tmp_path / "cache"),
            "--ledger", str(ledger),
            "--stats-json", str(tmp_path / "crashed.json"),
            env_extra={faults.ENV_VAR: "engine.crash@7"},
        )
        assert crashed.returncode == 86, crashed.stderr  # os._exit(86)
        assert ledger.exists()

        resumed = self.campaign(
            tmp_path, "--cache-dir", str(tmp_path / "cache"),
            "--resume", str(ledger),
            "--stats-json", str(tmp_path / "resumed.json"),
        )
        assert resumed.returncode == 0, resumed.stderr
        assert self.scoreboard(tmp_path / "resumed.json") == self.scoreboard(
            tmp_path / "ref.json"
        )

    @staticmethod
    def live_members(pgid: int) -> list[int]:
        """Pids of the process group's members that are not zombies."""
        import os as _os

        pids = []
        for entry in _os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue  # exited while we looked
            state, _ppid, group = stat.rsplit(")", 1)[1].split()[:3]
            if int(group) == pgid and state != "Z":
                pids.append(int(entry))
        return pids

    def test_hard_crash_leaves_no_pool_worker_alive(self, tmp_path):
        """A pool whose parent dies without shutting it down exits too:
        the crashed campaign's process group empties within seconds."""
        import os as _os
        import signal as _signal
        import subprocess
        import sys as _sys
        import time as _time

        if not Path("/proc/self/stat").exists():
            pytest.skip("needs /proc to list a process group")
        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro.engine.campaign",
             "--count", "24", "--seed", "9", "--jobs", "2", "--no-machine",
             "--cache-dir", str(tmp_path / "cache")],
            env=self.env({faults.ENV_VAR: "engine.crash@4"}), cwd=tmp_path,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        pgid = proc.pid  # a session leader's group id is its pid
        try:
            assert proc.wait(timeout=300) == 86
            deadline = _time.monotonic() + 5.0
            while self.live_members(pgid) and _time.monotonic() < deadline:
                _time.sleep(0.05)
            assert self.live_members(pgid) == []
        finally:
            try:
                _os.killpg(pgid, _signal.SIGKILL)
            except ProcessLookupError:
                pass

    def test_sigterm_drain_then_resume_matches_uninterrupted(self, tmp_path):
        import json
        import signal as _signal
        import subprocess
        import sys as _sys
        import time as _time

        count, seed = 400, 5
        ref = self.campaign(
            tmp_path, "--cache-dir", str(tmp_path / "ref-cache"),
            "--stats-json", str(tmp_path / "ref.json"),
            count=count, seed=seed,
        )
        assert ref.returncode == 0, ref.stderr

        ledger = tmp_path / "drain.jsonl"
        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro.engine.campaign",
             "--count", str(count), "--seed", str(seed), "--jobs", "2",
             "--cache-dir", str(tmp_path / "cache"),
             "--ledger", str(ledger),
             "--stats-json", str(tmp_path / "drained.json")],
            env=self.env(), cwd=tmp_path,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            # wait until real progress is journaled, then pull the plug
            deadline = _time.monotonic() + 120
            while _time.monotonic() < deadline:
                if ledger.exists() and ledger.read_text().count(
                    '"state":"done"'
                ) >= 4:
                    break
                if proc.poll() is not None:
                    break
                _time.sleep(0.05)
            if proc.poll() is None:
                proc.send_signal(_signal.SIGTERM)
            stderr = proc.communicate(timeout=120)[1]
        finally:
            if proc.poll() is None:
                proc.kill()
        if proc.returncode == 0:
            # the campaign outran the signal: nothing was interrupted
            return
        assert proc.returncode == 5, stderr
        assert "resume" in stderr

        resumed = self.campaign(
            tmp_path, "--cache-dir", str(tmp_path / "cache"),
            "--resume", str(ledger),
            "--stats-json", str(tmp_path / "resumed.json"),
            count=count, seed=seed,
        )
        assert resumed.returncode == 0, resumed.stderr
        resumed_stats = json.loads((tmp_path / "resumed.json").read_text())
        assert resumed_stats["resilience"]["resumed_items"] >= 4
        assert self.scoreboard(tmp_path / "resumed.json") == self.scoreboard(
            tmp_path / "ref.json"
        )

    def test_resume_refuses_mismatched_identity(self, tmp_path):
        ledger = tmp_path / "run.jsonl"
        first = self.campaign(
            tmp_path, "--ledger", str(ledger), count=4, seed=5,
        )
        assert first.returncode == 0, first.stderr
        other = self.campaign(
            tmp_path, "--resume", str(ledger), count=4, seed=6,
        )
        assert other.returncode == 2  # usage error: wrong run identity
        assert "mismatch" in other.stderr
