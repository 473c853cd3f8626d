"""Integration: the audit is clean over the whole kernel registry, and a
planted misreport is caught end to end through the batch CLI."""

import json

import pytest

from repro.audit import audit_compilation
from repro.dataflow import AnalysisOptions
from repro.diagnostics import sarif_log
from repro.driver.panorama import Panorama
from repro.engine import BatchEngine, items_from_kernel_registry
from repro.engine import cli as batch_cli
from repro.resilience import faults


@pytest.fixture(autouse=True)
def clean_plan(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reset()
    yield
    faults.reset()


@pytest.fixture(scope="module")
def registry_reports():
    panorama = Panorama(AnalysisOptions(), run_machine_model=False)
    out = []
    for item in items_from_kernel_registry():
        result = panorama.compile(item.source)
        out.append(audit_compilation(result, item.name, source=item.source))
    return out


class TestRegistryIsClean:
    def test_no_confirmed_findings(self, registry_reports):
        for report in registry_reports:
            assert report.confirmed() == [], report.name
            assert report.clean(), report.name

    def test_no_internal_violations(self, registry_reports):
        for report in registry_reports:
            bad = [
                d
                for d in report.diagnostics()
                if d.code in ("PAN301", "PAN302")
            ]
            assert bad == [], report.name

    def test_every_parallel_loop_was_audited(self, registry_reports):
        total = sum(r.loops_audited for r in registry_reports)
        assert total >= 40  # the registry reports ~52 parallel loops
        assert sum(r.pairs_checked for r in registry_reports) >= total

    def test_registry_sarif_is_well_formed(self, registry_reports):
        diags = [d for r in registry_reports for d in r.diagnostics()]
        log = sarif_log(diags)
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        rules = run["tool"]["driver"]["rules"]
        assert len(run["results"]) == len(diags)
        for res in run["results"]:
            assert rules[res["ruleIndex"]]["id"] == res["ruleId"]
            assert res["level"] in ("error", "warning", "note")


class TestBatchEngineAudit:
    def test_audit_payload_rides_the_engine(self):
        engine = BatchEngine(
            AnalysisOptions(), run_machine_model=False, audit=True
        )
        report = engine.run(items_from_kernel_registry())
        assert report.telemetry.audit["audited_files"] == 5
        assert report.telemetry.audit["confirmed"] == 0
        assert report.telemetry.audit["loops_audited"] > 0
        assert report.audit_errors() == []
        # rehydrated diagnostics keep their codes and spans
        diags = report.audit_diagnostics()
        assert all(d.code.startswith("PAN") for d in diags)

    def test_audit_off_by_default(self):
        engine = BatchEngine(AnalysisOptions(), run_machine_model=False)
        report = engine.run(items_from_kernel_registry()[:1])
        assert report.telemetry.audit["audited_files"] == 0
        assert report.audit_diagnostics() == []


SEEDED_RACE = """\
      subroutine sweep(a, b)
      real a(200), b(200)
      do 10 i = 2, 100
         a(i) = a(i-1) + b(i)
   10 continue
      end
"""


class TestEndToEndMisreport:
    """Acceptance: a known cross-iteration flow dependence is detected
    when the classifier is forced to misreport via fault injection.

    Runs with ``--no-frontier``: the seeded source is a genuine prefix
    scan, and the frontier pass would (correctly) report it parallel,
    leaving no serial verdict for the misreport seam to flip."""

    def test_strict_audit_exits_4_and_writes_sarif(
        self, tmp_path, capsys, monkeypatch
    ):
        src = tmp_path / "seeded.f"
        src.write_text(SEEDED_RACE)
        sarif_path = tmp_path / "audit.sarif"
        monkeypatch.setenv(faults.ENV_VAR, "classifier.misreport:sweep/10")
        faults.reset()
        code = batch_cli.main(
            [
                str(src),
                "--audit",
                "--strict-audit",
                "--sarif",
                str(sarif_path),
                "--no-machine",
                "--no-frontier",
            ]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert "strict audit failed" in err
        log = json.loads(sarif_path.read_text())
        assert "PAN101" in [r["ruleId"] for r in log["runs"][0]["results"]]

    def test_without_injection_the_same_source_is_clean(self, tmp_path):
        src = tmp_path / "seeded.f"
        src.write_text(SEEDED_RACE)
        code = batch_cli.main(
            [str(src), "--audit", "--strict-audit", "--no-machine",
             "--no-frontier"]
        )
        assert code == 0
