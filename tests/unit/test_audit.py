"""Unit tests for the static race auditor (N-version re-check of
parallel verdicts)."""

import pytest

from repro.audit import audit_compilation, classify_votes
from repro.dataflow import AnalysisOptions
from repro.driver.panorama import Panorama
from repro.driver.report import loop_report_row, result_to_dict
from repro.resilience import faults, parse_plan


@pytest.fixture(autouse=True)
def clean_plan(monkeypatch):
    """Never leak an installed fault plan (or the env var) between tests."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reset()
    yield
    faults.reset()


def compile_source(source: str):
    # frontier off: these fixtures plant misreports on loops that must
    # stay serial, but FLOW_DEP is a genuine prefix scan the frontier
    # pass would (correctly) upgrade, leaving nothing to misreport
    panorama = Panorama(
        AnalysisOptions(frontier=False), run_machine_model=False
    )
    return panorama.compile(source)


def audit_source(source: str, name: str = "t.f"):
    result = compile_source(source)
    return result, audit_compilation(result, name, source=source)


FLOW_DEP = """\
      subroutine sweep(a, b)
      real a(200), b(200)
      do 10 i = 2, 100
         a(i) = a(i-1) + b(i)
   10 continue
      end
"""

FLOW_DEP_SYMBOLIC = """\
      subroutine sweep(a, b, n)
      integer n
      real a(200), b(200)
      do 10 i = 2, n
         a(i) = a(i-1) + b(i)
   10 continue
      end
"""

FLOW_DEP_GUARDED = """\
      subroutine sweep(a, b)
      real a(200), b(200)
      do 10 i = 2, 100
         if (b(i) .gt. 0.0) then
            a(i) = a(i-1) + b(i)
         endif
   10 continue
      end
"""

SCALAR_RACE = """\
      subroutine carry(b, c)
      real b(100), c(100), t
      t = 0.0
      do 10 i = 1, 50
         c(i) = t
         t = b(i)
   10 continue
      end
"""


class TestCleanLoops:
    def test_independent_loop_audits_clean(self):
        result, report = audit_source(
            """\
      subroutine axpy(a, b)
      real a(100), b(100)
      do 10 i = 1, 100
         a(i) = a(i) + b(i)
   10 continue
      end
"""
        )
        assert result.loops[0].parallel
        assert report.loops_audited == 1
        assert report.pairs_checked >= 1
        assert report.findings == []
        assert report.clean()

    def test_privatized_scalar_is_excluded(self):
        result, report = audit_source(
            """\
      subroutine priv(a, b)
      real a(100), b(100), t
      do 10 i = 1, 100
         t = b(i) * 2.0
         a(i) = t + 1.0
   10 continue
      end
"""
        )
        (loop,) = result.loops
        assert loop.parallel and "t" in loop.verdict.privatized
        assert report.findings == []

    def test_serial_loop_is_not_audited(self):
        result, report = audit_source(FLOW_DEP)
        assert not result.loops[0].parallel
        assert report.loops_audited == 0
        assert report.findings == []


class TestDistanceProver:
    def test_odd_distance_over_even_coefficient(self, monkeypatch):
        """``a(2*i)`` against ``a(2*i+1)``: integer coefficients, a
        distance of 1/2, so the dimensions never align."""
        from repro.audit import auditor

        proofs = []
        prove = auditor._distance_proof

        def spy(*args):
            proofs.append(prove(*args))
            return proofs[-1]

        monkeypatch.setattr(auditor, "_distance_proof", spy)
        result, report = audit_source(
            """\
      subroutine odd(a, b)
      real a(201), b(100)
      do 10 i = 1, 100
         a(2*i) = a(2*i+1) + b(i)
   10 continue
      end
"""
        )
        assert result.loops[0].parallel
        assert (False, "non-integer distance: dimensions never align") in proofs
        assert report.clean()


class TestMisreportedLoops:
    """Force the classifier to lie via fault injection; the auditor must
    catch the planted race."""

    def test_confirmed_flow_dependence(self):
        faults.install(parse_plan("classifier.misreport:sweep/10"))
        result, report = audit_source(FLOW_DEP)
        assert result.loops[0].parallel  # the (injected) lie
        assert len(report.confirmed()) == 1
        finding = report.confirmed()[0]
        assert finding.variable == "a"
        assert finding.votes["distance"] == "dependent"
        assert not report.clean()
        codes = [d.code for d in report.diagnostics()]
        assert "PAN101" in codes

    def test_symbolic_bounds_degrade_to_undecided(self):
        faults.install(parse_plan("classifier.misreport:sweep/10"))
        _, report = audit_source(FLOW_DEP_SYMBOLIC)
        assert report.confirmed() == []
        assert len(report.undecided()) >= 1
        assert report.clean()  # notes are not errors
        assert "PAN102" in [d.code for d in report.diagnostics()]

    def test_control_guards_downgrade_to_guarded(self):
        faults.install(parse_plan("classifier.misreport:sweep/10"))
        _, report = audit_source(FLOW_DEP_GUARDED)
        assert report.confirmed() == []
        assert "PAN103" in [d.code for d in report.diagnostics()]

    def test_scalar_output_race(self):
        faults.install(parse_plan("classifier.misreport:carry/10"))
        result, report = audit_source(SCALAR_RACE)
        assert result.loops[0].parallel
        scalar = [f for f in report.findings if f.variable == "t"]
        assert scalar and scalar[0].kind == "confirmed"
        assert "second iteration provably exists" in scalar[0].detail

    def test_diagnostic_carries_span_and_votes(self):
        faults.install(parse_plan("classifier.misreport:sweep/10"))
        _, report = audit_source(FLOW_DEP)
        (diag,) = [d for d in report.diagnostics() if d.code == "PAN101"]
        assert diag.span is not None and diag.span.lineno == 3
        assert "do 10 i = 2, 100" in diag.span.snippet
        assert diag.data["votes"]["distance"] == "dependent"


class TestVoteSynthesis:
    def test_oracle_conflict(self):
        kind, detail = classify_votes(
            {"gcd": "independent", "distance": "dependent"}
        )
        assert kind == "oracle-conflict"
        assert "gcd" in detail and "distance" in detail

    def test_dependent(self):
        kind, _ = classify_votes({"gcd": "possible", "distance": "dependent"})
        assert kind == "dependent"

    def test_independent(self):
        kind, _ = classify_votes({"gcd": "independent", "banerjee": "possible"})
        assert kind == "independent"

    def test_undecided(self):
        kind, _ = classify_votes({"gcd": "possible", "banerjee": "unknown"})
        assert kind == "undecided"


class TestVerdictConflicts:
    """Satellite: privatization failures surface their offending
    intersection in describe() and the JSON row."""

    def test_conflict_reaches_describe_and_row(self):
        result = compile_source(SCALAR_RACE)
        (report,) = result.loops
        assert not report.parallel
        conflicts = report.verdict.conflicts()
        assert "t" in conflicts and conflicts["t"]
        assert "offending intersection" in report.verdict.describe()
        assert loop_report_row(report)["conflicts"] == conflicts

    def test_clean_loop_has_no_conflicts(self):
        result = compile_source(FLOW_DEP)
        row = loop_report_row(result.loops[0])
        assert row["conflicts"] == {}


class TestPayloads:
    def test_result_to_dict_embeds_audit(self):
        result, report = audit_source(FLOW_DEP)
        data = result_to_dict(result, name="t.f", audit=report)
        assert data["audit"]["clean"] is True
        assert data["audit"]["counts"]["loops_audited"] == 0

    def test_counts_roll_up(self):
        faults.install(parse_plan("classifier.misreport:sweep/10"))
        _, report = audit_source(FLOW_DEP)
        counts = report.counts()
        assert counts["confirmed"] == 1
        assert counts["loops_audited"] == 1
        assert counts["pairs_checked"] >= 1
