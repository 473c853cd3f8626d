"""Integration: the frontier pass end to end (docs/frontier.md).

Every frontier kernel upgrades from serial to parallel with replayable
evidence; with the pass disabled the verdicts fall back bit-identically;
the auditor replays (and rejects tampered) evidence; the toggle reaches
the cache key, the CLIs, and the server.
"""

import copy

import pytest

from repro import Panorama
from repro.audit import audit_compilation
from repro.dataflow import AnalysisOptions
from repro.driver import cli as driver_cli
from repro.engine.telemetry import loop_report_row, result_to_dict
from repro.kernels import FRONTIER_KERNELS, get_frontier_kernel
from repro.parallelize import LoopStatus

ON = AnalysisOptions(frontier=True)
OFF = AnalysisOptions(frontier=False)


def compile_kernel(kernel, options):
    return Panorama(options, run_machine_model=False).compile(kernel.source)


@pytest.fixture(scope="module")
def compiled():
    return {
        k.name: (compile_kernel(k, ON), compile_kernel(k, OFF))
        for k in FRONTIER_KERNELS
    }


class TestKernelUpgrades:
    def test_every_kernel_upgrades_with_evidence(self, compiled):
        for kernel in FRONTIER_KERNELS:
            on, _ = compiled[kernel.name]
            report = kernel.target_report(on)
            assert report.status.value == kernel.expect_on, kernel.name
            assert report.parallel, kernel.name
            assert len(report.evidence) >= 1, kernel.name

    def test_every_kernel_falls_back_without_frontier(self, compiled):
        for kernel in FRONTIER_KERNELS:
            _, off = compiled[kernel.name]
            report = kernel.target_report(off)
            assert report.status.value == kernel.expect_off, kernel.name
            assert report.evidence == [], kernel.name

    def test_at_least_four_distinct_upgrade_patterns(self):
        # the acceptance floor: >= 4 registry loops move off serial
        upgraded = [
            k for k in FRONTIER_KERNELS if k.expect_on != k.expect_off
        ]
        assert len(upgraded) >= 4

    def test_scan_kernels_carry_the_two_pass_schedule(self, compiled):
        for name in ("prefix_sum", "segmented_scan", "running_sum"):
            on, _ = compiled[name]
            report = get_frontier_kernel(name).target_report(on)
            assert report.status is LoopStatus.PARALLEL_SCAN
            assert report.schedule == "two-pass-scan"
            assert any(e["kind"] == "recurrence" for e in report.evidence)

    def test_off_mode_is_deterministic(self):
        # two frontier-off runs serialize identically: nothing about the
        # pass (counters, evidence, schedules) leaks into off-mode rows
        kernel = get_frontier_kernel("prefix_sum")
        rows_a = [
            loop_report_row(r)
            for r in compile_kernel(kernel, OFF).loops
        ]
        rows_b = [
            loop_report_row(r)
            for r in compile_kernel(kernel, OFF).loops
        ]
        assert rows_a == rows_b
        for row in rows_a:
            assert row["evidence"] == [] and row["schedule"] is None


class TestCounters:
    def test_stats_count_upgrades(self, compiled):
        for kernel in FRONTIER_KERNELS:
            on, off = compiled[kernel.name]
            assert on.analyzer.stats.frontier_upgrades >= 1, kernel.name
            assert off.analyzer.stats.frontier_upgrades == 0, kernel.name
            assert off.analyzer.stats.content_facts == 0, kernel.name
            assert off.analyzer.stats.recurrence_matches == 0, kernel.name

    def test_content_facts_counted(self, compiled):
        on, _ = compiled["idx_gather"]
        assert on.analyzer.stats.content_facts >= 1

    def test_recurrence_matches_counted(self, compiled):
        on, _ = compiled["prefix_sum"]
        assert on.analyzer.stats.recurrence_matches == 1

    def test_stats_dict_exports_the_counters(self, compiled):
        on, _ = compiled["prefix_sum"]
        stats = result_to_dict(on)["stats"]
        assert stats["recurrence_matches"] == 1
        assert stats["frontier_upgrades"] == 1
        assert "content_facts" in stats


class TestAuditReplay:
    def test_all_kernels_audit_clean(self, compiled):
        for kernel in FRONTIER_KERNELS:
            on, _ = compiled[kernel.name]
            report = audit_compilation(on, kernel.name, source=kernel.source)
            assert report.errors() == [], kernel.name
            counts = report.counts()
            assert counts["evidence_replay"] == 0, kernel.name
            assert counts["evidence_unsupported"] == 0, kernel.name

    def test_tampered_evidence_is_pan105(self):
        kernel = get_frontier_kernel("prefix_sum")
        result = compile_kernel(kernel, ON)
        report = kernel.target_report(result)
        tampered = copy.deepcopy(report.evidence[0])
        tampered["operator"] = "*"  # claim a product chain
        report.evidence[0] = tampered
        audit = audit_compilation(result, "t.f", source=kernel.source)
        codes = [d.code for d in audit.diagnostics()]
        assert "PAN101" not in codes  # the verdict itself is fine
        assert "PAN105" in codes
        assert audit.errors() != []

    def test_tampered_content_evidence_is_pan105(self):
        kernel = get_frontier_kernel("idx_gather")
        result = compile_kernel(kernel, ON)
        report = kernel.target_report(result)
        (content,) = [
            e for e in report.evidence if e["kind"] == "content"
        ]
        content["coeff"] = "7"
        audit = audit_compilation(result, "t.f", source=kernel.source)
        assert "PAN105" in [d.code for d in audit.diagnostics()]

    def test_unknown_evidence_kind_is_pan305(self):
        kernel = get_frontier_kernel("prefix_sum")
        result = compile_kernel(kernel, ON)
        kernel.target_report(result).evidence.append({"kind": "vibes"})
        audit = audit_compilation(result, "t.f", source=kernel.source)
        assert "PAN305" in [d.code for d in audit.diagnostics()]

    def test_scan_verdict_without_evidence_is_pan105(self):
        kernel = get_frontier_kernel("prefix_sum")
        result = compile_kernel(kernel, ON)
        kernel.target_report(result).evidence.clear()
        audit = audit_compilation(result, "t.f", source=kernel.source)
        assert "PAN105" in [d.code for d in audit.diagnostics()]


class TestCliAndCache:
    def test_strict_audit_exits_clean_on_every_kernel(self, tmp_path, capsys):
        for kernel in FRONTIER_KERNELS:
            src = tmp_path / f"{kernel.name}.f"
            src.write_text(kernel.source)
            code = driver_cli.main(
                [str(src), "--strict-audit", "--no-machine"]
            )
            capsys.readouterr()
            assert code == 0, kernel.name

    def test_no_frontier_flag_restores_the_old_verdict(self, tmp_path, capsys):
        kernel = get_frontier_kernel("prefix_sum")
        src = tmp_path / "k.f"
        src.write_text(kernel.source)
        assert driver_cli.main([str(src), "--no-machine"]) == 0
        on_out = capsys.readouterr().out
        assert "parallel (scan)" in on_out
        assert (
            driver_cli.main([str(src), "--no-machine", "--no-frontier"]) == 0
        )
        off_out = capsys.readouterr().out
        assert "parallel (scan)" not in off_out and "serial" in off_out

    def test_environment_cannot_switch_the_pass_off(self, monkeypatch):
        """``--no-frontier`` is the only spelling: the options never
        read the environment."""
        monkeypatch.setenv("PANORAMA_NO_FRONTIER", "1")
        assert AnalysisOptions().frontier is True

    def test_toggle_reaches_the_cache_key(self):
        from repro.engine.cache import CACHE_FORMAT_VERSION, options_key

        assert CACHE_FORMAT_VERSION >= 4
        assert options_key(ON) != options_key(OFF)
        assert "frontier=True" in options_key(ON)

    def test_server_accepts_no_frontier(self):
        from repro.server.service import AnalysisService, ServerConfig

        service = AnalysisService(ServerConfig())
        opts = service.build_options({"options": {"no_frontier": True}})
        assert opts.frontier is False
        assert service.build_options({}).frontier is True


class TestCodegen:
    def test_scan_directive_emitted_not_a_parallel_do(self):
        from repro.codegen import annotate

        kernel = get_frontier_kernel("prefix_sum")
        result = Panorama(ON).compile(kernel.source)
        text = annotate(result, style="omp")
        assert "C$PAR SCAN(A: prefix-scan over + distance 1)" in text
        assert "SCHEDULE(TWO-PASS)" in text
        # a plain parallel DO would race the carried chain
        assert "C$OMP PARALLEL DO" not in text

    def test_annotated_scan_output_still_parses(self):
        from repro.codegen import annotate
        from repro.fortran import parse_program

        kernel = get_frontier_kernel("segmented_scan")
        result = Panorama(ON).compile(kernel.source)
        parse_program(annotate(result, style="omp"))

    def test_scan_speedup_is_finite_and_sane(self):
        kernel = get_frontier_kernel("prefix_sum")
        result = Panorama(ON).compile(kernel.source)
        report = kernel.target_report(result)
        assert report.status is LoopStatus.PARALLEL_SCAN
        assert report.speedup >= 1.0
