"""One failure taxonomy across the entry points.

A program the analyzer refuses gets the same kind from the batch
engine, the daemon's analyze request, its watch revision and the
``panorama`` CLI, because all of them classify through
``repro.errors.classify_exception``.
"""

from __future__ import annotations

import pytest

from repro.driver.cli import main as cli_main
from repro.engine import BatchEngine, BatchItem
from repro.server.service import AnalysisService, RequestError

#: a DO body nested far past the interpreter's recursion limit
DEEP = (
    "      SUBROUTINE s(a, n)\n"
    "      REAL a(100)\n"
    "      INTEGER n, i\n"
    "      DO i = 1, n\n"
    "        a(i) = " + "(" * 2000 + "i" + ")" * 2000 + "\n"
    "      ENDDO\n"
    "      END\n"
)


def batch_kind(source: str) -> str:
    report = BatchEngine(jobs=1).run([BatchItem("deep.f", source)])
    return report.result("deep.f").error_kind


def analyze_kind(source: str) -> tuple[int, str]:
    with pytest.raises(RequestError) as err:
        AnalysisService().analyze({"name": "deep.f", "source": source})
    return err.value.status, err.value.kind


def watch_kind(source: str) -> tuple[int, str]:
    service = AnalysisService()
    sid = service.watch_open({"name": "deep.f"})["session"]
    with pytest.raises(RequestError) as err:
        service.watch_submit(sid, {"source": source})
    return err.value.status, err.value.kind


def cli_kind(source: str, tmp_path, capsys) -> str:
    path = tmp_path / "deep.f"
    path.write_text(source)
    assert cli_main([str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err  # one line, no traceback
    prefix = "panorama: "
    assert err.startswith(prefix) and " error: " in err, err
    return err[len(prefix):].split(" error: ")[0]


def test_deep_nesting_is_analysis_everywhere(tmp_path, capsys):
    assert batch_kind(DEEP) == "analysis"
    assert analyze_kind(DEEP) == (422, "analysis")
    assert watch_kind(DEEP) == (422, "analysis")
    assert cli_kind(DEEP, tmp_path, capsys) == "analysis"
