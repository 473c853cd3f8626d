"""Fresh symbols are numbered per compile, and served entries renamed apart.

Every compile numbers its opaques (``hint@N``) and index renames
(``i%N``) from 1, so a recompile of the same program asks the same
symbolic questions and reports the same work.  A summary served from a
cache was numbered by another compile: used as stored, its unknowns
could take the names of different unknowns of this compile.
"""

from __future__ import annotations

import pytest

from repro import Panorama
from repro.audit import audit_compilation
from repro.dataflow import AnalysisOptions, ConversionContext
from repro.driver.report import loop_report_row
from repro.engine.batch import BatchItem, compile_item
from repro.engine.cache import SummaryCache
from repro.kernels import FRONTIER_KERNELS, KERNELS
from repro.perf import profiler

#: after its loop, S's K is an opaque, so its served summary reads x(k@N)
LIBRARY = (
    "      SUBROUTINE s(x)\n      REAL x(100), y\n      INTEGER k, j\n"
    "      k = 0\n      DO 10 j = 1, 5\n        k = k + j\n   10 CONTINUE\n"
    "      y = x(k)\n      END\n"
)
#: the caller's K is an opaque too; the READ numbers three symbols
#: before it, so it takes the number of S's K and, unrenamed, its write
#: x(k@N) kills S's read
APP = (
    "      PROGRAM main\n      REAL x(100)\n      INTEGER i, k, idx(100)\n"
    "      DO 20 i = 1, 10\n        k = idx(i)\n"
    "        READ (5, *) m1, m2, m3\n        x(k) = 1.0\n        CALL s(x)\n"
    "        x(i) = 2.0\n   20 CONTINUE\n      END\n"
) + LIBRARY


def _rows(result):
    return [loop_report_row(r) for r in result.loops]


def _served_app():
    """Compile the library, then the app against the same cache."""
    cache = SummaryCache()
    options = AnalysisOptions()
    lib, _, _ = compile_item(
        BatchItem("lib.f", LIBRARY), options, cache, machine=True, audit=False
    )
    app, _, hooks = compile_item(
        BatchItem("app.f", APP), options, cache, machine=True, audit=False
    )
    assert hooks.reused == {"s"}
    return lib, app


def _main_loop(result):
    return next(r for r in result.loops if r.routine == "main")


def test_served_summary_is_renamed_apart():
    lib, app = _served_app()
    cold = Panorama().compile(APP)
    assert _rows(app) == _rows(cold)
    assert _main_loop(app).verdict.serial_reasons == [
        "flow dependence carried on x"
    ]
    (stored,) = lib.analyzer.routine_summary("s").ue.free_vars()
    (served,) = app.analyzer.routine_summary("s").ue.free_vars()
    assert stored.startswith("k@") and served.startswith("k@")
    assert served != stored


def test_app_collides_with_the_stored_numbering(monkeypatch):
    """The input above does exercise a clash: with the served summary
    used as stored, the caller's write kills S's read."""
    monkeypatch.setattr(
        "repro.dataflow.analyzer.rename_apart", lambda entry, numbering: entry
    )
    lib, app = _served_app()
    (stored,) = lib.analyzer.routine_summary("s").ue.free_vars()
    record = _main_loop(app).verdict.record
    assert stored in record.mod_i.free_vars()
    assert not record.ue_i.for_array("x").gars
    assert _main_loop(app).verdict.serial_reasons == [
        "output dependence carried on x"
    ]


def _distinct_programs():
    seen, out = set(), []
    for k in KERNELS:
        if k.program not in seen:
            seen.add(k.program)
            out.append(pytest.param(k.source, dict(k.sizes), id=k.program))
    out += [pytest.param(k.source, {}, id=k.name) for k in FRONTIER_KERNELS]
    return out


_WORK = ("counter.fm_eliminations", "counter.prove_calls",
         "counter.gar_simplify_calls")


@pytest.mark.parametrize("source,sizes", _distinct_programs())
def test_cold_recompiles_repeat_exactly(source, sizes):
    """Three cold compiles in one process: the same loop records, and the
    same proofs, eliminations and simplifier calls."""
    runs = []
    for _ in range(3):
        profiler.clear_caches()
        before = profiler.snapshot()
        result = Panorama(sizes=sizes).compile(source)
        work = profiler.delta(before, profiler.snapshot())
        records = [
            str(result.analyzer.loop_record(unit, loop))
            for unit, loop in result.hsg.all_loops()
        ]
        runs.append((records, [work.get(key, 0) for key in _WORK]))
    assert runs[0] == runs[1] == runs[2]


def test_every_fresh_symbol_comes_from_the_compiles_counter(monkeypatch):
    """The machine model and content inference build their own contexts
    (with their own counters); none of them mints a symbol, so every
    symbol in the analyzer's sets is numbered by the analyzer."""
    used = []
    for method in ("fresh_opaque", "fresh_index"):
        real = getattr(ConversionContext, method)

        def recording(self, hint, _real=real):
            used.append(self.numbering)
            return _real(self, hint)

        monkeypatch.setattr(ConversionContext, method, recording)
    minted = 0
    for param in _distinct_programs():
        source, sizes = param.values
        used.clear()
        result = Panorama(sizes=sizes).compile(source)
        audit_compilation(result, "prog.f", source=source)
        assert all(n is result.analyzer._numbering for n in used)
        minted += len(used)
    assert minted > 0
