"""Integration: the Perfect kernel programs actually *run*.

Analysis-only testing could hide nonsense kernels; here every benchmark
program executes end-to-end in the concrete interpreter, and the flagship
loops are trace-validated against their symbolic summaries with small
problem sizes.
"""

import pytest

from repro.fortran import analyze, parse_program
from repro.interp import Interpreter
from repro.kernels import KERNELS
from repro.validate import validate_loop

_UNIQUE_SOURCES = list(dict.fromkeys(k.source for k in KERNELS))
_NAMES = {
    source: next(k.program for k in KERNELS if k.source == source)
    for source in _UNIQUE_SOURCES
}


@pytest.mark.parametrize(
    "source", _UNIQUE_SOURCES, ids=lambda s: _NAMES[s]
)
def test_kernel_program_executes(source):
    interp = Interpreter(
        analyze(parse_program(source)), max_steps=20_000_000
    )
    frame = interp.run_main()
    assert frame.storage  # it did something


class TestKernelTraceValidation:
    def test_arc2d_filerx(self):
        from repro.kernels import get_kernel

        kernel = get_kernel("ARC2D", "filerx", 15)
        report = validate_loop(
            kernel.source,
            "filerx",
            "k",
            args={
                "q": [1.0] * 60,
                "res": [0.0] * 20,
                "jlow": 2,
                "jup": 9,
                "jmax": 30,
                "prd": False,
                "kfil": 3,
            },
        )
        assert report.ok, report.violations
        assert "work" in report.privatization_checked

    def test_mdg_interf(self):
        from repro.kernels import get_kernel

        kernel = get_kernel("MDG", "interf", 1000)
        report = validate_loop(
            kernel.source,
            "interf",
            "i",
            args={
                "vm": [0.5] * 60,
                "enr": [0.0, 0.0],
                "nmol1": 4,
                "natmo": 9,
                "ig": 12,
                "cut2": 100.0,
                "sw": False,
            },
        )
        # RL's summary carries a Delta guard, so its containment check is
        # vacuous (skipped); everything checkable must hold, and no
        # privatization claim may contradict the trace
        assert report.ok, report.violations
        assert {"rs", "xl", "yl", "zl"} <= (
            report.checked | report.skipped
        )

    def test_trfd_olda(self):
        from repro.kernels import get_kernel

        kernel = get_kernel("TRFD", "olda", 100)
        report = validate_loop(
            kernel.source,
            "olda",
            "mrs",
            args={
                "x": [1.0] * 40,
                "v": [2.0] * 40,
                "num": 5,
                "nrs": 6,
            },
        )
        assert report.ok, report.violations
        assert {"xrsiq", "xij"} <= report.privatization_checked

    def test_ocean_forward_pass(self):
        from repro.kernels import get_kernel

        kernel = get_kernel("OCEAN", "ocean", 270)
        report = validate_loop(
            kernel.source,
            "ocean",
            "j",
            args={
                "field": [1.0] * 40,
                "out": [0.0] * 40,
                "nmlx": 4,
                "im": 6,
            },
            occurrence=0,  # loop 270 is the first j loop
        )
        assert report.ok, report.violations
        assert "cwork" in report.privatization_checked
