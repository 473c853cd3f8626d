"""Integration tests: the Table 1 technique matrix (T1/T2/T3 ablations).

For every kernel, disabling a technique marked "Yes" in Table 1 must break
the loop's designated privatizations, and disabling a technique marked
"No" must leave them intact.
"""

import pytest

from repro import AnalysisOptions, Panorama
from repro.kernels import KERNELS

_CACHE: dict = {}


def arrays_privatized(kernel, options: AnalysisOptions) -> bool:
    key = (kernel.source, options)
    if key not in _CACHE:
        result = Panorama(options, run_machine_model=False).compile(
            kernel.source
        )
        _CACHE[key] = result
    result = _CACHE[key]
    report = result.loop(kernel.routine, kernel.loop_label)
    priv = report.verdict.privatization if report.verdict else None
    if priv is None:
        return False
    return all(
        any(v.name == name and v.privatizable for v in priv.verdicts)
        for name in kernel.privatizable
    )


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.full_id)
@pytest.mark.parametrize("technique", ["T1", "T2", "T3"])
def test_ablation_matrix(kernel, technique):
    options = AnalysisOptions.from_flags(ablate=[technique])
    ok = arrays_privatized(kernel, options)
    needed = technique in kernel.techniques
    if needed:
        assert not ok, (
            f"{kernel.full_id} still privatizes without {technique}, but "
            f"Table 1 marks it required"
        )
    else:
        assert ok, (
            f"{kernel.full_id} loses privatization without {technique}, but "
            f"Table 1 marks it unneeded"
        )


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.full_id)
def test_all_techniques_on_succeeds(kernel):
    assert arrays_privatized(kernel, AnalysisOptions())
