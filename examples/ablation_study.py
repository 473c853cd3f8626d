"""Technique ablation study: which of T1/T2/T3 each loop needs.

Reruns the analysis on every kernel with each technique disabled in turn
and reports whether the loop's designated arrays still privatize —
regenerating the last three columns of the paper's Table 1.

Run:  python examples/ablation_study.py
"""

from repro import AnalysisOptions, Panorama
from repro.driver.report import format_table
from repro.kernels import KERNELS


def arrays_privatized(kernel, options: AnalysisOptions) -> bool:
    result = Panorama(options, run_machine_model=False).compile(kernel.source)
    report = result.loop(kernel.routine, kernel.loop_label)
    priv = report.verdict.privatization if report.verdict else None
    if priv is None:
        return False
    return all(
        any(v.name == name and v.privatizable for v in priv.verdicts)
        for name in kernel.privatizable
    )


def main() -> None:
    rows = []
    mismatches = 0
    for kernel in KERNELS:
        needed = []
        for technique in ("T1", "T2", "T3"):
            options = AnalysisOptions.from_flags(ablate=[technique])
            ok = arrays_privatized(kernel, options)
            needed.append("Yes" if not ok else "No")
        expected = [
            "Yes" if t in kernel.techniques else "No"
            for t in ("T1", "T2", "T3")
        ]
        match = needed == expected
        mismatches += 0 if match else 1
        rows.append(
            [kernel.program, kernel.loop_id, *needed, *expected,
             "ok" if match else "MISMATCH"]
        )
    print(
        format_table(
            ["program", "loop", "T1", "T2", "T3",
             "paper T1", "paper T2", "paper T3", ""],
            rows,
            title="Technique ablations (T1 symbolic, T2 IF conditions, "
            "T3 interprocedural)",
        )
    )
    print()
    print(f"{len(KERNELS) - mismatches}/{len(KERNELS)} loops match Table 1")


if __name__ == "__main__":
    main()
