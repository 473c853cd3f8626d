"""repro: a reproduction of "Symbolic Array Dataflow Analysis for Array
Privatization and Program Parallelization" (Gu, Li & Lee, SC 1995).

The package implements the paper's Panorama-style analyzer end to end:

* :mod:`repro.fortran` — Fortran-77 subset frontend (lexer, parser,
  semantics, call graph);
* :mod:`repro.symbolic` — symbolic expressions, relational atoms, CNF
  guard predicates, the pairwise simplifier, Fourier-Motzkin refutation;
* :mod:`repro.regions` — guarded array regions (GARs) and their set
  algebra;
* :mod:`repro.hsg` — the Hierarchical Supergraph;
* :mod:`repro.dataflow` — the SUM_bb / SUM_loop / SUM_call / SUM_segment
  summary algorithms with on-the-fly scalar substitution and expansion;
* :mod:`repro.deptest` — conventional dependence tests (GCD, Banerjee,
  symbolic range) used as the cheap pre-filter;
* :mod:`repro.privatize`, :mod:`repro.parallelize` — the two clients;
* :mod:`repro.machine` — cost model and speedup estimation;
* :mod:`repro.driver` — the end-to-end pipeline and CLI;
* :mod:`repro.kernels` — Figure 1 examples and Perfect-loop kernels.

The names below load their subpackages on first use (:mod:`repro.lazy`),
so importing one module of the package loads only what it imports.

Quickstart::

    from repro import Panorama
    result = Panorama().compile(fortran_source)
    for loop in result.loops:
        print(loop.loop_id(), loop.status.value)
"""

from .lazy import exports

__version__ = "1.0.0"

__all__, __getattr__ = exports(__name__, {
    "dataflow": ("AnalysisOptions", "SummaryAnalyzer"),
    "driver": ("CompilationResult", "LoopReport", "Panorama"),
    "parallelize": ("LoopStatus",),
})
__all__.append("__version__")
