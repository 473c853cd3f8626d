"""Profiling and cache-observability layer for the symbolic kernels.

Everything lives in :mod:`repro.perf.profiler`; import it from there.
This package must stay dependency-free within :mod:`repro` — the
symbolic substrate imports it, never the other way round.
"""
