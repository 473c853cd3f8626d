"""The batch analysis engine: serving-layer machinery above the pipeline.

The paper's Figure 4 argues the analysis "costs little beyond parsing";
this package makes repeated and bulk analysis cheap in practice:

* :mod:`repro.engine.cache` — content-addressed, two-tier (memory LRU +
  durable backend) cache of per-routine summaries, with
  callee-transitive fingerprints for exact interprocedural invalidation;
* :mod:`repro.engine.backends` — the pluggable durable tier:
  pickle-directory (``disk``) and multi-process SQLite (``shared``);
* :mod:`repro.engine.scheduler` — call-graph-topology-aware dispatch
  planning (providers before consumers, cycle-safe);
* :mod:`repro.engine.batch` — :class:`BatchEngine`, fanning many sources
  over a process pool that shares the durable cache tier, and
  :func:`compile_item`, the one cached compile of an item that the
  batch worker and the daemon's requests run;
* :mod:`repro.engine.incremental` — :func:`diff_revisions`, the report
  of which routines an edit (transitively) touched;
* :mod:`repro.engine.campaign` — seeded mass corpora, ``--shard i/N``
  partitioning, and stats rollups (``panorama-campaign``); import its
  names from the module itself: the package does not re-export them,
  so ``python -m repro.engine.campaign`` runs the module exactly once;
* :mod:`repro.engine.telemetry` — counters, roll-ups, and the JSON
  serializers shared with ``panorama --json``;
* :mod:`repro.engine.cli` — the ``panorama-batch`` entry point, and the
  engine flag group and run path it shares with ``panorama-campaign``.

The batch pool is supervised (per-item timeouts, retries with seeded
backoff, pool rebuild on worker crash, quarantine): see
``docs/robustness.md`` for the full degradation ladder.
"""

from .backends import CacheBackend, DiskBackend, SharedSQLiteBackend, make_backend
from .batch import (
    BatchEngine,
    BatchItem,
    BatchItemResult,
    BatchReport,
    compile_item,
    items_from_kernel_registry,
    items_from_paths,
)
from .cache import (
    CACHE_FORMAT_VERSION,
    DISK_MAGIC,
    CacheStats,
    CachingHooks,
    RoutineCacheEntry,
    SummaryCache,
    fingerprint_program,
    options_key,
    unit_source_hash,
)
from .incremental import IncrementalReport, diff_revisions
from .scheduler import SchedulePlan, plan_schedule, resolve_schedule_mode
from .telemetry import EngineTelemetry, loop_report_row, result_to_dict

__all__ = [
    "BatchEngine",
    "BatchItem",
    "BatchItemResult",
    "BatchReport",
    "CACHE_FORMAT_VERSION",
    "CacheBackend",
    "CacheStats",
    "CachingHooks",
    "DISK_MAGIC",
    "DiskBackend",
    "EngineTelemetry",
    "IncrementalReport",
    "RoutineCacheEntry",
    "SchedulePlan",
    "SharedSQLiteBackend",
    "SummaryCache",
    "compile_item",
    "diff_revisions",
    "fingerprint_program",
    "items_from_kernel_registry",
    "items_from_paths",
    "loop_report_row",
    "make_backend",
    "options_key",
    "plan_schedule",
    "resolve_schedule_mode",
    "result_to_dict",
    "unit_source_hash",
]
