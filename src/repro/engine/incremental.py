"""Incremental re-analysis: re-summarize only what an edit touched.

Because cache keys are content-addressed *and* callee-transitive
(:func:`~repro.engine.cache.fingerprint_program`), invalidation is not a
separate mechanism: editing a routine changes its fingerprint and the
fingerprint of every transitive caller, so exactly those routines miss
the cache on the next run while everything else is served warm.

:func:`diff_revisions` adds the report on top: given the unit hashes of
the previous revision and the hooks of a compile of the new one
(:func:`~repro.engine.batch.compile_item`), it says *which* routines
changed, which were invalidated through a callee, and which were reused.
The daemon's watch sessions keep the previous revision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .cache import CachingHooks


@dataclass
class IncrementalReport:
    """The invalidation report: what one re-analysis actually had to do.

    Public contract of the watch path — the analysis daemon's
    ``POST /v1/watch`` responses serialize this via :meth:`to_dict`, and
    :func:`diff_revisions` builds it without touching engine internals.
    """

    name: str
    #: routines whose own normalized source changed since last revision
    changed: list[str] = field(default_factory=list)
    #: routines invalidated only through a (transitive) callee change
    invalidated: list[str] = field(default_factory=list)
    #: routines served from the summary cache
    reused: list[str] = field(default_factory=list)
    #: routines whose summaries were (re)computed this run
    computed: list[str] = field(default_factory=list)
    #: fingerprints by routine, the new revision
    fingerprints: dict[str, str] = field(default_factory=dict)

    def affected(self) -> list[str]:
        """Routines whose verdicts may have moved since last revision:
        the union of own-source changes and callee invalidations."""
        return sorted(set(self.changed) | set(self.invalidated))

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (fingerprints are dropped: they are cache
        keys, not part of the watch protocol)."""
        return {
            "name": self.name,
            "changed": list(self.changed),
            "invalidated": list(self.invalidated),
            "reused": list(self.reused),
            "computed": list(self.computed),
        }

    def summary_line(self) -> str:
        return (
            f"{self.name}: {len(self.changed)} changed, "
            f"{len(self.invalidated)} invalidated via callees, "
            f"{len(self.reused)} reused from cache"
        )


def diff_revisions(
    name: str,
    previous: Mapping[str, str],
    hooks: CachingHooks,
) -> IncrementalReport:
    """Build the invalidation report for one re-analysis.

    *previous* maps routine → normalized-source hash of the prior
    revision (empty on the first revision); *hooks* is the
    :class:`~repro.engine.cache.CachingHooks` instance that rode the
    just-finished compile (its ``unit_hashes``/``callees``/``reused``/
    ``computed`` fields describe the new revision).
    """
    report = IncrementalReport(
        name=name,
        reused=sorted(hooks.reused),
        computed=sorted(hooks.computed),
        fingerprints=dict(hooks.fingerprints),
    )
    if not previous:
        # first revision: everything is "changed" by definition
        report.changed = sorted(hooks.fingerprints)
        return report
    own_changed = {
        routine
        for routine, h in hooks.unit_hashes.items()
        if previous.get(routine) != h
    }
    # propagate to transitive callers: those summaries are stale even
    # though their own source is untouched (the callee-transitive
    # fingerprint already made them cache misses)
    invalidated: set[str] = set()
    frontier = set(own_changed)
    while frontier:
        nxt: set[str] = set()
        for routine, callees in hooks.callees.items():
            if routine in own_changed or routine in invalidated:
                continue
            if callees & frontier:
                nxt.add(routine)
        invalidated |= nxt
        frontier = nxt
    report.changed = sorted(own_changed)
    report.invalidated = sorted(invalidated)
    return report
