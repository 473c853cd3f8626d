"""Durable run ledger: append-only JSONL journal of batch progress.

A crash must never cost a fleet its progress *attribution*: a campaign
shard that dies at item 9,800 of 10,000 already has 9,800 verdicts in
the durable cache tier, but without a journal nobody can prove which
items finished, so the whole shard re-runs.  The ledger is that journal
— crash-only by construction:

* **append-only JSONL**, one record per line, flushed per line.  There
  is no in-place mutation and no index; the only failure mode a crash
  can produce is a *torn final line*, which replay tolerates (an
  undecodable line is counted and skipped — losing a ``done`` record
  merely re-runs that item, which is always safe because analysis is a
  pure function of the source).
* an **identity header** binds the ledger to one exact run: options
  fingerprint (:func:`~repro.engine.cache.options_key`), audit/machine
  flags, an order-sensitive digest over every item's name and source,
  and — for campaigns — the ``(seed, GENERATOR_VERSION, count, shard)``
  provenance.  ``--resume`` refuses a ledger whose header mismatches
  the requested run (:class:`LedgerMismatch`): resuming someone else's
  journal would silently serve wrong verdicts.
* **item transitions**: ``dispatched`` when an attempt starts, then
  ``done`` (with the full verdict payload, its canonical digest, and
  its cache counters) or ``failed``/``quarantined``.  Replay
  classifies each item by its *last* decodable record — ``done`` items
  are served straight from the ledger on resume; ``dispatched``-only
  (in-flight at the crash) and failed items are re-dispatched.

The ``ledger.write`` fault site (``PANORAMA_FAULTS``) simulates the torn
write: it emits half a record with no newline and wedges the writer, so
the chaos suite can prove replay survives exactly the corruption a real
crash produces.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence

from ..resilience import faults
from .cache import options_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dataflow.context import AnalysisOptions
    from .batch import BatchItem, BatchItemResult

#: bump when the record schema changes shape (replay refuses newer
#: versions rather than guessing at their semantics)
LEDGER_VERSION = 1


class LedgerMismatch(ValueError):
    """The ledger's identity header does not describe the requested run."""


def _canonical(obj: Any) -> str:
    """Canonical JSON text (sorted keys, no whitespace) for digesting."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def payload_digest(payload: Any) -> str:
    """SHA-256 over the canonical JSON form of a verdict payload.

    Stored beside each ``done`` record and re-checked on replay, so a
    corrupted-but-decodable record is detected and re-run instead of
    trusted.  JSON round-trips floats exactly (shortest-repr), so the
    digest of a replayed payload equals the digest of the original.
    """
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def items_digest(items: Sequence["BatchItem"]) -> str:
    """Order-sensitive digest over every item's name, source, and sizes.

    Any edit to any source — or a reorder — changes the digest, so a
    resume against different inputs is refused instead of mixing ledger
    verdicts computed from other text into this run's report.
    """
    h = hashlib.sha256()
    for item in items:
        h.update(item.name.encode())
        h.update(b"\x00")
        h.update(hashlib.sha256(item.source.encode()).digest())
        h.update(b"\x00")
        h.update(_canonical(sorted(item.sizes.items())).encode())
        h.update(b"\x01")
    return h.hexdigest()


def run_identity(
    kind: str,
    items: Sequence["BatchItem"],
    options: "AnalysisOptions",
    audit: bool = False,
    machine: bool = True,
    campaign: Optional[Mapping[str, Any]] = None,
) -> dict[str, Any]:
    """The identity header for one run: everything that shapes verdicts.

    *kind* is ``"batch"`` or ``"campaign"``; *campaign* carries the
    generator provenance (seed, generator_version, count, shard) for
    campaign runs.  Deliberately excluded: jobs, cache dir/backend,
    timeouts — those change performance, never verdicts, and a resume
    under different infrastructure must be allowed.
    """
    return {
        "kind": kind,
        "options": options_key(options),
        "audit": bool(audit),
        "machine": bool(machine),
        "items": len(items),
        "items_digest": items_digest(items),
        "campaign": dict(campaign) if campaign else {},
    }


def verify_identity(
    header: Mapping[str, Any], identity: Mapping[str, Any]
) -> None:
    """Raise :class:`LedgerMismatch` unless *header* describes *identity*."""
    if int(header.get("ledger_version", -1)) != LEDGER_VERSION:
        raise LedgerMismatch(
            f"ledger version {header.get('ledger_version')!r} != "
            f"{LEDGER_VERSION} (written by an incompatible build)"
        )
    recorded = header.get("identity", {})
    mismatched = sorted(
        key
        for key in set(recorded) | set(identity)
        if recorded.get(key) != identity.get(key)
    )
    if mismatched:
        raise LedgerMismatch(
            "ledger identity mismatch on "
            + ", ".join(
                f"{key} (ledger {recorded.get(key)!r} != run "
                f"{identity.get(key)!r})"
                for key in mismatched
            )
        )


class LedgerWriter:
    """Append-only writer for one run's journal.

    ``resume=True`` appends to an existing ledger (a ``resume`` marker
    first, so forensics can see where each process's records start);
    otherwise the file is created fresh with the identity header.  Each
    record is one flushed line — after any ``os._exit`` the kernel
    already holds every completed line, and the worst case is one torn
    final line, which replay tolerates.
    """

    def __init__(
        self,
        path: str | Path,
        identity: Mapping[str, Any],
        resume: bool = False,
    ) -> None:
        self.path = Path(path)
        self.identity = dict(identity)
        #: set by the ledger.write fault: a torn line must stay final,
        #: so the wedged writer drops every subsequent record
        self._broken = False
        self._fh = open(self.path, "a" if resume else "w", encoding="utf-8")
        if resume:
            self._record({"type": "resume", "pid": os.getpid()})
        else:
            self._record(
                {
                    "type": "header",
                    "ledger_version": LEDGER_VERSION,
                    "identity": self.identity,
                    "pid": os.getpid(),
                }
            )

    def _record(self, record: Mapping[str, Any]) -> None:
        if self._broken:
            return
        line = _canonical(record)
        if faults.should_fire("ledger.write", key=record.get("type")):
            # simulate the crash-mid-write: half a record, no newline,
            # and the writer wedges so the torn line stays final
            self._fh.write(line[: max(1, len(line) // 2)])
            self._fh.flush()
            self._broken = True
            return
        self._fh.write(line + "\n")
        self._fh.flush()

    # -- item transitions ---------------------------------------------------------

    def record_dispatched(self, index: int, name: str, attempt: int) -> None:
        self._record(
            {
                "type": "item",
                "state": "dispatched",
                "index": index,
                "name": name,
                "attempt": attempt,
            }
        )

    def record_done(self, index: int, result: "BatchItemResult") -> None:
        self._record(
            {
                "type": "item",
                "state": "done",
                "index": index,
                "name": result.name,
                "attempt": result.attempts,
                "payload": result.payload,
                "digest": payload_digest(result.payload),
                "cache_stats": result.cache_stats.as_dict(),
            }
        )

    def record_failed(self, index: int, result: "BatchItemResult") -> None:
        self._record(
            {
                "type": "item",
                "state": "quarantined" if result.quarantined else "failed",
                "index": index,
                "name": result.name,
                "attempt": result.attempts,
                "error_kind": result.error_kind,
                # first line is enough to identify the failure on replay;
                # the full traceback lives in the run's stderr
                "error": (result.error or "").splitlines()[:1],
            }
        )

    def record_end(self, reason: str) -> None:
        """Terminal marker: ``complete`` or ``interrupted``."""
        self._record({"type": "end", "reason": reason})

    def close(self) -> None:
        try:
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except (OSError, ValueError):
            pass
        try:
            self._fh.close()
        except OSError:
            pass

    def __enter__(self) -> "LedgerWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class LedgerReplay:
    """What a ledger says happened, classified per item index."""

    header: dict[str, Any] = field(default_factory=dict)
    #: index → its (verified) ``done`` record; resume serves these
    done: dict[int, dict[str, Any]] = field(default_factory=dict)
    #: indexes whose last record is ``dispatched`` (in flight at crash)
    in_flight: set[int] = field(default_factory=set)
    #: index → its last ``failed``/``quarantined`` record
    failed: dict[int, dict[str, Any]] = field(default_factory=dict)
    #: undecodable lines skipped (a crash leaves at most one, at EOF)
    torn_lines: int = 0
    #: decodable records dropped for failing verification (bad digest,
    #: unknown type) — each costs one re-run, never a wrong verdict
    invalid_records: int = 0
    #: terminal marker reason, or None when the run never wrote one
    ended: Optional[str] = None
    #: how many times a resume appended to this ledger
    resumes: int = 0

    @property
    def completed(self) -> int:
        return len(self.done)


def replay(path: str | Path) -> LedgerReplay:
    """Reconstruct run state from a (possibly torn) ledger.

    The last decodable record per item wins.  ``done`` records must
    carry a payload matching their digest; anything else undecodable or
    unverifiable demotes the item to "re-run it", which is always safe.
    Raises ``OSError`` when the file cannot be read and
    :class:`LedgerMismatch` when it has no decodable header at all.
    """
    out = LedgerReplay()
    saw_header = False
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                out.torn_lines += 1
                continue
            if not isinstance(record, dict):
                out.invalid_records += 1
                continue
            rtype = record.get("type")
            if rtype == "header":
                if not saw_header:
                    saw_header = True
                    out.header = record
                continue
            if rtype == "resume":
                out.resumes += 1
                out.ended = None  # the run continued past its end marker
                continue
            if rtype == "end":
                out.ended = record.get("reason")
                continue
            if rtype != "item":
                out.invalid_records += 1
                continue
            try:
                index = int(record.get("index"))
            except (TypeError, ValueError):
                out.invalid_records += 1
                continue
            state = record.get("state")
            if state == "dispatched":
                if index not in out.done:
                    out.in_flight.add(index)
                continue
            if state == "done":
                if payload_digest(record.get("payload")) != record.get(
                    "digest"
                ):
                    out.invalid_records += 1
                    continue
                out.done[index] = record
                out.in_flight.discard(index)
                out.failed.pop(index, None)
                continue
            if state in ("failed", "quarantined"):
                out.failed[index] = record
                out.in_flight.discard(index)
                continue
            out.invalid_records += 1
    if not saw_header:
        raise LedgerMismatch(f"{path}: no decodable ledger header")
    return out
