"""Pluggable persistent tiers behind :class:`~repro.engine.cache.SummaryCache`.

The memory LRU always lives in ``SummaryCache``; what sits *behind* it is
a :class:`CacheBackend` — the durable, cross-process tier.  Two are
shipped:

* :class:`DiskBackend` — the v3 pickle-per-fingerprint directory layout
  (``<dir>/ab/<fingerprint>.pkl``, checksummed container, atomic-rename
  writes).  This is byte-compatible with every cache directory written
  before the backend split: fingerprints, the container magic, and
  :data:`~repro.engine.cache.CACHE_FORMAT_VERSION` are unchanged, so
  existing caches stay valid.
* :class:`SharedSQLiteBackend` — one SQLite database in WAL mode that N
  concurrent engine *processes* (not just one engine's workers) read and
  write.  Rows are self-verifying (SHA-256 of the payload stored beside
  it); corrupt rows are moved into a ``quarantine`` table, never
  re-trusted; writer contention is retried with backoff and surfaced as
  the ``contention_retries`` counter.

Backends share the fingerprint keyspace: an entry computed under either
backend is the same ``(CACHE_FORMAT_VERSION, entry)`` pickle under the
same fingerprint, so switching backends never invalidates summaries —
only relocates them.  An entry is a
:class:`~repro.engine.cache.RoutineCacheEntry` under a routine
fingerprint or a :class:`~repro.engine.cache.ResultEntry` under a
whole-item :func:`~repro.engine.cache.result_key`; both ride the same
checksum, quarantine and circuit-breaker code.

Selection: pass ``backend="disk"|"shared"`` (or an instance) to
``SummaryCache``/``BatchEngine``, use ``panorama-batch
--cache-backend``, or set :data:`ENV_BACKEND_VAR`
(``PANORAMA_CACHE_BACKEND``).  The default is ``disk``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sqlite3
import tempfile
import time
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Protocol, runtime_checkable

from ..resilience import faults
from ..resilience.breaker import CircuitBreaker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cache imports us)
    from .cache import CacheStats, RoutineCacheEntry

#: environment selector for the default backend kind
ENV_BACKEND_VAR = "PANORAMA_CACHE_BACKEND"

#: kinds make_backend accepts
BACKEND_KINDS = ("disk", "shared")

#: default bound on quarantined entries kept per backend (oldest-first
#: eviction beyond this — a corruption storm must not fill the disk)
QUARANTINE_CAP = 256


class _BreakerMixin:
    """Shared circuit-breaker plumbing for the durable tiers.

    Backends never raise into the analysis — they degrade per operation.
    The breaker adds fleet-level memory on top: consecutive failures trip
    it open, after which operations are short-circuited locally (a miss /
    a dropped store) until a seeded half-open probe succeeds.  Every
    transition is mirrored into :class:`CacheStats` *at event time* so
    per-worker stat deltas merge correctly across processes.
    """

    breaker: Optional[CircuitBreaker]
    stats: "CacheStats"

    def _breaker_allow(self) -> bool:
        if self.breaker is None or self.breaker.allow():
            return True
        self.stats.breaker_skipped += 1
        return False

    def _breaker_ok(self) -> None:
        if self.breaker is not None and self.breaker.record_success():
            self.stats.breaker_recoveries += 1

    def _breaker_fail(self) -> None:
        if self.breaker is not None and self.breaker.record_failure():
            self.stats.breaker_trips += 1


@runtime_checkable
class CacheBackend(Protocol):
    """The durable tier contract extracted from the old ``SummaryCache``.

    Implementations must be safe for concurrent use by independent
    processes: ``put`` of identical content under the same fingerprint
    must be idempotent, and a reader racing a writer must see either the
    old entry, the new entry, or a miss — never a torn read.  Corrupt
    stored entries are *quarantined* (counted, moved aside, reported as
    a miss), never returned.
    """

    #: short human name shown in telemetry (``cache_backend``)
    name: str

    def bind_stats(self, stats: "CacheStats") -> None:
        """Attach the counter sink all operations report into."""
        ...

    def get(self, fingerprint: str) -> Optional["RoutineCacheEntry"]:
        """The verified entry for *fingerprint*, or None on miss."""
        ...

    def put(self, entry: "RoutineCacheEntry") -> None:
        """Durably store *entry* under its fingerprint (overwrite OK)."""
        ...

    def contains(self, fingerprint: str) -> bool:
        """Cheap existence probe (no payload verification)."""
        ...

    def close(self) -> None:
        """Release handles (connections, fds); further use may reopen."""
        ...


def _verify_payload(
    payload: bytes, digest: bytes
) -> tuple[Optional[object], Optional[str]]:
    """Decode one self-verifying payload: ``(entry, None)`` on success,
    ``(None, reason)`` naming the quarantine tag otherwise."""
    from .cache import CACHE_FORMAT_VERSION, ResultEntry, RoutineCacheEntry

    if hashlib.sha256(payload).digest() != digest:
        return None, "checksum"
    try:
        version, entry = pickle.loads(payload)
    except Exception:
        return None, "unpickle"
    if version != CACHE_FORMAT_VERSION or not isinstance(
        entry, (RoutineCacheEntry, ResultEntry)
    ):
        return None, "version"
    return entry, None


def _encode_entry(entry: "RoutineCacheEntry") -> tuple[bytes, bytes]:
    """``(payload, digest)`` of one entry in the shared pickle format."""
    from .cache import CACHE_FORMAT_VERSION

    payload = pickle.dumps((CACHE_FORMAT_VERSION, entry))
    return payload, hashlib.sha256(payload).digest()


class DiskBackend(_BreakerMixin):
    """Pickle-per-fingerprint directory tier (the original disk tier).

    Entries are sharded by the first two fingerprint characters
    (``<dir>/ab/ab…pkl``) and written via temp-file + atomic rename, so
    workers sharing the directory are safe and racing writers agree
    (content addressing makes their bytes identical).  Bad entries are
    moved to ``<dir>/quarantine/`` with a reason suffix; the quarantine
    directory is capped at *quarantine_cap* entries, evicting oldest
    first.
    """

    name = "disk"

    def __init__(
        self,
        cache_dir,
        stats: "CacheStats | None" = None,
        quarantine_cap: int = QUARANTINE_CAP,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        from .cache import CacheStats

        self.cache_dir = Path(cache_dir)
        self.stats = stats if stats is not None else CacheStats()
        self.quarantine_cap = max(1, quarantine_cap)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.cache_dir.mkdir(parents=True, exist_ok=True)

    def bind_stats(self, stats: "CacheStats") -> None:
        self.stats = stats

    def path(self, fingerprint: str) -> Path:
        return self.cache_dir / fingerprint[:2] / f"{fingerprint}.pkl"

    def contains(self, fingerprint: str) -> bool:
        return self.path(fingerprint).exists()

    def close(self) -> None:  # directories hold no handles
        return None

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a bad disk entry aside (``<dir>/quarantine/``) so it is
        never re-read, re-trusted, or silently overwritten evidence."""
        self.stats.disk_errors += 1
        self.stats.quarantined += 1
        try:
            qdir = self.cache_dir / "quarantine"
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / f"{path.name}.{reason}")
            self._evict_quarantine(qdir)
        except OSError:
            # even quarantining can fail (read-only dir): last resort is
            # deleting the bad entry so it cannot poison later reads
            try:
                path.unlink()
            except OSError:
                pass

    def _evict_quarantine(self, qdir: Path) -> None:
        """Hold the quarantine directory at the cap, oldest-first."""
        entries = sorted(
            (p for p in qdir.iterdir() if p.is_file()),
            key=lambda p: (p.stat().st_mtime, p.name),
        )
        while len(entries) > self.quarantine_cap:
            victim = entries.pop(0)
            try:
                victim.unlink()
                self.stats.quarantine_evicted += 1
            except OSError:
                pass

    def get(self, fingerprint: str) -> Optional["RoutineCacheEntry"]:
        from .cache import DISK_MAGIC, _DIGEST_LEN

        path = self.path(fingerprint)
        if not path.exists():
            return None
        if not self._breaker_allow():
            return None
        if faults.should_fire("cache.read"):
            raise OSError(f"injected fault: cache.read {fingerprint[:12]}")
        if faults.should_fire("cache.corrupt"):
            # simulate a torn write: clobber the container header in place
            # so the genuine corruption-detection path runs
            with path.open("r+b") as fh:
                fh.write(b"\x00" * len(DISK_MAGIC))
        try:
            data = path.read_bytes()
        except OSError:
            self.stats.disk_errors += 1
            self._breaker_fail()
            return None
        if len(data) < len(DISK_MAGIC) + _DIGEST_LEN or not data.startswith(
            DISK_MAGIC
        ):
            self._quarantine(path, "badmagic")
            self._breaker_fail()
            return None
        digest = data[len(DISK_MAGIC) : len(DISK_MAGIC) + _DIGEST_LEN]
        payload = data[len(DISK_MAGIC) + _DIGEST_LEN :]
        entry, reason = _verify_payload(payload, digest)
        if entry is None:
            self._quarantine(path, reason or "corrupt")
            self._breaker_fail()
            return None
        self._breaker_ok()
        return entry

    def put(self, entry: "RoutineCacheEntry") -> None:
        from .cache import DISK_MAGIC

        if not self._breaker_allow():
            return  # open breaker: drop the store, cache stays an accelerator
        path = self.path(entry.fingerprint)
        try:
            payload, digest = _encode_entry(entry)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=entry.fingerprint[:8], suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(DISK_MAGIC)
                    fh.write(digest)
                    fh.write(payload)
                os.replace(tmp, path)  # atomic on POSIX: racing writers agree
            except BaseException:
                os.unlink(tmp)
                raise
            self._breaker_ok()
        except OSError:
            self.stats.disk_errors += 1
            self._breaker_fail()


class SharedSQLiteBackend(_BreakerMixin):
    """One WAL-mode SQLite database shared by N engine processes.

    WAL gives single-writer/many-reader concurrency without readers
    blocking; writes are single-row upserts, so writer lock windows are
    tiny.  A busy writer is retried :attr:`max_retries` times with
    linear backoff (each retry counted in ``contention_retries``); a
    write that still cannot land is dropped and counted as a
    ``disk_error`` — the cache is an accelerator, losing a store is
    always safe.

    Rows carry the same checksummed pickle the disk tier writes inside
    its container, verified on every read.  A row that fails
    verification is moved into the ``quarantine`` table (fingerprint,
    reason, payload) and deleted from ``summaries``, so it is never
    served again but remains inspectable.

    Connections are opened lazily and re-opened after ``fork`` — a
    SQLite handle must never cross a process boundary, and the batch
    engine's worker processes inherit this object by fork.
    """

    name = "shared"

    #: database filename inside the cache directory
    DB_NAME = "summaries.sqlite"

    def __init__(
        self,
        cache_dir,
        stats: "CacheStats | None" = None,
        busy_timeout_s: float = 5.0,
        max_retries: int = 5,
        retry_sleep_s: float = 0.01,
        quarantine_cap: int = QUARANTINE_CAP,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        from .cache import CacheStats

        self.cache_dir = Path(cache_dir)
        self.db_path = self.cache_dir / self.DB_NAME
        self.stats = stats if stats is not None else CacheStats()
        self.busy_timeout_s = busy_timeout_s
        self.max_retries = max(1, max_retries)
        self.retry_sleep_s = retry_sleep_s
        self.quarantine_cap = max(1, quarantine_cap)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._conn: Optional[sqlite3.Connection] = None
        self._pid: Optional[int] = None

    def bind_stats(self, stats: "CacheStats") -> None:
        self.stats = stats

    # -- connection management ----------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None or self._pid != os.getpid():
            # a forked child must not reuse the parent's handle
            conn = sqlite3.connect(
                self.db_path, timeout=self.busy_timeout_s, isolation_level=None
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS summaries ("
                " fingerprint TEXT PRIMARY KEY,"
                " digest BLOB NOT NULL,"
                " payload BLOB NOT NULL,"
                " stored_at REAL NOT NULL)"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS quarantine ("
                " fingerprint TEXT,"
                " reason TEXT,"
                " payload BLOB,"
                " quarantined_at REAL)"
            )
            self._conn = conn
            self._pid = os.getpid()
        return self._conn

    def close(self) -> None:
        if self._conn is not None and self._pid == os.getpid():
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
        self._conn = None
        self._pid = None

    def __getstate__(self):  # pickled into pool workers: drop the handle
        state = self.__dict__.copy()
        state["_conn"] = None
        state["_pid"] = None
        return state

    # -- retry plumbing -----------------------------------------------------------

    def _with_retry(self, op, default=None, breaker: bool = True):
        """Run *op* (no-arg callable), retrying writer contention.

        Returns *default* when the database stays locked through every
        retry or fails structurally — a cache tier degrades, it never
        raises into the analysis.  Outcomes feed the circuit breaker
        (unless *breaker* is False — quarantine bookkeeping must not
        reset the failure streak its own corrupt row caused): busy
        exhaustion and structural errors are failures, and enough of
        them in a row trips the backend into local-only mode where
        *op* is skipped outright.
        """
        if breaker and not self._breaker_allow():
            return default
        for attempt in range(self.max_retries):
            try:
                if faults.should_fire("backend.busy"):
                    raise sqlite3.OperationalError(
                        "database is locked (injected fault: backend.busy)"
                    )
                result = op()
                if breaker:
                    self._breaker_ok()
                return result
            except sqlite3.OperationalError as exc:
                message = str(exc).lower()
                if "locked" not in message and "busy" not in message:
                    self.stats.disk_errors += 1
                    if breaker:
                        self._breaker_fail()
                    return default
                self.stats.contention_retries += 1
                if attempt + 1 < self.max_retries:
                    time.sleep(self.retry_sleep_s * (attempt + 1))
            except sqlite3.DatabaseError:
                # malformed database file (torn at the filesystem level):
                # drop the handle so the next call reopens from scratch
                self.stats.disk_errors += 1
                self.close()
                if breaker:
                    self._breaker_fail()
                return default
        self.stats.disk_errors += 1
        if breaker:
            self._breaker_fail()
        return default

    # -- protocol -----------------------------------------------------------------

    def contains(self, fingerprint: str) -> bool:
        def probe():
            row = self._connection().execute(
                "SELECT 1 FROM summaries WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
            return row is not None

        return bool(self._with_retry(probe, default=False))

    def get(self, fingerprint: str) -> Optional["RoutineCacheEntry"]:
        if faults.should_fire("cache.read"):
            raise OSError(f"injected fault: cache.read {fingerprint[:12]}")
        if faults.should_fire("backend.read", key=fingerprint[:12]):
            # a shared-tier read I/O error degrades to a miss (and feeds
            # the breaker) instead of raising into the analysis
            self.stats.disk_errors += 1
            self.stats.shared_misses += 1
            self._breaker_fail()
            return None
        if faults.should_fire("cache.corrupt"):
            # clobber the stored digest in place so the genuine
            # verification/quarantine path runs
            self._with_retry(
                lambda: self._connection().execute(
                    "UPDATE summaries SET digest = zeroblob(32)"
                    " WHERE fingerprint = ?",
                    (fingerprint,),
                )
            )

        def fetch():
            return self._connection().execute(
                "SELECT digest, payload FROM summaries WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()

        row = self._with_retry(fetch)
        if row is None:
            self.stats.shared_misses += 1
            return None
        entry, reason = _verify_payload(bytes(row[1]), bytes(row[0]))
        if entry is None:
            self._quarantine(fingerprint, reason or "corrupt", bytes(row[1]))
            self._breaker_fail()  # corrupt rows count toward tripping
            self.stats.shared_misses += 1
            return None
        self.stats.shared_hits += 1
        return entry

    def put(self, entry: "RoutineCacheEntry") -> None:
        if faults.should_fire("backend.write", key=entry.fingerprint[:12]):
            # a shared-tier write I/O error drops the store (always safe)
            self.stats.disk_errors += 1
            self._breaker_fail()
            return
        payload, digest = _encode_entry(entry)

        def upsert():
            self._connection().execute(
                "INSERT INTO summaries (fingerprint, digest, payload, stored_at)"
                " VALUES (?, ?, ?, ?)"
                " ON CONFLICT(fingerprint) DO UPDATE SET"
                "  digest = excluded.digest,"
                "  payload = excluded.payload,"
                "  stored_at = excluded.stored_at",
                (entry.fingerprint, digest, payload, time.time()),
            )
            return True

        self._with_retry(upsert, default=False)

    def _quarantine(self, fingerprint: str, reason: str, payload: bytes) -> None:
        """Move a bad row into the quarantine table: counted, kept as
        evidence, never served again."""
        self.stats.disk_errors += 1
        self.stats.quarantined += 1

        def move():
            conn = self._connection()
            conn.execute("BEGIN IMMEDIATE")
            try:
                conn.execute(
                    "INSERT INTO quarantine"
                    " (fingerprint, reason, payload, quarantined_at)"
                    " VALUES (?, ?, ?, ?)",
                    (fingerprint, reason, payload, time.time()),
                )
                conn.execute(
                    "DELETE FROM summaries WHERE fingerprint = ?", (fingerprint,)
                )
                excess = (
                    conn.execute(
                        "SELECT COUNT(*) FROM quarantine"
                    ).fetchone()[0]
                    - self.quarantine_cap
                )
                if excess > 0:  # hold the table at the cap, oldest first
                    conn.execute(
                        "DELETE FROM quarantine WHERE rowid IN ("
                        " SELECT rowid FROM quarantine"
                        " ORDER BY quarantined_at, rowid LIMIT ?)",
                        (excess,),
                    )
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            return max(0, excess)

        # breaker=False: quarantining is the *reaction* to a corrupt row;
        # its own success must not reset the failure streak being counted
        evicted = self._with_retry(move, default=0, breaker=False)
        if evicted:
            self.stats.quarantine_evicted += int(evicted)

    # -- introspection (tests, ops tooling) ---------------------------------------

    def quarantined_rows(self) -> list[tuple[str, str]]:
        """``(fingerprint, reason)`` of every quarantined row."""
        def fetch():
            return self._connection().execute(
                "SELECT fingerprint, reason FROM quarantine"
            ).fetchall()

        return [(r[0], r[1]) for r in (self._with_retry(fetch) or [])]

    def entry_count(self) -> int:
        def count():
            return self._connection().execute(
                "SELECT COUNT(*) FROM summaries"
            ).fetchone()[0]

        return int(self._with_retry(count, default=0) or 0)


def default_backend_kind() -> str:
    """The backend kind selected by the environment (``disk`` default)."""
    kind = os.environ.get(ENV_BACKEND_VAR, "").strip().lower()
    return kind if kind in BACKEND_KINDS else "disk"


def make_backend(
    kind: Optional[str],
    cache_dir,
    stats: "CacheStats | None" = None,
) -> Optional[CacheBackend]:
    """Construct the durable tier for *cache_dir*.

    ``cache_dir=None`` means memory-only: no backend, whatever *kind*
    says.  ``kind=None`` defers to :data:`ENV_BACKEND_VAR` and falls
    back to ``disk``.  Unknown kinds raise ``ValueError`` — a typo must
    not silently select a different persistence story.
    """
    if cache_dir is None:
        return None
    if kind is None:
        kind = default_backend_kind()
    kind = kind.strip().lower()
    if kind == "disk":
        return DiskBackend(cache_dir, stats)
    if kind == "shared":
        return SharedSQLiteBackend(cache_dir, stats)
    raise ValueError(
        f"unknown cache backend {kind!r} (expected one of {BACKEND_KINDS})"
    )
