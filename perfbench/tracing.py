"""Outside-in layer tracing for the benchmark harness.

Every layer of Panorama is timed from the outside: :meth:`Tracer.install`
replaces each public entry point listed in :data:`LAYERS` with a timing
wrapper -- in every loaded ``repro`` module that imported the function,
and on the class for methods -- so nothing under ``src/`` changes.
:meth:`Tracer.uninstall` puts the originals back.

A wrapper records one span per call (layer, start, end, parent span,
request id) in memory, plus running per-layer aggregates:

* ``calls`` -- number of calls;
* ``self_ns`` -- duration minus the time covered by child spans;
* ``incl_ns`` -- duration of the outermost call of the layer (a
  recursive call is not counted twice).

Spans are written out only at the end, as Chrome trace-event JSON that
Perfetto (https://ui.perfetto.dev) opens directly.  ``perf_counter_ns``
reads ``CLOCK_MONOTONIC`` on Linux, so spans from child processes line
up with the harness's own on one timeline.

State is per thread (the daemon analyzes on a worker thread while its
event loop runs on another); threads register once, under a lock, and
are merged at export.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

#: layer name -> the entry points timed under it, as ``module:qualname``
LAYERS: dict[str, tuple[str, ...]] = {
    "fortran.parse": ("repro.fortran.parser:parse_program",),
    "fortran.semantics": ("repro.fortran.semantics:analyze",),
    "hsg.build": ("repro.hsg.builder:build_hsg",),
    "deptest.screen": ("repro.deptest.ddg:screen_loop",),
    "contents.infer": ("repro.contents.infer:infer_program",),
    "dataflow.sum_loop": ("repro.dataflow.sum_loop:summarize_loop",),
    "dataflow.sum_call": ("repro.dataflow.sum_call:summarize_call",),
    "regions.gar_simplify": ("repro.regions.gar_simplify:simplify_gar_list",),
    "symbolic.prove": ("repro.symbolic.compare:Comparer.prove",),
    "symbolic.fm": (
        "repro.symbolic.fourier_motzkin:definitely_unsat",
        "repro.symbolic.fourier_motzkin:definitely_unsat_many",
    ),
    "parallelize.classify": ("repro.parallelize.classifier:classify_loop",),
    # what is still read after a privatized loop, for its copy-out test
    "dataflow.below": ("repro.dataflow.analyzer:SummaryAnalyzer.below_summary",),
    "privatize.copy_out": ("repro.privatize.liveness:copy_out_needed",),
    "machine.cost": ("repro.machine.costmodel:CostModel.program_cost",),
    # self time of these two is the glue code between the layers above
    "driver.compile": ("repro.driver.panorama:Panorama.compile",),
    "engine.run": ("repro.engine.batch:BatchEngine.run",),
    "audit.audit": ("repro.audit.auditor:audit_compilation",),
    "campaign.generate": ("repro.engine.campaign:generate_campaign",),
    "engine.plan": ("repro.engine.scheduler:plan_schedule",),
    "engine.fingerprint": ("repro.engine.cache:fingerprint_program",),
    "engine.item": ("repro.engine.batch:_analyze_item",),
    "engine.cache": (
        "repro.engine.cache:SummaryCache.get",
        "repro.engine.cache:SummaryCache.put",
    ),
    "engine.backend.read": (
        "repro.engine.backends:DiskBackend.get",
        "repro.engine.backends:SharedSQLiteBackend.get",
    ),
    "engine.backend.write": (
        "repro.engine.backends:DiskBackend.put",
        "repro.engine.backends:SharedSQLiteBackend.put",
    ),
    "engine.serialize": ("repro.engine.telemetry:result_to_dict",),
    "server.analyze": ("repro.server.service:AnalysisService.analyze",),
}

#: entry points whose arguments name the request their spans belong to
_REQUEST_IDS: dict[str, Callable[[tuple], Any]] = {
    "server.analyze": lambda args: (
        args[1].get("name") if isinstance(args[1], dict) else None
    ),
    "engine.item": lambda args: getattr(args[0], "name", None),
}

#: spans kept per thread for the Chrome trace; aggregates are never capped
MAX_SPANS = 100_000


class _ThreadState:
    __slots__ = ("tid", "stack", "depth", "rid", "calls", "self_ns",
                 "incl_ns", "spans", "dropped", "root_by_rid")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        #: open frames: [layer, start_ns, child_ns, span_index]
        self.stack: list[list] = []
        self.depth: dict[str, int] = {}
        self.rid: Any = None
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.incl_ns: dict[str, int] = {}
        #: (layer, start_ns, end_ns, parent_index, rid)
        self.spans: list[tuple] = []
        self.dropped = 0
        #: request id -> summed duration of its root spans
        self.root_by_rid: dict[Any, int] = {}


class Tracer:
    """In-memory span recorder behind the layer wrappers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._threads))
                self._threads.append(state)
            self._local.state = state
        return state

    @contextmanager
    def request(self, rid: Any) -> Iterator[None]:
        """Attribute the spans opened inside the block to request *rid*."""
        state = self._state()
        saved, state.rid = state.rid, rid
        try:
            yield
        finally:
            state.rid = saved

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        tracer = self
        rid_of = _REQUEST_IDS.get(layer)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            saved_rid = st.rid
            if rid_of is not None:
                st.rid = rid_of(args)
            stack = st.stack
            parent = stack[-1][3] if stack else -1
            if len(st.spans) < MAX_SPANS:
                index = len(st.spans)
                st.spans.append(None)
            else:
                index = -1
                st.dropped += 1
            frame = [layer, clock(), 0, index]
            stack.append(frame)
            st.depth[layer] = st.depth.get(layer, 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                st.calls[layer] = st.calls.get(layer, 0) + 1
                st.self_ns[layer] = (
                    st.self_ns.get(layer, 0) + duration - frame[2]
                )
                depth = st.depth[layer] - 1
                st.depth[layer] = depth
                if depth == 0:
                    st.incl_ns[layer] = st.incl_ns.get(layer, 0) + duration
                if stack:
                    stack[-1][2] += duration
                else:
                    st.root_by_rid[st.rid] = (
                        st.root_by_rid.get(st.rid, 0) + duration
                    )
                if index >= 0:
                    st.spans[index] = (layer, frame[1], end, parent, st.rid)
                st.rid = saved_rid

        return traced

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS` (idempotent per tracer)."""
        if self._patched:
            return
        targets = []
        for layer, entries in LAYERS.items():
            for entry in entries:
                module_name, _, qualname = entry.partition(":")
                targets.append((layer, importlib.import_module(module_name),
                                qualname))
        loaded = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))
        ]
        for layer, module, qualname in targets:
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(layer, original))
                self._patched.append((cls, attr, original))
                continue
            original = getattr(module, qualname)
            wrapped = self._wrap(layer, original)
            for holder in loaded:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapped)
                        self._patched.append((holder, attr, original))

    def uninstall(self) -> None:
        """Restore every original entry point."""
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # -- export -------------------------------------------------------------------

    def layers(self) -> dict[str, dict[str, float]]:
        """``layer -> {calls, self_s, incl_s}`` merged over threads."""
        out: dict[str, dict[str, float]] = {}
        for st in self._threads:
            for layer, calls in st.calls.items():
                row = out.setdefault(
                    layer, {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
                )
                row["calls"] += calls
                row["self_s"] += st.self_ns.get(layer, 0) / 1e9
                row["incl_s"] += st.incl_ns.get(layer, 0) / 1e9
        return out

    def root_seconds(self) -> dict[str, float]:
        """Request id -> seconds spent in its outermost spans."""
        out: dict[str, float] = {}
        for st in self._threads:
            for rid, ns in st.root_by_rid.items():
                if rid is not None:
                    out[str(rid)] = out.get(str(rid), 0.0) + ns / 1e9
        return out

    def spans(self) -> list[tuple]:
        """``(tid, layer, start_ns, end_ns, parent, rid)`` for kept spans."""
        return [
            (st.tid, *span)
            for st in self._threads
            for span in st.spans
            if span is not None
        ]

    def dropped(self) -> int:
        return sum(st.dropped for st in self._threads)

    def dump(self, path: str, **extra: Any) -> None:
        """Write this process's aggregates and spans for the harness."""
        payload = {
            "pid": os.getpid(),
            "layers": self.layers(),
            "roots": self.root_seconds(),
            "spans": self.spans(),
            "dropped": self.dropped(),
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def merge_layers(
    into: dict[str, dict[str, float]], more: dict[str, dict[str, float]]
) -> dict[str, dict[str, float]]:
    """Add one ``layers()`` table into another (in place)."""
    for layer, row in more.items():
        dest = into.setdefault(layer, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        for key, value in row.items():
            dest[key] = dest.get(key, 0) + value
    return into


def chrome_events(
    spans: list, pid: int, process_name: str, origin_ns: int
) -> list[dict[str, Any]]:
    """Chrome trace-event ``X`` records (microseconds from *origin_ns*)."""
    events: list[dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": pid,
         "args": {"name": process_name}},
    ]
    for tid, layer, start, end, parent, rid in spans:
        event = {
            "name": layer,
            "cat": layer.split(".")[0],
            "ph": "X",
            "ts": (start - origin_ns) / 1000.0,
            "dur": (end - start) / 1000.0,
            "pid": pid,
            "tid": tid,
        }
        if rid is not None:
            event["args"] = {"rid": str(rid)}
        events.append(event)
    return events


def load_child(path: str) -> Optional[dict[str, Any]]:
    """Read a child's :meth:`Tracer.dump` file (None if it never wrote one)."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
