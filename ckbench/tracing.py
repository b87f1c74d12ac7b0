"""Spans around each layer's public entry points, from outside ``src/``.

:class:`Tracer` replaces module (and class) attributes with wrappers
that record a span -- name, start, end, parent, process, thread -- and
puts the originals back on :meth:`Tracer.uninstall`.  Every module of
``repro`` that imported a wrapped function by name is patched too, so
``from repro.core.aliases import compute_aliases`` call sites see the
wrapper.  The source files stay unchanged.

Batch pool workers are forked while the wrappers are installed, so
they inherit them; :func:`traced_analyze_task` (swapped in for the
batch worker body) writes each worker's spans to a file the harness
merges after the pass.  Spans are kept in memory and written as a
Chrome trace-event file at the end of a run.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import threading
import time
from typing import Callable, List, Optional, Sequence, Tuple

# (span name, module, attribute) -- an attribute "Class.method" patches
# the class.  ``None`` as the name derives it per call (see _protocol_name).
LAYERS: Tuple[Tuple[Optional[str], str, str], ...] = (
    ("lang.lexer", "repro.lang.lexer", "tokenize_stream"),
    ("lang.parser", "repro.lang.parser", "parse_token_stream"),
    # compile_source (the daemon's update path) parses through here.
    ("lang.parser", "repro.lang.parser", "parse_program"),
    ("lang.semantic", "repro.lang.semantic", "analyze"),
    ("core.arena.build", "repro.core.arena", "ProgramArena.__init__"),
    ("core.arena.patch", "repro.core.arena", "patch_arena"),
    ("core.aliases.compute", "repro.core.aliases", "compute_aliases"),
    ("core.aliases.compute", "repro.core.aliases", "compute_aliases_incremental"),
    ("core.aliases.factor", "repro.core.aliases", "factor_aliases_fused"),
    ("core.aliases.factor", "repro.core.bitplane", "factor_aliases_numpy"),
    ("core.rmod", "repro.core.rmod", "solve_rmod_fused"),
    ("core.rmod", "repro.core.bitplane", "solve_rmod_numpy"),
    ("core.imod_plus", "repro.core.imod_plus", "compute_imod_plus_fused"),
    ("core.gmod", "repro.core.gmod", "findgmod_fused"),
    ("core.gmod", "repro.core.gmod_nested", "findgmod_multilevel_fused"),
    ("core.gmod", "repro.core.gmod_nested", "findgmod_per_level_fused"),
    ("core.gmod", "repro.core.gmod_nested", "solve_equation4_reference_fused"),
    ("core.gmod", "repro.core.bitplane", "solve_gmod_numpy"),
    ("core.dmod", "repro.core.dmod", "compute_dmod_fused"),
    ("core.dmod", "repro.core.bitplane", "compute_dmod_numpy"),
    # The plane <-> big-int shims; they nest inside the phase spans.
    ("core.bitplane", "repro.core.bitplane", "masks_to_plane"),
    ("core.bitplane", "repro.core.bitplane", "plane_to_masks"),
    ("core.pipeline.payload", "repro.core.pipeline", "payload_from_summary"),
    ("core.persist.encode", "repro.core.persist", "encode_summary_payload"),
    ("core.persist.decode", "repro.core.persist", "decode_summary_container"),
    ("service.cache.get", "repro.service.cache", "SummaryCache.get"),
    ("service.cache.put", "repro.service.cache", "SummaryCache.put"),
    ("core.incremental.update", "repro.core.incremental", "incremental_update"),
    ("core.depindex.build", "repro.core.depindex", "build_dependency_index"),
    (None, "repro.server.protocol", "encode"),
    (None, "repro.server.protocol", "decode"),
)


def _protocol_name(function: str) -> str:
    # The client runs on the main thread; the daemon's event loop and
    # solver threads are the others (ide-session runs in process).
    if threading.current_thread() is threading.main_thread():
        return "server.client.%s" % function
    return "server.protocol.%s" % function


class Span:
    __slots__ = ("name", "start", "end", "parent", "pid", "tid", "count")

    def __init__(self, name, start, parent, pid, tid):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent  # index into the same recorder, or -1
        self.pid = pid
        self.tid = tid
        self.count = None  # bytes, tokens, pairs, ... where measured

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.pid, self.tid, self.count]


class Recorder:
    """In-memory span list with a per-thread stack for parent links."""

    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def open(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(
            name,
            time.perf_counter(),
            stack[-1] if stack else -1,
            os.getpid(),
            threading.get_ident(),
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._local.stack.pop()
        return span

    def reset(self) -> None:
        self.spans = []
        self._local = threading.local()

    def extend(self, rows: Sequence[list]) -> None:
        """Append spans recorded elsewhere (a worker process)."""
        with self._lock:
            base = len(self.spans)
            for name, start, end, parent, pid, tid, count in rows:
                span = Span(name, start, parent + base if parent >= 0 else -1, pid, tid)
                span.end = end
                span.count = count
                self.spans.append(span)


def _count_of(name: str, args, result):
    """What a layer span counts, where it counts anything."""
    if name == "lang.lexer":
        return len(result)
    if name == "core.aliases.compute":
        return result.total_pairs()
    if name == "core.persist.decode":
        return len(args[0])
    if name == "core.persist.encode":
        return len(result)
    if name == "service.cache.get":
        return 0 if result is None else 1
    if name == "core.incremental.update":
        stats = result[1]
        return [stats.region_procs, stats.reuse_fraction]
    if name == "server.client.decode":
        return len(args[0])
    return None


#: The tracer whose wrappers forked batch workers inherited (set by
#: :meth:`Tracer.install`, read by :func:`traced_analyze_task`).
_ACTIVE: Optional["Tracer"] = None


def traced_analyze_task(task):
    """Stand-in for ``repro.service.batch._analyze_task`` in a pool
    worker: run the original under a worker-level span, then hand the
    spans to the harness through a file in the tracer's spool."""
    tracer = _ACTIVE
    if tracer is None:
        # A spawned (not forked) worker: no wrappers, so no spans.
        from repro.service.batch import _analyze_task

        return _analyze_task(task)
    recorder = tracer.recorder
    recorder.reset()
    index = recorder.open("service.batch.task")
    outcome = tracer.batch_task(task)
    span = recorder.close(index)
    span.count = len(pickle.dumps(task)) + len(pickle.dumps(outcome))
    path = os.path.join(
        tracer.spool, "w%d-%d.json" % (os.getpid(), time.perf_counter_ns())
    )
    rows = [s.to_list() for s in recorder.spans]
    with open(path + ".tmp", "w") as handle:
        json.dump(rows, handle)
    os.replace(path + ".tmp", path)
    return outcome


class Tracer:
    """Installs and removes the layer wrappers; owns the recorder."""

    def __init__(self, spool: str):
        self.recorder = Recorder()
        self.spool = spool  # Directory for worker span files.
        self.batch_task: Optional[Callable] = None  # The unwrapped worker body.
        self._patches: List[Tuple[object, str, object]] = []

    def _wrap(self, name: Optional[str], function: Callable) -> Callable:
        recorder = self.recorder
        fixed = name

        def wrapper(*args, **kwargs):
            span_name = fixed or _protocol_name(function.__name__)
            index = recorder.open(span_name)
            try:
                result = function(*args, **kwargs)
            finally:
                span = recorder.close(index)
            span.count = _count_of(span_name, args, result)
            return result

        wrapper.__name__ = function.__name__
        wrapper.__qualname__ = getattr(function, "__qualname__", function.__name__)
        wrapper.__wrapped__ = function
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Swap every layer entry point (and every ``repro`` module-level
        binding of it) for its wrapper."""
        global _ACTIVE
        if self._patches:
            raise RuntimeError("tracer already installed")
        import importlib

        for name, module_name, attr in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                self._patch(owner, method, self._wrap(name, getattr(owner, method)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro") and (
                    getattr(other, attr, None) is original
                ):
                    self._patch(other, attr, wrapper)
        from repro.service import batch

        self.batch_task = batch._analyze_task
        self._patch(batch, "_analyze_task", traced_analyze_task)
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        _ACTIVE = None

    def collect_workers(self) -> None:
        """Merge the span files pool workers left in the spool."""
        for entry in sorted(os.listdir(self.spool)):
            if not entry.endswith(".json"):
                continue
            path = os.path.join(self.spool, entry)
            with open(path) as handle:
                self.recorder.extend(json.load(handle))
            os.remove(path)


# -- analysis -----------------------------------------------------------------


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: duration minus the time its direct children cover."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


def covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def write_chrome_trace(path: str, spans: Sequence[Span], t0: float) -> None:
    """Chrome trace-event JSON (complete "X" events, microseconds)."""
    events = []
    for index, span in enumerate(spans):
        args = {"parent": span.parent}
        if span.count is not None:
            args["count"] = span.count
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": round((span.start - t0) * 1e6, 3),
                "dur": round((span.end - span.start) * 1e6, 3),
                "pid": span.pid,
                "tid": span.tid,
                "args": args,
            }
        )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
