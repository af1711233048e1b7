"""Spans and counts recorded around calls into each layer's public
functions, from outside the program.

A :class:`Tracer` wraps the functions named in :data:`TARGETS` (and the
worker-pool hooks of ``popper serve``).  Modules
already imported are patched at once; the rest are patched the moment
they finish importing (a meta-path hook), so a ``from x import f`` that
runs later binds the wrapper too.  Each wrapper records one span — id,
name, start, end, parent span, op id and up to two numbers such as
bytes — into a :class:`Recorder` held in memory and written out when
the process ends.
"""

from __future__ import annotations

import functools
import importlib.abc
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    a: float = 0.0
    b: float = 0.0


class Recorder:
    """Spans (any thread) and per-process counts (main thread only) of
    one process, kept in memory.

    The clock is ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so
    spans from different processes share one time base.
    """

    def __init__(self, op: str = "", clock=time.perf_counter) -> None:
        self.clock = clock
        self.op = op
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.dump_dir: str | None = None
        self._pending: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def after_fork_in_child(self) -> None:
        """A forked child starts empty: the parent reports its own spans."""
        self.spans = []
        self.counts = {}
        self._pending = {}
        self.op = ""
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_thread_op(self, op: str | None) -> None:
        self._local.op = op

    def begin(self, name: str) -> tuple:
        stack = self._stack()
        sid = next(self._ids)
        if stack:
            parent, op = stack[-1][0], stack[-1][2]
        else:
            parent = None
            op = getattr(self._local, "op", None) or self.op or f"{name}#{os.getpid()}:{sid}"
        frame = (sid, name, op, parent, self.clock())
        stack.append(frame)
        return frame

    def end(self, frame: tuple, a: float = 0.0, b: float = 0.0) -> None:
        end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        sid, name, op, parent, start = frame
        self.spans.append(Span(sid, name, start, end, parent, op, a, b))

    def record(self, name: str, start: float, end: float, op: str = "") -> None:
        """A span timed by the caller (no parent)."""
        self.spans.append(Span(next(self._ids), name, start, end, None, op))

    def mark(self, key: str) -> None:
        self._pending[key] = self.clock()

    def close_mark(self, key: str, name: str) -> None:
        start = self._pending.pop(key, None)
        if start is not None:
            self.record(name, start, self.clock(), op=key)

    def dump(self, directory: str | None = None) -> None:
        directory = directory or self.dump_dir
        if directory is None:
            return
        doc = {"pid": os.getpid(), "spans": [list(s) for s in self.spans], "counts": self.counts}
        path = os.path.join(directory, f"{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        os.replace(path + ".tmp", path)


def load_spans(directory) -> tuple[list[Span], list[dict]]:
    """Every span and per-process count dict dumped under *directory*."""
    spans: list[Span] = []
    processes: list[dict] = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            doc = json.load(handle)
        pid = doc["pid"]
        # Span ids are per process; qualify them so they stay unique.
        for row in doc["spans"]:
            sid, sname, start, end, parent, op, a, b = row
            spans.append(
                Span(
                    pid * 10**9 + sid, sname, start, end,
                    None if parent is None else pid * 10**9 + parent, op, a, b,
                )
            )
        processes.append(doc["counts"])
    return spans, processes


# -- arithmetic over spans ---------------------------------------------------------


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = (span.end - span.start) - covered
    return result


def outermost(spans) -> list[Span]:
    """Spans with no ancestor of the same name (recursion counted once)."""
    by_id = {s.id: s for s in spans}
    keep = []
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        while parent is not None and parent.name != span.name:
            parent = by_id.get(parent.parent) if parent.parent is not None else None
        if parent is None:
            keep.append(span)
    return keep


# -- the wrappers ----------------------------------------------------------------


def _graph(args, result):
    outcomes = getattr(result, "outcomes", {}) or {}
    cached = sum(1 for o in outcomes.values() if getattr(o.state, "value", "") == "cached")
    return len(outcomes), cached


def _size(args, result):
    return (float(result) if isinstance(result, (int, float)) else 0.0), 0.0


def _length(args, result):
    return float(len(result)), 0.0


def _ingest(args, result):
    return float(result.size), (0.0 if result.deduped else 1.0)


#: ``(module, attribute path, span name, measure)``.  *measure* maps
#: ``(args, result)`` to the span's two numbers.
TARGETS = (
    ("repro.core.pipeline", "ExperimentPipeline.run", "pipeline.run", None),
    ("repro.core.pipeline", "ExperimentPipeline.run_experiment", "pipeline.experiment", None),
    ("repro.core.pipeline", "ExperimentPipeline.run_validation", "pipeline.validation", None),
    ("repro.core.pipeline", "ExperimentPipeline.validate_existing", "pipeline.validate_existing", None),
    ("repro.engine.scheduler", "Scheduler.run", "engine.run", _graph),
    ("repro.store.artifacts", "ArtifactStore.lookup", "store.lookup", None),
    ("repro.store.artifacts", "ArtifactStore.materialize", "store.materialize", _size),
    ("repro.store.cas", "ContentStore.get_bytes", "store.read", _length),
    ("repro.store.cas", "ContentStore.put_bytes", "store.put", _ingest),
    ("repro.store.cas", "ContentStore.put_file", "store.put", _ingest),
    ("repro.store.pack", "PackReader.get_bytes", "store.pack_read", _length),
    ("repro.common.fsutil", "atomic_write", "fs.atomic_write", None),
    ("repro.common.fsutil", "journal_append", "fs.journal_append", None),
    ("repro.common.groupcommit", "GroupCommitWriter.append", "groupcommit.append", None),
    # Window commits (the fsyncs), whichever public call triggers them.
    ("repro.common.groupcommit", "GroupCommitWriter._commit_locked", "groupcommit.flush", None),
    ("repro.common.locking", "RepoLock.acquire", "lock.acquire", None),
    ("repro.monitor.journal", "RunJournal.event", "journal.event", None),
    ("repro.aver.evaluator", "check_all", "aver.check", None),
    ("repro.check.profiles", "ProfileHistory.attach", "profiles.attach", None),
    ("repro.check.suite", "DetectorSuite.compare_samples", "detectors.compare", None),
    ("repro.check.suite", "DetectorSuite.compare_series", "detectors.compare", None),
    ("repro.serve.daemon", "PopperServer.submit", "serve.submit", None),
    ("repro.serve.queue", "JobQueue.submit", "queue.submit", None),
    ("repro.serve.queue", "JobQueue.claim", "queue.claim", None),
    ("repro.serve.queue", "JobQueue.complete", "queue.complete", None),
)


def span_wrapper(recorder: Recorder, fn, name: str, measure=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = recorder.begin(name)
        a = b = 0.0
        try:
            result = fn(*args, **kwargs)
            if measure is not None:
                a, b = measure(args, result)
            return result
        finally:
            recorder.end(frame, a, b)

    return wrapper


def _serve_wrappers(recorder: Recorder) -> tuple:
    """Wrappers for the worker pool: op ids, dispatch-to-result, flush."""

    def dispatch(fn):
        @functools.wraps(fn)
        def wrapper(self, job):
            recorder.mark(job.job_id)
            return fn(self, job)

        return wrapper

    def poll(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            records = fn(self, *args, **kwargs)
            for record in records:
                recorder.close_mark(str(record.get("job", "")), "workers.dispatch_to_result")
            return records

        return wrapper

    def call(fn):
        @functools.wraps(fn)
        def wrapper(self):
            recorder.set_thread_op(self.job_id)
            try:
                return fn(self)
            finally:
                recorder.set_thread_op(None)

        return wrapper

    def worker_main(fn):
        # A forked worker returns from here when the pool drains; its
        # spans are written before multiprocessing ends the process.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.dump()

        return wrapper

    return (
        ("repro.serve.workers", "WorkerPool.dispatch", dispatch),
        ("repro.serve.workers", "WorkerPool.poll", poll),
        ("repro.serve.workers", "ServeJob.__call__", call),
        ("repro.serve.workers", "_worker_main", worker_main),
    )


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Patches a target module right after it executes."""

    def __init__(self, tracer: "Tracer") -> None:
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.tracer.pending:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        original_exec = loader.exec_module
        tracer = self.tracer

        def exec_module(module):
            original_exec(module)
            tracer.patch_module(module)

        loader.exec_module = exec_module
        return spec


def span_wrappers(recorder: Recorder, targets=TARGETS) -> list:
    """``(module, attribute path, make_wrapper)`` for span targets."""
    return [
        (module, path, functools.partial(span_wrapper, recorder, name=name, measure=measure))
        for module, path, name, measure in targets
    ]


def layer_wrappers(recorder: Recorder) -> list:
    """Every wrapper the traced ``popper`` installs."""
    return span_wrappers(recorder) + list(_serve_wrappers(recorder))


class Tracer:
    """Installs and removes wrappers in this process."""

    def __init__(self, wrappers) -> None:
        self.by_module: dict[str, list[tuple[str, object]]] = defaultdict(list)
        for module, path, make in wrappers:
            self.by_module[module].append((path, make))
        self.pending = set(self.by_module)
        self.patched: list[tuple[object, str, object, object]] = []
        self._hook = _PatchOnImport(self)

    def install(self) -> None:
        sys.meta_path.insert(0, self._hook)
        for name in list(self.pending):
            module = sys.modules.get(name)
            if module is not None:
                self.patch_module(module)

    def patch_module(self, module) -> None:
        if module.__name__ not in self.pending:
            return
        self.pending.discard(module.__name__)
        for path, make in self.by_module[module.__name__]:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            wrapper = make(original)
            setattr(owner, attr, wrapper)
            self.patched.append((owner, attr, original, wrapper))

    def uninstall(self) -> None:
        """Put every original back, including copies bound by ``from``
        imports in other modules."""
        if self._hook in sys.meta_path:
            sys.meta_path.remove(self._hook)
        originals = {id(w): o for _, _, o, w in self.patched}
        for owner, attr, original, _ in reversed(self.patched):
            setattr(owner, attr, original)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if id(value) in originals and callable(value):
                    namespace[key] = originals[id(value)]
        self.patched = []
        self.pending = set(self.by_module)
