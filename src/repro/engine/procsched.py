"""The process-parallel scheduler: true multi-core graph execution.

``ThreadedScheduler`` overlaps I/O but not computation — the experiment
payloads are pure-Python and GIL-bound, which is why ``BENCH_engine.json``
historically showed ``-j 4`` *slower* than serial.  ``ProcessScheduler``
runs the same :class:`~repro.engine.graph.TaskGraph` contract on a pool
of worker *processes*, so independent tasks use independent cores.

Design:

* **Pickle-safety audit, then fallback.** Payloads must cross a process
  boundary.  Before spawning anything the scheduler audits every task
  (:func:`audit_pickle_safety`); closures and lambdas fail the audit and
  the run demotes itself to the configured in-process fallback
  (threaded by default), journaling a ``scheduler_fallback`` event —
  or raises :class:`~repro.common.errors.UnpicklablePayloadError` when
  ``fallback=None``.  A task whose *dependency values* turn out
  unpicklable at dispatch time runs inline in the parent instead.
* **Work-stealing over topological levels.** All ready tasks — from
  whichever topological levels are currently unlocked — share one job
  queue; an idle worker pulls the next ready task regardless of level,
  so uneven stage durations never leave cores idle behind a level
  barrier.
* **Parent-side cache and checkpoint.** The parent performs the
  artifact-store lookup (CACHED short-circuit *before* dispatch), the
  run-state restore, and — when a worker reports success — the cache
  filing and checkpoint append, so stores need no cross-process
  coordination beyond their existing inter-process locks.
* **Worker-side resilience.** Retry policies, per-task deadlines and
  fault plans ship with each job and execute inside the worker, exactly
  as the in-process backends run them (the shared
  :meth:`~repro.engine.scheduler.Scheduler._run_task` machinery runs in
  the worker).  Fault-plan counters ship as per-job snapshots; every
  attempt of a task runs inside one worker, so the deterministic
  per-task fault sequences are preserved.
* **Journal shards, merged deterministically.** Each worker journals
  its task spans into a private JSONL shard.  At join the parent merges
  the shards into the run's real journal *per task in graph insertion
  order* (so the merged journal does not depend on which worker ran
  what), remapping shard-local span ids via
  :meth:`~repro.monitor.tracing.Tracer.reserve_span_ids` and
  re-parenting shard roots under the calling span — ``popper trace`` /
  ``popper log`` see one tree.
* **Cooperative shutdown and crash containment.** A set
  :class:`~repro.engine.shutdown.CancelToken` stops new dispatch;
  in-flight experiments drain and checkpoint, then
  :class:`~repro.engine.shutdown.RunCancelled` raises as usual.  A
  worker that dies without reporting (hard crash, ``kill -9``) fails
  only its in-flight task with
  :class:`~repro.common.errors.WorkerCrashError`; a replacement worker
  is spawned and the rest of the graph keeps running.

Values and errors returned by workers are round-trip-checked before
shipping: an unpicklable task value fails the task with
:class:`UnpicklablePayloadError` (dependents cannot receive it), and an
unpicklable exception degrades to an :class:`EngineError` carrying the
original type name and message.
"""

from __future__ import annotations

import os
import pickle
import queue as queue_mod
import shutil
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.common.errors import (
    EngineError,
    UnpicklablePayloadError,
    WorkerCrashError,
)
from repro.engine.cache import MemoizedPayload
from repro.engine.faults import FaultPlan
from repro.engine.graph import (
    GraphResult,
    ReadySet,
    Task,
    TaskGraph,
    TaskOutcome,
    TaskState,
)
from repro.engine.resilience import RetryPolicy
from repro.engine.scheduler import (
    RunOptions,
    Scheduler,
    SerialScheduler,
    ThreadedScheduler,
)
from repro.monitor.journal import RunJournal, load_journal, replay_events
from repro.monitor.tracing import SPAN_METRIC, Span, Tracer

__all__ = ["ProcessScheduler", "audit_pickle_safety", "START_METHOD"]

#: How worker processes start: fork is cheapest and inherits the
#: installed crash plan; spawn is the portable fallback.
START_METHOD = "fork" if hasattr(os, "fork") else "spawn"


def _executable(payload: Any) -> Any:
    """The part of a payload that must cross the process boundary.

    A :class:`MemoizedPayload` ships only its inner callable — the cache
    protocol (key/outputs/meta/restore closures) runs parent-side, where
    the artifact store lives.
    """
    if isinstance(payload, MemoizedPayload):
        return payload.fn
    return payload


def audit_pickle_safety(graph: TaskGraph) -> dict[str, str]:
    """task id -> reason, for every payload that cannot be dispatched."""
    problems: dict[str, str] = {}
    for task in graph:
        try:
            pickle.dumps(_executable(task.payload))
        except Exception as exc:
            problems[task.id] = f"{type(exc).__name__}: {exc}"
    return problems


@dataclass
class _Job:
    """One dispatched task: everything a worker needs to run it."""

    task_id: str
    payload: Any
    results: dict[str, Any]
    states: dict[str, TaskState]
    retry: RetryPolicy | None
    timeout_s: float | None
    optional: bool
    faults: FaultPlan | None


class _WorkerRunner(Scheduler):
    """Runs one task inside a worker process via the shared machinery.

    Reusing :meth:`Scheduler._run_task` gives worker-side execution the
    exact span / attempt / retry / deadline / fault semantics of the
    in-process backends.  Cache and run-state stores are absent in the
    worker (both halves of that protocol run parent-side).
    """

    backend = "process"


def _sanitize(record: dict, optional: bool) -> bytes:
    """Pickle a done-record, degrading unshippable values/errors.

    The round trip runs worker-side so a bad record can never poison the
    result queue (``mp.Queue`` pickles in a background thread whose
    errors are silently swallowed — a lost message would deadlock the
    parent).
    """
    try:
        blob = pickle.dumps(("done", record))
        pickle.loads(blob)
        return blob
    except Exception:
        pass
    try:
        pickle.loads(pickle.dumps(record["value"]))
    except Exception as exc:
        record = dict(
            record,
            state=(TaskState.DEGRADED if optional else TaskState.FAILED).value,
            value=None,
            error=UnpicklablePayloadError(
                f"task {record['task']!r} returned a value that cannot "
                f"cross the process boundary ({type(exc).__name__}: {exc})"
            ),
        )
    try:
        pickle.loads(pickle.dumps(record["error"]))
    except Exception:
        error = record["error"]
        record = dict(
            record, error=EngineError(f"{type(error).__name__}: {error}")
        )
    return pickle.dumps(("done", record))


def _run_job(
    runner: _WorkerRunner, job: _Job, tracer: Tracer, worker: int
) -> dict:
    """Execute one job; returns the (not yet sanitized) done-record."""
    task = Task(
        id=job.task_id,
        payload=job.payload,
        dependencies=tuple(job.states),
        retry=job.retry,
        timeout_s=job.timeout_s,
        optional=job.optional,
    )
    result = GraphResult()
    for dep, state in job.states.items():
        result.outcomes[dep] = TaskOutcome(
            task_id=dep, state=state, value=job.results.get(dep)
        )
    journal = tracer.journal
    first_seq = len(journal) if journal is not None else 0
    started = time.perf_counter()
    try:
        outcome = runner._run_task(
            task, result, tracer, None, RunOptions(faults=job.faults)
        )
    except BaseException as exc:
        # _run_task already recorded + journaled the ABORTED outcome.
        outcome = result.outcomes.get(job.task_id) or TaskOutcome(
            task_id=job.task_id,
            state=TaskState.ABORTED,
            error=exc,
            seconds=time.perf_counter() - started,
        )
    last_seq = len(journal) if journal is not None else 0
    return {
        "task": job.task_id,
        "state": outcome.state.value,
        "value": outcome.value,
        "error": outcome.error,
        "seconds": outcome.seconds,
        "attempts": outcome.attempts,
        "worker": worker,
        "span_range": (first_seq, last_seq) if journal is not None else None,
    }


def _worker_main(
    index: int, jobs_q, results_q, shard_path: str | None, marker_path: str
) -> None:
    """Worker loop: pull job blobs until the ``None`` sentinel arrives.

    Before each payload runs, the task id is written *synchronously* to
    this worker's marker file.  A queue message would not survive a hard
    crash (``os._exit`` kills ``mp.Queue``'s feeder thread before it
    flushes), but the marker file does — it is how the parent attributes
    an unreported task to a dead worker.
    """
    journal = RunJournal(shard_path) if shard_path else None
    tracer = Tracer(journal=journal)
    runner = _WorkerRunner()
    marker = Path(marker_path)
    try:
        while True:
            blob = jobs_q.get()
            if blob is None:
                break
            job: _Job = pickle.loads(blob)
            marker.write_text(job.task_id, encoding="utf-8")
            record = _run_job(runner, job, tracer, index)
            results_q.put(_sanitize(record, job.optional))
            marker.write_text("", encoding="utf-8")
    finally:
        if journal is not None:
            journal.close()


class ProcessScheduler(Scheduler):
    """Runs independent tasks concurrently on a process pool."""

    backend = "process"

    #: How long to wait on the result queue before checking for dead
    #: workers and cancellation (seconds).
    POLL_S = 0.1

    def __init__(
        self,
        max_workers: int | None = None,
        fallback: str | None = "threaded",
    ) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise EngineError(f"max_workers must be >= 1, got {max_workers}")
        if fallback not in (None, "serial", "threaded"):
            raise EngineError(
                f"fallback must be 'serial', 'threaded' or None, got {fallback!r}"
            )
        self.max_workers = max_workers
        self.fallback = fallback

    # -- plumbing ----------------------------------------------------------------
    def _context(self):
        import multiprocessing as mp

        return mp.get_context(START_METHOD)

    def _fallback_scheduler(self) -> Scheduler:
        if self.fallback == "serial":
            return SerialScheduler()
        return ThreadedScheduler(max_workers=self.max_workers)

    # -- execution ---------------------------------------------------------------
    def _execute(self, graph, result, tracer, parent, options):
        if len(graph) == 0:
            return
        journal = tracer.journal
        problems = audit_pickle_safety(graph)
        if problems:
            detail = "; ".join(
                f"{tid}: {reason}" for tid, reason in sorted(problems.items())
            )
            if self.fallback is None:
                raise UnpicklablePayloadError(
                    f"{len(problems)} task payload(s) cannot cross a "
                    f"process boundary: {detail}"
                )
            demoted = self._fallback_scheduler()
            if journal is not None:
                journal.event(
                    "scheduler_fallback",
                    requested="process",
                    using=demoted.backend,
                    reason="unpicklable payloads",
                    tasks=sorted(problems),
                )
            warnings.warn(
                f"process backend: {len(problems)} payload(s) are not "
                f"pickle-safe ({detail}); falling back to the "
                f"{demoted.backend} scheduler",
                stacklevel=3,
            )
            return demoted._execute(graph, result, tracer, parent, options)
        self._run_pool(graph, result, tracer, parent, options)

    def _run_pool(self, graph, result, tracer, parent, options):
        ctx = self._context()
        journal = tracer.journal
        cancel = options.cancel
        parent_id = parent.span_id if parent is not None else None
        ready = ReadySet(graph)
        jobs_q = ctx.Queue()
        results_q = ctx.Queue()
        workers: list = []
        reaped: set[int] = set()
        dead_seen: set[int] = set()
        shard_paths: dict[int, Path] = {}
        marker_paths: dict[int, Path] = {}
        scratch = Path(tempfile.mkdtemp(prefix="popper-procsched-"))
        inflight: set[str] = set()
        done_records: dict[str, dict] = {}
        abort_error: BaseException | None = None

        def draining() -> bool:
            return abort_error is not None or (
                cancel is not None and cancel.cancelled
            )

        def spawn_worker() -> None:
            index = len(workers)
            shard = None
            if journal is not None:
                shard = scratch / f"shard-{index}.jsonl"
                shard_paths[index] = shard
            marker = scratch / f"running-{index}"
            marker_paths[index] = marker
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    index,
                    jobs_q,
                    results_q,
                    str(shard) if shard else None,
                    str(marker),
                ),
                daemon=True,
                name=f"popper-worker-{index}",
            )
            proc.start()
            workers.append(proc)

        def advance(task_id: str, outcome: TaskOutcome) -> list[str]:
            """Ready-set bookkeeping after one finished outcome."""
            if outcome.state is TaskState.FAILED:
                self._propagate_failure(graph, ready, result, task_id)
                return ready.take_ready()
            return ready.complete(task_id)

        def dispatch(task_ids: list[str]) -> None:
            pending = list(task_ids)
            while pending:
                nonlocal abort_error
                tid = pending.pop(0)
                if draining():
                    # Drain: hand out nothing new.  Undispatched tasks
                    # keep no run-state record, so --resume re-runs them.
                    continue
                task = graph.task(tid)
                short = self._try_cache(task, options, journal)
                if short is None:
                    short = self._try_restore(task, options, journal)
                if short is not None:
                    # CACHED / restored: completed without dispatching.
                    result.outcomes[tid] = short
                    self._record_state(task, short, options)
                    pending.extend(advance(tid, short))
                    continue
                job = _Job(
                    task_id=tid,
                    payload=_executable(task.payload),
                    results={
                        dep: result.outcomes[dep].value
                        for dep in task.dependencies
                        if result.outcomes[dep].state
                        in (TaskState.OK, TaskState.CACHED)
                    },
                    states={
                        dep: result.outcomes[dep].state
                        for dep in task.dependencies
                    },
                    retry=task.retry if task.retry is not None else options.retry,
                    timeout_s=(
                        task.timeout_s
                        if task.timeout_s is not None
                        else options.timeout_s
                    ),
                    optional=task.optional,
                    faults=options.faults,
                )
                try:
                    blob = pickle.dumps(job)
                except Exception as exc:
                    # A dependency value that cannot cross the boundary:
                    # run this one task in the parent instead.
                    if journal is not None:
                        journal.event(
                            "scheduler_fallback",
                            requested="process",
                            using="inline",
                            reason=f"{type(exc).__name__}: {exc}",
                            tasks=[tid],
                        )
                    try:
                        outcome = self._run_task(
                            task, result, tracer, parent, options
                        )
                    except BaseException as aborted:
                        abort_error = aborted
                        continue
                    result.outcomes[tid] = outcome
                    pending.extend(advance(tid, outcome))
                    continue
                jobs_q.put(blob)
                inflight.add(tid)

        def on_done(record: dict) -> None:
            nonlocal abort_error
            tid = record["task"]
            if tid not in inflight:
                # Already written off (e.g. its worker was presumed dead
                # and the record surfaced late): first verdict stands.
                return
            inflight.discard(tid)
            done_records[tid] = record
            outcome = TaskOutcome(
                task_id=tid,
                state=TaskState(record["state"]),
                value=record["value"],
                error=record["error"],
                seconds=float(record["seconds"]),
                attempts=int(record["attempts"]),
            )
            result.outcomes[tid] = outcome
            task = graph.task(tid)
            if outcome.state is TaskState.ABORTED:
                # The worker journaled task_aborted into its shard; the
                # parent checkpoints the outcome and starts draining.
                self._record_state(task, outcome, options)
                if abort_error is None:
                    abort_error = (
                        outcome.error
                        if isinstance(outcome.error, BaseException)
                        else EngineError(f"task {tid!r} aborted")
                    )
                return
            self._record_cache(task, outcome, options, journal)
            self._record_state(task, outcome, options)
            dispatch(advance(tid, outcome))

        def fail_inflight(tid: str, reason: str) -> None:
            inflight.discard(tid)
            task = graph.task(tid)
            error = WorkerCrashError(
                f"{reason} without reporting task {tid!r}"
            )
            outcome = TaskOutcome(
                task_id=tid,
                state=TaskState.DEGRADED if task.optional else TaskState.FAILED,
                error=error,
            )
            result.outcomes[tid] = outcome
            self._record_state(task, outcome, options)
            dispatch(advance(tid, outcome))

        def reap_dead_workers() -> None:
            for index, proc in enumerate(workers):
                if index in reaped or proc.exitcode is None:
                    continue
                if index not in dead_seen:
                    # Grace poll: anything the dying worker managed to
                    # flush into the result pipe gets read first, so a
                    # task is only written off once its record is
                    # provably absent.
                    dead_seen.add(index)
                    continue
                reaped.add(index)
                marker = marker_paths.get(index)
                tid = ""
                if marker is not None and marker.is_file():
                    tid = marker.read_text(encoding="utf-8").strip()
                if tid and tid in inflight:
                    fail_inflight(
                        tid,
                        f"worker process {index} died "
                        f"(exit code {proc.exitcode})",
                    )
                if inflight and not draining():
                    # Keep the pool at strength for the remaining graph.
                    spawn_worker()
            if inflight and all(p.exitcode is not None for p in workers):
                # No worker left to ever report these (e.g. a die-off
                # while draining): fail them rather than spin forever.
                for tid in sorted(inflight):
                    fail_inflight(tid, "every worker process died")

        def merge_shards() -> None:
            """Replay every worker's journal shard into the run journal.

            Merged per task in graph insertion order, so the combined
            journal is independent of which worker ran which task; span
            ids are remapped into the parent tracer's id space and shard
            roots are re-parented under the calling span.
            """
            if journal is None:
                return
            shard_events: dict[int, list[dict]] = {}
            for index, path in shard_paths.items():
                if not path.is_file() or path.stat().st_size == 0:
                    continue
                try:
                    shard_events[index] = load_journal(path)[0]
                except Exception:  # a torn shard loses at most one task's spans
                    continue
            slices: list[tuple[int, list[dict]]] = []
            for tid in graph.ids():
                record = done_records.get(tid)
                if not record or not record.get("span_range"):
                    continue
                lo, hi = record["span_range"]
                events = [
                    e
                    for e in shard_events.get(record["worker"], [])
                    if lo < e.get("seq", 0) <= hi
                ]
                if events:
                    slices.append((record["worker"], events))
            keys: list[tuple[int, int]] = []
            seen: set[tuple[int, int]] = set()
            for index, events in slices:
                for event in events:
                    sid = event.get("span_id")
                    if isinstance(sid, int) and (index, sid) not in seen:
                        seen.add((index, sid))
                        keys.append((index, sid))
            base = tracer.reserve_span_ids(len(keys))
            id_map = {key: base + i for i, key in enumerate(keys)}
            # One batched group-commit writer for the whole replay: the
            # merge appends thousands of events and should pay one write
            # per window, not one write+flush per replayed line.
            with journal.batched():
                for index, events in slices:
                    local = {
                        sid: gid for (w, sid), gid in id_map.items() if w == index
                    }
                    replay_events(
                        journal,
                        events,
                        span_id_map=local,
                        default_parent_id=parent_id,
                        worker=index,
                    )
                    self._graft_spans(tracer, events, local, parent_id)

        try:
            for _ in range(min(self.max_workers, len(graph))):
                spawn_worker()
            dispatch(ready.take_ready())
            while inflight:
                try:
                    message = pickle.loads(results_q.get(timeout=self.POLL_S))
                except queue_mod.Empty:
                    reap_dead_workers()
                    continue
                on_done(message[1])
        finally:
            for _ in workers:
                jobs_q.put(None)
            for proc in workers:
                proc.join(timeout=5.0)
            for proc in workers:
                if proc.exitcode is None:  # pragma: no cover - wedged worker
                    proc.terminate()
                    proc.join(timeout=5.0)
            jobs_q.cancel_join_thread()
            results_q.cancel_join_thread()
            try:
                merge_shards()
            finally:
                shutil.rmtree(scratch, ignore_errors=True)

        if abort_error is not None:
            raise abort_error
        if cancel is not None:
            cancel.raise_if_cancelled()
        if not ready.exhausted:  # pragma: no cover - validate() prevents this
            raise EngineError(f"unrunnable tasks left over: {ready.pending()}")

    @staticmethod
    def _graft_spans(
        tracer: Tracer,
        events: list[dict],
        id_map: dict[int, int],
        parent_id: int | None,
    ) -> None:
        """Rebuild finished Span objects from one shard slice.

        In-memory consumers (``tracer.span_tree()``, metric exports) see
        the same tree the merged journal describes.
        """
        starts: dict[int, dict] = {}
        for event in events:
            kind = event.get("event")
            if kind == "span_start":
                starts[event.get("span_id")] = event
            elif kind == "span_end":
                start = starts.pop(event.get("span_id"), None)
                sid = id_map.get(event.get("span_id"))
                if start is None or sid is None:
                    continue
                begun = float(start.get("ts", 0.0))
                span = Span(
                    name=str(event.get("name", "?")),
                    span_id=sid,
                    parent_id=id_map.get(start.get("parent_id"), parent_id),
                    start=begun,
                    end=begun + float(event.get("duration_s", 0.0)),
                    status=str(event.get("status", "ok")),
                    error=str(event.get("error", "")),
                    attributes=dict(event.get("attributes") or {}),
                )
                tracer.graft_span(span)
                if tracer.metrics is not None:
                    tracer.metrics.record(
                        SPAN_METRIC,
                        span.duration,
                        labels={"span": span.name, "status": span.status},
                    )
