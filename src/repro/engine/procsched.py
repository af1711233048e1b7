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
  the run demotes itself to the :class:`ThreadedScheduler`, journaling a
  ``scheduler_fallback`` event.  A task whose *dependency values* turn
  out unpicklable at dispatch time runs inline in the parent instead.
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

The processes themselves come from :class:`WorkerPool`, the one
supervised fork pool in the code base: ``popper serve`` runs its jobs on
the same class (:mod:`repro.serve.workers`), so both share one marker
file per worker, one grace-poll reap and one kill -9 attribution rule.

Values and errors returned by workers are round-trip-checked before
shipping: an unpicklable task value fails the task with
:class:`UnpicklablePayloadError` (dependents cannot receive it), and an
unpicklable exception degrades to an :class:`EngineError` carrying the
original type name and message.
"""

from __future__ import annotations

import functools
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
from repro.engine.scheduler import RunOptions, Scheduler, ThreadedScheduler
from repro.monitor.journal import RunJournal, load_journal, replay_events
from repro.monitor.tracing import SPAN_METRIC, Span, Tracer

__all__ = [
    "ProcessScheduler",
    "WorkerPool",
    "audit_pickle_safety",
    "worker_loop",
    "START_METHOD",
]

#: How worker processes start: fork is cheapest and inherits the
#: installed crash plan; spawn is the portable fallback.
START_METHOD = "fork" if hasattr(os, "fork") else "spawn"


# -- the worker pool ---------------------------------------------------------------


def _marker_path(scratch: str | Path, index: int) -> Path:
    return Path(scratch) / f"running-{index}"


def worker_loop(
    index: int, jobs_q, results_q, scratch: str, step: Callable[[Any], dict]
) -> None:
    """The one worker loop: pull job blobs until the ``None`` sentinel.

    Before each job runs, its ``job_id`` is written *synchronously* to
    this worker's marker file.  A queue message would not survive a hard
    crash (``os._exit`` / ``kill -9`` ends ``mp.Queue``'s feeder thread
    before it flushes), but the marker file does — it is how
    :meth:`WorkerPool.reap` attributes an unreported job to a dead
    worker.  *step* runs one job and returns its record: a dict whose
    ``"job"`` key names the job.
    """
    marker = _marker_path(scratch, index)
    while True:
        blob = jobs_q.get()
        if blob is None:
            break
        job = pickle.loads(blob)
        marker.write_text(job.job_id, encoding="utf-8")
        results_q.put(pickle.dumps(step(job)))
        marker.write_text("", encoding="utf-8")


class WorkerPool:
    """A supervised pool of worker processes with kill -9 attribution.

    *target* is the worker entry, called in each child as
    ``target(index, jobs_q, results_q, scratch)``; it runs
    :func:`worker_loop` with the caller's run step.  Jobs carry a
    ``job_id`` and come back from :meth:`poll` as record dicts whose
    ``"job"`` key names them.  A worker that dies without reporting is
    attributed by :meth:`reap` from its marker file, one grace poll
    after it is first seen dead, so a record that raced the death is
    drained by :meth:`poll` rather than written off.
    """

    def __init__(self, size: int, target: Callable[..., None]) -> None:
        if size < 1:
            raise EngineError(f"worker pool size must be >= 1, got {size}")
        self.size = int(size)
        self.target = target
        self.workers: list = []
        self.scratch: Path | None = None
        self._ctx = None
        self._jobs_q = None
        self._results_q = None

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        import multiprocessing as mp

        if self._ctx is not None:
            raise EngineError("worker pool already started")
        self._ctx = mp.get_context(START_METHOD)
        self._jobs_q = self._ctx.Queue()
        self._results_q = self._ctx.Queue()
        self.scratch = Path(tempfile.mkdtemp(prefix="popper-pool-"))
        self._dead_seen: set[int] = set()
        self._reaped: set[int] = set()
        for _ in range(self.size):
            self._spawn()

    def _spawn(self) -> None:
        index = len(self.workers)
        proc = self._ctx.Process(
            target=self.target,
            args=(index, self._jobs_q, self._results_q, str(self.scratch)),
            daemon=True,
            name=f"popper-worker-{index}",
        )
        proc.start()
        self.workers.append(proc)

    def drain(self, timeout_s: float = 10.0) -> None:
        """Stop the pool: sentinel every live worker, join (terminating
        a wedged one), release the queues, remove the scratch directory."""
        if self._ctx is None:
            return
        for proc in self.workers:
            if proc.is_alive():
                self._jobs_q.put(None)
        deadline = time.monotonic() + timeout_s
        for proc in self.workers:
            proc.join(max(deadline - time.monotonic(), 0.1))
            if proc.is_alive():  # pragma: no cover - wedged worker
                proc.terminate()
                proc.join(1.0)
        # mp.Queue feeder threads must unblock before interpreter exit.
        for q in (self._jobs_q, self._results_q):
            try:
                q.cancel_join_thread()
                q.close()
            except (OSError, ValueError):
                pass
        shutil.rmtree(self.scratch, ignore_errors=True)
        self._ctx = None
        self._jobs_q = None
        self._results_q = None
        self.workers = []

    # -- introspection -----------------------------------------------------------
    def alive_count(self) -> int:
        return sum(1 for p in self.workers if p.is_alive())

    def _marker_job(self, index: int) -> str:
        try:
            text = _marker_path(self.scratch, index).read_text(encoding="utf-8")
        except OSError:
            return ""
        return text.strip()

    def current_jobs(self) -> dict[int, str]:
        """Marker-file view of what each live worker is running now.

        A ``kill -9`` aimed at a worker listed here hits one that has
        *definitely* started its job (the marker write precedes the run,
        synchronously).
        """
        running: dict[int, str] = {}
        for index, proc in enumerate(self.workers):
            job_id = self._marker_job(index) if proc.is_alive() else ""
            if job_id:
                running[index] = job_id
        return running

    # -- dispatch / results ------------------------------------------------------
    def dispatch(self, job) -> None:
        """Queue *job* for the next idle worker; it is pickled here, so
        an unpicklable job raises in the caller."""
        if self._jobs_q is None:
            raise EngineError("worker pool not started")
        self._jobs_q.put(pickle.dumps(job))

    def poll(self, timeout_s: float = 0.05) -> list[dict]:
        """Drain finished-job records (waits up to *timeout_s* for one)."""
        if self._results_q is None:
            return []
        records: list[dict] = []
        try:
            blob = self._results_q.get(timeout=max(timeout_s, 0.0))
            while True:
                records.append(pickle.loads(blob))
                blob = self._results_q.get_nowait()  # the rest, no wait
        except queue_mod.Empty:
            pass
        return records

    def reap(self, respawn: bool = True) -> dict[str, str]:
        """Attribute dead workers' jobs; respawn replacements if asked.

        Returns ``{job id: how its worker died}`` for every job a dead
        worker never reported (a worker killed between jobs has an
        empty marker and loses none).  Each dead worker is attributed on
        the call *after* the one that first sees it dead.
        """
        lost: dict[str, str] = {}
        for index in range(len(self.workers)):
            proc = self.workers[index]
            if index in self._reaped or proc.is_alive():
                continue
            if index not in self._dead_seen:
                self._dead_seen.add(index)  # grace: attribute next call
                continue
            self._reaped.add(index)
            job_id = self._marker_job(index)
            if job_id:
                lost[job_id] = (
                    f"worker process {index} died (exit code {proc.exitcode})"
                )
            if respawn:
                self._spawn()
        return lost


# -- the engine's jobs -------------------------------------------------------------


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

    job_id: str
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


def _sanitize(record: dict, optional: bool) -> dict:
    """A done-record that is safe to ship, degrading unshippable
    values/errors.

    The round trip runs worker-side so a bad record can never poison the
    result queue (``mp.Queue`` pickles in a background thread whose
    errors are silently swallowed — a lost message would deadlock the
    parent).
    """
    try:
        pickle.loads(pickle.dumps(record))
        return record
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
                f"task {record['job']!r} returned a value that cannot "
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
    return record


def _run_job(
    runner: _WorkerRunner, job: _Job, tracer: Tracer, worker: int
) -> dict:
    """Execute one job; returns the (not yet sanitized) done-record."""
    task = Task(
        id=job.job_id,
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
        outcome = result.outcomes.get(job.job_id) or TaskOutcome(
            task_id=job.job_id,
            state=TaskState.ABORTED,
            error=exc,
            seconds=time.perf_counter() - started,
        )
    last_seq = len(journal) if journal is not None else 0
    return {
        "job": job.job_id,
        "state": outcome.state.value,
        "value": outcome.value,
        "error": outcome.error,
        "seconds": outcome.seconds,
        "attempts": outcome.attempts,
        "worker": worker,
        "span_range": (first_seq, last_seq) if journal is not None else None,
    }


def _shard_path(scratch: str | Path, index: int) -> Path:
    return Path(scratch) / f"shard-{index}.jsonl"


def _engine_worker(
    journaled: bool, index: int, jobs_q, results_q, scratch: str
) -> None:
    """The engine's worker entry: one journal shard and one
    :class:`_WorkerRunner` per process, then :func:`worker_loop`."""
    journal = RunJournal(_shard_path(scratch, index)) if journaled else None
    tracer = Tracer(journal=journal)
    runner = _WorkerRunner()

    def step(job: _Job) -> dict:
        return _sanitize(_run_job(runner, job, tracer, index), job.optional)

    try:
        worker_loop(index, jobs_q, results_q, scratch, step)
    finally:
        if journal is not None:
            journal.close()


class ProcessScheduler(Scheduler):
    """Runs independent tasks concurrently on a process pool."""

    backend = "process"

    #: How long to wait on the result queue before checking for dead
    #: workers and cancellation (seconds).
    POLL_S = 0.1

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise EngineError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers

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
            demoted = ThreadedScheduler(max_workers=self.max_workers)
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
        journal = tracer.journal
        cancel = options.cancel
        parent_id = parent.span_id if parent is not None else None
        ready = ReadySet(graph)
        pool = WorkerPool(
            min(self.max_workers, len(graph)),
            functools.partial(_engine_worker, journal is not None),
        )
        inflight: set[str] = set()
        done_records: dict[str, dict] = {}
        abort_error: BaseException | None = None

        def draining() -> bool:
            return abort_error is not None or (
                cancel is not None and cancel.cancelled
            )

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
                    job_id=tid,
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
                    pool.dispatch(job)
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
                inflight.add(tid)

        def on_done(record: dict) -> None:
            nonlocal abort_error
            tid = record["job"]
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
            # Keep the pool at strength for the remaining graph unless
            # draining.
            for tid, reason in pool.reap(respawn=not draining()).items():
                if tid in inflight:
                    fail_inflight(tid, reason)
            if inflight and pool.alive_count() == 0:
                # No worker left to ever report these (e.g. a die-off
                # while draining): fail them rather than spin forever.
                for tid in sorted(inflight):
                    fail_inflight(tid, "every worker process died")

        def merge_shards() -> None:
            """Replay every worker's journal shard into the run journal.

            Merged per task in graph insertion order, so the combined
            journal is independent of which worker ran which task; span
            ids are remapped into the parent tracer's id space and shard
            roots are re-parented under the calling span.  Each worker
            flushes its events to the kernel before it reports, so the
            shard of every received record is complete.
            """
            if journal is None:
                return
            shard_events: dict[int, list[dict]] = {}
            for index in range(len(pool.workers)):
                path = _shard_path(pool.scratch, index)
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
            pool.start()
            dispatch(ready.take_ready())
            while inflight:
                records = pool.poll(self.POLL_S)
                for record in records:
                    on_done(record)
                if not records:
                    reap_dead_workers()
        finally:
            try:
                merge_shards()
            finally:
                pool.drain()

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
