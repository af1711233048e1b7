"""ProcessScheduler: multi-core graph execution behind the Task contract.

Payloads here are module-level classes — the process backend ships each
task to a worker process with ``pickle``, and the tests cover exactly
that contract: the pickle-safety audit (and its threaded fallback),
dependency values crossing the boundary, cache/checkpoint composition,
retries and fault plans inside workers, deterministic journal-shard
merging, dead-worker containment, and cooperative cancellation — and
the :class:`WorkerPool` under it (the pool ``popper serve`` runs on too):
grace-poll kill -9 attribution, respawn, and drain.
"""

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass

import pytest

from repro.common.crash import SimulatedCrash
from repro.common.errors import (
    EngineError,
    UnpicklablePayloadError,
    WorkerCrashError,
)
from repro.engine import (
    CancelToken,
    FaultPlan,
    ProcessScheduler,
    RetryPolicy,
    RunCancelled,
    RunOptions,
    RunStateStore,
    TaskGraph,
    TaskState,
    audit_pickle_safety,
    resolve_backend,
)
from repro.engine.procsched import WorkerPool, worker_loop
from repro.engine.scheduler import SerialScheduler, ThreadedScheduler
from repro.monitor.journal import RunJournal, read_journal
from repro.monitor.tracing import Tracer


class Square:
    def __init__(self, n):
        self.n = n

    def __call__(self, ctx):
        return self.n * self.n


class SumDeps:
    def __call__(self, ctx):
        return sum(ctx.results.values())


class Fail:
    def __call__(self, ctx):
        raise ValueError("injected failure")


class HardCrash:
    """Dies without reporting — the kill -9 of a worker."""

    def __call__(self, ctx):
        os._exit(13)


class Abort:
    def __call__(self, ctx):
        raise SimulatedCrash("worker-side", 1)


class UnpicklableValue:
    """Runs fine but returns something that cannot cross the boundary."""

    def __call__(self, ctx):
        return threading.Lock()


class Sleep:
    def __init__(self, seconds, value=None):
        self.seconds = seconds
        self.value = value

    def __call__(self, ctx):
        time.sleep(self.seconds)
        return self.value


def diamond():
    graph = TaskGraph()
    graph.add("a", Square(2))
    graph.add("b", Square(3), dependencies=("a",))
    graph.add("c", Square(4), dependencies=("a",))
    graph.add("total", SumDeps(), dependencies=("b", "c"))
    return graph


def test_runs_graph_and_passes_dependency_values():
    recap = ProcessScheduler(max_workers=2).run(diamond())
    assert {t: o.state for t, o in recap.outcomes.items()} == {
        "a": TaskState.OK,
        "b": TaskState.OK,
        "c": TaskState.OK,
        "total": TaskState.OK,
    }
    assert recap.value("total") == 9 + 16


def test_failure_propagates_and_independent_branches_survive():
    graph = TaskGraph()
    graph.add("bad", Fail())
    graph.add("child", Square(1), dependencies=("bad",))
    graph.add("indep", Square(5))
    recap = ProcessScheduler(max_workers=2).run(graph)
    assert recap.outcome("bad").state is TaskState.FAILED
    assert isinstance(recap.outcome("bad").error, ValueError)
    assert str(recap.outcome("bad").error) == "injected failure"
    assert recap.outcome("child").state is TaskState.SKIPPED
    assert recap.outcome("child").blamed_on == "bad"
    assert recap.value("indep") == 25


def test_optional_task_degrades_instead_of_failing():
    graph = TaskGraph()
    graph.add("flaky", Fail(), optional=True)
    graph.add("after", Square(2), dependencies=("flaky",))
    recap = ProcessScheduler(max_workers=2).run(graph)
    assert recap.outcome("flaky").state is TaskState.DEGRADED
    assert recap.value("after") == 4


# -- pickle-safety audit ---------------------------------------------------------


def test_audit_reports_unpicklable_payloads():
    graph = TaskGraph()
    graph.add("ok", Square(1))
    graph.add("closure", lambda ctx: 1)
    problems = audit_pickle_safety(graph)
    assert set(problems) == {"closure"}
    assert "closure" in problems and problems["closure"]


def test_unpicklable_payload_falls_back_to_threaded(tmp_path):
    graph = TaskGraph()
    graph.add("closure", lambda ctx: 41 + 1)
    journal = RunJournal(tmp_path / "journal.jsonl")
    tracer = Tracer(journal=journal)
    with pytest.warns(UserWarning, match="falling back to the threaded"):
        recap = ProcessScheduler(max_workers=2).run(graph, tracer=tracer)
    journal.close()
    assert recap.value("closure") == 42
    events = read_journal(tmp_path / "journal.jsonl")
    fallbacks = [e for e in events if e["event"] == "scheduler_fallback"]
    assert fallbacks and fallbacks[0]["using"] == "threaded"
    assert fallbacks[0]["tasks"] == ["closure"]
    # The fallback ran the task for real, under its own span.
    assert any(
        e["event"] == "span_end" and e["name"] == "task/closure"
        for e in events
    )


def test_unpicklable_return_value_fails_the_task():
    graph = TaskGraph()
    graph.add("lock", UnpicklableValue())
    graph.add("dep", Square(3), dependencies=("lock",))
    recap = ProcessScheduler(max_workers=1).run(graph)
    assert recap.outcome("lock").state is TaskState.FAILED
    assert isinstance(recap.outcome("lock").error, UnpicklablePayloadError)
    assert recap.outcome("dep").state is TaskState.SKIPPED


# -- resilience inside workers ---------------------------------------------------


def test_retries_and_fault_plans_execute_in_the_worker(tmp_path):
    graph = TaskGraph()
    graph.add("flaky", Square(6))
    journal = RunJournal(tmp_path / "journal.jsonl")
    tracer = Tracer(journal=journal)
    options = RunOptions(
        retry=RetryPolicy(max_attempts=3, backoff_s=0.0),
        faults=FaultPlan.parse("flaky:flaky:2"),
    )
    recap = ProcessScheduler(max_workers=1).run(
        graph, tracer=tracer, options=options
    )
    journal.close()
    outcome = recap.outcome("flaky")
    assert outcome.state is TaskState.OK
    assert outcome.attempts == 3
    assert recap.value("flaky") == 36
    events = read_journal(tmp_path / "journal.jsonl")
    attempts = [e["attempt"] for e in events if e["event"] == "attempt"]
    assert attempts == [1, 2, 3]
    span_ends = {e["name"] for e in events if e["event"] == "span_end"}
    assert {"task/flaky", "task/flaky/attempt-3"} <= span_ends


def test_worker_crash_fails_only_its_task():
    graph = TaskGraph()
    graph.add("boom", HardCrash())
    for i in range(3):
        graph.add(f"ok-{i}", Square(i))
    recap = ProcessScheduler(max_workers=2).run(graph)
    assert recap.outcome("boom").state is TaskState.FAILED
    assert isinstance(recap.outcome("boom").error, WorkerCrashError)
    assert "exit code 13" in str(recap.outcome("boom").error)
    for i in range(3):
        assert recap.outcome(f"ok-{i}").state is TaskState.OK


def test_abort_propagates_and_drains():
    graph = TaskGraph()
    graph.add("abort", Abort())
    graph.add("slow", Sleep(0.2, "done"))
    sched = ProcessScheduler(max_workers=2)
    with pytest.raises(SimulatedCrash):
        sched.run(graph)


def test_cancel_token_drains_without_new_dispatch():
    graph = TaskGraph()
    graph.add("first", Sleep(0.5, "a"))
    graph.add("second", Sleep(0.0, "b"), dependencies=("first",))
    token = CancelToken()
    threading.Timer(0.1, token.cancel).start()
    with pytest.raises(RunCancelled):
        ProcessScheduler(max_workers=2).run(
            graph, options=RunOptions(cancel=token)
        )


def test_checkpoint_restores_on_second_run(tmp_path):
    graph = TaskGraph()
    graph.add(
        "work",
        Square(7),
        fingerprint="fp-work",
        checkpoint=lambda value: {"value": value},
        restore=lambda detail: detail["value"],
    )
    state = tmp_path / "state.jsonl"
    with RunStateStore(state) as store:
        first = ProcessScheduler(max_workers=1).run(
            graph, options=RunOptions(run_state=store)
        )
    assert first.value("work") == 49
    with RunStateStore(state, resume=True) as store:
        second = ProcessScheduler(max_workers=1).run(
            graph, options=RunOptions(run_state=store)
        )
    assert second.outcome("work").restored
    assert second.value("work") == 49


# -- journal shard merging -------------------------------------------------------


def test_merged_journal_is_one_tree_in_graph_order(tmp_path):
    journal = RunJournal(tmp_path / "journal.jsonl")
    tracer = Tracer(journal=journal)
    with tracer.span("root"):
        ProcessScheduler(max_workers=2).run(diamond(), tracer=tracer)
    journal.close()
    events = read_journal(tmp_path / "journal.jsonl")
    seqs = [e["seq"] for e in events]
    assert seqs == list(range(1, len(events) + 1))
    # Task spans appear in graph insertion order regardless of which
    # worker ran them, each re-parented under the calling span.
    root_id = events[0]["span_id"]
    task_starts = [
        e for e in events if e["event"] == "span_start" and e["seq"] > 1
    ]
    assert [e["name"] for e in task_starts] == [
        "task/a", "task/b", "task/c", "task/total",
    ]
    assert all(e["parent_id"] == root_id for e in task_starts)
    assert all("worker" in e for e in task_starts)
    # Remapped span ids are unique across shards.
    ids = [e["span_id"] for e in task_starts]
    assert len(set(ids)) == len(ids)
    # The in-memory tracer sees the same single tree.
    assert tracer.span_tree() == [
        "root (ok)",
        "  task/a (ok)",
        "  task/b (ok)",
        "  task/c (ok)",
        "  task/total (ok)",
    ]


# -- the worker pool -------------------------------------------------------------


@dataclass
class Nap:
    """A pool job: sleep, then report."""

    job_id: str
    seconds: float = 0.0


def nap_worker(index, jobs_q, results_q, scratch):
    def step(job):
        time.sleep(job.seconds)
        return {"job": job.job_id, "worker": index}

    worker_loop(index, jobs_q, results_q, scratch, step)


def wait_for(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.01)
    raise AssertionError("condition not reached in time")


def kill_worker(pool, index):
    os.kill(pool.workers[index].pid, signal.SIGKILL)
    pool.workers[index].join(5.0)


def test_pool_attributes_a_killed_job_after_the_grace_poll_and_respawns():
    pool = WorkerPool(2, nap_worker)
    pool.start()
    try:
        pool.dispatch(Nap("slow", 30.0))
        running = wait_for(pool.current_jobs)
        [(index, job_id)] = running.items()
        assert job_id == "slow"
        kill_worker(pool, index)
        # The first reap only sees the death; attribution waits a poll.
        assert pool.reap() == {}
        assert pool.alive_count() == 1
        lost = pool.reap()
        assert list(lost) == ["slow"]
        assert f"worker process {index} died (exit code -9)" == lost["slow"]
        assert pool.alive_count() == pool.size == 2
        assert pool.reap() == {}  # attributed once, never again
        pool.dispatch(Nap("after"))
        [record] = wait_for(pool.poll)
        assert record["job"] == "after"
    finally:
        pool.drain()


def test_pool_reap_without_respawn_leaves_the_pool_short():
    pool = WorkerPool(2, nap_worker)
    pool.start()
    try:
        kill_worker(pool, 0)  # idle: its marker names no job
        assert pool.reap(respawn=False) == {}
        assert pool.reap(respawn=False) == {}
        assert pool.alive_count() == 1
        assert len(pool.workers) == 2
    finally:
        pool.drain()


def test_pool_drain_stops_every_worker_and_removes_scratch():
    pool = WorkerPool(2, nap_worker)
    pool.start()
    pool.dispatch(Nap("quick", 0.05))
    procs = list(pool.workers)
    scratch = pool.scratch
    assert scratch.is_dir()
    pool.drain()
    assert not any(proc.is_alive() for proc in procs)
    assert not set(procs) & set(multiprocessing.active_children())
    assert not scratch.exists()
    assert pool.alive_count() == 0 and pool.poll() == []
    pool.drain()  # idempotent


def test_every_worker_dead_fails_the_remaining_inflight_tasks():
    graph = TaskGraph()
    graph.add("boom", HardCrash())
    graph.add("queued", Square(3))
    started = time.monotonic()
    recap = ProcessScheduler(max_workers=1).run(graph)
    assert time.monotonic() - started < 30.0
    for tid in ("boom", "queued"):
        outcome = recap.outcome(tid)
        assert outcome.state is TaskState.FAILED
        assert isinstance(outcome.error, WorkerCrashError)
    assert "every worker process died" in str(recap.outcome("queued").error)


# -- backend resolution ----------------------------------------------------------


def test_resolve_backend_auto_policy():
    scheduler, workers, warning = resolve_backend("auto", 1)
    assert isinstance(scheduler, SerialScheduler)
    assert (workers, warning) == (1, None)
    scheduler, workers, _ = resolve_backend("auto", 3)
    assert isinstance(scheduler, ThreadedScheduler)
    assert workers == 3


def test_resolve_backend_process_clamps_to_cpu_count():
    cpus = os.cpu_count() or 1
    scheduler, workers, warning = resolve_backend("process", cpus + 5)
    assert isinstance(scheduler, ProcessScheduler)
    assert workers == cpus
    assert warning is not None and "clamping" in warning


def test_resolve_backend_threaded_warns_without_clamping():
    cpus = os.cpu_count() or 1
    scheduler, workers, warning = resolve_backend("threaded", cpus + 5)
    assert isinstance(scheduler, ThreadedScheduler)
    assert workers == cpus + 5
    assert warning is not None and "GIL" in warning


def test_resolve_backend_rejects_unknown_names():
    with pytest.raises(EngineError):
        resolve_backend("quantum", 2)
    with pytest.raises(EngineError):
        resolve_backend("process", 0)
