"""The supervised worker pool behind ``popper serve``.

A thin re-application of the :class:`~repro.engine.ProcessScheduler`
machinery to a long-lived service: a fixed pool of worker *processes*
pulling pickled job payloads off a shared queue, with the same two
crash-containment devices —

* **marker-file attribution** — before a payload runs, the worker
  writes the job id *synchronously* to its private marker file.  An
  ``mp.Queue`` message would not survive a hard crash (``kill -9``
  murders the feeder thread before it flushes), but the marker does:
  it is how the supervisor attributes an unreported job to a dead
  worker and fails (i.e. requeues) exactly that job.
* **grace-poll reaping** — a worker observed dead is given one more
  poll before attribution, so a result that was already in the pipe
  when the process died still gets drained rather than double-run.

Dead workers are respawned (unless the pool is draining), so a crashing
payload degrades one job, never the service.  The payload itself —
:class:`ServeJob` — is plain picklable data mirroring
:class:`~repro.core.sweep.SweepExperimentJob`: the worker reopens the
repository from its path and runs the ordinary
:class:`~repro.core.pipeline.ExperimentPipeline` with the shared
artifact store (all inter-process safety comes from ``RepoLock`` and
the store's own locking, proven by the process backend).  Results cross
back as plain dicts of JSON scalars, so the result queue can never be
poisoned by an unpicklable value.
"""

from __future__ import annotations

import pickle
import queue as queue_mod
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.common.errors import ServeError
from repro.engine.procsched import START_METHOD

__all__ = ["ServeJob", "WorkerPool"]


@dataclass
class ServeJob:
    """One queued run request, as the picklable worker payload."""

    job_id: str
    repo_root: str
    experiment: str
    use_cache: bool = True

    def __call__(self) -> dict:
        # Imported here so a forked worker never re-imports at module
        # scope and the payload stays cheap to pickle.
        from repro.core.pipeline import ExperimentPipeline
        from repro.core.repo import PopperRepository

        repo = PopperRepository.open(self.repo_root)
        pipeline = ExperimentPipeline(
            repo,
            self.experiment,
            artifact_store=repo.artifact_store if self.use_cache else None,
            run_meta={"backend": "serve", "job": self.job_id},
        )
        result = pipeline.run(strict=False, resume=False)
        return {
            "rows": len(result.results),
            "validated": bool(result.validated),
            "figures": {
                name: str(path) for name, path in result.figures.items()
            },
        }


def _worker_main(index: int, jobs_q, results_q, marker_path: str) -> None:
    """Worker loop: pull job blobs until the ``None`` sentinel arrives."""
    marker = Path(marker_path)
    while True:
        blob = jobs_q.get()
        if blob is None:
            break
        job: ServeJob = pickle.loads(blob)
        # Synchronous write *before* running: crash attribution.
        marker.write_text(job.job_id, encoding="utf-8")
        started = time.perf_counter()
        try:
            meta = job()
            record = {
                "job": job.job_id,
                "ok": True,
                "meta": meta,
                "seconds": time.perf_counter() - started,
                "worker": index,
            }
        except Exception as exc:
            # BaseException (SimulatedCrash, RunCancelled) deliberately
            # propagates: a crashing worker is the supervisor's problem.
            record = {
                "job": job.job_id,
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "seconds": time.perf_counter() - started,
                "worker": index,
            }
        results_q.put(pickle.dumps(record))
        marker.write_text("", encoding="utf-8")


class WorkerPool:
    """A supervised pool of job-running processes."""

    def __init__(self, size: int = 2) -> None:
        if size < 1:
            raise ServeError(f"worker pool size must be >= 1, got {size}")
        self.size = int(size)
        self.workers: list = []
        self._marker_paths: dict[int, Path] = {}
        self._dead_seen: set[int] = set()
        self._reaped: set[int] = set()
        self._ctx = None
        self._jobs_q = None
        self._results_q = None
        self._scratch: Path | None = None

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        import multiprocessing as mp

        if self._ctx is not None:
            raise ServeError("worker pool already started")
        self._ctx = mp.get_context(START_METHOD)
        self._jobs_q = self._ctx.Queue()
        self._results_q = self._ctx.Queue()
        self._scratch = Path(tempfile.mkdtemp(prefix="popper-serve-"))
        for _ in range(self.size):
            self._spawn()

    def _spawn(self) -> None:
        index = len(self.workers)
        marker = self._scratch / f"running-{index}"
        self._marker_paths[index] = marker
        proc = self._ctx.Process(
            target=_worker_main,
            args=(index, self._jobs_q, self._results_q, str(marker)),
            daemon=True,
            name=f"popper-serve-worker-{index}",
        )
        proc.start()
        self.workers.append(proc)

    def worker_pids(self) -> list[int]:
        """Live worker pids (chaos tests SIGKILL these)."""
        return [p.pid for p in self.workers if p.is_alive() and p.pid]

    def alive_count(self) -> int:
        return sum(1 for p in self.workers if p.is_alive())

    def current_jobs(self) -> dict[int, str]:
        """Marker-file view of what each live worker is running now.

        The smoke check and the chaos tests use this to aim a
        ``kill -9`` at a worker that has *definitely* started a job
        (the marker write precedes the run, synchronously).
        """
        running: dict[int, str] = {}
        for index, proc in enumerate(self.workers):
            if not proc.is_alive():
                continue
            marker = self._marker_paths.get(index)
            if marker is None or not marker.is_file():
                continue
            try:
                job_id = marker.read_text(encoding="utf-8").strip()
            except OSError:
                continue
            if job_id:
                running[index] = job_id
        return running

    # -- dispatch / results ------------------------------------------------------
    def dispatch(self, job: ServeJob) -> None:
        if self._jobs_q is None:
            raise ServeError("worker pool not started")
        self._jobs_q.put(pickle.dumps(job))

    def poll(self, timeout_s: float = 0.05) -> list[dict]:
        """Drain finished-job records (waits up to *timeout_s* for one)."""
        if self._results_q is None:
            return []
        records: list[dict] = []
        deadline = time.monotonic() + max(timeout_s, 0.0)
        while True:
            wait = deadline - time.monotonic()
            try:
                if wait > 0:
                    blob = self._results_q.get(timeout=wait)
                else:
                    blob = self._results_q.get_nowait()
            except queue_mod.Empty:
                break
            records.append(pickle.loads(blob))
            deadline = time.monotonic()  # drain the rest without waiting
        return records

    def reap(self, respawn: bool = True) -> list[str]:
        """Attribute dead workers' in-flight jobs; respawn replacements.

        Returns the job ids that died unreported (possibly empty — a
        worker killed between jobs has an empty marker).  Each dead
        worker gets one grace poll before attribution so an already-
        queued result is not double-counted.
        """
        victims: list[str] = []
        for index, proc in enumerate(self.workers):
            if proc.is_alive() or index in self._reaped:
                continue
            if index not in self._dead_seen:
                self._dead_seen.add(index)  # grace: attribute next call
                continue
            self._reaped.add(index)
            marker = self._marker_paths.get(index)
            job_id = ""
            if marker is not None and marker.is_file():
                try:
                    job_id = marker.read_text(encoding="utf-8").strip()
                except OSError:
                    job_id = ""
            if job_id:
                victims.append(job_id)
            if respawn:
                self._spawn()
        return victims

    # -- shutdown ----------------------------------------------------------------
    def drain(self, timeout_s: float = 10.0) -> None:
        """Stop the pool: sentinel every worker, join, sweep scratch."""
        if self._ctx is None:
            return
        for proc in self.workers:
            if proc.is_alive():
                self._jobs_q.put(None)
        deadline = time.monotonic() + timeout_s
        for proc in self.workers:
            proc.join(max(deadline - time.monotonic(), 0.1))
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
        # mp.Queue feeder threads must unblock before interpreter exit.
        for q in (self._jobs_q, self._results_q):
            try:
                q.cancel_join_thread()
                q.close()
            except (OSError, ValueError):
                pass
        if self._scratch is not None:
            shutil.rmtree(self._scratch, ignore_errors=True)
        self._ctx = None
        self._jobs_q = None
        self._results_q = None
        self.workers = []
