"""The jobs ``popper serve`` runs, and its worker entry.

The pool itself is the engine's :class:`~repro.engine.procsched.WorkerPool`
(re-exported here): the same supervised fork pool the process scheduler
runs on, with one crash-containment rule for both —

* **marker-file attribution** — before a payload runs, the worker
  writes the job id *synchronously* to its private marker file.  An
  ``mp.Queue`` message would not survive a hard crash (``kill -9``
  murders the feeder thread before it flushes), but the marker does:
  it is how the supervisor attributes an unreported job to a dead
  worker and fails (i.e. requeues) exactly that job.
* **grace-poll reaping** — a worker observed dead is given one more
  poll before attribution, so a result that was already in the pipe
  when the process died still gets drained rather than double-run.

Dead workers are respawned (unless the daemon is draining), so a
crashing payload degrades one job, never the service.  The payload
itself — :class:`ServeJob` — is plain picklable data mirroring
:class:`~repro.core.sweep.SweepExperimentJob`: the worker reopens the
repository from its path and runs the ordinary
:class:`~repro.core.pipeline.ExperimentPipeline` with the shared
artifact store (all inter-process safety comes from ``RepoLock`` and
the store's own locking, proven by the process backend).  Results cross
back as plain dicts of JSON scalars, so the result queue can never be
poisoned by an unpicklable value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.engine.procsched import WorkerPool, worker_loop

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


def _worker_main(index: int, jobs_q, results_q, scratch: str) -> None:
    """Serve's worker entry: :func:`worker_loop` running :class:`ServeJob`s."""

    def step(job: ServeJob) -> dict:
        started = time.perf_counter()
        try:
            record = {"job": job.job_id, "ok": True, "meta": job()}
        except Exception as exc:
            # BaseException (SimulatedCrash, RunCancelled) deliberately
            # propagates: a crashing worker is the supervisor's problem.
            record = {
                "job": job.job_id,
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
            }
        record["seconds"] = time.perf_counter() - started
        record["worker"] = index
        return record

    worker_loop(index, jobs_q, results_q, scratch, step)
