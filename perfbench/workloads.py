"""The workloads.  Each is a closed loop: one client, one request
or process at a time, each waiting for its reply — the way a
researcher at a terminal or a CI job drives ``popper``.

A workload is an endless, seed-determined stream of steps; a measuring
window runs steps until its time is up.  Because the stream carries on
where the last window stopped, a run may measure in several windows
(between its set-ups) and still run exactly the op sequence it would
have run in one.  Every run rebuilds its repository from the workload
seed, so the profile, the queue and the store grow the same way op by
op on every run with that seed.
"""

from __future__ import annotations

import itertools
import os
import signal
import subprocess
import time
from collections import Counter
from pathlib import Path

import harness
from harness import EXPERIMENTS, Env, must, popper

#: Op classes, each feeding one end-to-end latency metric.
CACHED, RUN, QUERY = "cached", "run", "query"

#: What a step stream yields between cycles.
CYCLE_END = None

#: Cache-served submissions per serve-mixed cycle.  A cached submit
#: takes about 7.5 ms and a cold job about 280 ms on a 2-CPU machine, so
#: the run_ms samples a window can hold are capped near one per 280 ms.
#: K = 10 (at most cold-job time / (3 x cached time)) leaves the cold jobs
#: three quarters of that cap, while the cached submits still give about
#: a thousand samples a 40-second run, ten times the 100 the tail rule needs.
SERVE_CACHED_PER_CYCLE = 10

#: The serve-mixed cold job polls its job at least this often.
POLL_S = 0.005

#: The experiment a serve-mixed cold job runs, and its template.
COLD_EXPERIMENT, COLD_TEMPLATE = "cold", "mpi-comm-variability"


class Tally:
    """Samples, attempts and failures per op class, over one or more
    measuring windows."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {CACHED: [], RUN: [], QUERY: []}
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.maxrss_mb = 0.0
        self.notes: list[str] = []
        self.started: float | None = None
        self.ended = 0.0

    def merge(self, other: "Tally") -> None:
        """Fold another tally's attempts and failures into this one."""
        self.attempted.update(other.attempted)
        self.failed.update(other.failed)
        self.notes += other.notes

    def op(self, kind: str, seconds: float, ok: bool, why: str = "") -> None:
        self.attempted[kind] += 1
        self.samples[kind].append(seconds)
        if not ok:
            self.failed[kind] += 1
            if len(self.notes) < 5:
                self.notes.append(f"{kind}: {why}")

    def check(self, what: str, ok: bool, why: str = "") -> None:
        """A correctness gate that is not a timed op."""
        self.attempted[what] += 1
        if not ok:
            self.failed[what] += 1
            if self.failed[what] <= 3:
                self.notes.append(f"{what}: {why}")


def _results(repo: Path, names=EXPERIMENTS) -> dict[str, bytes]:
    return {n: (repo / "experiments" / n / "results.csv").read_bytes() for n in names}


def _build_repo(env: Env, repo: Path, seed: int, names=EXPERIMENTS, templates=EXPERIMENTS) -> None:
    """``popper init`` and one ``popper add`` per experiment, then the
    seeded ``vars.yml`` values."""
    repo.mkdir(parents=True)
    must(popper(env, repo, ["init"]), "popper init")
    for name, template in zip(names, templates):
        must(popper(env, repo, ["add", template, name]), f"popper add {template}")
        harness.write_seed(repo / "experiments" / name, harness.derive_seed(seed, name, "setup"))


def _cold_fill(env: Env, repo: Path) -> None:
    result = must(popper(env, repo, ["run", "--all"]), "cold fill")
    if "(cached)" in result.stdout:
        raise RuntimeError("set-up fill was served from cache")


def _all_ok(stdout: str, names, cached: bool) -> bool:
    """Every experiment in *names* reported validated, from cache or not."""
    suffix = "ok (cached)" if cached else "ok"
    for name in names:
        lines = [line for line in stdout.splitlines() if line.startswith(f"-- {name}: ")]
        if len(lines) != 1 or not lines[0].endswith(suffix):
            return False
    return True


class Workload:
    """Set-up, the step stream, windows and the end-of-run gates."""

    name = ""
    #: The kind of machine-speed reference sampled beside the ops.
    reference = "process"

    def __init__(self, env: Env, seed: int) -> None:
        self.env = env
        self.seed = seed
        self.speed = harness.SpeedLog(env.work)
        self.stream = None
        self.cycle_done = True
        self.traced = False

    def setup(self, repo: Path):
        """Build the run's state in *repo*; returns what :meth:`keep`
        takes (something with a ``stop()``, or ``None``)."""
        raise NotImplementedError

    def keep(self, handle) -> None:
        """Adopt the set-up the run measures."""

    def steps(self, repo: Path):
        """Endless generator of steps, each called with the tally, and of
        :data:`CYCLE_END` after the last step of each cycle."""
        raise NotImplementedError

    def window(
        self, repo: Path, seconds: float, traced: bool, tally: Tally, whole: bool = False
    ) -> None:
        """Run steps for *seconds*.  A *whole* window (a run's last) then
        finishes the cycle in flight, so every run measures whole cycles
        and its op classes keep their proportions."""
        if self.stream is None:
            self.stream = self.steps(repo)
        self.traced = traced
        start = time.perf_counter()
        if tally.started is None:
            tally.started = start
        deadline = start + seconds
        while time.perf_counter() < deadline or (whole and not self.cycle_done):
            step = next(self.stream)
            self.cycle_done = step is CYCLE_END
            if step is not CYCLE_END:
                step(tally)
        tally.ended = time.perf_counter()

    def finish(self, repo: Path, tally: Tally) -> float:
        """End-of-run gates; returns the store ratio."""
        doctor = popper(self.env, repo, ["doctor", "--dry-run"])
        tally.check("doctor", doctor.rc == 0 and "is clean" in doctor.stdout, doctor.stdout.strip())
        stats = must(popper(self.env, repo, ["cache", "stats"]), "popper cache stats")
        return harness.store_ratio(stats.stdout)

    def stop(self) -> None:
        self.speed.stop()


# -- cli-cold ----------------------------------------------------------------------


class CliCold(Workload):
    """Sweeps after new seeds, so every stage executes and every output is
    a new store object, each followed by warm re-runs served from the
    loose store and by introspection."""

    name = "cli-cold"

    def __init__(self, env: Env, seed: int) -> None:
        super().__init__(env, seed)
        self.op_ids = itertools.count()

    def setup(self, repo: Path) -> None:
        _build_repo(self.env, repo, self.seed)

    def timed(self, repo, kind, args, check):
        """A step running one fresh ``popper`` process as one *kind* op."""

        def step(tally: Tally) -> None:
            op = f"{next(self.op_ids)}:{kind}:{args[0]}"
            result = popper(self.env, repo, args, traced=self.traced, op=op)
            ok = result.rc == 0 and check(result)
            why = (
                f"{' '.join(args)} exited {result.rc}: {result.stderr[-300:]}"
                if result.rc else f"{' '.join(args)}: output check failed"
            )
            tally.op(kind, result.seconds, ok, why)
            tally.maxrss_mb = max(tally.maxrss_mb, result.maxrss_mb)
            self.speed.process()

        return step

    def steps(self, repo: Path):
        produced = {}

        def executed(r):
            produced.update(_results(repo))
            return _all_ok(r.stdout, EXPERIMENTS, False)

        sweep = lambda r: _all_ok(r.stdout, EXPERIMENTS, True) and _results(repo) == produced  # noqa: E731
        cycle = 0
        while True:
            exp = EXPERIMENTS[cycle % len(EXPERIMENTS)]
            for name in EXPERIMENTS:
                seed = harness.derive_seed(self.seed, name, "cold", cycle)
                harness.write_seed(repo / "experiments" / name, seed)
            yield self.timed(repo, RUN, ["run", "--all"], executed)
            yield self.timed(repo, QUERY, ["trace", exp], lambda r: exp in r.stdout)
            yield self.timed(repo, QUERY, ["status"], lambda r: "working tree" in r.stdout)
            yield self.timed(repo, CACHED, ["run", "--all"], sweep)
            yield self.timed(repo, QUERY, ["cache", "stats"], lambda r: "logical bytes" in r.stdout)
            yield self.timed(repo, CACHED, ["run", "--all"], sweep)
            # perf is the slowest query: one in every four, so the query
            # p90 lands on perf samples in every run, whatever its length.
            yield self.timed(repo, QUERY, ["perf", "HEAD"], lambda r: "== perf:" in r.stdout)
            yield CYCLE_END
            cycle += 1


# -- serve-mixed --------------------------------------------------------------------


class Daemon:
    """One ``popper serve --workers 1`` process, out of the client's process."""

    def __init__(self, env: Env, repo: Path, traced: bool) -> None:
        self.traced = traced
        self.log = repo.parent / ".daemon.out"
        with open(self.log, "wb") as out:
            self.proc = subprocess.Popen(
                env.argv(["serve", "--workers", "1", "--port", "0"], traced),
                cwd=repo, env=env.vars, stdin=subprocess.DEVNULL,
                stdout=out, stderr=subprocess.STDOUT, start_new_session=True,
            )
        try:
            self.client = harness.Client(self._wait_port())
            while self.client.request("GET", "/readyz")[0] != 200:
                self._alive()
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise

    def _alive(self) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(f"popper serve exited {self.proc.returncode}:\n{self.log.read_text()}")

    def _wait_port(self) -> int:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            for line in self.log.read_text(encoding="utf-8", errors="replace").splitlines():
                if line.startswith("-- popper serve on http://"):
                    return int(line.rsplit(":", 1)[1].split()[0])
            self._alive()
            time.sleep(0.005)
        raise RuntimeError("popper serve did not report its port")

    def stop(self) -> int:
        """SIGTERM: the daemon drains and exits 143."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        return self.proc.returncode


class ServeMixed(Workload):
    """Cache-served submissions, with one cold job per cycle polled to
    completion, against a daemon whose store was repacked at set-up."""

    name = "serve-mixed"
    reference = "http"

    def __init__(self, env: Env, seed: int) -> None:
        super().__init__(env, seed)
        self.daemon: Daemon | None = None
        #: Client round trips of the POSTs made with tracing on.
        self.traced_posts: list[float] = []

    def setup(self, repo: Path) -> "Daemon":
        _build_repo(
            self.env, repo, self.seed,
            (*EXPERIMENTS, COLD_EXPERIMENT), (*EXPERIMENTS, COLD_TEMPLATE),
        )
        _cold_fill(self.env, repo)
        must(popper(self.env, repo, ["cache", "repack"]), "popper cache repack")
        return Daemon(self.env, repo, traced=False)

    def keep(self, handle: Daemon) -> None:
        self.daemon = handle

    def stop(self) -> None:
        try:
            if self.daemon is not None:
                self.daemon.stop()
                self.daemon = None
        finally:
            super().stop()

    def window(
        self, repo: Path, seconds: float, traced: bool, tally: Tally, whole: bool = False
    ) -> None:
        if traced != self.daemon.traced:
            self.daemon.stop()
            self.daemon = Daemon(self.env, repo, traced)
        super().window(repo, seconds, traced, tally, whole)
        tally.maxrss_mb = harness.vm_hwm_mb(self.daemon.proc.pid)

    def request(self, tally, method, path, body=None):
        status, doc, seconds = self.daemon.client.request(method, path, body)
        tally.check("no-5xx", status < 500, f"{method} {path} -> {status}")
        if method == "POST" and self.traced:
            self.traced_posts.append(seconds)
        return status, doc, seconds

    def steps(self, repo: Path):
        cycle = 0
        while True:
            for i in range(SERVE_CACHED_PER_CYCLE):
                yield self.cached_post(EXPERIMENTS[i % len(EXPERIMENTS)])
            # One cold job: new seed, so every stage executes in the worker.
            harness.write_seed(
                repo / "experiments" / COLD_EXPERIMENT,
                harness.derive_seed(self.seed, COLD_EXPERIMENT, "cold", cycle),
            )
            yield self.cold_job
            yield CYCLE_END
            cycle += 1

    def cached_post(self, exp: str):
        def step(tally: Tally) -> None:
            status, doc, seconds = self.request(tally, "POST", "/v1/jobs", {"experiment": exp})
            ok = status == 200 and doc.get("cached") is True and doc.get("state") == "done"
            tally.op(CACHED, seconds, ok, f"POST {exp} -> {status} {doc}")
            self.speed.http()

        return step

    def cold_job(self, tally: Tally) -> None:
        """Submit, then poll every :data:`POLL_S` until done: one ``run``
        sample (submit to done) and one ``query`` sample per poll."""
        start = time.perf_counter()
        status, doc, _ = self.request(tally, "POST", "/v1/jobs", {"experiment": COLD_EXPERIMENT})
        if status != 202:
            tally.op(RUN, time.perf_counter() - start, False, f"cold POST -> {status} {doc}")
            return
        job = doc["id"]
        while True:
            tick = time.perf_counter()
            status, doc, seconds = self.request(tally, "GET", f"/v1/jobs/{job}")
            tally.op(QUERY, seconds, status == 200, f"GET {job} -> {status}")
            if status != 200 or doc.get("state") in ("done", "dead"):
                break
            rest = POLL_S - (time.perf_counter() - tick)
            if rest > 0:
                time.sleep(rest)
        ok = (
            doc.get("state") == "done"
            and doc.get("cached") is False
            and doc.get("meta", {}).get("validated") is True
        )
        tally.op(RUN, time.perf_counter() - start, ok, f"cold job {job}: {doc}")
        self.speed.http()

    def finish(self, repo: Path, tally: Tally) -> float:
        code = self.daemon.stop()
        self.daemon = None
        tally.check("drain", code == 128 + signal.SIGTERM, f"popper serve exited {code}")
        return super().finish(repo, tally)


WORKLOADS = {w.name: w for w in (CliCold, ServeMixed)}
