"""Helpers shared by the workloads: statistics, seeded inputs, timed
``popper`` processes and a small HTTP client for ``popper serve``.

Everything here runs in the benchmark's own process.  The program
under test only ever runs as a child: a fresh ``popper`` process per
CLI op, or one ``popper serve`` daemon per serve run.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

#: The four paper experiments every workload runs, by template name.
EXPERIMENTS = ("gassyfs", "torpor", "mpi-comm-variability", "jupyter-bww")

#: A tail is reported only when at least this many samples lie beyond it.
TAIL_MIN_BEYOND = 10

#: The traced ``popper`` (see launcher.py).
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"

#: The machine-speed reference (see reference.py).
REFERENCE = Path(__file__).resolve().parent / "reference.py"

_SEED_LINE = re.compile(r"(?m)^seed:.*$")


# -- statistics -----------------------------------------------------------------


def median(samples) -> float:
    return float(statistics.median(samples))


def nearest_rank(samples, q: float) -> float:
    """The nearest-rank *q* quantile (0 < q <= 1) of *samples*."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def interpolated(samples, q: float) -> float:
    """The *q* quantile (0 <= q <= 1) of *samples*, interpolated linearly
    between the two nearest order statistics.  On a few samples it leans
    on two of them rather than on one near-maximum."""
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def beyond(n: int, q: float) -> int:
    """How many of *n* samples lie strictly beyond the nearest-rank *q*."""
    return n - max(1, math.ceil(q * n))


def tail(samples, q: float = 0.9) -> float | None:
    """The *q* tail of *samples*, or ``None`` when fewer than
    :data:`TAIL_MIN_BEYOND` samples lie beyond it (the tail would then
    be a single near-maximum, not a percentile)."""
    if not samples or beyond(len(samples), q) < TAIL_MIN_BEYOND:
        return None
    return nearest_rank(samples, q)


# -- seeded inputs ----------------------------------------------------------------


def derive_seed(workload_seed: int, *parts) -> int:
    """A deterministic experiment seed in ``[1, 2**31)`` for *parts*."""
    text = ":".join(str(p) for p in (workload_seed, *parts))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return 1 + int.from_bytes(digest[:8], "big") % (2**31 - 1)


def with_seed(vars_text: str, seed: int) -> str:
    """*vars_text* (a ``vars.yml``) with its ``seed:`` line set to *seed*."""
    if not _SEED_LINE.search(vars_text):
        raise ValueError("vars.yml has no seed line")
    return _SEED_LINE.sub(f"seed: {seed}", vars_text, count=1)


def write_seed(exp_dir: Path, seed: int) -> None:
    """Set one experiment's ``seed`` — the only input the benchmark writes."""
    path = exp_dir / "vars.yml"
    path.write_text(with_seed(path.read_text(encoding="utf-8"), seed), encoding="utf-8")


# -- the machine-speed probe ----------------------------------------------------


def probe_ms(rounds: int = 5) -> float:
    """Median time of a fixed pure-Python loop: tells a slow phase of the
    machine apart from slow code.  A diagnostic, not a metric."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((time.perf_counter() - start) * 1000.0)
    return median(times)


# -- the machine-speed reference --------------------------------------------------

#: Quantiles of each reference's time (see reference.py) on the 2-CPU
#: machine the benchmark was calibrated on, in seconds.
NOMINAL_S = {
    "process": {0.5: 0.32, 0.9: 0.36},
    "http": {0.5: 0.0054, 0.9: 0.0062},
}


def scaled_quantile(samples, reference, q: float, nominal: float) -> float:
    """The *q* quantile of *samples* at the calibration machine's speed:
    scaled by *nominal* over the same quantile of *reference*, the
    reference times measured between those samples."""
    if not reference:
        raise RuntimeError("no reference sample to scale by")
    return interpolated(samples, q) * nominal / interpolated(reference, q)


class SpeedLog:
    """Reference samples of one run, by kind: ``process`` runs a fresh
    reference process to completion; ``http`` sends one request to the
    reference server, started on first use and ended by :meth:`stop`."""

    def __init__(self, work: Path) -> None:
        self.dir = work / "reference"
        self.dir.mkdir()
        self.samples: dict[str, list[float]] = {"process": [], "http": []}
        self.server: subprocess.Popen | None = None
        self.client: Client | None = None

    def process(self) -> None:
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(REFERENCE), "process", str(self.dir)],
            check=True, stdin=subprocess.DEVNULL,
        )
        self.samples["process"].append(time.perf_counter() - start)

    def http(self) -> None:
        if self.server is None:
            self.server = subprocess.Popen(
                [sys.executable, str(REFERENCE), "http", str(self.dir)],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            )
            self.client = Client(int(self.server.stdout.readline()))
        status, _, seconds = self.client.request("POST", "/", {"reference": True})
        if status != 200:
            raise RuntimeError(f"reference server answered {status}")
        self.samples["http"].append(seconds)

    def scaled(self, kind: str, samples, q: float) -> float:
        """The *q* quantile of *samples*, scaled by this run's *kind* reference."""
        return scaled_quantile(samples, self.samples[kind], q, NOMINAL_S[kind][q])

    def stop(self) -> None:
        if self.server is not None:
            self.server.terminate()
            self.server.wait()
            self.server.stdout.close()
            self.server = None


# -- popper processes -----------------------------------------------------------


class Env:
    """Where the program's source lives and how to start it."""

    def __init__(self, checkout: Path, work: Path) -> None:
        self.work = work
        self.spans_dir = work / "spans"
        tmp = work / "tmp"
        self.spans_dir.mkdir(parents=True)
        tmp.mkdir()
        self.vars = dict(os.environ)
        self.vars["PYTHONPATH"] = str(checkout / "src")
        self.vars["PYTHONUNBUFFERED"] = "1"
        # popper serve's worker pool keeps its marker files in the temp dir.
        self.vars["TMPDIR"] = str(tmp)
        self.vars.pop("POPPER_SEED", None)

    def argv(self, args, traced: bool) -> list[str]:
        if traced:
            return [sys.executable, str(LAUNCHER), str(self.spans_dir), *args]
        return [sys.executable, "-m", "repro.core.cli", *args]


class OpResult(NamedTuple):
    rc: int
    seconds: float
    maxrss_mb: float
    stdout: str
    stderr: str


def popper(env: Env, repo: Path, args, traced: bool = False, op: str = "") -> OpResult:
    """Run one fresh ``popper`` process to completion and time it.

    Output goes to files rather than pipes so the child can be reaped
    with ``wait4``, which also yields its peak RSS.
    """
    out_path = repo.parent / ".op.out"
    err_path = repo.parent / ".op.err"
    child_env = env.vars
    if traced:
        child_env = dict(env.vars, PERFBENCH_OP=op)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            env.argv(args, traced), cwd=repo, env=child_env,
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above
    return OpResult(
        proc.returncode,
        seconds,
        usage.ru_maxrss / 1024.0,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def must(result: OpResult, what: str) -> OpResult:
    if result.rc != 0:
        raise RuntimeError(
            f"{what} exited {result.rc}:\n{result.stdout[-2000:]}\n{result.stderr[-2000:]}"
        )
    return result


def store_ratio(cache_stats_text: str) -> float:
    """Physical over logical bytes of the artifact pool, from
    ``popper cache stats`` output."""
    physical = re.search(r"artifact cache .*\n\s+objects: \d+ \((\d+) bytes", cache_stats_text)
    logical = re.search(r"logical bytes: (\d+)", cache_stats_text)
    if not physical or not logical or int(logical.group(1)) == 0:
        raise RuntimeError(f"cannot parse cache stats:\n{cache_stats_text}")
    return int(physical.group(1)) / int(logical.group(1))


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- the serve client ---------------------------------------------------------


class Client:
    """One closed-loop HTTP client: one request, one connection at a time."""

    def __init__(self, port: int) -> None:
        self.port = port

    def request(self, method: str, path: str, body: dict | None = None):
        """Returns ``(status, document, seconds)``."""
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        start = time.perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        seconds = time.perf_counter() - start
        try:
            doc = json.loads(raw.decode("utf-8"))
        except ValueError:
            doc = {}
        return response.status, doc, seconds
