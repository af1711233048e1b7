"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 40 --trace 0

Run from the root of a checkout of the repository: the program is
started from ``src/`` there, and every file the run writes stays under
``.perfbench/`` there.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run is traced and the metrics are per layer.  The exit code is 1
when any correctness gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import harness
import spans as spanlib
from workloads import CACHED, QUERY, RUN, WORKLOADS, Tally

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "cached_ms": "ms",
    "cached_ms_p90": "ms",
    "run_ms": "ms",
    "query_ms": "ms",
    "query_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "store_ratio": "ratio",
}

#: Per-layer metric -> (span name, statistic, unit).  ``*_per_call`` is a
#: mean over the layer's outermost calls; ``*_per_op`` divides a total by
#: the client ops of the traced window (``a`` is the span's byte count).
LAYER_METRICS = {
    "pipeline.run_ms": ("pipeline.run", "ms_per_call", "ms"),
    "pipeline.experiment_ms": ("pipeline.experiment", "ms_per_call", "ms"),
    "pipeline.validation_ms": ("pipeline.validation", "ms_per_call", "ms"),
    "pipeline.validate_existing_ms": ("pipeline.validate_existing", "ms_per_call", "ms"),
    "engine.run_ms": ("engine.run", "ms_per_call", "ms"),
    "engine.self_ms": ("engine.run", "self_ms_per_call", "ms"),
    "store.lookup_calls": ("store.lookup", "calls_per_op", "count"),
    "store.lookup_ms": ("store.lookup", "ms_per_call", "ms"),
    "store.materialize_ms": ("store.materialize", "ms_per_call", "ms"),
    "store.materialize_bytes": ("store.materialize", "a_per_op", "bytes"),
    "store.read_calls": ("store.read", "calls_per_op", "count"),
    "store.read_ms": ("store.read", "ms_per_call", "ms"),
    "store.read_bytes": ("store.read", "a_per_op", "bytes"),
    "store.pack_read_calls": ("store.pack_read", "calls_per_op", "count"),
    "store.pack_read_ms": ("store.pack_read", "ms_per_call", "ms"),
    "store.put_calls": ("store.put", "calls_per_op", "count"),
    "store.put_ms": ("store.put", "ms_per_call", "ms"),
    "store.put_bytes": ("store.put", "a_per_op", "bytes"),
    "fs.atomic_writes": ("fs.atomic_write", "calls_per_op", "count"),
    "fs.atomic_write_ms": ("fs.atomic_write", "ms_per_call", "ms"),
    "fs.journal_appends": ("fs.journal_append", "calls_per_op", "count"),
    "fs.journal_append_ms": ("fs.journal_append", "ms_per_call", "ms"),
    "groupcommit.appends": ("groupcommit.append", "calls_per_op", "count"),
    "groupcommit.flushes": ("groupcommit.flush", "calls_per_op", "count"),
    "groupcommit.flush_ms": ("groupcommit.flush", "ms_per_call", "ms"),
    "lock.acquires": ("lock.acquire", "calls_per_op", "count"),
    "lock.wait_ms": ("lock.acquire", "ms_per_call", "ms"),
    "journal.events": ("journal.event", "calls_per_op", "count"),
    "journal.event_ms": ("journal.event", "ms_per_call", "ms"),
    "aver.checks": ("aver.check", "calls_per_op", "count"),
    "aver.check_ms": ("aver.check", "ms_per_call", "ms"),
    "profiles.attach_calls": ("profiles.attach", "calls_per_op", "count"),
    "profiles.attach_ms": ("profiles.attach", "ms_per_call", "ms"),
    "detectors.calls": ("detectors.compare", "calls_per_op", "count"),
    "detectors.ms": ("detectors.compare", "ms_per_call", "ms"),
    "serve.submit_ms": ("serve.submit", "ms_per_call", "ms"),
    "queue.submit_ms": ("queue.submit", "ms_per_call", "ms"),
    "queue.claim_ms": ("queue.claim", "ms_per_call", "ms"),
    "queue.complete_ms": ("queue.complete", "ms_per_call", "ms"),
    "workers.dispatch_to_result_ms": ("workers.dispatch_to_result", "ms_per_call", "ms"),
}

#: Metrics computed outside :data:`LAYER_METRICS`, with their units.
OTHER_LAYER_UNITS = {
    "cli.import_ms": "ms",
    "cli.modules": "count",
    "cli.scipy_loaded": "ratio",
    "cli.main_ms": "ms",
    "cli.bare_python_ms": "ms",
    "engine.cache_hit_ratio": "ratio",
    "store.new_object_ratio": "ratio",
    "profiles.bytes": "bytes",
    "serve.http_self_ms": "ms",
    "trace.overhead_cached_ms": "ms",
    "trace.overhead_run_ms": "ms",
    "trace.overhead_query_ms": "ms",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def latency_metrics(tally: Tally, workload) -> dict:
    """Median and interpolated p90 per op class, each scaled by the same
    quantile of the run's reference.  Where fewer than ten samples lie
    beyond the p90 (every CLI run) the p90 rests on the few samples
    there are, and the report says so."""
    out = {}
    for kind, name in ((CACHED, "cached_ms"), (RUN, "run_ms"), (QUERY, "query_ms")):
        samples = tally.samples[kind]
        if not samples:
            raise RuntimeError(f"no {kind} op completed in the window")
        out[name] = workload.speed.scaled(workload.reference, samples, 0.5) * 1000.0
        if kind != RUN:
            out[name + "_p90"] = workload.speed.scaled(workload.reference, samples, 0.9) * 1000.0
    return out


def layer_metrics(spans, ops: int) -> dict:
    """Per-layer numbers from the traced window's spans."""
    top = spanlib.outermost(spans)
    self_t = spanlib.self_times(spans)
    by_name = defaultdict(list)
    for span in top:
        by_name[span.name].append(span)
    values = {}
    for metric_name, (span_name, stat, _) in LAYER_METRICS.items():
        group = by_name.get(span_name, [])
        if stat == "calls_per_op":
            values[metric_name] = len(group) / ops
        elif stat == "a_per_op":
            values[metric_name] = sum(s.a for s in group) / ops
        elif not group:
            values[metric_name] = 0.0
        elif stat == "ms_per_call":
            values[metric_name] = sum(s.end - s.start for s in group) / len(group) * 1000.0
        else:  # self_ms_per_call
            values[metric_name] = sum(self_t[s.id] for s in group) / len(group) * 1000.0
    tasks = sum(s.a for s in by_name.get("engine.run", []))
    values["engine.cache_hit_ratio"] = (
        sum(s.b for s in by_name.get("engine.run", [])) / tasks if tasks else 0.0
    )
    puts = by_name.get("store.put", [])
    values["store.new_object_ratio"] = sum(s.b for s in puts) / len(puts) if puts else 0.0
    return values


def cli_metrics(all_spans, processes) -> dict:
    """Per ``popper`` process, over every traced process of the run."""
    imports = [s.end - s.start for s in all_spans if s.name == "cli.import"]
    mains = [s.end - s.start for s in all_spans if s.name == "cli.main"]
    launched = [p for p in processes if p.get("cli.processes")]
    n = len(launched) or 1
    return {
        "cli.import_ms": sum(imports) / len(imports) * 1000.0 if imports else 0.0,
        "cli.main_ms": sum(mains) / len(mains) * 1000.0 if mains else 0.0,
        "cli.modules": sum(p.get("cli.modules", 0.0) for p in launched) / n,
        "cli.scipy_loaded": sum(p.get("cli.scipy_loaded", 0.0) for p in launched) / n,
    }


def self_time_table(spans, self_t) -> str:
    """Self time per op class and span name, in ms per op."""

    def op_class(op: str) -> str:
        if "#" in op:  # a daemon thread's call, named by its outermost span
            return "daemon " + op.split("#")[0]
        parts = op.split(":")
        if len(parts) == 3:  # a CLI op: n:kind:command
            return f"{parts[1]}/{parts[2]}"
        return "worker job"  # a serve job id

    ops = defaultdict(set)
    cells = defaultdict(float)
    for span in spans:
        cls = op_class(span.op)
        ops[cls].add(span.op)
        cells[(cls, span.name)] += self_t[span.id]
    lines = ["-- self time per op (ms)", f"   {'op class':<22} {'ops':>5}  {'span':<28} {'self_ms':>10}"]
    for cls in sorted(ops):
        rows = sorted(((n, t) for (c, n), t in cells.items() if c == cls), key=lambda r: -r[1])
        for name, total in rows:
            lines.append(f"   {cls:<22} {len(ops[cls]):>5}  {name:<28} {total / len(ops[cls]) * 1000.0:>10.3f}")
    return "\n".join(lines)


def speed_report(tally: Tally, workload) -> list[str]:
    """Unscaled quantiles beside the reference's, to show what scaling did."""

    def quantiles(samples) -> str:
        return "/".join(f"{harness.interpolated(samples, q) * 1000.0:.3f}" for q in (0.5, 0.9))

    lines = []
    for kind in sorted({"process", workload.reference}):
        ref = workload.speed.samples[kind]
        nominal = "/".join(f"{harness.NOMINAL_S[kind][q] * 1000.0:.3f}" for q in (0.5, 0.9))
        lines.append(
            f"-- reference {kind}: {len(ref)} samples, p50/p90 {quantiles(ref)} ms"
            f" (nominal {nominal} ms)"
        )
    for kind in (CACHED, RUN, QUERY):
        if tally.samples[kind]:
            lines.append(f"-- {kind}: unscaled p50/p90 {quantiles(tally.samples[kind])} ms")
    return lines


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.is_dir() else 0


def bare_python_ms(rounds: int = 5) -> float:
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - start)
    return harness.median(times) * 1000.0


def execute(args, checkout: Path, work: Path) -> tuple[dict, Tally, list[str]]:
    env = harness.Env(checkout, work)
    workload = WORKLOADS[args.workload](env, args.seed)
    report = []
    try:
        if not args.trace:
            # Set up SETUPS times, measuring a share of the window after
            # each: the window's samples then span the whole run, which
            # evens out the machine's slow and fast phases.  The first
            # copy is the state every window measures.
            tally = Tally()
            setup_times = []
            for k in range(SETUPS):
                copy = work / f"setup-{k}" / "repo"
                # Reference processes on both sides of each set-up (it
                # is mostly short popper processes) give its scale.
                workload.speed.process()
                start = time.perf_counter()
                handle = workload.setup(copy)
                setup_times.append(time.perf_counter() - start)
                workload.speed.process()
                if k == 0:
                    repo = copy
                    workload.keep(handle)
                else:
                    if handle is not None:
                        handle.stop()
                    shutil.rmtree(copy.parent)
                workload.window(repo, args.seconds / SETUPS, False, tally, whole=k == SETUPS - 1)
            report.append("-- setup_s unscaled samples: " + ", ".join(f"{t:.3f}" for t in setup_times))
            report += speed_report(tally, workload)
            ratio = workload.finish(repo, tally)
            metrics = {
                "setup_s": workload.speed.scaled("process", setup_times, 0.5),
                **latency_metrics(tally, workload),
            }
            metrics["peak_rss_mb"] = tally.maxrss_mb
            metrics["store_ratio"] = ratio
            out = {k: metric(metrics[k], u) for k, u in END_TO_END_UNITS.items()}
            return out, tally, report

        repo = work / "setup-0" / "repo"
        workload.keep(workload.setup(repo))
        # Traced: the traced window, then an untraced window with tracing
        # off; their difference is the tracing overhead.  Each takes half
        # of --seconds, so a traced run lasts as long as an untraced one.
        tally, untraced = Tally(), Tally()
        workload.window(repo, args.seconds / 2, True, tally)
        posts = list(getattr(workload, "traced_posts", ()))
        bare = bare_python_ms()
        workload.window(repo, args.seconds / 2, False, untraced, whole=True)
        workload.finish(repo, tally)  # for its correctness gates
        tally.merge(untraced)
        all_spans, processes = spanlib.load_spans(env.spans_dir)
        window = [
            s for s in all_spans
            if tally.started <= s.start <= tally.ended and not s.name.startswith("cli.")
        ]
        ops = sum(len(v) for v in tally.samples.values())
        values = layer_metrics(window, ops)
        values.update(cli_metrics(all_spans, processes))
        values["cli.bare_python_ms"] = bare
        values["profiles.bytes"] = dir_bytes(repo / ".pvcs" / "profiles")
        # Closed loop, one client: the window's POSTs and submit spans
        # pair up one to one.
        submits = [s.end - s.start for s in window if s.name == "serve.submit"]
        if len(submits) != len(posts):
            raise RuntimeError(
                f"{len(posts)} traced POSTs but {len(submits)} serve.submit spans"
            )
        values["serve.http_self_ms"] = (
            (sum(posts) - sum(submits)) / len(submits) * 1000.0 if submits else 0.0
        )
        for kind in (CACHED, RUN, QUERY):
            if not (tally.samples[kind] and untraced.samples[kind]):
                raise RuntimeError(f"no {kind} op completed in a window; use more --seconds")
            traced_ms = workload.speed.scaled(workload.reference, tally.samples[kind], 0.5) * 1000.0
            untraced_ms = workload.speed.scaled(workload.reference, untraced.samples[kind], 0.5) * 1000.0
            values[f"trace.overhead_{kind}_ms"] = traced_ms - untraced_ms
            report.append(
                f"-- {kind}: traced median {traced_ms:.3f} ms vs untraced {untraced_ms:.3f} ms"
            )
        units = {name: unit for name, (_, _, unit) in LAYER_METRICS.items()}
        units.update(OTHER_LAYER_UNITS)
        out = {name: metric(values[name], units[name]) for name in sorted(units)}
        report.insert(1, self_time_table(window, spanlib.self_times(window)))
        return out, tally, report
    finally:
        workload.stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout = Path.cwd()
    if not (checkout / "src" / "repro" / "core" / "cli.py").is_file():
        print("perfbench: run from the root of a checkout (no src/repro here)", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    # Compile the program's modules up front so no timed process pays it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(checkout / "src")], check=True,
                   stdout=subprocess.DEVNULL)
    work = checkout / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    probe_start = harness.probe_ms()
    try:
        metrics, tally, report = execute(args, checkout, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    probe_end = harness.probe_ms()

    attempted = sum(tally.attempted.values())
    failed = sum(tally.failed.values())
    print(f"== perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"-- probe (fixed loop): {probe_start:.2f} ms at start, {probe_end:.2f} ms at end")
    for kind in (CACHED, RUN, QUERY):
        samples = tally.samples[kind]
        rule = ""
        if kind != RUN and harness.tail(samples) is None:
            rule = " (p90 below the tail rule)"
        print(f"-- {kind}: {len(samples)} ops, {tally.failed[kind]} failed{rule}")
    for line in report:
        print(line)
    for note in tally.notes:
        print(f"!! {note}")
    for name, entry in metrics.items():
        print(f"   {name:<34} {entry['value']:>14.4f} {entry['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
