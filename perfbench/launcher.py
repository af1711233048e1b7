"""The traced ``popper``: ``python launcher.py SPANS_DIR ARGS...``.

Installs the layer wrappers, times ``import repro.core.cli``, calls its
``main(ARGS)`` and writes this process's spans to ``SPANS_DIR/<pid>.json``
when ``main`` returns.  Worker processes forked by ``popper serve``
inherit the wrappers, start with an empty record and write their own
file when the pool drains.  ``PERFBENCH_OP`` names the op the spans of
this process belong to.
"""

import os
import sys
import time

import spans

# Nothing else is imported from the benchmark's directory: keep it off
# the path so it can never shadow a module the program imports.
del sys.path[0]

recorder = spans.Recorder(op=os.environ.get("PERFBENCH_OP", ""))
recorder.dump_dir = sys.argv[1]
os.register_at_fork(after_in_child=recorder.after_fork_in_child)
spans.Tracer(spans.layer_wrappers(recorder)).install()

start = time.perf_counter()
import repro.core.cli as cli  # noqa: E402

recorder.record("cli.import", start, time.perf_counter(), op=recorder.op)
recorder.counts["cli.processes"] = 1
recorder.counts["cli.modules"] = len(sys.modules)

code = 2
frame = recorder.begin("cli.main")
try:
    code = cli.main(sys.argv[2:])
finally:
    recorder.end(frame)
    recorder.counts["cli.scipy_loaded"] = 1.0 if "scipy" in sys.modules else 0.0
    recorder.dump()
sys.exit(code)
