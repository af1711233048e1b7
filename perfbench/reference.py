"""The machine-speed reference: fixed work that shares no code with the
program under test, timed between the program's ops.

    python reference.py process DIR   # one short-lived process, then exit
    python reference.py http DIR      # an HTTP server; prints its port

The benchmark runs on a shared host whose speed drifts by tens of
percent over seconds and minutes.  Each op's latency is scaled by how
long this reference took at that moment (see ``harness.SpeedLog``), so
the metrics read as latencies at one fixed machine speed: a slower
program still reads slower, a slower host does not.  The two references
have the cost shape of the op classes they stand beside:

- ``process`` is a fresh interpreter that imports a fixed set of modules
  (numpy, yaml and some of the standard library), runs a fixed loop and
  publishes a small file with write, fsync and rename — the shape of a
  short ``popper`` process;
- ``http`` is a stdlib ``ThreadingHTTPServer`` whose one handler parses a
  JSON body, publishes a small file the same way and runs a short fixed
  loop — the shape of a request to ``popper serve``.

Only the standard library, numpy and yaml are used, and nothing from the
repository: a change to the program never changes the reference.
"""

import json
import os
import sys

LOOP = 100_000
HTTP_LOOP = 20_000


def fixed_loop(n: int) -> int:
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return acc


def publish(directory: str, data: bytes) -> None:
    """Write, fsync and rename one small file, then fsync its directory."""
    tmp = os.path.join(directory, "reference.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, os.path.join(directory, "reference.json"))
    dfd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dfd)
    finally:
        os.close(dfd)


def process(directory: str) -> None:
    import argparse  # noqa: F401
    import csv  # noqa: F401
    import decimal  # noqa: F401
    import email.parser  # noqa: F401
    import hashlib
    import http.client  # noqa: F401
    import logging  # noqa: F401
    import statistics  # noqa: F401
    import tarfile  # noqa: F401
    import xml.dom.minidom  # noqa: F401

    import numpy  # noqa: F401
    import yaml  # noqa: F401

    acc = fixed_loop(LOOP)
    publish(directory, json.dumps({"acc": acc, "id": hashlib.sha256(b"ref").hexdigest()}).encode())


def serve(directory: str) -> None:
    import hashlib
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args) -> None:
            pass

        def do_POST(self) -> None:
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            doc = {"id": hashlib.sha256(json.dumps(body).encode()).hexdigest(), "items": list(range(200))}
            publish(directory, json.dumps(doc).encode())
            out = json.dumps({"ok": True, "acc": fixed_loop(HTTP_LOOP)}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(out)))
            self.end_headers()
            self.wfile.write(out)

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    {"process": process, "http": serve}[sys.argv[1]](sys.argv[2])
