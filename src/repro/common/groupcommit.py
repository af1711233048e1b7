"""Group-commit appends: amortizing the durability tax across a window.

``BENCH_durability.json`` prices a durable :func:`~repro.common.fsutil.
journal_append` at ~110x a buffered one — the entire difference is the
per-line ``fsync``.  A :class:`GroupCommitWriter` keeps the *write*
per-append (every line still lands in the file, and in the OS page
cache, as it happens — a killed process loses nothing it wrote) but
pays the durability barrier once per bounded *window* of appends:
size-, byte- and time-triggered, with an explicit :meth:`flush` at
span/run boundaries.

Durability contract (documented in ``docs/robustness.md``):

* a **process** crash (kill -9, injected crash) loses nothing — every
  append was written and flushed to the kernel before :meth:`append`
  returned;
* a **machine** crash (power cut) loses at most the current unsynced
  window — a contiguous suffix of whole lines plus, at worst, one torn
  trailing line.  Never a torn prefix: appends are sequential, so the
  tear is always at the tail.

Every append-only JSONL file in the toolchain is a *ledger* read by
:func:`read_jsonl` (which skips only a torn final line) and cut by one
tail rule, :func:`repaired_tail`, which :func:`repair_tail` applies
before an append so no record is glued onto a crash's fragment.

Bulk writers (journal shard merges, fuzz coverage harvests) can opt
into :meth:`batched` mode, which additionally buffers the *writes*
into one syscall per window — the loop-append fix for callers that
used to pay a write+flush (or a whole file open) per event.

Crash injection: with a :class:`~repro.common.crash.CrashPlan`
installed the writer degrades to one window per append, so the
existing ``<label>.torn`` crashpoint keeps its exact semantics (half
the line flushed), and a new ``<label>.window`` crashpoint fires
*before* the window's bytes reach the file — the "crash inside a
group-commit window" hazard, which loses the window cleanly.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from contextlib import contextmanager
from pathlib import Path
from threading import Lock
from typing import IO, Any, Callable, Iterator

from repro.common.crash import active_crash_plan, crashpoint
from repro.common.errors import LedgerError
from repro.common.fsutil import ensure_dir

__all__ = ["GroupCommitWriter", "read_jsonl", "repaired_tail", "repair_tail"]

#: Default window bounds: whichever trips first commits the window.
DEFAULT_MAX_EVENTS = 256
DEFAULT_MAX_BYTES = 64 * 1024
DEFAULT_MAX_DELAY_S = 0.05

#: Bytes :func:`repair_tail` reads from the end of a ledger.
_TAIL_WINDOW = 64 * 1024


def read_jsonl(
    path: str | os.PathLike, raw: bytes | None = None
) -> tuple[list[dict[str, Any]], int]:
    """Parse a JSONL ledger; returns ``(records, torn-lines-skipped)``.

    A torn *trailing* line (the one write a crash interrupted) is
    skipped with a warning; any unparseable or non-object line before it
    raises :class:`~repro.common.errors.LedgerError`.  *raw* is the
    file's content when the caller already holds it.
    """
    if raw is None:
        raw = Path(path).read_bytes()
    lines = raw.split(b"\n")
    last = len(lines) - 1
    while last >= 0 and not lines[last].strip():
        last -= 1
    records: list[dict[str, Any]] = []
    torn = 0
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            if index == last:
                warnings.warn(
                    f"{path}:{index + 1}: skipping torn trailing line "
                    "(crashed append)",
                    stacklevel=2,
                )
                torn = 1
                continue
            raise LedgerError(path, index + 1, f"unparseable line: {exc}") from exc
        if not isinstance(record, dict):
            raise LedgerError(path, index + 1, "line is not a JSON object")
        records.append(record)
    return records, torn


def repaired_tail(raw: bytes) -> bytes | None:
    """What a ledger (or a trailing part of it starting at a line
    boundary) is cut to, or ``None`` when its tail is whole.

    Dangling bytes after the last newline, or a terminated final line,
    that fail to parse are torn; a final record that only lacks its
    newline is completed, not cut.
    """
    cut = raw.rfind(b"\n")
    tail = raw[cut + 1 :]
    if tail.strip():
        try:
            json.loads(tail)
        except ValueError:
            return raw[: cut + 1]
        return raw + b"\n"
    if cut < 0:
        return None
    start = raw.rfind(b"\n", 0, cut) + 1
    last = raw[start:cut]
    if last.strip():
        try:
            json.loads(last)
        except ValueError:
            return raw[:start]
    return None


def repair_tail(path: str | os.PathLike) -> None:
    """Apply :func:`repaired_tail` to the ledger at *path*, if any,
    reading only a trailing window.  Appenders run it before their first
    write, under the lock they append under."""
    try:
        handle = open(path, "r+b")
    except FileNotFoundError:
        return
    with handle:
        start = max(0, handle.seek(0, os.SEEK_END) - _TAIL_WINDOW)
        handle.seek(start)
        raw = handle.read()
        if start and raw.count(b"\n") < 2:
            # The last line may begin before the window: read it all.
            start = handle.seek(0)
            raw = handle.read()
        elif start:
            skip = raw.index(b"\n") + 1  # start at a line boundary
            start += skip
            raw = raw[skip:]
        repaired = repaired_tail(raw)
        if repaired is None:
            return
        # The tail rule only ever cuts the window or completes its last
        # record with a newline (the handle is at the end of the file).
        if len(repaired) < len(raw):
            handle.truncate(start + len(repaired))
        else:
            handle.write(b"\n")


class GroupCommitWriter:
    """Append-only line writer with one durability barrier per window.

    Thread-safe: concurrent appenders (scheduler workers sharing one
    run journal) serialize on an internal lock, and every line lands as
    one contiguous write.  ``durable=False`` writers never fsync — for
    them the window only batches write syscalls in :meth:`batched`
    mode, and plain appends behave exactly like the historical
    per-line ``journal_append``.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        durable: bool = False,
        fresh: bool = False,
        max_events: int = DEFAULT_MAX_EVENTS,
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_delay_s: float = DEFAULT_MAX_DELAY_S,
        crash_label: str = "journal.append",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.path = Path(path)
        self.durable = bool(durable)
        self.max_events = max(1, int(max_events))
        self.max_bytes = max(1, int(max_bytes))
        self.max_delay_s = float(max_delay_s)
        self.crash_label = crash_label
        self._clock = clock
        self._lock = Lock()
        ensure_dir(self.path.parent)
        if fresh:
            # Truncate separately, then append: append-mode writes can
            # only ever grow the file, never clobber another writer.
            self.path.write_text("", encoding="utf-8")
        else:
            repair_tail(self.path)
        self._fh: IO[str] | None = self.path.open("a", encoding="utf-8")
        # Buffered lines (batched mode only) and their byte count.
        self._buffer: list[str] = []
        self._buffered_bytes = 0
        # Written-but-unsynced appends (durable write-through mode).
        self._unsynced = 0
        self._window_opened: float | None = None
        self._batch_depth = 0
        #: Counters for benchmarks and tests: ``syncs`` << ``appends``
        #: is the amortization the group commit exists to provide.
        self.appends = 0
        self.commits = 0
        self.syncs = 0

    # -- window bookkeeping -----------------------------------------------------
    def _window_full(self, events: int, nbytes: int) -> bool:
        if events >= self.max_events or nbytes >= self.max_bytes:
            return True
        return (
            self._window_opened is not None
            and self._clock() - self._window_opened >= self.max_delay_s
        )

    def pending(self) -> int:
        """Appends not yet committed (buffered or written-but-unsynced)."""
        with self._lock:
            return len(self._buffer) + self._unsynced

    # -- writing ------------------------------------------------------------------
    def append(self, line: str) -> None:
        """Queue one line; commits the window when a bound trips.

        The line is written (and flushed to the kernel) before this
        returns unless a :meth:`batched` section is active; the fsync —
        for durable writers — is deferred to the window commit.
        """
        if "\n" in line:
            raise ValueError("GroupCommitWriter.append takes a single line")
        with self._lock:
            if self._fh is None:
                raise ValueError(f"group-commit writer {self.path} is closed")
            self.appends += 1
            if active_crash_plan() is not None:
                # Crash determinism: one window per append, so an
                # injected crash always lands at the same line.  The
                # window crashpoint fires with nothing on disk (the
                # event is lost whole); the torn crashpoint fires with
                # exactly half the line flushed.
                self._drain_locked()
                crashpoint(f"{self.crash_label}.window")
                half = max(1, len(line) // 2)
                self._fh.write(line[:half])
                self._fh.flush()
                crashpoint(f"{self.crash_label}.torn")
                self._fh.write(line[half:] + "\n")
                self._fh.flush()
                self.commits += 1
                self._sync_locked()
                self._window_opened = None
                return
            if self._batch_depth > 0:
                self._buffer.append(line + "\n")
                self._buffered_bytes += len(line) + 1
                if self._window_opened is None:
                    self._window_opened = self._clock()
                if self._window_full(len(self._buffer), self._buffered_bytes):
                    self._commit_locked()
                return
            # Write-through: the line survives a process kill the moment
            # this returns; only the machine-crash barrier is deferred.
            self._fh.write(line + "\n")
            self._fh.flush()
            if not self.durable:
                return
            self._unsynced += 1
            if self._window_opened is None:
                self._window_opened = self._clock()
            if self._window_full(self._unsynced, 0):
                self._commit_locked()

    def _drain_locked(self) -> None:
        """Write any batched lines out (one write), without syncing."""
        if not self._buffer:
            return
        payload = "".join(self._buffer)
        self._buffer.clear()
        self._buffered_bytes = 0
        crashpoint(f"{self.crash_label}.window")
        self._fh.write(payload)
        self._fh.flush()

    def _sync_locked(self) -> None:
        if self.durable and self._fh is not None:
            os.fsync(self._fh.fileno())
            self.syncs += 1
        self._unsynced = 0

    def _commit_locked(self) -> None:
        had_work = bool(self._buffer) or self._unsynced > 0
        self._drain_locked()
        if had_work:
            self.commits += 1
            self._sync_locked()
        self._window_opened = None

    def flush(self) -> None:
        """Commit the open window: drain batched lines, fsync if durable.

        Span/run boundaries call this explicitly, so the at-most-one-
        window loss bound never spans a boundary the caller cares about.
        """
        with self._lock:
            if self._fh is not None:
                self._commit_locked()

    @contextmanager
    def batched(self) -> Iterator["GroupCommitWriter"]:
        """Buffer writes (one syscall per window) for a bulk append loop.

        Nests; the outermost exit commits whatever remains.  With a
        crash plan installed appends keep their deterministic one-
        window-per-line behavior even inside a batch.
        """
        with self._lock:
            self._batch_depth += 1
        try:
            yield self
        finally:
            with self._lock:
                self._batch_depth -= 1
                if self._batch_depth == 0 and self._fh is not None:
                    self._commit_locked()

    def close(self) -> None:
        with self._lock:
            if self._fh is None:
                return
            self._commit_locked()
            self._fh.close()
            self._fh = None

    @property
    def in_batch(self) -> bool:
        """True while a :meth:`batched` section is active."""
        return self._batch_depth > 0

    @property
    def closed(self) -> bool:
        return self._fh is None

    def __enter__(self) -> "GroupCommitWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
