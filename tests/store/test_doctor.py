"""``popper doctor``: every kind of crash debris is found, the repair
matrix is applied, and healthy state is never touched."""

import json
import os
import subprocess
import sys

import pytest

from repro.common.locking import LockInfo, RepoLock
from repro.store.doctor import diagnose, repair


@pytest.fixture
def root(tmp_path):
    """A bare repository skeleton: the doctor works on the tree alone."""
    (tmp_path / ".pvcs" / "locks").mkdir(parents=True)
    (tmp_path / ".pvcs" / "cache" / "objects").mkdir(parents=True)
    (tmp_path / ".pvcs" / "cache" / "index").mkdir(parents=True)
    (tmp_path / ".pvcs" / "cache" / "quarantine").mkdir(parents=True)
    return tmp_path


def dead_pid():
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def write_lock(path, pid):
    info = LockInfo(pid=pid, host=os.uname().nodename, label="t", created=1.0)
    path.write_text(info.to_json() + "\n", encoding="utf-8")


def kinds(report):
    return sorted(f.kind for f in report.findings)


class TestCleanRepo:
    def test_empty_tree_is_clean(self, root):
        report = diagnose(root)
        assert report.clean
        assert "is clean" in report.describe()

    def test_missing_root_is_clean(self, tmp_path):
        assert diagnose(tmp_path / "nope").clean

    def test_healthy_state_not_flagged(self, root):
        # Released lock (empty file), healthy journal, complete record.
        (root / ".pvcs" / "locks" / "store.lock").write_bytes(b"")
        (root / "journal.jsonl").write_text('{"event": "ok"}\n')
        oid = "ab" + "cd" * 31
        pool = root / ".pvcs" / "cache" / "objects" / oid[:2]
        pool.mkdir(parents=True)
        (pool / oid[2:]).write_bytes(b"payload")
        (root / ".pvcs" / "cache" / "index" / "k.json").write_text(
            json.dumps({"key": "k", "outputs": [{"oid": oid}]})
        )
        assert diagnose(root).clean


class TestStaleLocks:
    def test_dead_holder_flagged_and_truncated(self, root):
        path = root / ".pvcs" / "locks" / "store.lock"
        write_lock(path, dead_pid())
        report = diagnose(root)
        assert kinds(report) == ["stale-lock"]
        assert "is dead" in report.findings[0].detail
        repair(report)
        assert report.findings[0].repaired
        assert path.read_bytes() == b""
        assert diagnose(root).clean

    def test_live_holder_left_alone(self, root):
        write_lock(root / ".pvcs" / "locks" / "store.lock", os.getpid())
        assert diagnose(root).clean

    def test_unreadable_metadata_flagged(self, root):
        (root / ".pvcs" / "locks" / "refs.lock").write_text("garbage")
        report = diagnose(root)
        assert kinds(report) == ["stale-lock"]
        assert "unreadable" in report.findings[0].detail

    def test_truncated_lock_is_acquirable_again(self, root):
        path = root / ".pvcs" / "locks" / "store.lock"
        write_lock(path, dead_pid())
        repair(diagnose(root))
        with RepoLock(path, timeout_s=0.5):
            pass


class TestOrphanTemps:
    def test_old_ingest_temp_swept(self, root):
        temp = root / ".pvcs" / "cache" / "objects" / ".ingest-abc123"
        temp.write_bytes(b"half an object")
        os.utime(temp, (1.0, 1.0))
        report = diagnose(root)
        assert kinds(report) == ["orphan-temp"]
        repair(report)
        assert not temp.exists()

    def test_fresh_temp_spared_by_age_gate(self, root):
        """A young temp may belong to a live writer; doctor must be safe
        to run next to an in-flight popper run."""
        temp = root / ".pvcs" / "cache" / "objects" / ".ingest-live"
        temp.write_bytes(b"in flight")
        assert diagnose(root, tmp_age_s=60.0).clean
        assert kinds(diagnose(root, tmp_age_s=0.0)) == ["orphan-temp"]

    def test_atomic_write_temp_swept_but_locks_spared(self, root):
        temp = root / ".pvcs" / ".HEAD.x7f3"
        temp.write_text("refs/heads/main")
        os.utime(temp, (1.0, 1.0))
        lock = root / ".pvcs" / "locks" / "store.lock"
        lock.write_bytes(b"")
        os.utime(lock, (1.0, 1.0))
        report = diagnose(root)
        assert [f.path for f in report.findings] == [temp]


class TestTornJsonl:
    def test_dangling_tail_truncated_to_last_good_line(self, root):
        path = root / "experiments" / "e" / "run-state.jsonl"
        path.parent.mkdir(parents=True)
        good = '{"task": "f1"}\n'
        path.write_text(good + '{"task": "f2", "sta')
        report = diagnose(root)
        assert kinds(report) == ["torn-jsonl"]
        repair(report)
        assert path.read_text() == good
        assert diagnose(root).clean

    def test_terminated_garbage_line_truncated(self, root):
        path = root / "journal.jsonl"
        path.write_text('{"event": "ok"}\nnot json\n')
        report = diagnose(root)
        assert kinds(report) == ["torn-jsonl"]
        repair(report)
        assert path.read_text() == '{"event": "ok"}\n'

    def test_complete_record_missing_newline_is_kept(self, root):
        """A write cut exactly before the terminator lost nothing; the
        record must be completed, not discarded."""
        path = root / "journal.jsonl"
        path.write_text('{"event": "ok"}\n{"event": "late"}')
        repair(diagnose(root))
        assert path.read_text() == '{"event": "ok"}\n{"event": "late"}\n'

    def test_torn_only_line_leaves_empty_file(self, root):
        path = root / "journal.jsonl"
        path.write_text('{"event": "o')
        repair(diagnose(root))
        assert path.read_bytes() == b""

    @pytest.mark.parametrize(
        "tail, kept",
        [
            ("", ""),
            ('{"task": "f4"}\n', '{"task": "f4"}\n'),
            ('{"task": "f4", "st', ""),
        ],
        ids=["glued-last-line", "whole-tail", "torn-tail"],
    )
    def test_glued_line_keeps_the_appended_record(self, root, tail, kept):
        """An append onto a torn tail by a writer that did not cut it
        first glues a whole record onto the fragment: doctor keeps the
        record and drops the fragment."""
        path = root / "experiments" / "e" / "run-state.jsonl"
        path.parent.mkdir(parents=True)
        glued = '{"task": "f2", "fing{"task": "f3", "state": "ok"}\n'
        path.write_text('{"task": "f1"}\n' + glued + tail)
        report = diagnose(root)
        assert kinds(report) == ["glued-jsonl"]
        assert "line 2" in report.findings[0].detail
        repair(report)
        healed = '{"task": "f1"}\n{"task": "f3", "state": "ok"}\n'
        assert path.read_text() == healed + kept
        assert diagnose(root).clean

    def test_mid_file_garbage_is_not_crash_debris(self, root):
        """Garbage before the tail is no crash's debris: doctor says why
        every reader rejects the ledger, and repair leaves it alone."""
        path = root / "journal.jsonl"
        content = '{"event": "ok"}\nnot json\n{"event": "late"}\n'
        path.write_text(content)
        report = diagnose(root)
        assert kinds(report) == ["corrupt-jsonl"]
        assert report.findings[0].action == ""
        assert f"{path}:2:" in report.findings[0].detail
        repair(report)
        assert not report.findings[0].repaired
        assert path.read_text() == content

    def test_user_jsonl_is_not_a_ledger(self, root):
        """Only popper's ledgers are scanned: a torn data file in an
        experiment keeps its bytes."""
        path = root / "experiments" / "e" / "dataset.jsonl"
        path.parent.mkdir(parents=True)
        content = b'{"a": 1}\n{"b": 2}\n{"c": 3'
        path.write_bytes(content)
        report = diagnose(root)
        assert report.clean
        repair(report)
        assert path.read_bytes() == content

    def test_object_pool_contents_never_parsed(self, root):
        """Payloads under objects/ are opaque; a stored .jsonl artifact
        must never be 'repaired' by the doctor."""
        pool = root / ".pvcs" / "cache" / "objects" / "ab"
        pool.mkdir(parents=True)
        torn = pool / "payload.jsonl"
        torn.write_text('{"half": tr')
        assert diagnose(root).clean


class TestIndexRecords:
    def test_partial_record_unlinked(self, root):
        path = root / ".pvcs" / "cache" / "index" / "k.json"
        path.write_text('{"key": "k", "outp')
        report = diagnose(root)
        assert kinds(report) == ["partial-index-record"]
        repair(report)
        assert not path.exists()

    def test_dangling_record_unlinked(self, root):
        oid = "11" * 32
        path = root / ".pvcs" / "cache" / "index" / "k.json"
        path.write_text(json.dumps({"key": "k", "outputs": [{"oid": oid}]}))
        report = diagnose(root)
        assert kinds(report) == ["dangling-index-record"]
        repair(report)
        assert not path.exists()


class TestQuarantine:
    def test_quarantined_object_reported_not_repaired(self, root):
        path = root / ".pvcs" / "cache" / "quarantine" / ("aa" * 32)
        path.write_bytes(b"bit rot")
        report = diagnose(root)
        assert kinds(report) == ["quarantined-object"]
        assert not report.repairable
        repair(report)
        assert path.exists()
        assert "report-only" in report.findings[0].describe()


class TestReportShape:
    def test_diagnose_never_modifies(self, root):
        temp = root / ".pvcs" / "cache" / "objects" / ".ingest-x"
        temp.write_bytes(b"x")
        os.utime(temp, (1.0, 1.0))
        (root / "journal.jsonl").write_text('{"a": 1}\n{"b"')
        before = sorted(p for p in root.rglob("*") if p.is_file())
        diagnose(root)
        assert sorted(p for p in root.rglob("*") if p.is_file()) == before
        assert (root / "journal.jsonl").read_text() == '{"a": 1}\n{"b"'

    def test_repair_is_idempotent(self, root):
        (root / "journal.jsonl").write_text('{"a": 1}\n{"b"')
        repair(diagnose(root))
        second = repair(diagnose(root))
        assert second.clean

    def test_unrepaired_tracks_failures(self, root):
        write_lock(root / ".pvcs" / "locks" / "store.lock", dead_pid())
        report = diagnose(root)
        assert report.repairable and report.unrepaired == report.repairable
        repair(report)
        assert report.unrepaired == []


class TestQueueDebris:
    """Leases and results a crashed `popper serve` daemon leaves behind."""

    @pytest.fixture
    def queue_dir(self, root):
        queue = root / ".pvcs" / "queue"
        (queue / "leases").mkdir(parents=True)
        (queue / "results").mkdir(parents=True)
        return queue

    def lease(self, queue_dir, job, pid):
        path = queue_dir / "leases" / f"{job}.json"
        path.write_text(
            json.dumps({"job": job, "pid": pid, "deadline": 1.0}),
            encoding="utf-8",
        )
        return path

    def test_dead_holder_lease_unlinked(self, queue_dir, root):
        path = self.lease(queue_dir, "job-000000", dead_pid())
        report = diagnose(root)
        assert kinds(report) == ["stale-queue-lease"]
        repaired = repair(report)
        assert not repaired.unrepaired
        assert not path.exists()

    def test_live_holder_lease_untouched(self, queue_dir, root):
        # Our own pid: a daemon is "serving" right now.
        path = self.lease(queue_dir, "job-000000", os.getpid())
        assert diagnose(root).clean
        assert path.exists()

    def test_unreadable_lease_unlinked(self, queue_dir, root):
        path = queue_dir / "leases" / "job-000001.json"
        path.write_text('{"job": "job-000001", "pid":', encoding="utf-8")
        report = repair(diagnose(root))
        assert not report.unrepaired
        assert not path.exists()

    def test_partial_result_unlinked(self, queue_dir, root):
        torn = queue_dir / "results" / "job-000000.json"
        torn.write_text('{"job": "job-000000", "meta"', encoding="utf-8")
        wrong = queue_dir / "results" / "job-000001.json"
        wrong.write_text('{"unrelated": true}', encoding="utf-8")
        report = diagnose(root)
        assert kinds(report) == ["partial-queue-result"] * 2
        repaired = repair(report)
        assert not repaired.unrepaired
        assert not torn.exists() and not wrong.exists()

    def test_healthy_queue_state_not_flagged(self, queue_dir, root):
        good = queue_dir / "results" / "job-000000.json"
        good.write_text(
            json.dumps({"job": "job-000000", "meta": {"rows": 1}}),
            encoding="utf-8",
        )
        assert diagnose(root).clean
        assert good.exists()
