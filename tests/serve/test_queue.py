"""The durable job queue: admission, leasing, backoff, journal replay."""

import json

import pytest

from repro.common.errors import QueueFullError, ServeError, UnknownJobError
from repro.engine.resilience import RetryPolicy
from repro.monitor.journal import load_journal
from repro.serve.queue import REQUEUE_POLICY, JobQueue


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def make_queue(tmp_path, clock, **kwargs):
    kwargs.setdefault("max_depth", 4)
    kwargs.setdefault("lease_s", 10.0)
    kwargs.setdefault("durable", False)
    return JobQueue(tmp_path / "queue", clock=clock, **kwargs)


class TestLifecycle:
    def test_submit_claim_complete(self, tmp_path, clock):
        q = make_queue(tmp_path, clock)
        job = q.submit("alpha", tenant="t1")
        assert job.state == "queued" and job.id == "job-000000"
        leased = q.claim()
        assert leased.id == job.id
        assert leased.state == "leased" and leased.attempts == 1
        assert q._lease_path(job.id).is_file()
        done = q.complete(job.id, meta={"rows": 3}, seconds=1.5)
        assert done.state == "done" and done.meta == {"rows": 3}
        assert not q._lease_path(job.id).exists()
        result = json.loads(q._result_path(job.id).read_text())
        assert result["job"] == job.id and result["meta"] == {"rows": 3}

    def test_complete_is_idempotent_on_done(self, tmp_path, clock):
        q = make_queue(tmp_path, clock)
        job = q.submit("alpha")
        q.claim()
        q.complete(job.id)
        assert q.complete(job.id).state == "done"

    def test_complete_queued_job_refused(self, tmp_path, clock):
        q = make_queue(tmp_path, clock)
        job = q.submit("alpha")
        with pytest.raises(ServeError, match="state 'queued'"):
            q.complete(job.id)

    def test_unknown_job_raises(self, tmp_path, clock):
        q = make_queue(tmp_path, clock)
        with pytest.raises(UnknownJobError):
            q.get("job-999999")

    def test_claim_on_empty_queue_is_none(self, tmp_path, clock):
        q = make_queue(tmp_path, clock)
        assert q.claim() is None


class TestAdmission:
    def test_shed_at_depth_bound(self, tmp_path, clock):
        q = make_queue(tmp_path, clock, max_depth=2)
        q.submit("a")
        q.submit("b")
        with pytest.raises(QueueFullError):
            q.submit("c")
        assert q.shed_count == 1
        assert q.stats()["shed"] == 1

    def test_leased_jobs_count_toward_depth(self, tmp_path, clock):
        q = make_queue(tmp_path, clock, max_depth=2)
        q.submit("a")
        q.submit("b")
        q.claim()
        assert q.depth() == 2
        with pytest.raises(QueueFullError):
            q.submit("c")

    def test_cache_served_submission_bypasses_the_bound(self, tmp_path, clock):
        q = make_queue(tmp_path, clock, max_depth=1)
        q.submit("a")
        job = q.submit("warm", cached_meta={"rows": 2})
        assert job.state == "done" and job.cached
        assert q._result_path(job.id).is_file()
        assert q.depth() == 1  # the cache-served job took no slot


class TestFairness:
    def test_claim_prefers_the_tenant_holding_fewest_leases(
        self, tmp_path, clock
    ):
        q = make_queue(tmp_path, clock, max_depth=8)
        q.submit("a1", tenant="alice")
        q.submit("a2", tenant="alice")
        q.submit("b1", tenant="bob")
        first = q.claim()
        assert first.tenant == "alice"  # FIFO while nobody holds a lease
        second = q.claim()
        assert second.tenant == "bob"  # alice holds one; bob held none

    def test_never_two_leases_for_one_experiment(self, tmp_path, clock):
        q = make_queue(tmp_path, clock, max_depth=8)
        q.submit("same")
        q.submit("same")
        assert q.claim().experiment == "same"
        assert q.claim() is None  # the sibling shares an output directory


class TestRetries:
    def test_fail_requeues_with_backoff(self, tmp_path, clock):
        q = make_queue(tmp_path, clock)
        job = q.submit("a")
        q.claim()
        q.fail(job.id, "boom")
        assert job.state == "queued"
        assert job.error == "boom"
        assert job.not_before > clock()
        assert q.claim() is None  # still inside the backoff window
        clock.advance(REQUEUE_POLICY.max_delay_s + 0.01)
        assert q.claim().id == job.id

    def test_attempt_budget_dead_letters(self, tmp_path, clock):
        q = make_queue(
            tmp_path,
            clock,
            retry=RetryPolicy(max_attempts=2, backoff_s=0.0, jitter=0.0),
        )
        job = q.submit("a")
        for _ in range(2):
            clock.advance(1.0)
            assert q.claim() is not None
            q.fail(job.id, "boom")
        assert job.state == "dead"
        assert q.claim() is None
        assert q.stats()["states"]["dead"] == 1

    def test_lease_expiry_requeues(self, tmp_path, clock):
        q = make_queue(tmp_path, clock, lease_s=5.0)
        job = q.submit("a")
        q.claim()
        assert q.expire_leases() == []
        clock.advance(6.0)
        assert [j.id for j in q.expire_leases()] == [job.id]
        assert job.state == "queued"
        assert not q._lease_path(job.id).exists()

    def test_heartbeat_extends_the_deadline(self, tmp_path, clock):
        q = make_queue(tmp_path, clock, lease_s=5.0)
        job = q.submit("a")
        q.claim()
        clock.advance(4.0)
        q.heartbeat(job.id)
        clock.advance(4.0)
        assert q.expire_leases() == []  # renewed at t+4, expires t+9


class TestReplay:
    def test_restart_rebuilds_every_state(self, tmp_path, clock):
        q = make_queue(tmp_path, clock, max_depth=8)
        done = q.submit("done-exp")
        q.claim()
        q.complete(done.id, meta={"rows": 1}, seconds=0.5)
        failed = q.submit("failed-exp")
        queued = q.submit("queued-exp")
        clock.advance(0.01)
        leased = q.claim()
        assert leased.id == failed.id  # FIFO: the earlier submission
        q.fail(failed.id, "boom")
        q.close()

        replayed = make_queue(tmp_path, clock, max_depth=8)
        assert replayed.get(done.id).state == "done"
        assert replayed.get(done.id).meta == {"rows": 1}
        assert replayed.get(queued.id).state == "queued"
        assert replayed.get(failed.id).state == "queued"
        assert replayed.get(failed.id).error == "boom"

    def test_leased_jobs_recover_as_queued(self, tmp_path, clock):
        q = make_queue(tmp_path, clock)
        job = q.submit("a")
        q.claim()
        q.checkpoint()
        # No close(): the daemon "dies" holding the lease.
        replayed = make_queue(tmp_path, clock)
        recovered = replayed.get(job.id)
        assert recovered.state == "queued"
        assert recovered.attempts == 1  # the lost lease spent one attempt
        events, torn = load_journal(tmp_path / "queue" / "journal.jsonl")
        requeues = [e for e in events if e.get("event") == "job_requeued"]
        assert torn == 0
        assert requeues and requeues[-1]["reason"] == "recovered"

    def test_torn_journal_tail_loses_no_job_across_restarts(self, tmp_path, clock):
        q = make_queue(tmp_path, clock)
        q.submit("a")
        q.close()
        journal = tmp_path / "queue" / "journal.jsonl"
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "ts": 1000.0, "ev')  # crashed append
        with pytest.warns(UserWarning, match="torn trailing"):
            restarted = make_queue(tmp_path, clock)
        restarted.submit("b")
        restarted.submit("c")
        restarted.close()
        again = make_queue(tmp_path, clock)
        assert sorted(again.jobs) == ["job-000000", "job-000001", "job-000002"]
        assert load_journal(journal)[1] == 0
        again.close()

    def test_serials_and_seqs_continue_across_restart(self, tmp_path, clock):
        q = make_queue(tmp_path, clock)
        q.submit("a")
        q.close()
        replayed = make_queue(tmp_path, clock)
        assert replayed.submit("b").id == "job-000001"
        replayed.close()
        events, _ = load_journal(tmp_path / "queue" / "journal.jsonl")
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_unknown_journal_kinds_are_ignored(self, tmp_path, clock):
        q = make_queue(tmp_path, clock)
        job = q.submit("a")
        q.close()
        path = tmp_path / "queue" / "journal.jsonl"
        record = {"seq": 999, "ts": clock(), "event": "job_promoted", "job": job.id}
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        replayed = make_queue(tmp_path, clock)
        assert replayed.get(job.id).state == "queued"

    def test_bad_parameters_rejected(self, tmp_path, clock):
        with pytest.raises(ServeError, match="max_depth"):
            make_queue(tmp_path, clock, max_depth=0)
        with pytest.raises(ServeError, match="lease_s"):
            make_queue(tmp_path, clock, lease_s=0.0)
