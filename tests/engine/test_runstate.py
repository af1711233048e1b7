"""Checkpoint/resume: the run-state store and scheduler restore path."""

import json

import pytest

from repro.common.errors import EngineError
from repro.engine import (
    RunOptions,
    RunStateStore,
    SerialScheduler,
    TaskGraph,
    TaskState,
    ThreadedScheduler,
    task_fingerprint,
)

BACKENDS = [SerialScheduler(), ThreadedScheduler(max_workers=4)]
BACKEND_IDS = ["serial", "threaded"]


class TestFingerprint:
    def test_stable_and_parameter_sensitive(self):
        a = task_fingerprint("run", {"x": 1})
        assert a == task_fingerprint("run", {"x": 1})
        assert a != task_fingerprint("run", {"x": 2})
        assert a != task_fingerprint("other", {"x": 1})

    def test_key_order_does_not_matter(self):
        assert task_fingerprint("t", {"a": 1, "b": 2}) == task_fingerprint(
            "t", {"b": 2, "a": 1}
        )

    def test_empty_id_rejected(self):
        with pytest.raises(EngineError):
            task_fingerprint("")


class TestRunStateStore:
    def test_fresh_store_truncates(self, tmp_path):
        path = tmp_path / "run-state.jsonl"
        with RunStateStore(path) as store:
            store.record("a", "fp-a", "ok")
        with RunStateStore(path, resume=False) as store:
            assert len(store) == 0
        assert path.read_text() == ""

    def test_resume_loads_last_record_per_fingerprint(self, tmp_path):
        path = tmp_path / "run-state.jsonl"
        with RunStateStore(path) as store:
            store.record("a", "fp-a", "failed", error="boom")
            store.record("a", "fp-a", "ok", attempts=2)
            store.record("b", "fp-b", "failed")
        with RunStateStore(path, resume=True) as store:
            assert store.lookup("fp-a")["attempts"] == 2
            assert store.lookup("fp-b") is None  # failed: not restorable
            assert store.states() == {"fp-a": "ok", "fp-b": "failed"}

    def test_non_cacheable_success_is_not_restorable(self, tmp_path):
        path = tmp_path / "run-state.jsonl"
        with RunStateStore(path) as store:
            store.record("a", "fp-a", "ok", cacheable=False)
        with RunStateStore(path, resume=True) as store:
            assert store.lookup("fp-a") is None

    def test_records_survive_as_flushed_jsonl(self, tmp_path):
        path = tmp_path / "run-state.jsonl"
        store = RunStateStore(path)
        store.record("a", "fp-a", "ok", detail={"rows": 3})
        # Readable before close: a killed run keeps everything written.
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["detail"] == {"rows": 3}
        store.close()

    def test_bad_line_rejected_on_resume(self, tmp_path):
        # Garbage before the tail cannot come from a crashed append:
        # the store stays strict about it.
        path = tmp_path / "run-state.jsonl"
        good = json.dumps({"fingerprint": "f1", "state": "ok"})
        path.write_text(f"not json\n{good}\n")
        with pytest.raises(EngineError, match="bad run-state"):
            RunStateStore(path, resume=True)

    def test_torn_trailing_line_skipped_on_resume(self, tmp_path):
        path = tmp_path / "run-state.jsonl"
        good = json.dumps({"fingerprint": "f1", "state": "ok"})
        path.write_text(f'{good}\n{{"fingerprint": "f2", "sta')
        with pytest.warns(UserWarning, match="torn trailing"):
            store = RunStateStore(path, resume=True)
        assert store.lookup("f1") is not None
        assert store.lookup("f2") is None
        assert store.skipped == 1
        store.close()

    def test_records_after_a_torn_tail_survive_the_next_resume(self, tmp_path):
        # A crashed run leaves a torn tail; the resumed run must append
        # on a fresh line, not glue its records onto the fragment.
        path = tmp_path / "run-state.jsonl"
        good = json.dumps({"fingerprint": "fa", "state": "ok"})
        path.write_text(f'{good}\n{{"fingerprint": "fb", "sta')
        with pytest.warns(UserWarning, match="torn trailing"):
            store = RunStateStore(path, resume=True)
        store.record("c", "fc", "ok")
        store.record("d", "fd", "ok")
        store.close()
        with RunStateStore(path, resume=True) as store:
            assert sorted(store.states()) == ["fa", "fc", "fd"]
            assert store.skipped == 0


@pytest.mark.parametrize("scheduler", BACKENDS, ids=BACKEND_IDS)
class TestSchedulerResume:
    def _graph(self, ran, fail_b=False):
        graph = TaskGraph()
        graph.add(
            "a",
            lambda ctx: ran.append("a") or "A",
            fingerprint=task_fingerprint("a"),
            checkpoint=lambda value: {"value": value},
            restore=lambda detail: detail["value"],
        )
        graph.add(
            "b",
            lambda ctx: (1 / 0) if fail_b else (ran.append("b") or "B"),
            dependencies=("a",),
            fingerprint=task_fingerprint("b"),
            checkpoint=lambda value: {"value": value},
            restore=lambda detail: detail["value"],
        )
        return graph

    def test_resume_skips_succeeded_tasks(self, scheduler, tmp_path):
        path = tmp_path / "run-state.jsonl"
        ran: list = []
        with RunStateStore(path) as store:
            recap = scheduler.run(
                self._graph(ran, fail_b=True),
                options=RunOptions(run_state=store),
            )
        assert recap.succeeded == ["a"] and recap.failed == ["b"]
        assert ran == ["a"]

        ran.clear()
        with RunStateStore(path, resume=True) as store:
            recap = scheduler.run(
                self._graph(ran), options=RunOptions(run_state=store)
            )
        assert recap.ok
        # Only the failed task re-ran; "a" was restored from checkpoint.
        assert ran == ["b"]
        assert recap.outcome("a").restored
        assert not recap.outcome("b").restored
        assert recap.value("a") == "A"
        assert recap.value("b") == "B"

    def test_restore_failure_falls_back_to_reexecution(self, scheduler, tmp_path):
        path = tmp_path / "run-state.jsonl"
        ran: list = []

        def bad_restore(detail):
            raise RuntimeError("checkpoint unusable")

        def graph_with_bad_restore():
            graph = TaskGraph()
            graph.add(
                "a",
                lambda ctx: ran.append("a") or "A",
                fingerprint=task_fingerprint("a"),
                checkpoint=lambda value: {"value": value},
                restore=bad_restore,
            )
            return graph

        with RunStateStore(path) as store:
            scheduler.run(
                graph_with_bad_restore(), options=RunOptions(run_state=store)
            )
        ran.clear()
        with RunStateStore(path, resume=True) as store:
            recap = scheduler.run(
                graph_with_bad_restore(), options=RunOptions(run_state=store)
            )
        assert recap.ok and ran == ["a"]
        assert not recap.outcome("a").restored

    def test_checkpoint_veto_prevents_caching(self, scheduler, tmp_path):
        path = tmp_path / "run-state.jsonl"
        ran: list = []

        def graph_with_veto():
            graph = TaskGraph()
            graph.add(
                "job",
                lambda ctx: ran.append("job") or "ran-but-failed",
                fingerprint=task_fingerprint("job"),
                checkpoint=lambda value: None,  # not worth caching
                restore=lambda detail: "cached",
            )
            return graph

        with RunStateStore(path) as store:
            scheduler.run(graph_with_veto(), options=RunOptions(run_state=store))
        with RunStateStore(path, resume=True) as store:
            recap = scheduler.run(
                graph_with_veto(), options=RunOptions(run_state=store)
            )
        assert ran == ["job", "job"]  # re-ran on resume
        assert recap.value("job") == "ran-but-failed"

    def test_changed_fingerprint_invalidates_checkpoint(self, scheduler, tmp_path):
        path = tmp_path / "run-state.jsonl"
        ran: list = []

        def graph_for(params):
            graph = TaskGraph()
            graph.add(
                "run",
                lambda ctx: ran.append(params) or params,
                fingerprint=task_fingerprint("run", {"p": params}),
                checkpoint=lambda value: {"value": value},
                restore=lambda detail: detail["value"],
            )
            return graph

        with RunStateStore(path) as store:
            scheduler.run(graph_for(1), options=RunOptions(run_state=store))
        with RunStateStore(path, resume=True) as store:
            recap = scheduler.run(
                graph_for(2), options=RunOptions(run_state=store)
            )
        assert ran == [1, 2]  # new params -> no restore
        assert not recap.outcome("run").restored

    def test_tasks_without_fingerprint_never_checkpoint(self, scheduler, tmp_path):
        path = tmp_path / "run-state.jsonl"
        with RunStateStore(path) as store:
            scheduler.run(
                (lambda g: (g.add("plain", lambda ctx: 1), g)[1])(TaskGraph()),
                options=RunOptions(run_state=store),
            )
            assert len(store) == 0
