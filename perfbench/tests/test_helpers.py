"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import harness  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402


# -- the tail-percentile rule ----------------------------------------------------


def test_tail_needs_ten_samples_beyond_it():
    assert harness.tail(list(range(99))) is None  # only 9 lie beyond the p90
    assert harness.tail([]) is None
    samples = list(range(100, 0, -1))
    assert harness.beyond(len(samples), 0.9) == 10
    assert harness.tail(samples) == 90


def test_nearest_rank():
    assert harness.nearest_rank([5, 1, 3], 0.5) == 3
    assert harness.nearest_rank([5, 1, 3], 0.9) == 5
    assert harness.nearest_rank([7], 0.9) == 7


def test_interpolated_quantile():
    assert harness.interpolated([7], 0.9) == 7
    assert harness.interpolated([3, 1, 2], 0.5) == 2
    assert harness.interpolated(list(range(11)), 0.9) == 9
    # Between the 7th and 8th of eight samples, not the maximum.
    assert harness.interpolated([10, 20, 30, 40, 50, 60, 70, 170], 0.9) == pytest.approx(100.0)


# -- scaling by the machine-speed reference -----------------------------------------


def test_reference_at_nominal_speed_leaves_quantiles_unchanged():
    ops = [10.0, 20.0, 30.0, 40.0, 50.0]
    reference = [1.0, 2.0, 3.0]
    assert harness.scaled_quantile(ops, reference, 0.5, 2.0) == pytest.approx(30.0)


def test_slower_reference_scales_latency_down_by_the_same_quantile():
    ops = list(range(1, 12))  # p50 6, p90 10
    slow = [2.0 * x for x in range(1, 12)]  # the machine ran at half speed
    assert harness.scaled_quantile(ops, slow, 0.5, 6.0) == pytest.approx(6.0 * 6.0 / 12.0)
    # The tail is scaled by the reference's own tail, not its median.
    assert harness.scaled_quantile(ops, slow, 0.9, 10.0) == pytest.approx(10.0 * 10.0 / 20.0)


def test_scaling_needs_reference_samples():
    with pytest.raises(RuntimeError):
        harness.scaled_quantile([1.0], [], 0.5, 1.0)


def test_nominal_reference_quantiles_cover_the_metric_quantiles():
    for quantiles in harness.NOMINAL_S.values():
        assert set(quantiles) == {0.5, 0.9}
        assert 0 < quantiles[0.5] <= quantiles[0.9]


# -- seeded inputs --------------------------------------------------------------


VARS = "runner: torpor-variability\nruns: 3\nseed: 42\n"


def test_seed_to_vars_is_deterministic():
    first = harness.with_seed(VARS, harness.derive_seed(7, "torpor", "setup"))
    second = harness.with_seed(VARS, harness.derive_seed(7, "torpor", "setup"))
    assert first == second
    # Independent of the process: sha256, not the salted built-in hash.
    assert harness.derive_seed(7, "torpor", "setup") == 1 + int.from_bytes(
        __import__("hashlib").sha256(b"7:torpor:setup").digest()[:8], "big"
    ) % (2**31 - 1)
    assert first != harness.with_seed(VARS, harness.derive_seed(8, "torpor", "setup"))
    assert first.replace(first.splitlines()[2], "seed: 42") == VARS


def test_seed_lies_in_range_and_only_the_seed_changes():
    seeds = {harness.derive_seed(1, "gassyfs", "cold", i) for i in range(200)}
    assert len(seeds) == 200
    assert all(1 <= s < 2**31 for s in seeds)
    out = harness.with_seed(VARS, 123)
    assert out.splitlines()[:2] == VARS.splitlines()[:2]
    assert out.splitlines()[2] == "seed: 123"
    with pytest.raises(ValueError):
        harness.with_seed("runs: 3\n", 1)


# -- self time ---------------------------------------------------------------------


def test_self_time_subtracts_covered_child_intervals():
    tree = [
        Span(1, "root", 0.0, 10.0, None, "op"),
        Span(2, "a", 1.0, 4.0, 1, "op"),
        Span(3, "b", 3.0, 6.0, 1, "op"),  # overlaps a: union is 1..6
        Span(4, "a.child", 2.0, 3.0, 2, "op"),  # not root's direct child
        Span(5, "late", 9.0, 12.0, 1, "op"),  # clipped to the root's end
    ]
    self_t = spans.self_times(tree)
    assert self_t[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert self_t[2] == pytest.approx(2.0)
    assert self_t[3] == pytest.approx(3.0)
    assert self_t[4] == pytest.approx(1.0)


def test_outermost_counts_recursion_once():
    tree = [
        Span(1, "lock", 0.0, 5.0, None, "op"),
        Span(2, "read", 1.0, 4.0, 1, "op"),
        Span(3, "lock", 2.0, 3.0, 2, "op"),  # re-entrant acquire
        Span(4, "read", 6.0, 7.0, None, "op"),
    ]
    assert [s.id for s in spans.outermost(tree)] == [1, 2, 4]


def test_recorder_nests_spans_and_shares_the_op():
    recorder = spans.Recorder(op="7:cached:run")
    outer = recorder.begin("outer")
    inner = recorder.begin("inner")
    recorder.end(inner, 3.0, 1.0)
    recorder.end(outer)
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    assert {s.op for s in recorder.spans} == {"7:cached:run"}
    assert (by_name["inner"].a, by_name["inner"].b) == (3.0, 1.0)


# -- wrappers ------------------------------------------------------------------------


def _fake_module(name):
    module = types.ModuleType(name)

    def work(x):
        return x * 2

    class Store:
        def get(self, oid):
            return b"x" * oid

    module.work, module.Store = work, Store
    return module


def test_wrappers_record_spans_and_restore_originals(monkeypatch):
    module = _fake_module("perfbench_fake_layer")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    original_work, original_get = module.work, module.Store.__dict__["get"]
    recorder = spans.Recorder(op="op")
    tracer = spans.Tracer(
        spans.span_wrappers(
            recorder,
            (
                (module.__name__, "work", "layer.work", None),
                (module.__name__, "Store.get", "layer.get", spans._length),
            ),
        )
    )
    tracer.install()
    try:
        # A ``from module import work`` made after install binds the wrapper.
        importer = types.ModuleType("perfbench_fake_importer")
        importer.work = module.work
        monkeypatch.setitem(sys.modules, importer.__name__, importer)
        assert module.work is not original_work
        assert module.work(4) == 8
        assert module.Store().get(3) == b"xxx"
    finally:
        tracer.uninstall()
    assert module.work is original_work
    assert module.Store.__dict__["get"] is original_get
    assert importer.work is original_work
    assert [(s.name, s.a) for s in recorder.spans] == [("layer.work", 0.0), ("layer.get", 3.0)]
    assert spans._PatchOnImport not in {type(f) for f in sys.meta_path}


def test_modules_imported_later_are_patched_then_restored(tmp_path, monkeypatch):
    (tmp_path / "perfbench_late_layer.py").write_text("def step(n):\n    return n + 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "perfbench_late_layer", raising=False)
    recorder = spans.Recorder()
    tracer = spans.Tracer(
        spans.span_wrappers(recorder, (("perfbench_late_layer", "step", "late.step", None),))
    )
    tracer.install()
    try:
        import perfbench_late_layer

        assert perfbench_late_layer.step(1) == 2
        assert [s.name for s in recorder.spans] == ["late.step"]
        wrapped = perfbench_late_layer.step
    finally:
        tracer.uninstall()
    assert perfbench_late_layer.step is not wrapped
    assert not hasattr(perfbench_late_layer.step, "__wrapped__")
    assert perfbench_late_layer.step(1) == 2
    assert len(recorder.spans) == 1
    monkeypatch.delitem(sys.modules, "perfbench_late_layer", raising=False)
