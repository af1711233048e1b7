"""Commit-attached profiles: validation, merging, durable history."""

import json

import pytest

from repro.check.profiles import (
    PROFILE_FORMAT_VERSION,
    Profile,
    ProfileHistory,
    harvest_profile,
)
from repro.common.errors import CheckError
from repro.monitor.metrics import MetricStore


class TestProfile:
    def test_validation(self):
        with pytest.raises(CheckError):
            Profile(commit="")
        with pytest.raises(CheckError):
            Profile(commit="c", series={"": [1.0]})
        with pytest.raises(CheckError):
            Profile(commit="c", series={"k": ["oops"]})

    def test_merge_concatenates_shared_series(self):
        a = Profile("c", series={"x": [1.0, 2.0]}, meta={"run": 1})
        b = Profile("c", series={"x": [3.0], "y": [9.0]}, meta={"run": 2})
        merged = a.merged(b)
        assert merged.series == {"x": [1.0, 2.0, 3.0], "y": [9.0]}
        assert merged.meta == {"run": 2}
        # inputs untouched
        assert a.series == {"x": [1.0, 2.0]}

    def test_merge_rejects_different_commits(self):
        with pytest.raises(CheckError):
            Profile("c1").merged(Profile("c2"))

    def test_json_round_trip(self):
        profile = Profile(
            "abc123", series={"e/stage/run": [1.5, 2.5]}, meta={"backend": "serial"}
        )
        payload = profile.to_json()
        assert payload["version"] == PROFILE_FORMAT_VERSION
        assert Profile.from_json(payload) == profile

    def test_unsupported_version_rejected(self):
        with pytest.raises(CheckError):
            Profile.from_json({"version": 99, "commit": "c"})


class TestHarvest:
    def test_stage_seconds_become_experiment_scoped_keys(self):
        store = MetricStore()
        for value in (1.0, 1.1, 0.9):
            store.record(
                "popper.stage_seconds",
                value,
                labels={"experiment": "one", "stage": "run"},
            )
        store.record("custom.count", 7.0, labels={"phase": "a"})
        store.record("bare", 3.0)
        profile = harvest_profile("c1", store=store)
        assert profile.series["one/stage/run"] == [1.0, 1.1, 0.9]
        assert profile.series["custom.count{phase=a}"] == [7.0]
        assert profile.series["bare"] == [3.0]

    def test_run_start_event_contributes_meta(self):
        events = [
            {"event": "run_start", "backend": "process", "workers": 4},
            {"event": "metric", "name": "ignored"},
        ]
        profile = harvest_profile("c1", events=events, meta={"experiment": "one"})
        assert profile.meta["backend"] == "process"
        assert profile.meta["workers"] == 4
        assert profile.meta["experiment"] == "one"


class TestProfileHistory:
    def test_attach_get_require(self, tmp_path):
        history = ProfileHistory(tmp_path)
        assert history.get("c1") is None
        with pytest.raises(CheckError, match="no profile attached"):
            history.require("c1")
        path = history.attach(Profile("c1", series={"x": [1.0, 2.0, 3.0]}))
        assert path.is_file()
        assert history.require("c1").series == {"x": [1.0, 2.0, 3.0]}

    def test_reattach_merges_samples(self, tmp_path):
        history = ProfileHistory(tmp_path)
        history.attach(Profile("c1", series={"x": [1.0]}))
        history.attach(Profile("c1", series={"x": [2.0]}))
        assert history.require("c1").series == {"x": [1.0, 2.0]}
        # the index journal saw both attaches; commits() deduplicates
        assert history.commits() == ["c1"]

    def test_commits_in_first_attach_order(self, tmp_path):
        history = ProfileHistory(tmp_path)
        for commit in ("c-new", "c-old", "c-mid"):
            history.attach(Profile(commit, series={"x": [1.0]}))
        assert history.commits() == ["c-new", "c-old", "c-mid"]

    def test_torn_index_tail_is_skipped(self, tmp_path):
        history = ProfileHistory(tmp_path)
        history.attach(Profile("c1", series={"x": [1.0]}))
        with open(history.index_path, "a", encoding="utf-8") as handle:
            handle.write('{"commit": "c-torn", "ser')  # crash mid-append
        with pytest.warns(UserWarning, match="torn trailing"):
            assert history.commits() == ["c1"]

    def test_attach_after_a_torn_index_tail_is_kept(self, tmp_path):
        history = ProfileHistory(tmp_path)
        history.attach(Profile("c1", series={"x": [1.0]}))
        with open(history.index_path, "a", encoding="utf-8") as handle:
            handle.write('{"commit": "c-torn", "ser')  # crash mid-append
        history.attach(Profile("c2", series={"x": [2.0]}))
        history.attach(Profile("c3", series={"x": [3.0]}))
        assert history.commits() == ["c1", "c2", "c3"]
        assert len(history.index_path.read_text().splitlines()) == 3

    def test_profile_file_without_index_line_still_listed(self, tmp_path):
        history = ProfileHistory(tmp_path)
        history.attach(Profile("c1", series={"x": [1.0]}))
        orphan = Profile("c-orphan", series={"x": [2.0]})
        history._path_for("c-orphan").write_text(
            json.dumps(orphan.to_json()), encoding="utf-8"
        )
        assert history.commits() == ["c1", "c-orphan"]

    def test_unreadable_profile_errors(self, tmp_path):
        history = ProfileHistory(tmp_path)
        history.attach(Profile("c1", series={"x": [1.0]}))
        history._path_for("c1").write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckError, match="unreadable profile"):
            history.get("c1")

    def test_path_traversal_rejected(self, tmp_path):
        history = ProfileHistory(tmp_path)
        for bad in ("", "../escape", ".hidden"):
            with pytest.raises(CheckError):
                history._path_for(bad)

    def test_baseline_pools_newest_window(self, tmp_path):
        history = ProfileHistory(tmp_path)
        for i in range(4):
            history.attach(Profile(f"c{i}", series={"x": [float(i)]}))
        # oldest-first candidate list; window 2 pools c3 then c2
        baseline = history.baseline_for(["c0", "c1", "c2", "c3"], window=2)
        assert baseline.commit == "baseline"
        assert sorted(baseline.series["x"]) == [2.0, 3.0]

    def test_baseline_skips_unprofiled_commits(self, tmp_path):
        history = ProfileHistory(tmp_path)
        history.attach(Profile("c0", series={"x": [5.0]}))
        baseline = history.baseline_for(["c0", "c-unprofiled"], window=3)
        assert baseline.series["x"] == [5.0]

    def test_baseline_none_when_nothing_profiled(self, tmp_path):
        history = ProfileHistory(tmp_path)
        assert history.baseline_for(["c0", "c1"]) is None
        with pytest.raises(CheckError):
            history.baseline_for(["c0"], window=0)
