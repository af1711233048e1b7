"""Commit-attached performance profiles under ``.pvcs/profiles/``.

Perun's core move — and the HotOS panel's ask for continuous,
machine-checkable reproduction claims — is that performance data should
be *versioned alongside the code that produced it*.  A
:class:`Profile` is the per-commit unit: named sample series (stage
timings harvested from the run journal / :class:`MetricStore`, result
columns) plus free-form metadata.  A :class:`ProfileHistory` is the
degradation-checker's view of the repository: one profile file per
commit, plus an append-only index journal, both written under the
durable-write contract of :mod:`repro.common.fsutil` (profile files via
``atomic_write``, the index via ``journal_append``).  The index is a
ledger under the torn-tail contract of :mod:`repro.common.groupcommit`.

Baselines are resolved from the actual commit graph, so "compare
against the last five commits" means five *commits*, not five undated
gate invocations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.common.errors import CheckError, LedgerError
from repro.common.fsutil import atomic_write, ensure_dir, journal_append
from repro.common.groupcommit import read_jsonl, repair_tail

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitor.metrics import MetricStore

__all__ = [
    "PROFILE_FORMAT_VERSION",
    "Profile",
    "ProfileHistory",
    "harvest_profile",
]

PROFILE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Profile:
    """One commit's performance series.

    ``series`` maps a series key (``"<experiment>/stage/<stage>"`` for
    harvested stage timings, ``"<experiment>/results/<column>"`` for
    result columns) to its sample values; ``meta`` carries provenance
    (run id, backend, workers) that the detectors ignore but reports
    print.
    """

    commit: str
    series: dict[str, list[float]] = field(default_factory=dict)
    meta: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.commit:
            raise CheckError("a profile needs a commit id")
        for key, values in self.series.items():
            if not key:
                raise CheckError("profile series keys must be non-empty")
            if not all(isinstance(v, (int, float)) for v in values):
                raise CheckError(f"profile series {key!r} has non-numeric samples")

    def merged(self, other: "Profile") -> "Profile":
        """This profile plus *other*'s samples (same commit re-profiled).

        Series shared by both concatenate (more samples, better
        statistics); metadata from *other* wins on key conflicts.
        """
        if other.commit != self.commit:
            raise CheckError(
                f"cannot merge profiles of different commits "
                f"({self.commit[:12]} vs {other.commit[:12]})"
            )
        series = {k: list(v) for k, v in self.series.items()}
        for key, values in other.series.items():
            series.setdefault(key, []).extend(values)
        return Profile(
            commit=self.commit,
            series=series,
            meta={**self.meta, **other.meta},
        )

    def to_json(self) -> dict:
        return {
            "version": PROFILE_FORMAT_VERSION,
            "commit": self.commit,
            "series": {k: list(map(float, v)) for k, v in sorted(self.series.items())},
            "meta": self.meta,
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "Profile":
        version = payload.get("version")
        if version != PROFILE_FORMAT_VERSION:
            raise CheckError(f"unsupported profile format version: {version!r}")
        return cls(
            commit=str(payload["commit"]),
            series={str(k): [float(x) for x in v] for k, v in payload.get("series", {}).items()},
            meta=dict(payload.get("meta", {})),
        )


def harvest_profile(
    commit: str,
    store: "MetricStore | None" = None,
    events: Sequence[Mapping[str, Any]] | None = None,
    meta: Mapping[str, object] | None = None,
) -> Profile:
    """Build a profile for *commit* from a run's telemetry.

    Two harvest sources, either optional:

    * the :class:`MetricStore` — every ``popper.stage_seconds`` series
      becomes ``<experiment>/stage/<stage>``, and any other metric keeps
      its name (labels folded in as ``metric{k=v,...}``);
    * the run-journal *events* — ``run_start`` contributes backend /
      worker metadata, ``aver_verdict`` events are ignored (they are
      conclusions, not samples).
    """
    series: dict[str, list[float]] = {}
    profile_meta: dict[str, object] = dict(meta or {})
    if store is not None:
        for (metric, labels), values in store.series().items():
            labeled = dict(labels)
            if metric == "popper.stage_seconds" and "stage" in labeled:
                experiment = labeled.get("experiment", "experiment")
                key = f"{experiment}/stage/{labeled['stage']}"
            elif labeled:
                inner = ",".join(f"{k}={v}" for k, v in sorted(labeled.items()))
                key = f"{metric}{{{inner}}}"
            else:
                key = metric
            series.setdefault(key, []).extend(float(v) for v in values)
    for event in events or ():
        if event.get("event") == "run_start":
            for name in ("run_id", "backend", "workers"):
                if name in event:
                    profile_meta.setdefault(name, event[name])
    return Profile(commit=commit, series=series, meta=profile_meta)


class ProfileHistory:
    """Per-commit profiles under ``<root>/profiles/``.

    *root* is the repository's metadata directory (``.pvcs``).  Each
    commit's profile lives in ``profiles/<commit>.json`` (atomic,
    durable writes — a crash leaves the old profile or the new one,
    never a torn file) and ``profiles/index.jsonl`` records attach
    order (single-line appends to a ledger).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.dir = self.root / "profiles"
        self.index_path = self.dir / "index.jsonl"

    # -- write -------------------------------------------------------------------
    def attach(self, profile: Profile) -> Path:
        """Attach *profile* to its commit, merging with any existing one."""
        ensure_dir(self.dir)
        existing = self.get(profile.commit)
        if existing is not None:
            profile = existing.merged(profile)
        path = self._path_for(profile.commit)
        payload = json.dumps(profile.to_json(), sort_keys=True, indent=2) + "\n"
        atomic_write(path, payload.encode("utf-8"), durable=True)
        entry = json.dumps(
            {
                "commit": profile.commit,
                "series": len(profile.series),
                "samples": sum(len(v) for v in profile.series.values()),
            },
            sort_keys=True,
        )
        repair_tail(self.index_path)
        with open(self.index_path, "a", encoding="utf-8") as handle:
            journal_append(handle, entry, durable=True, crash_label="profiles.index")
        return path

    # -- read --------------------------------------------------------------------
    def get(self, commit: str) -> Profile | None:
        """The profile attached to *commit*, or None."""
        path = self._path_for(commit)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckError(f"unreadable profile for {commit[:12]}: {exc}") from exc
        return Profile.from_json(payload)

    def require(self, commit: str) -> Profile:
        profile = self.get(commit)
        if profile is None:
            raise CheckError(
                f"no profile attached to commit {commit[:12]} "
                "(run the experiment at that commit first)"
            )
        return profile

    def commits(self) -> list[str]:
        """Commits with attached profiles, in first-attach order.

        Read from the index journal (deduplicated, torn tail skipped);
        profile files whose index line was lost to a crash are appended
        at the end, so nothing on disk is invisible.
        """
        seen: list[str] = []
        if self.index_path.exists():
            try:
                entries, _torn = read_jsonl(self.index_path)
            except LedgerError as exc:
                raise CheckError(f"bad profile index: {exc}") from exc
            for entry in entries:
                commit = entry.get("commit")
                if commit and commit not in seen:
                    seen.append(commit)
        if self.dir.is_dir():
            on_disk = sorted(
                p.stem for p in self.dir.glob("*.json") if p.stem not in seen
            )
            seen.extend(on_disk)
        return seen

    def baseline_for(
        self,
        commits: Sequence[str],
        window: int = 5,
    ) -> Profile | None:
        """Pool the newest *window* profiled commits of *commits* into one
        baseline profile.

        *commits* is an oldest-first candidate list (e.g. the
        first-parent ancestors of the commit under test, which itself
        must not be included).  Series samples concatenate across the
        pooled commits — the detector suite then judges the candidate
        against the pooled distribution.  Returns None when no candidate
        has a profile.
        """
        if window < 1:
            raise CheckError("baseline window must be >= 1")
        pooled: Profile | None = None
        taken = 0
        for commit in reversed(list(commits)):
            profile = self.get(commit)
            if profile is None:
                continue
            renamed = Profile(
                commit="baseline", series=profile.series, meta=profile.meta
            )
            pooled = renamed if pooled is None else pooled.merged(renamed)
            taken += 1
            if taken >= window:
                break
        return pooled

    def _path_for(self, commit: str) -> Path:
        if not commit or "/" in commit or commit.startswith("."):
            raise CheckError(f"invalid commit id for profile path: {commit!r}")
        return self.dir / f"{commit}.json"
