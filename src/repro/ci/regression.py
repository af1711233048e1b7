"""Automated performance-regression testing — the CI-facing adapter.

The paper calls out that performance regression testing "is usually an
ad-hoc activity but can be automated ... using statistical techniques".
The statistics now live in :mod:`repro.check` (a pluggable detector
suite shared with Aver's ``no_regression`` builtin and ``popper perf``);
this module keeps the CI-shaped surface on top of it,
:class:`RegressionGate` — the historical pass/fail gate.  Its verdict is
exactly the average-amount detector's (median-ratio threshold plus
Mann-Whitney U significance, both required), so CI semantics are
unchanged; the full suite's graded verdicts ride along on the report for
richer output.  Baselines come from the commit-attached
:class:`~repro.check.profiles.ProfileHistory`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.check.detectors import Degradation, PerformanceChange
from repro.check.suite import DetectorSuite, default_suite
from repro.common.errors import CIError

__all__ = ["RegressionReport", "RegressionGate"]


@dataclass(frozen=True)
class RegressionReport:
    """Verdict on one metric comparison.

    ``regressed``/``ratio``/``p_value`` keep the historical gate
    meaning; ``degradations`` carries every detector's graded verdict
    and ``confidence`` the gating detector's confidence rating.
    """

    metric: str
    regressed: bool
    ratio: float          # current median / baseline median
    p_value: float
    baseline_median: float
    current_median: float
    threshold: float
    confidence: float = 0.0
    degradations: tuple[Degradation, ...] = ()

    def __str__(self) -> str:
        verdict = "REGRESSION" if self.regressed else "ok"
        return (
            f"{self.metric}: {verdict} ratio={self.ratio:.3f} "
            f"(p={self.p_value:.4f}, threshold=+{self.threshold:.0%})"
        )

    def describe(self) -> str:
        """The one-line verdict plus each detector's graded opinion."""
        lines = [str(self)]
        lines.extend(f"  {d}" for d in self.degradations)
        return "\n".join(lines)


class RegressionGate:
    """Detects slowdowns beyond *threshold* with significance *alpha*.

    A thin adapter over :func:`repro.check.suite.default_suite`: the
    pass/fail verdict is the average-amount detector's firm-degradation
    classification (a regression is flagged only when BOTH hold — the
    median slowdown exceeds the threshold, and the distribution shift
    is statistically significant), while the remaining detectors
    contribute advisory verdicts on the report.
    """

    def __init__(
        self,
        threshold: float = 0.10,
        alpha: float = 0.05,
        higher_is_worse: bool = True,
        min_samples: int = 3,
    ) -> None:
        if threshold <= 0:
            raise CIError("regression threshold must be positive")
        if not 0 < alpha < 1:
            raise CIError("alpha must be in (0, 1)")
        self.threshold = threshold
        self.alpha = alpha
        self.higher_is_worse = higher_is_worse
        self.min_samples = min_samples
        self.suite: DetectorSuite = default_suite(
            threshold=threshold,
            alpha=alpha,
            higher_is_worse=higher_is_worse,
            min_samples=min_samples,
        )

    def check(
        self,
        baseline: np.ndarray | list[float],
        current: np.ndarray | list[float],
        metric: str = "runtime",
    ) -> RegressionReport:
        """Compare *current* samples against *baseline* samples."""
        baseline = np.asarray(baseline, dtype=np.float64)
        current = np.asarray(current, dtype=np.float64)
        if baseline.size < self.min_samples or current.size < self.min_samples:
            raise CIError(
                f"need >= {self.min_samples} samples on each side "
                f"(got {baseline.size}/{current.size})"
            )
        if np.any(baseline <= 0) or np.any(current <= 0):
            raise CIError("runtime samples must be positive")

        verdicts = self.suite.compare_samples(baseline, current, metric=metric)
        gating = next(v for v in verdicts if v.detector == "average-amount")
        if gating.change is PerformanceChange.UNKNOWN:
            raise CIError(f"regression gate could not judge: {gating.detail}")

        baseline_median = float(np.median(baseline))
        current_median = float(np.median(current))
        return RegressionReport(
            metric=metric,
            regressed=gating.change is PerformanceChange.DEGRADATION,
            ratio=current_median / baseline_median,
            p_value=max(0.0, 1.0 - gating.confidence),
            baseline_median=baseline_median,
            current_median=current_median,
            threshold=self.threshold,
            confidence=gating.confidence,
            degradations=tuple(verdicts),
        )
