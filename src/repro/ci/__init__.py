"""Continuous-integration substrate (the TravisCI substitution):
``.travis.yml`` parsing, env-matrix expansion, containerized job
execution, build history/badges, and statistical performance-regression
gating.
"""

from repro.ci.config import CIConfig, parse_env_line
from repro.ci.regression import RegressionGate, RegressionReport
from repro.ci.runner import (
    BuildRecord,
    BuildStatus,
    CIServer,
    ContainerExecutor,
    JobResult,
    StepResult,
)

__all__ = [
    "CIConfig",
    "parse_env_line",
    "CIServer",
    "ContainerExecutor",
    "BuildRecord",
    "BuildStatus",
    "JobResult",
    "StepResult",
    "RegressionGate",
    "RegressionReport",
]
