"""Evaluation: graded task banks, runners, pass@k, reporting."""

from repro.evalsuite.passk import mean_pass_at_k, pass_at_k
from repro.evalsuite.qhe import build_qhe, qhe_cases
from repro.evalsuite.reporting import (
    accuracy_bars,
    comparison_table,
    execution_stats_table,
    per_family_table,
    progress_printer,
)
from repro.evalsuite.runner import (
    EvalResult,
    PipelineSettings,
    TaskOutcome,
    distributed,
    evaluate,
    evaluate_many,
)
from repro.evalsuite.suite import Task, build_suite, build_task

__all__ = [
    "EvalResult",
    "PipelineSettings",
    "Task",
    "TaskOutcome",
    "accuracy_bars",
    "build_qhe",
    "build_suite",
    "build_task",
    "comparison_table",
    "distributed",
    "evaluate",
    "evaluate_many",
    "execution_stats_table",
    "mean_pass_at_k",
    "pass_at_k",
    "per_family_table",
    "progress_printer",
    "qhe_cases",
]
