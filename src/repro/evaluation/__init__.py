"""Evaluation: F1 metric, workload harness, answer-row quality."""

from .answer_quality import answer_row_error, answer_rows
from .harness import (
    METHODS,
    MethodRun,
    WorkloadEnvironment,
    answer_row_errors,
    bin_queries,
    build_environment,
    probe_statistics,
    run_method,
    split_easy_hard,
)
from .metrics import count_stats, f1_error, gold_assignment

__all__ = [
    "METHODS",
    "MethodRun",
    "WorkloadEnvironment",
    "answer_row_error",
    "answer_row_errors",
    "answer_rows",
    "bin_queries",
    "build_environment",
    "count_stats",
    "f1_error",
    "gold_assignment",
    "probe_statistics",
    "run_method",
    "split_easy_hard",
]
