"""Consolidation: merging mapped tables into the single answer table."""

from .dedup import NormalizedRow, cells_compatible, rows_duplicate, subject_key
from .merge import AnswerRow, AnswerTable, consolidate
from .ranker import rank_answer, rank_rows

__all__ = [
    "AnswerRow",
    "AnswerTable",
    "NormalizedRow",
    "cells_compatible",
    "consolidate",
    "rank_answer",
    "rank_rows",
    "rows_duplicate",
    "subject_key",
]
