"""Flagship two-job pipeline: profile -> validate (SURVEY §3.1/§3.2).

Mirrors the reference lifecycle — ``AutoPrepAD.fit`` learns per-column
state over a train frame (runs.py:117-168) and ``predict`` applies it
plus score/label/sort (runs.py:170-222) — as two streaming Ray Data
jobs: a profile pass (partial sketches -> pairwise merge -> broadcastable
artifact) and a validate pass (stateless vectorized checks, whose one
summary pass yields both the score threshold and the per-partition
verdicts; the enriched rows stream at the consumer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
import pyarrow as pa

from ..profile import TableProfile, profile_dataset
from ..validators import row_checks as rc


@dataclass
class ValidationResult:
    profile: TableProfile
    enriched: Any           # Dataset with evidence + score/label columns
    verdicts: Any | None    # Dataset (partition, n_rows, n_viol, fail)
    states: dict


def validate_numeric_table(ds, numeric_cols: list[str], *,
                           train_ds=None,
                           partition_col: str | None = None,
                           tukey_factor: float = 1.5,
                           mad_threshold: float = 3.5,
                           pct: float = 0.10,
                           budget: float = 0.05,
                           mode: str = "per_column") -> ValidationResult:
    """Profile ``train_ds`` (default: ``ds`` itself, the reference's
    ``preprocess`` one-shot, SURVEY §3.3), then validate ``ds``:
    per-row Tukey/MAD evidence, ``AnomalyScore``/``AnomalyLabel``, and
    per-partition verdicts when ``partition_col`` is given."""
    prof = profile_dataset(train_ds if train_ds is not None else ds,
                           columns=numeric_cols, pooled=(mode == "pooled"))
    states = rc.fence_states(prof, numeric_cols, tukey_factor=tukey_factor,
                             mode=mode)
    checked = rc.check_rows(ds, states, mad_threshold=mad_threshold)
    stats, verdicts = rc.check_summary(checked, partition_col, pct=pct,
                                       budget=budget)
    enriched = rc.attach_scores(checked, stats=stats)
    return ValidationResult(profile=prof, enriched=enriched,
                            verdicts=verdicts, states=states)
