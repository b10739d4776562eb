"""Flagship two-job pipeline: profile -> validate (SURVEY §3.1/§3.2).

Mirrors the reference lifecycle — ``AutoPrepAD.fit`` learns per-column
state over a train frame (runs.py:117-168) and ``predict`` applies it
plus score/label/sort (runs.py:170-222) — as two streaming Ray Data
jobs: a profile pass (partial sketches -> merge -> broadcastable
artifact) and a validate pass (stateless vectorized checks, whose one
summary pass yields both the score threshold and the per-partition
verdicts; the enriched rows stream at the consumer).

Layout rule: when ``ds`` is its own reference, the profile pass also
records its block layout (rows, blocks, bytes;
``stages.transport.Layout``), and the summary pass and the enriched
rows run on ``stages.transport.sized(ds, layout)``.  A caller's split
Dataset (``rd.read_parquet`` plans ``ReadParquet->SplitBlocks(k)``: 96
blocks for a 16-file table on 4 CPUs) is thereby validated in about
``default_num_parts()`` tasks per pass instead of one per block, while a
Dataset of few blocks (``io.read_table``: one per file) is used as given
and keeps its fused ``ReadParquet->MapBatches`` plan.  Under a separate
``train_ds`` no pass over ``ds`` comes first, so ``ds`` is used as
given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..profile import TableProfile, profile_dataset
from ..stages.transport import sized
from ..validators import row_checks as rc


@dataclass
class ValidationResult:
    profile: TableProfile
    enriched: Any           # Dataset with evidence + score/label columns
    verdicts: Any | None    # pa.Table (partition, n_rows, n_viol, fail)
    states: dict


def validate_numeric_table(ds, numeric_cols: list[str], *,
                           train_ds=None,
                           partition_col: str | None = None,
                           tukey_factor: float = 1.5,
                           mad_threshold: float = 3.5,
                           pct: float = 0.10,
                           budget: float = 0.05) -> ValidationResult:
    """Profile ``train_ds`` (default: ``ds`` itself, the reference's
    ``preprocess`` one-shot, SURVEY §3.3), then validate ``ds``:
    per-row Tukey/MAD evidence, ``AnomalyScore``/``AnomalyLabel``, and
    per-partition verdicts when ``partition_col`` is given.  Raises
    ``ValueError`` when the reference has no rows (no fences to learn);
    an empty ``ds`` under a non-empty ``train_ds`` gives empty verdicts
    and an empty ``enriched``."""
    prof = profile_dataset(train_ds if train_ds is not None else ds,
                           columns=numeric_cols)
    if prof.n_rows == 0:
        raise ValueError(
            f"validate_numeric_table: the reference "
            f"({'train_ds' if train_ds is not None else 'ds'}) has no rows, "
            f"so no fences can be learned")
    states = rc.fence_states(prof, numeric_cols, tukey_factor=tukey_factor)
    if train_ds is None:
        ds = sized(ds, prof.layout)
    checked = rc.check_rows(ds, states, mad_threshold=mad_threshold)
    stats, verdicts = rc.check_summary(checked, partition_col, pct=pct,
                                       budget=budget)
    enriched = rc.attach_scores(checked, stats=stats)
    return ValidationResult(profile=prof, enriched=enriched,
                            verdicts=verdicts, states=states)
