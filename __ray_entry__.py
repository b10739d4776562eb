"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in the library) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

SF_SMOKE = "/root/testdata/sf0.001"


def entry() -> Any:
    """Flagship validation pipeline on sf0.001: profile the events table,
    attach per-row Tukey/MAD evidence + anomaly score/label, and compute
    per-partition verdicts (SURVEY §3.1-§3.2 re-expressed as two
    streaming Ray Data jobs)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from autoprepad_ray.pipelines.flagship import validate_numeric_table

    ds = rd.read_parquet(f"{SF_SMOKE}/events.parquet",
                         columns=["event_id", "user_id", "value"])
    ds = ds.map_batches(
        lambda t: t.append_column(
            "pid", pc.cast(pc.bit_wise_and(t["user_id"], 7), pa.int64())),
        batch_format="pyarrow")
    result = validate_numeric_table(ds, ["value"], partition_col="pid")
    return result.enriched.select_columns(
        ["event_id", "value", "value_TUKEY", "value_Z_MOD",
         "Tukey_Total", "MAD_Total", "AnomalyScore", "AnomalyLabel"])


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2,
    in registry order."""
    from autoprepad_ray.pipelines.queries import REGISTRY

    return {name: q.fn for name, q in REGISTRY.items()}


def oracle_sql() -> dict[str, str]:
    """DuckDB-equivalent SQL for every SQL-expressible query."""
    from autoprepad_ray.pipelines.queries import REGISTRY

    return {name: q.sql for name, q in REGISTRY.items()
            if q.sql is not None}
