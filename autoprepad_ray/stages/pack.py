"""Context-window (token-budget) packing: greedily fill fixed-capacity
bins with documents, in deterministic order, independently per shard —
the layout step between a deduped corpus and an LLM training run
(every bin becomes one training sequence / context window).

Reference parity: none — AutoPrepAD has no corpus-layout stage; this is
a training-data-pipeline extension (SURVEY §2.9).

Semantics (exact, SQL-checkable): within each group, documents in
``order_col`` order fill the current bin while the running size stays
<= capacity; a document that would overflow CLOSES the bin and opens
the next.  A single document larger than the capacity gets a bin of
its own.  Deterministic in (group, order) — no RNG, no cross-group
coupling.

Scale shape: groups pack in parallel (``transport.keyed_map`` — ONE
exchange keyed on the shard column; at 100 TB the group is the natural
write shard, so this is the partitioning the sink wants anyway).  Each
slice task sorts its rows by (group, order) once.  Within a group the
greedy recurrence is sequential by definition, but the loop below
iterates per BIN, not per row: each step is one ``searchsorted`` into
the group's cumulative sizes (the largest prefix that still fits), so a
million-row shard with thousand-row bins costs ~1k searchsorted calls
plus one vectorized assignment — no per-row Python.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .transport import keyed_map


def _greedy_bins(sizes: np.ndarray, capacity: int) -> np.ndarray:
    """Bin index per row for greedy capacity packing in given order.
    O(num_bins) searchsorted jumps over the cumulative-size array."""
    n = len(sizes)
    cum = np.cumsum(sizes.astype(np.int64))
    bins = np.empty(n, dtype=np.int64)
    start, base, b = 0, np.int64(0), 0
    while start < n:
        j = np.searchsorted(cum, base + capacity, side="right") - 1
        j = max(j, start)            # oversize doc: its own bin
        bins[start:j + 1] = b
        base = cum[j]
        start, b = j + 1, b + 1
    return bins


def pack_documents(ds, *, group_col: str, order_col: str, size_col: str,
                   capacity: int, out_col: str = "bin"):
    """Assign every row a bin index (0-based per group) under greedy
    fixed-capacity packing of ``size_col`` in ``order_col`` order."""

    def pack_slice(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values([group_col, order_col],
                                       kind="stable", ignore_index=True)
        df[out_col] = df.groupby(group_col, sort=False, dropna=False)[
            size_col].transform(lambda g: _greedy_bins(g.to_numpy(),
                                                       capacity))
        return pa.Table.from_pandas(df, preserve_index=False)

    return keyed_map(ds, [group_col], pack_slice)
