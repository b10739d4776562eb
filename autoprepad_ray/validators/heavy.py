"""Heavy hitters: mergeable Misra-Gries sketch + exact verification.

The reference has no frequent-items operator (its mode, F2, is exact and
only needs the top-1); at 100 TB a "which keys exceed x% of rows" check
(hot-key / skew detection, the input to salting decisions in SURVEY
§7.5) cannot groupby the full keyspace first.  Shape:

1. SKETCH pass: per-block ``np.unique`` counts compressed to ``k``
   counters (Misra-Gries), folded by ``stages.transport.fold``
   (pointwise-sum + compress, the mergeable-summaries construction:
   Agarwal et al., "Mergeable Summaries", ACM TODS 2013).
   Guarantee after any merge tree: est(x) <= true(x) <= est(x) +
   n/(k+1), so every key with true count > n/(k+1) survives (candidate
   SUPERSET, never a miss).
2. VERIFY pass: broadcast the <= k candidate keys, exact per-block
   counts for just those keys, small fold — output is EXACT counts
   filtered by the threshold (SQL-oracle-checkable despite the
   approximate sketch; same candidate-then-verify idiom as the near-dup
   family).

``frac`` is the threshold as a fraction of total rows; ``capacity``
defaults to ``ceil(2/frac)`` so the guarantee threshold n/(k+1) sits at
half the requested one.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..stages.transport import fold, merge_counts


def mg_compress(keys: np.ndarray, counts: np.ndarray, k: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Keep the top-``k`` counters, subtracting the (k+1)-st count
    (the Misra-Gries decrement); drops zeroed counters."""
    if len(keys) <= k:
        return keys, counts
    order = np.argsort(counts, kind="stable")[::-1]
    pivot = counts[order[k]]
    keep = order[:k]
    new_counts = counts[keep] - pivot
    nz = new_counts > 0
    return keys[keep][nz], new_counts[nz]


def mg_merge(parts: list[tuple[np.ndarray, np.ndarray]], k: int
             ) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise-sum counters across summaries, then compress to k."""
    return mg_compress(*merge_counts(parts), k)


def heavy_hitters(ds, col: str, *, frac: float = 0.01,
                  capacity: int | None = None) -> pa.Table:
    """Exact counts of every ``col`` value occurring in > ``frac`` of
    rows, via the two-pass sketch-then-verify above.  Returns a
    pa.Table (col, cnt) sorted by (cnt desc, col).

    ``ds`` is consumed twice (sketch pass, exact pass) — the right
    trade for a pruned single-column parquet read; materialize a
    computed chain before calling (same convention as
    ``near_dup.hamming_neardup_pairs``)."""
    import ray

    if capacity is None:
        capacity = int(math.ceil(2.0 / frac))
    k = capacity

    def values(batch: pa.Table) -> np.ndarray:
        return batch[col].drop_null().to_numpy()

    def partial(batch: pa.Table) -> tuple:
        vals = values(batch)
        uk, cnts = np.unique(vals, return_counts=True)
        return (*mg_compress(uk, cnts.astype(np.int64), k), len(vals))

    def merge(parts: list[tuple]) -> tuple:
        return (*mg_merge([p[:2] for p in parts], k),
                sum(p[2] for p in parts))

    keys, counts, n = fold(ds, partial, merge)
    threshold = frac * n
    if n and n / (k + 1) > threshold:
        raise ValueError(
            f"capacity {k} cannot guarantee frac={frac}: the MG bound "
            f"n/(k+1)={n / (k + 1):.1f} exceeds threshold {threshold:.1f}")
    # candidates: anything whose upper bound (est + n/(k+1)) clears the
    # threshold — a superset of the true heavy hitters
    cand = keys[counts + n / (k + 1) > threshold]
    # Ray Schema wrapper (.names + pyarrow .types); a Dataset filtered
    # to nothing has none
    sch = ds.schema()
    col_type = dict(zip(sch.names, sch.types))[col] if sch is not None \
        else pa.null()
    empty = pa.table({col: pa.array([], type=col_type),
                      "cnt": pa.array([], type=pa.int64())})
    if not len(cand):
        return empty
    cand_ref = ray.put(np.sort(cand))

    def exact_partial(batch: pa.Table) -> tuple:
        vals = values(batch)
        return np.unique(vals[np.isin(vals, ray.get(cand_ref))],
                         return_counts=True)

    # candidate keyspace <= k: a plain uncapped unique-sum
    uk, summed = fold(ds, exact_partial, merge_counts)
    hot = summed > threshold
    if not hot.any():
        return empty
    uk, summed = uk[hot], summed[hot]
    order = np.lexsort((uk, -summed))
    return pa.table({col: pa.array(uk[order]),
                     "cnt": pa.array(summed[order], type=pa.int64())})
