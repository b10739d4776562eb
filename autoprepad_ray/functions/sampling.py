"""Deterministic (hash-style) sampling and split assignment.

A 100-TB pipeline cannot sample with RNG state: re-runs, retried
tasks, and incremental partitions must all agree on which rows are in.
The split code here is pure int64 arithmetic on the row's own id —
stateless, partition-independent, resumable — and deliberately stays
inside SQL's BIGINT range so the assignment is oracle-checkable
end-to-end (``((id % 1000003 + salt) * 2654435761) % buckets``: the
multiplicand is < 2^20 + salt and the Knuth constant < 2^32, so the
product is < 2^63 — no overflow on either engine).

Reference parity: AutoPrepAD keys its experiment runs on a seeded
``random_state`` (/root/reference/pipelines/experiment/experiment.py:188-190)
— fine in one process, unreproducible across a cluster of retried
tasks; this is the distributed-safe re-expression.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sketches import np_object

SPLIT_PRIME = 1_000_003          # folds ids into < 2^20 before multiply
SPLIT_MULT = 2_654_435_761       # Knuth multiplicative constant (2^32/phi)


def split_code(ids: np.ndarray, *, buckets: int = 1000,
               salt: int = 0) -> np.ndarray:
    """Deterministic pseudo-uniform bucket in [0, buckets) per id.
    Overflow-free int64 on any input id range.  numpy's ``%`` is
    Python-style (always non-negative); SQL ``%`` keeps the dividend's
    sign, so the SQL-oracle parity holds for ids >= 0 (negative ids
    still split deterministically, just not SQL-reproducibly)."""
    folded = np.asarray(ids, dtype=np.int64) % SPLIT_PRIME + np.int64(salt)
    return (folded * np.int64(SPLIT_MULT)) % np.int64(buckets)


def assign_splits(ds, id_col: str, *, splits: dict[str, float],
                  salt: int = 0, out_col: str = "split",
                  buckets: int = 1000):
    """Label every row with a deterministic train/val/test-style split.

    ``splits`` maps name -> fraction (must sum to 1); fractions are
    applied as consecutive bucket ranges in dict order, so the same
    (id, salt) always lands in the same split on any cluster size, any
    retry, any partial re-run.  Pure map_batches — no shuffle, no
    state."""
    fr = np.array(list(splits.values()), dtype=np.float64)
    if not np.isclose(fr.sum(), 1.0):
        raise ValueError(f"split fractions sum to {fr.sum()}, want 1.0")
    edges = np.round(np.cumsum(fr) * buckets).astype(np.int64)
    names = np.array(list(splits.keys()), dtype=object)

    def label(t: pa.Table) -> pa.Table:
        code = split_code(t[id_col].to_numpy(zero_copy_only=False),
                          buckets=buckets, salt=salt)
        idx = np.searchsorted(edges, code, side="right")
        return t.append_column(out_col, pa.array(names[idx]))

    return ds.map_batches(label, batch_format="pyarrow",
                          zero_copy_batch=True)


def stratified_sample(ds, id_col: str, group_col: str,
                      rates: dict, *, default_rate: float = 1.0,
                      salt: int = 0, buckets: int = 1000):
    """Per-class deterministic downsampling — the class-rebalancing
    move of a training-data pipeline (keep every rare `purchase`,
     5% of `view`), with the same resumability guarantees as
    ``sample_fraction``: the keep/drop decision is pure int64
    arithmetic on (id, group), identical on every retry, partition
    and cluster size.  ``rates`` maps group value -> keep fraction;
    unlisted groups use ``default_rate``.  Pure map_batches — no
    shuffle, no RNG state."""
    keys = np.array(list(rates.keys()), dtype=object)
    cuts = np.array([round(v * buckets) for v in rates.values()],
                    dtype=np.int64)
    default_cut = np.int64(round(default_rate * buckets))

    def keep(t: pa.Table) -> pa.Table:
        code = split_code(t[id_col].to_numpy(zero_copy_only=False),
                          buckets=buckets, salt=salt)
        g = np_object(t[group_col].to_numpy(zero_copy_only=False))
        cut = np.full(len(g), default_cut)
        for k, c in zip(keys, cuts):
            cut[g == k] = c
        return t.filter(pa.array(code < cut))

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


def sample_fraction(ds, id_col: str, fraction: float, *,
                    salt: int = 0, buckets: int = 1000):
    """Deterministic ~fraction subsample: keep rows whose split code
    falls under round(fraction * buckets).  Same id set every run."""
    cut = np.int64(round(fraction * buckets))

    def keep(t: pa.Table) -> pa.Table:
        code = split_code(t[id_col].to_numpy(zero_copy_only=False),
                          buckets=buckets, salt=salt)
        return t.filter(pa.array(code < cut))

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


def quota_sample(ds, id_col: str, group_col: str, k: int, *,
                 salt: int = 0, buckets: int = 1_048_576):
    """Exactly min(k, |group|) rows per key, chosen by the deterministic
    hash order (``split_code`` over 2^20 buckets, ties by id) — the
    per-domain quota cap of a web-corpus layout step ("at most k docs
    per source"), resumable for the same reasons as every sampler here:
    the winning set is a pure function of (id, salt), identical on any
    retry, partition layout or cluster size.

    Scale shape: each block PRE-CUTS to its own per-key k inside
    ``map_batches`` (a block can never contribute more than k winners
    for a key — the same dominance argument as stages/topk), so the
    exchange moves <= blocks x keys x k rows, never the raw table; the
    final per-key head-k cuts the survivors inside each
    ``transport.keyed_map`` slice task."""
    import pandas as pd

    from ..stages.transport import keyed_map

    def precut(df: pd.DataFrame) -> pd.DataFrame:
        code = split_code(df[id_col].to_numpy(), buckets=buckets,
                          salt=salt)
        df = df.assign(__h=code)
        return (df.sort_values(["__h", id_col], kind="mergesort")
                .groupby(group_col, sort=False).head(k))

    def final(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values([group_col, "__h", id_col],
                                       kind="stable")
        return pa.Table.from_pandas(
            df.groupby(group_col, sort=False).head(k).drop(columns="__h"),
            preserve_index=False)

    return keyed_map(ds.map_batches(precut, batch_format="pandas"),
                     [group_col], final)
