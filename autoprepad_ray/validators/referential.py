"""Referential-integrity validators: orphan detection between two tables
(image <-> caption partitions in the north rule; FIXTURES.md R4).

The reference's only join is the index-aligned label join for evaluation
(experiment.py:463,513); the engine adds a real distributed anti-join:

- shuffle strategy (default, both sides large): union the two key
  streams tagged by side, pre-aggregate per block, then ONE groupby
  over the (key, left_n, right_n) partials' key-hash bucket
  (``uniqueness.bucketed_sums``) — rows with a zero side are orphans.
  The shuffle moves distinct keys, not rows.
- broadcast strategy (both sides small): per-side distinct-key counts
  outer-merged on the driver — no shuffle at all.

Null rule (the census rule, both strategies): all null keys form one
group, so a null key is an orphan only when one side lacks it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.transport import fold, merge_groups


def _side_partial(key_cols: list[str], side: int):
    def partial(batch: pa.Table) -> pa.Table:
        g = (batch.select(key_cols).group_by(key_cols)
             .aggregate([([], "count_all")]))
        n = g["count_all"]
        zeros = pa.array(np.zeros(len(g), dtype=np.int64))
        cols = {c: g[c] for c in key_cols}
        cols["left_n"] = n if side == 0 else zeros
        cols["right_n"] = n if side == 1 else zeros
        return pa.table(cols)
    return partial


def orphans(left_ds, right_ds, key_cols: list[str] | str, *,
            direction: str = "both", strategy: str = "auto",
            sizes: tuple[int, int] | None = None,
            broadcast_limit: int = 5_000_000):
    """Anti-join on ``key_cols``.

    Returns (key_cols..., left_n, right_n) rows for keys missing on one
    side: ``direction='left'`` -> keys present left, absent right (e.g.
    images without captions); ``'right'`` the reverse; ``'both'`` all
    mismatches.

    Strategies:
    - ``broadcast`` (auto-chosen when the caller-provided ``sizes``
      row-count hint fits ``broadcast_limit`` — auto never runs extra
      dataset executions to count): per-side distinct key-count census
      (tree-merged partials, no shuffle), then each side's key set is
      broadcast and compared vectorized — EXACT, and avoids the
      sort-exchange entirely.  Returns an Arrow table.
    - ``shuffle``: tagged-union groupby over per-block key-count
      partials — the 10^12-row path (the exchange moves distinct keys,
      never rows).
    - ``fold`` (single int64 key only): same tagged-union partials, but
      the final fold rides ``stages.groupfold.grouped_fold`` — a
      hash-partitioned flat-task shuffle with the orphan filter applied
      INSIDE each fold slice, so matched keys never leave the fold
      tasks.  Skips the Ray sort-groupby's flat multi-second exchange;
      same 10^12-row scaling argument (distinct keys move once).

    Either way the result (orphan keys — small by construction) is
    returned as an Arrow table.
    """
    if isinstance(key_cols, str):
        key_cols = [key_cols]
    if strategy == "auto":
        # never spend extra dataset EXECUTIONS just to pick a strategy
        # (ds.count() on a transformed dataset runs the whole plan):
        # with caller-provided row counts pick broadcast when both sides
        # fit; without a hint default to the always-correct shuffle path
        if sizes is not None:
            strategy = ("broadcast"
                        if max(sizes) <= broadcast_limit else "shuffle")
        else:
            strategy = "shuffle"
    if strategy == "broadcast":
        return _orphans_broadcast_counts(left_ds, right_ds, key_cols,
                                         direction)
    tagged = (left_ds.map_batches(_side_partial(key_cols, 0),
                                  batch_format="pyarrow", zero_copy_batch=True)
              .union(right_ds.map_batches(_side_partial(key_cols, 1),
                                          batch_format="pyarrow",
                                          zero_copy_batch=True)))

    def filt(t: pa.Table) -> pa.Table:
        lz = pc.equal(t["left_n"], 0)
        rz = pc.equal(t["right_n"], 0)
        if direction == "left":
            mask = rz
        elif direction == "right":
            mask = lz
        else:
            mask = pc.or_(lz, rz)
        return t.filter(mask)

    if strategy == "fold":
        if len(key_cols) != 1:
            raise ValueError("strategy='fold' needs a single int64 key")
        from ..stages.groupfold import grouped_fold
        batches = list(grouped_fold(
            tagged, lambda t: t, {"left_n": "sum", "right_n": "sum"},
            key=key_cols[0], cut=filt).iter_batches(
                batch_size=65536, batch_format="pyarrow"))
        out = pa.concat_tables(batches) if batches else None
    else:
        from .uniqueness import bucketed_sums
        out = bucketed_sums(tagged, key_cols, ["left_n", "right_n"], filt)
    return out if out is not None else \
        _empty_orphans(key_cols, left_ds.schema())


def _empty_orphans(key_cols: list[str], schema) -> pa.Table:
    cols = {c: pa.array([], type=schema.types[schema.names.index(c)])
            for c in key_cols}
    cols["left_n"] = pa.array([], type=pa.int64())
    cols["right_n"] = pa.array([], type=pa.int64())
    return pa.table(cols)


def _side_counts(ds, key_cols: list[str]) -> pa.Table:
    """Distinct (key -> count) for one side: each block's Arrow
    ``group_by`` count is one ``stages.transport.fold`` partial, merged
    by ``merge_groups`` (bounded by the broadcast_limit gate)."""
    def partial(batch: pa.Table) -> pa.Table:
        return (batch.select(key_cols).group_by(key_cols)
                .aggregate([([], "count_all")])
                .rename_columns(key_cols + ["n"]))

    g = fold(ds, partial, merge_groups(key_cols, {"n": "sum"}))
    return g if g is not None else \
        pa.table({c: pa.array([]) for c in key_cols + ["n"]})


def _orphans_broadcast_counts(left_ds, right_ds, key_cols: list[str],
                              direction: str) -> pa.Table:
    left = _side_counts(left_ds, key_cols).to_pandas()
    right = _side_counts(right_ds, key_cols).to_pandas()
    merged = left.merge(right, on=key_cols, how="outer",
                        suffixes=("_l", "_r"))
    ln = merged["n_l"].fillna(0).astype(np.int64)
    rn = merged["n_r"].fillna(0).astype(np.int64)
    if direction == "left":
        mask = rn == 0
    elif direction == "right":
        mask = ln == 0
    else:
        mask = (ln == 0) | (rn == 0)
    out = merged.loc[mask, key_cols].copy()
    out["left_n"] = ln[mask].to_numpy()
    out["right_n"] = rn[mask].to_numpy()
    return pa.Table.from_pandas(out.reset_index(drop=True),
                                preserve_index=False)
