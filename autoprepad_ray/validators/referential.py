"""Referential-integrity validators: orphan detection between two tables
(image <-> caption partitions in the north rule; FIXTURES.md R4).

The reference's only join is the index-aligned label join for evaluation
(experiment.py:463,513); the engine adds a real distributed anti-join.
Each block collapses to one (key, left_n, right_n) row per distinct key
(``_side_partial``), the rows of each key are summed by one Arrow merge
(``merge_groups``), and keys with a zero side are orphans.  The two
strategies differ only in where the rows of a key meet:

- shuffle (default, both sides large): ``stages.transport.keyed_fold``
  over the tagged union of both sides' partials routes every row by its
  key hash, so the exchange moves distinct keys, not rows;
- broadcast (both sides small): one ``stages.transport.fold`` per side,
  merged on the driver.

Null rule (the census rule, both strategies): all null keys form one
group, so a null key is an orphan only when one side lacks it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.transport import fold, keyed_fold, merge_groups
from .uniqueness import _canonical, _empty_listing


def _side_partial(key_cols: list[str], side: int):
    def partial(batch: pa.Table) -> pa.Table:
        g = (_canonical(batch.select(key_cols)).group_by(key_cols)
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

    Strategies (one partial, one merge and one direction filter each):
    - ``broadcast`` (auto-chosen when the caller-provided ``sizes``
      row-count hint fits ``broadcast_limit`` — auto never runs extra
      dataset executions to count): each side's distinct key counts are
      one ``transport.fold`` (no shuffle), merged in Arrow on the
      driver — two executions.
    - ``shuffle``: ``transport.keyed_fold`` over the tagged union of
      both sides' partials; the merge and the direction filter run in
      the per-slice tasks, so matched keys never leave them — the
      10^12-row path (distinct keys move once, never rows).

    Keys keep their Arrow type on both strategies, and the result
    (orphan keys — small by construction) is an Arrow table.
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
    merge = merge_groups(key_cols, {"left_n": "sum", "right_n": "sum"})

    def final(parts: list[pa.Table]) -> pa.Table:
        t = merge(parts)
        lz = pc.equal(t["left_n"], 0)
        rz = pc.equal(t["right_n"], 0)
        return t.filter({"left": rz, "right": lz}.get(direction,
                                                      pc.or_(lz, rz)))

    sides = [(ds, _side_partial(key_cols, i))
             for i, ds in enumerate((left_ds, right_ds))]
    if strategy == "broadcast":
        parts = [p for p in (fold(ds, f, merge) for ds, f in sides)
                 if p is not None]
        out = final(parts) if parts else None
    elif strategy == "shuffle":
        tagged = [ds.map_batches(f, batch_format="pyarrow",
                                 zero_copy_batch=True) for ds, f in sides]
        out = keyed_fold(tagged[0].union(tagged[1]), lambda t: t,
                         key_cols, final)
    else:
        raise ValueError(f"unknown orphans strategy {strategy!r}")
    return out if out is not None else \
        _empty_listing(left_ds.schema(), key_cols, ("left_n", "right_n"))
