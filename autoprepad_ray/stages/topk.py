"""Distributed exact top-k without a global sort.

``Dataset.sort(...).limit(k)`` range-partitions EVERY row to order a
table of which only k rows survive — at 100 TB that is a full
all-to-all exchange for a result that fits in one block.  The global
top-k is always a subset of the union of per-block top-ks, so the
scale-correct shape is: cut each block to its own k rows inside
``map_batches`` (map-side, no exchange), then merge the per-block
survivors through ``stages.transport.fold``, which cuts every union of
partials to k again.  This is the grouped-data
analogue of the reference's worst-first presentation sort
(/root/reference/pipelines/runs.py:429-435), which sorts an in-memory
pandas frame.

Ties must be broken by a unique final key (the callers append a row
id) so the cut is deterministic on any block layout.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .transport import fold


def _sort_keys(keys: list[str], descending: list[bool]):
    return [(k, "descending" if d else "ascending")
            for k, d in zip(keys, descending)]


def top_k(ds, keys: list[str], *, descending: list[bool], k: int,
          batch_size: int | None = None) -> pd.DataFrame:
    """Exact top-k rows of ``ds`` under the (keys, descending)
    ordering.  One streaming pass: every block's own top k is a
    ``stages.transport.fold`` partial, and the merge cuts the union of
    partials to k again.  Returns a pandas frame sorted best-first."""
    sk = _sort_keys(keys, descending)

    def cut(t: pa.Table) -> pa.Table:
        return t.take(pc.sort_indices(t, sort_keys=sk)[:k])

    if batch_size:
        ds = ds.map_batches(cut, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=batch_size)
    top = fold(ds, cut, lambda parts: cut(pa.concat_tables(parts))
               if parts else None)
    return pd.DataFrame() if top is None else top.to_pandas()


def _as_sortable_i64(a: "np.ndarray"):
    """datetime64/timedelta64 -> int64 view so negation is legal; other
    numerics pass through."""
    import numpy as np

    a = np.asarray(a)
    if a.dtype.kind in "Mm":
        return a.view("i8")
    if a.dtype == np.uint64:
        # order-preserving shift into int64 (astype would wrap > 2^63)
        return (a - np.uint64(1 << 63)).view(np.int64)
    if a.dtype.kind in "iub":
        # narrow/unsigned ints must widen: comparisons below assume a
        # dtype wide enough that no caller value is at the type edge
        return a.astype(np.int64, copy=False)
    return a


def _skyline_mask(x, y):
    """Boolean mask of the 2-D maxima (skyline) of (x, y): a row is
    kept iff no other row is >= on both coordinates and > on at least
    one.  Exact (x, y) duplicates are all kept — neither dominates the
    other.  Vectorized: sort by (x desc, y desc); a row survives iff
    its y equals its x-group's max AND that max strictly exceeds the
    running y-max over all strictly-larger x groups."""
    import numpy as np

    x = _as_sortable_i64(x)
    y = _as_sortable_i64(y)
    n = len(x)
    if n == 0:
        return np.zeros(0, dtype=bool)
    # (x desc, y desc) via reversed ascending lexsort — negating the
    # keys would wrap unsigned/extreme values
    o = np.lexsort((y, x))[::-1]
    xs, ys = x[o], y[o]
    newx = np.r_[True, xs[1:] != xs[:-1]]
    gid = np.cumsum(newx) - 1
    gmax = ys[newx]                      # y desc within a group
    run = np.maximum.accumulate(gmax)
    # group survives iff its y-max strictly exceeds the running y-max
    # of all strictly-larger x groups; the first group always does
    # (no sentinel — a sentinel value can collide at the dtype edge)
    strict = np.ones(len(gmax), dtype=bool)
    strict[1:] = gmax[1:] > run[:-1]
    keep_sorted = (ys == gmax[gid]) & strict[gid]
    mask = np.zeros(n, dtype=bool)
    mask[o] = keep_sorted
    return mask


def skyline_2d(ds, *, x_col: str, y_col: str, keep_cols: list[str]):
    """Distributed exact 2-D skyline (Pareto frontier, maximize both
    coordinates) — the multi-objective generalization of top-k: "no
    row strictly better on one axis without being worse on the other".

    Scale shape mirrors ``top_k``: the skyline of a union is contained
    in the union of per-block skylines, so each block cuts itself to
    its own frontier map-side (no exchange; expected O(log n) survivors
    per block on non-degenerate data), and the ``stages.transport.fold``
    merge cuts the survivor union the same way.  Arrow column types are
    preserved end-to-end (the fold concatenates the blocks' own Arrow
    tables — no pandas ns-timestamp round trip).

    Nulls in x/y are dropped (a null coordinate cannot be compared,
    matching SQL comparison semantics where NULL never dominates)."""
    import numpy as np

    def cut(t: pa.Table) -> pa.Table:
        t = t.select(keep_cols)
        ok = pc.and_(pc.is_valid(t[x_col]), pc.is_valid(t[y_col]))
        t = t.filter(ok)
        mask = _skyline_mask(t[x_col].to_numpy(zero_copy_only=False),
                             t[y_col].to_numpy(zero_copy_only=False))
        return t.take(pa.array(np.flatnonzero(mask)))

    out = fold(ds, cut, lambda parts: cut(pa.concat_tables(parts))
               if parts else None)
    if out is None:
        # a Dataset filtered to nothing reports no schema: null columns
        sch = ds.schema()
        types = dict(zip(sch.names, sch.types)) if sch is not None else {}
        return pa.table({c: pa.array([], types.get(c)) for c in keep_cols})
    return out.combine_chunks()
