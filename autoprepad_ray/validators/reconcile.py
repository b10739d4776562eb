"""Cross-table aggregate reconciliation (consistency validation).

Validates the ingest invariant "the header table's stored total equals
the roll-up of its detail rows" — the class of cross-table consistency
check AutoPrepAD leaves out of scope (its anomaly flags are
single-table; reference pipelines/control.py:89-107) but a warehouse
validation engine needs as a first-class op.

Scale shape: both tables stream ONE pass each through one
``stages.transport.keyed_map`` on the orderkey (both tables route
alike, so an order's header and detail rows meet in one slice task),
and each slice task folds its own orders completely:

- lexsort the slice's detail rows by (orderkey, linenumber) and
  ``np.add.reduceat`` per order — a strictly sequential in-linenumber
  fold, bit-identical to DuckDB
  ``list_sum(list(term ORDER BY l_linenumber))`` (the ORDER-exact
  float family documented in pipelines/queries.py);
- searchsorted-match the slice's header rows (inner-join semantics:
  headers with no detail rows are skipped);
- reduce to per-group (n_orders, sum-of-diff) partials.

The driver folds O(slices x groups) scalars; per-order rows never
materialize anywhere.  The final per-group sum is emitted ROUND(,2) on
both engine and SQL sides, absorbing partial-sum-order residue (the
file-header ROUND(SUM,2) rule; verified value-exact at sf 0.001 / 0.01
/ 0.1 before the oracle was wired).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..sketches import np_object
from ..stages.transport import keyed_map


def _term(t: pa.Table) -> np.ndarray:
    ep = t["l_extendedprice"].to_numpy(zero_copy_only=False)
    disc = t["l_discount"].to_numpy(zero_copy_only=False)
    tax = t["l_tax"].to_numpy(zero_copy_only=False)
    return ep * (1.0 - disc) * (1.0 + tax)


def _reconcile_slice(li: pa.Table, od: pa.Table) -> pa.Table:
    """Fold one orderkey slice: recompute per-order totals from its
    detail rows (``k``, ``ln``, ``term``), diff them against its header
    rows (``k``, ``tp``, ``grp``) and return per-group (n, sum)
    partials."""
    if not li.num_rows or not od.num_rows:
        return pa.table({"grp": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64()),
                         "s": pa.array([], pa.float64())})

    def col(t: pa.Table, c: str) -> np.ndarray:
        return t[c].to_numpy(zero_copy_only=False)

    ok, ln, tm = col(li, "k"), col(li, "ln"), col(li, "term")
    order = np.lexsort((ln, ok))
    ok, tm = ok[order], tm[order]
    starts = np.flatnonzero(np.r_[True, ok[1:] != ok[:-1]])
    rec_key = ok[starts]                       # sorted unique orderkeys
    rec_sum = np.add.reduceat(tm, starts)      # sequential per segment

    hk, tp, gp = col(od, "k"), col(od, "tp"), np_object(col(od, "grp"))
    pos = np.searchsorted(rec_key, hk)
    hit = (pos < len(rec_key))
    hit[hit] = rec_key[pos[hit]] == hk[hit]
    diff = tp[hit] - rec_sum[pos[hit]]
    uniq, inv = np.unique(gp[hit], return_inverse=True)
    s = np.zeros(len(uniq), dtype=np.float64)
    np.add.at(s, inv, diff)
    return pa.table({"grp": pa.array(uniq.tolist(), pa.string()),
                     "n": np.bincount(inv, minlength=len(uniq))
                     .astype(np.int64), "s": s})


def reconcile_order_totals(orders_ds, lineitem_ds) -> pd.DataFrame:
    """Per-o_orderpriority reconciliation of ``o_totalprice`` against
    the lineitem charge roll-up: returns (o_orderpriority, n_orders,
    total_diff) with total_diff = ROUND(SUM(o_totalprice - recomputed),
    2) over orders that HAVE lineitems (inner-join semantics)."""
    def li(t: pa.Table) -> pa.Table:
        return pa.table({"k": t["l_orderkey"], "ln": t["l_linenumber"],
                         "term": _term(t)})

    def od(t: pa.Table) -> pa.Table:
        return pa.table({"k": t["o_orderkey"], "tp": t["o_totalprice"],
                         "grp": t["o_orderpriority"]})

    parts = keyed_map(tuple(ds.map_batches(f, batch_format="pyarrow",
                                           zero_copy_batch=True)
                            for ds, f in ((lineitem_ds, li),
                                          (orders_ds, od))),
                      ["k"], _reconcile_slice).to_pandas() \
        .reindex(columns=["grp", "n", "s"])
    agg: dict[str, list] = {}
    for g, n, s in parts.itertuples(index=False):
        cur = agg.setdefault(g, [0, 0.0])
        cur[0] += n
        cur[1] += s
    rows = [{"o_orderpriority": g, "n_orders": n,
             "total_diff": round(s, 2)}
            for g, (n, s) in sorted(agg.items())]
    out = pd.DataFrame(rows, columns=["o_orderpriority", "n_orders",
                                      "total_diff"])
    out["n_orders"] = out["n_orders"].astype(np.int64)
    out["total_diff"] = out["total_diff"].astype(np.float64)
    return out


def snapshot_diff_counts(ds, *, key_col: str, ts_col: str, cut,
                         out_key: str | None = None):
    """Snapshot-diff (CDC-style) reconciliation: classify every key as
    added / removed / changed / unchanged between the per-key row
    counts of two time windows (before vs on-or-after ``cut``) — the
    check a warehouse runs to validate an incremental load against the
    previous snapshot.  Single-table sibling of
    ``reconcile_order_totals``; the reference has no cross-snapshot
    notion at all (its fit/transform is one frame,
    /root/reference/pipelines/control.py:89-107).

    Shape: ONE streaming pass — per-block ``np.unique`` counts over the
    packed int64 key ``2*key + is_new`` ride the census fold
    (stages/transport.fold), so the exchange is the packed
    count partials, never rows; the driver pivots O(distinct keys)
    ints into the full-outer old/new frame (keys at web scale would
    emit via the same partials sharded — documented trade, census
    family).  All-integer counts + a string CASE: SQL-exact."""
    from ..stages.transport import fold, merge_counts

    cut64 = np.datetime64(cut, "us").astype(np.int64)

    def census(t: pa.Table) -> tuple:
        keys = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if keys.size and (keys.min() < 0 or keys.max() >= 2**62):
            raise ValueError("snapshot_diff_counts packs 2*key+half: "
                             "keys must be in [0, 2^62)")
        ts = t[ts_col].to_numpy(zero_copy_only=False).view("i8")
        packed = keys * 2 + (ts >= cut64)
        return np.unique(packed, return_counts=True)

    vals, cnts = fold(ds, census, merge_counts)
    keys = vals >> 1
    half = (vals & 1).astype(bool)
    uu = np.unique(keys)
    n_old = np.zeros(len(uu), dtype=np.int64)
    n_new = np.zeros(len(uu), dtype=np.int64)
    idx = np.searchsorted(uu, keys)
    n_old[idx[~half]] = cnts[~half]
    n_new[idx[half]] = cnts[half]
    status = np.where(
        n_old == 0, "added",
        np.where(n_new == 0, "removed",
                 np.where(n_old == n_new, "unchanged", "changed")))
    return pd.DataFrame({(out_key or key_col): uu,
                         "n_old": n_old, "n_new": n_new,
                         "status": pd.Series(status, dtype=object)})
