"""Uniqueness / duplicate-key validators (SURVEY §2.7).

The reference has no dedup at all (its only duplicate heuristic is the
Spearman duplicate-COLUMN check, SpearmanCheck.py:23-41); these are the
engine-native key checks the north rule requires.

Scale shape: a keyed check pre-aggregates each block to one row per
distinct key (Arrow ``group_by``) and sums those rows per key with
``stages.transport.keyed_fold``, so the exchange moves
O(distinct-per-block) rows, never raw rows, and no Ray sort-groupby
runs.  ``image_id``-style near-unique keys are naturally balanced;
for skewed keys use the salted two-level pattern in ``near_dup.py``.

Null rule: a uniqueness check either checks only the rows that are
total on the key, or treats null as a value (the embedded-uniqueness
distinction, ICDE 2019).  ``duplicate_keys`` does the latter on both of
its arms, like DuckDB's ``GROUP BY``: all null keys form one group.
Keys hash through ``sketches.key_hash``, so a key's census count never
depends on which block (or which nullability) it arrived in.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sketches import HyperLogLog, hll_index_rho, key_hash
from ..stages.transport import (fold, fold_with_layout, keyed_fold,
                                merge_counts, merge_groups)


# candidate rows above which a listing takes the keyed-fold arm
MAX_COLLECT = 2_000_000


def key_census(cols: list[str]):
    """The census partial on ``cols``: a block -> its (key hash, count)
    arrays, folded by ``transport.merge_counts``."""
    return lambda b: np.unique(key_hash([b[c] for c in cols])[0],
                               return_counts=True)


def duplicate_keys(ds, cols: list[str]) -> pa.Table:
    """Keys occurring more than once, with their multiplicity: an Arrow
    table ``cols + [n]``, the uniqueness violation listing (FIXTURES.md
    R3).  Null counts as one key, as DuckDB's ``GROUP BY`` does, not as
    SQL ``UNIQUE``'s rule that ignores rows with a null key (ICDE 2019).

    EXACT and never sort-shuffles row keys: the :func:`key_census` fold,
    then :func:`duplicate_listing`."""
    census, layout = fold_with_layout(ds, key_census(cols), merge_counts)
    return duplicate_listing(ds, cols, census, layout)


def duplicate_listing(ds, cols: list[str], census: tuple,
                      layout) -> pa.Table:
    """:func:`duplicate_keys`' listing of ``ds`` from its merged
    :func:`key_census` and the ``Layout`` of that fold.

    No hash counted twice: the empty listing typed from
    ``layout.schema``, no execution.  Otherwise ONE execution counts the
    rows whose hash is a candidate (a collision only adds a key, which
    the exact group count drops), folded by ``transport.fold``.
    Duplicates are assumed RARE; past ``MAX_COLLECT`` candidate rows (a
    dedup workload) the keyed fold counts them instead."""
    vals, cnts = census
    dup = cnts >= 2
    if not dup.any():
        return _empty_listing(layout.schema, cols)
    return _duplicate_keys_shuffle(ds, cols, vals[dup],
                                   keyed=int(cnts[dup].sum()) > MAX_COLLECT)


def _duplicate_keys_shuffle(ds, cols: list[str], cand=None, *,
                            keyed: bool = True) -> pa.Table:
    """Per-block Arrow group_by counts of the rows whose key hash is in
    the sorted ``cand`` (every row without one), summed per key by
    ``transport.merge_groups`` and filtered to n >= 2.  The dup-heavy
    arm sums them per key slice (:func:`~..stages.transport.keyed_fold`);
    ``keyed=False`` folds them (:func:`~..stages.transport.fold`)."""
    import ray

    merge = merge_groups(cols, {"n": "sum"})
    cand_ref = None if cand is None else ray.put(cand)

    def partial(batch: pa.Table) -> pa.Table:
        t = _canonical(batch.select(cols))
        if cand_ref is not None:
            c = ray.get(cand_ref)
            h, _ = key_hash([batch[k] for k in cols])
            t = t.filter(pa.array(
                c[np.minimum(np.searchsorted(c, h), len(c) - 1)] == h))
        g = t.group_by(cols).aggregate([([], "count_all")])
        return g.rename_columns(cols + ["n"])

    def final(parts: list) -> pa.Table | None:
        t = merge([p for p in parts if p is not None])
        return t if t is None else t.filter(pc.greater_equal(t["n"], 2))

    out = keyed_fold(ds, partial, cols, final) if keyed \
        else final([fold(ds, partial, merge)])
    return out if out is not None else _empty_listing(None, cols)


def _canonical(t: pa.Table) -> pa.Table:
    """``t`` with -0.0 as 0.0 in its float key columns: Arrow's
    ``group_by`` tells the two apart, ``key_hash`` and DuckDB do not."""
    for i, f in enumerate(t.schema):
        if pa.types.is_floating(f.type):
            t = t.set_column(i, f.name, pc.add(t[i], pa.scalar(0, f.type)))
    return t


def _empty_listing(sch, cols: list[str], counts=("n",)) -> pa.Table:
    """Typed empty listing (``cols`` then int64 ``counts``) from the
    SOURCE schema ``sch`` — pa.array([]) would yield null-typed columns
    and the arms would disagree on schema.  Without one (a Dataset
    filtered to nothing runs no partial): null types."""
    types = dict(zip(sch.names, sch.types)) if sch is not None else {}
    return pa.table({c: pa.array([], type=types.get(c, pa.null()))
                     for c in cols}
                    | {c: pa.array([], type=pa.int64()) for c in counts})


def distinct_counts(ds, cols: list[str]) -> dict[str, int]:
    """Exact distinct counts per column in ONE pass: per-block Arrow
    ``unique`` partials folded by :func:`~..stages.transport.fold`
    (concat + unique per merge) — never a Python set union on the
    driver.  Exactness bounded by the merged distinct sets fitting a
    task heap; the unbounded-cardinality path is :func:`hll_distinct`."""

    def partial(batch: pa.Table) -> dict:
        return {c: pc.unique(batch[c].drop_null()) for c in cols}

    def merge(parts: list[dict]) -> dict:
        out = {}
        for c in cols:
            arrs = [p[c] for p in parts if len(p[c])]
            out[c] = pc.unique(pa.chunked_array(arrs)) if arrs \
                else pa.array([])
        return out

    final = fold(ds, partial, merge)
    return {c: len(final[c]) for c in cols}


def hll_distinct(ds, cols: list[str], *, p: int = 14) -> dict[str, float]:
    """Approximate distinct counts (HyperLogLog, mergeable) — the 100-TB
    path; |exact - HLL| small is the cheap pre-check before exact
    duplicate listing (SURVEY §2.7)."""

    def partial(batch: pa.Table) -> dict:
        hs = {}
        for c in cols:
            hs[c] = h = HyperLogLog(p=p)
            kh, valid = key_hash([batch[c]])
            if valid.any():
                h.add_hashes(kh[valid])
        return hs

    def merge(parts: list[dict]) -> dict:
        # register max is associative
        out = {c: HyperLogLog(p=p) for c in cols}
        for pt in parts:
            for c in cols:
                out[c].merge(pt[c])
        return out

    return {c: h.estimate() for c, h in fold(ds, partial, merge).items()}


def hll_distinct_per_group(ds, group_col: str, value_col: str, *,
                           p: int = 12) -> pa.Table:
    """Approximate DISTINCT ``value_col`` per ``group_col`` key —
    "distinct users per day" at the 10^12-row scale where the exact
    per-group census (group_distinct pattern) stops fitting.

    Per-block partial: one vectorized pass computes every non-null
    value's HLL (register index, rho) and a pyarrow group_by collapses
    the block to sparse (group, idx, max rho) triples — the exchange
    carries at most min(rows, groups x 2^p) triples per block, never raw
    values.  :func:`~..stages.transport.keyed_fold` meets each group's
    triples in one task, which raises its registers
    (``HyperLogLog.add_rho``) and estimates.  A null group key is one
    group, and a group whose values are all null counts 0, as in
    DuckDB's ``GROUP BY`` with ``COUNT(DISTINCT)``.  Returns an Arrow
    table (``group_col``, ``distinct_est``) sorted by group, null last
    (no input row: typed as far as Ray knows without an execution).
    Approximate by construction; pytest bounds the error.
    """
    def partial(t: pa.Table) -> pa.Table:
        h, valid = key_hash([t[value_col]])
        idx, rho = hll_index_rho(h, p)
        # a null value keeps its group in register -1, which adds nothing
        g = pa.table({group_col: t[group_col],
                      "idx": np.where(valid, idx, -1), "rho": rho}) \
            .group_by([group_col, "idx"]).aggregate([("rho", "max")])
        return pa.table({group_col: g[group_col], "idx": g["idx"],
                         "rho": g["rho_max"]})

    def final(parts: list[pa.Table]) -> pa.Table:
        g = pa.concat_tables(parts).group_by(group_col).aggregate(
            [("idx", "list"), ("rho", "list")])
        est = []
        for idx, rho in zip(*(g[f"{c}_list"].combine_chunks()
                              for c in ("idx", "rho"))):
            h = HyperLogLog(p=p)
            idx, rho = idx.values.to_numpy(), rho.values.to_numpy()
            h.add_rho(idx[idx >= 0], rho[idx >= 0])
            est.append(round(h.estimate(), 1))
        return pa.table({group_col: g[group_col],
                         "distinct_est": pa.array(est, pa.float64())})

    out = keyed_fold(ds, partial, [group_col], final)
    if out is None:
        return _empty_listing(ds.schema(fetch_if_missing=False),
                              [group_col], counts=()).append_column(
            "distinct_est", pa.array([], pa.float64()))
    return out.sort_by([(group_col, "ascending")], null_placement="at_end")
