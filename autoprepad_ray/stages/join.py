"""Large-large equi-join strategies (SURVEY §2.4: the reference has only
an index-aligned label join; the engine provides real distributed
joins):

- ``native_join``: Ray Data's built-in hash-partitioned ``Dataset.join``
  (Ray >= 2.46) — the default when both sides are large.
- ``bucketed_join``: the portable explicit pattern — both sides get a
  ``bucket = key_hash(key) % B`` column, one ``groupby(bucket)`` over
  the tagged union, and an exact hash-factorized merge per bucket.
  Salt hot keys by raising B; B should be ~(total size / target
  partition size).
- small sides should NOT be here at all: broadcast them
  (``ray.put`` + per-batch lookup, see queries.top_customers).

Null rule (SQL): a NULL key never matches, not even another NULL.
Inner, as-of and range joins and ``semi_join`` drop null-key rows; left
and outer joins emit them null-extended; an anti join keeps them
(``NOT EXISTS``).  Every key goes through ``sketches.key_hash`` (buckets)
or ``sketches.key_values`` (exact matching), so a key hashes and compares
alike on both sides and in every block.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..sketches import key_hash, key_values, splitmix64

# asof_join / range_join pack (key_code << 32) | ts_rank into a SIGNED
# int64, so both halves must stay below 2^31.  Key codes index the
# distinct keys of the bucket's rows, so bounding the bucket's rows
# bounds both.
PACK_LIMIT = 1 << 31


def _ts_i64(a: np.ndarray) -> np.ndarray:
    """Raw int64 view of a timestamp/int column (us for datetime64) —
    all window comparisons run in exact integer space, never floats."""
    if np.issubdtype(a.dtype, np.datetime64):
        return a.astype("datetime64[us]").view(np.int64)
    return a.astype(np.int64)


def native_join(left, right, on: str | tuple[str, ...], *,
                join_type: str = "inner", num_partitions: int = 32,
                **kwargs):
    on_t = (on,) if isinstance(on, str) else tuple(on)
    return left.join(right, join_type=join_type,
                     num_partitions=num_partitions, on=on_t, **kwargs)


def semi_join(left, right, on: str, *, right_on: str | None = None,
              anti: bool = False, max_broadcast_keys: int = 5_000_000):
    """Semi-join (``EXISTS`` filter) / anti-join: keep the left rows
    whose key appears (does not appear, ``anti=True``) in ``right``.

    The right side reduces to its DISTINCT key set first — each block's
    unique keys are one fold partial (``stages.transport.fold``; every
    merge is one vectorized ``np.unique``; a sort-groupby would shuffle
    every right row to dedup keys that per-block partials already
    collapse).  The deduped key array broadcasts once
    (``ray.put``) and the left side filters with a vectorized
    ``searchsorted`` into it — no shuffle of either table.  Both sides
    compare their exact ``sketches.key_values`` (never hashes, never
    float64 copies of int keys); a null left key never matches, so the
    semi join drops it and the anti join keeps it (``NOT EXISTS``).

    Scale bound: the broadcast is O(distinct matching keys), NOT
    O(right rows), and driver transients are numpy arrays, never
    Python row dicts.  Past ``max_broadcast_keys`` this raises — at
    that size use ``bucketed_join`` with the right side pre-deduped
    (same one-shuffle cost as an inner join) instead of silently
    shipping a multi-GB set to every task.

    Reference has only index-aligned label joins
    (/root/reference/pipelines/experiment/experiment.py:125); this is
    the relational EXISTS re-expressed for a cluster."""
    import ray

    from .transport import fold, merge_unique

    def distinct(t: pa.Table) -> np.ndarray:
        v, valid = key_values(t[right_on or on])
        return np.unique(v[valid])

    keys = fold(right, distinct, merge_unique)
    if len(keys) > max_broadcast_keys:
        raise ValueError(
            f"semi_join: {len(keys)} distinct right keys exceeds the "
            f"broadcast bound {max_broadcast_keys}; pre-dedup the right "
            "side and use bucketed_join")
    keys_ref = ray.put(keys)

    def filt(t: pa.Table) -> pa.Table:
        v, valid = key_values(t[on])
        k = ray.get(keys_ref)
        # _equi_pairs' equality: NaN matches NaN (np.isin would not)
        m = valid & (np.searchsorted(k, v, "right")
                     > np.searchsorted(k, v, "left"))
        if anti:
            m = ~m
        return t.filter(pa.array(m))

    return left.map_batches(filt, batch_format="pyarrow",
                            zero_copy_batch=True)


def _co_partition(left, right, tag):
    """The tagged union of both sides (``tag(side)`` builds each side's
    block function) grouped by ``__bucket`` — ONE shuffle."""
    return (left.map_batches(tag(0), batch_format="pyarrow",
                             zero_copy_batch=True)
            .union(right.map_batches(tag(1), batch_format="pyarrow",
                                     zero_copy_batch=True))
            .groupby("__bucket"))


def _tagged(t: pa.Table, side: int, own: list[str], all_cols: list[str],
            types: dict, h: np.ndarray, num_buckets: int) -> pa.Table:
    """One side's block in the union's ONE schema: typed null columns
    for the other side's fields, plus ``__bucket`` (``h % B``) and
    ``__side`` (non-key column names must be disjoint across sides)."""
    cols = {c: t[c] if c in own else pa.nulls(t.num_rows, type=types[c])
            for c in all_cols}
    cols["__bucket"] = pa.array((h % np.uint64(num_buckets))
                                .astype(np.int32))
    cols["__side"] = pa.array(np.full(t.num_rows, side, dtype=np.int8))
    return pa.table(cols)


def _drop_null_keys(t: pa.Table, on: str) -> tuple[pa.Table, np.ndarray]:
    """(rows with a non-null key, their key hashes) — a side whose
    null-key rows can never reach the output sheds them before the
    shuffle (they would all land in the null hash's one bucket)."""
    h, valid = key_hash([t[on]])
    if valid.all():
        return t, h
    return t.filter(pa.array(valid)), h[valid]


def _equi_pairs(lk, lok, rk, rok) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) row-index pairs whose keys are VALID and equal —
    exact comparison of canonical key values (one hash-table factorize
    of both sides into dense codes, never hash equality; NaN is one
    code, as in DuckDB); a null key matches nothing."""
    lv, rv = np.flatnonzero(lok), np.flatnonzero(rok)
    codes, uniq = pd.factorize(np.concatenate([lk[lv], rk[rv]]),
                               use_na_sentinel=False)
    lc, rc = codes[:len(lv)], codes[len(lv):]
    n_r = np.bincount(rc, minlength=len(uniq))
    cnt = n_r[lc]
    pos = (np.repeat((np.cumsum(n_r) - n_r)[lc] - np.cumsum(cnt) + cnt,
                     cnt)
           + np.arange(int(cnt.sum()), dtype=np.int64))
    return np.repeat(lv, cnt), rv[np.argsort(rc, kind="stable")[pos]]


def bucketed_join(left, right, on: str, *, num_buckets: int = 32,
                  left_cols: list[str] | None = None,
                  right_cols: list[str] | None = None,
                  how: str = "inner",
                  schema_hint: tuple | None = None):
    """Explicit hash-bucketed join (``how`` = 'inner' | 'left' |
    'outer'): ONE shuffle keyed on ``key_hash(on) % num_buckets``; each
    bucket joins its two sides on the exact canonical key values
    (factorize + counting sort).  Key-hash bucketing spreads any single
    hot key's *partner* rows with it, so skew shows up as a large
    bucket — mitigate by raising ``num_buckets``.

    Left/full-outer semantics work per-bucket with no extra pass
    because ``key_hash`` is a function of the key VALUE alone — not of
    the side, the column's width or nullability, or the block — so
    equal keys from both sides always share a bucket: "no match in my
    bucket" is "no match anywhere" and the null-extended row emits
    locally.  Null keys match nothing: inner joins drop them before the
    shuffle, left/outer joins carry the side(s) they emit
    null-extended.

    Output blocks are Arrow tables on the SOURCE column types (rows are
    ``take``n from the bucket's own columns, null-extension is typed
    nulls), deterministically on every bucket layout."""
    # schema_hint=(left_schema, right_schema) skips the .schema() calls
    # — on a computed chain (e.g. a rename map over a read) those
    # execute tasks just to learn types the caller already knows from
    # the parquet footer.
    lsch, rsch = schema_hint if schema_hint else (left.schema(),
                                                  right.schema())
    lcols = sorted(set((left_cols or lsch.names) + [on]))
    rcols = sorted(set((right_cols or rsch.names) + [on]))
    types = {n: t for n, t in list(zip(lsch.names, lsch.types))
             + list(zip(rsch.names, rsch.types))}
    all_cols = sorted(set(lcols) | set(rcols))
    # the sides whose null-key rows reach the output
    emit_null = (how != "inner", how == "outer")

    def tag(side: int):
        own = (lcols, rcols)[side]

        def fn(t: pa.Table) -> pa.Table:
            if emit_null[side]:
                h = key_hash([t[on]])[0]
            else:
                t, h = _drop_null_keys(t, on)
            return _tagged(t, side, own, all_cols, types, h, num_buckets)
        return fn

    out_cols = lcols + [c for c in rcols if c != on]

    def merge_bucket(g: pa.Table) -> pa.Table:
        side = g["__side"].to_numpy()
        lg = g.filter(pa.array(side == 0)).select(lcols)
        rg = g.filter(pa.array(side == 1)).select(rcols)
        li, ri = _equi_pairs(*key_values(lg[on]), *key_values(rg[on]))
        parts = [(li, ri)]
        if emit_null[0]:
            parts.append((np.setdiff1d(np.arange(lg.num_rows), li), None))
        if emit_null[1]:
            parts.append((None, np.setdiff1d(np.arange(rg.num_rows), ri)))

        def emit(li, ri) -> pa.Table:
            n = len(li if li is not None else ri)
            cols = {}
            for c in out_cols:
                # a right-only row (li is None) takes its key from the right
                right = c not in lcols or (c == on and li is None)
                src, idx = (rg, ri) if right else (lg, li)
                cols[c] = (src[c].take(idx) if idx is not None
                           else pa.nulls(n, type=types[c]))
            return pa.table(cols)

        return pa.concat_tables([emit(li, ri) for li, ri in parts])

    return _co_partition(left, right, tag).map_groups(
        merge_bucket, batch_format="pyarrow")


def asof_join(left, right, *, on: str, left_ts: str, right_ts: str,
              left_cols: list[str], right_cols: list[str],
              tie_col: str | None = None, num_buckets: int = 32,
              suffix: str = "_asof", schema_hint: tuple | None = None):
    """Distributed as-of (nearest-prior) join: for each left row, the
    right row with the same ``on`` key and the LARGEST ``right_ts`` <=
    ``left_ts`` (ties on ``right_ts`` broken by largest ``tie_col``).
    Inner semantics: left rows with no prior right row, and rows of
    either side with a null key, are dropped.

    Same co-partition shape as :func:`bucketed_join` — ONE shuffle of
    the tagged union keyed on ``key_hash(on) % num_buckets`` — then a
    per-bucket vectorized merge: sort the bucket's right side by
    (key, ts, tie), the left side by key, and ``np.searchsorted`` each
    left row's (key, ts) upper bound into the right arrays (no per-row
    Python).  Key-hash bucketing keeps every key's two sides together;
    skew mitigates by raising ``num_buckets``.

    Timestamps compare as their raw int64 representation (us) — exact,
    no float math — so results match a SQL window/ASOF oracle exactly.
    """
    lsch, rsch = schema_hint if schema_hint else (left.schema(),
                                                  right.schema())
    lcols = sorted(set(left_cols + [on, left_ts]))
    rcols = sorted(set(right_cols + [on, right_ts]
                       + ([tie_col] if tie_col else [])))
    types = {n: t for n, t in list(zip(lsch.names, lsch.types))
             + list(zip(rsch.names, rsch.types))}
    all_cols = sorted(set(lcols) | set(rcols))

    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            t, h = _drop_null_keys(t, on)
            return _tagged(t, side, (lcols, rcols)[side], all_cols, types,
                           h, num_buckets)
        return fn

    out_right = [c for c in rcols if c not in (on, right_ts)] \
        + [right_ts]
    # Output schema pinned from the SOURCE arrow types: the tagged
    # union's typed-null padding demotes the other side's int columns
    # to float64 inside each pandas bucket frame (NaN rows), so the
    # merge emits ARROW tables rebuilt per source type — int columns
    # come back int64, deterministically on every bucket/layout (a
    # dtype-exact oracle gate sees int64, not a bucket-dependent mix).
    out_types: dict[str, tuple[str, pa.DataType]] = {
        c: (c, types[c]) for c in lcols}
    for c in out_right:
        out_types[c + (suffix if c in lcols else "")] = (c, types[c])

    def _emit(res: pd.DataFrame) -> pa.Table:
        return pa.table({
            name: pa.array(res[name], type=t, from_pandas=True)
            for name, (_, t) in out_types.items()})

    _empty = pa.table({name: pa.array([], type=t)
                       for name, (_, t) in out_types.items()})

    def merge_bucket(g: pd.DataFrame) -> pa.Table:
        lg = g.loc[g["__side"] == 0, lcols].reset_index(drop=True)
        rg = g.loc[g["__side"] == 1, rcols]
        if not len(lg) or not len(rg):
            return _empty
        rsort = [on, right_ts] + ([tie_col] if tie_col else [])
        rg = rg.sort_values(rsort, kind="mergesort").reset_index(drop=True)
        rk = rg[on].to_numpy()
        rt = _ts_i64(rg[right_ts].to_numpy())
        lk = lg[on].to_numpy()
        lt = _ts_i64(lg[left_ts].to_numpy())
        # Fully vectorized lexicographic search: dense-rank keys and
        # timestamps into one int64 composite (key_code << 32 | ts_rank;
        # equal timestamps share a rank, so side='right' - 1 lands on
        # the LAST right row with (key, ts) <= (key, ts)_left — which,
        # with rg sorted by (key, ts, tie), is also the max-tie winner).
        # ts_rank and key_code < bucket rows, so a bucket must stay
        # below PACK_LIMIT rows — raise num_buckets long before that.
        uk = np.unique(np.concatenate([rk, lk]))
        rkc = np.searchsorted(uk, rk).astype(np.int64)
        lkc = np.searchsorted(uk, lk).astype(np.int64)
        allt = np.sort(np.concatenate([rt, lt]))
        if len(allt) >= PACK_LIMIT:
            raise ValueError(
                f"asof_join bucket holds {len(allt)} rows >= {PACK_LIMIT}; "
                "raise num_buckets")
        rtr = np.searchsorted(allt, rt, side="left").astype(np.int64)
        ltr = np.searchsorted(allt, lt, side="left").astype(np.int64)
        pos = np.searchsorted((rkc << 32) | rtr, (lkc << 32) | ltr,
                              side="right") - 1
        ok = (pos >= 0) & (rkc[np.maximum(pos, 0)] == lkc)
        if not ok.any():
            return _empty
        res = lg.loc[ok].reset_index(drop=True)
        picked = rg.iloc[pos[ok]].reset_index(drop=True)
        for c in out_right:
            name = c + (suffix if c in res.columns else "")
            res[name] = picked[c].to_numpy()
        return _emit(res)

    return _co_partition(left, right, tag).map_groups(
        merge_bucket, batch_format="pandas")


def range_join(left, right, *, on: str, left_ts: str, right_start: str,
               right_end: str, left_cols: list[str],
               right_cols: list[str], num_buckets: int = 32,
               tile_width: int | None = None, suffix: str = "_r",
               schema_hint: tuple | None = None):
    """Distributed interval (range) join: every (left, right) pair with
    equal non-null ``on`` key and ``right_start <= left_ts <
    right_end``.  Inner semantics, one output row per matching pair;
    all comparisons in raw int64 (us for timestamps) so results match a
    SQL non-equi-join oracle exactly.

    Two co-partition modes, same per-bucket vectorized merge:

    - ``tile_width=None``: one shuffle keyed on ``key_hash(on) % B`` (the
      :func:`bucketed_join` shape).  Candidates for a left row are ALL
      same-key intervals with ``start <= ts`` — fine when keys don't
      accumulate long histories.
    - ``tile_width=W`` (int, in the ts column's int64 unit): intervals
      replicate once per W-wide time tile they cover (vectorized
      ``np.repeat`` — typically 2 rows for window-style intervals with
      width <= W) and left rows land in tile ``ts // W``; the shuffle
      keys on ``key_hash(on)`` mixed with the tile, modulo B.  Each
      true pair matches in exactly one tile (the left row's), so no
      dedup pass is needed, candidate scans are bounded by per-tile
      interval counts rather than a key's full history, and a hot
      key's timeline spreads
      across the cluster — the 100-TB shape.  Pick W ~ the typical
      interval width.

    The per-bucket merge is the as-of composite-rank searchsorted with
    a counted expansion instead of a single pick: dense (key[, tile])
    pair codes (exact equality — the bucket hash never decides a
    match), one ``searchsorted`` pair per bucket for the
    ``start <= ts`` upper bounds, ``np.repeat`` expansion of the
    candidate ranges, and an ``end > ts`` filter.  No per-row Python.
    Composite is ``code << 32 | ts_rank`` — a bucket must stay below
    ``PACK_LIMIT`` (2^31) rows; raise ``num_buckets`` long before that.

    Output pair volume is intrinsic to the join predicate (a key+tile
    with many overlapping intervals genuinely matches many pairs);
    the expansion is O(candidates), not O(bucket^2).
    """
    lsch, rsch = schema_hint if schema_hint else (left.schema(),
                                                  right.schema())
    lcols = sorted(set(left_cols + [on, left_ts]))
    rcols = sorted(set(right_cols + [on, right_start, right_end]))
    types = {n: t for n, t in list(zip(lsch.names, lsch.types))
             + list(zip(rsch.names, rsch.types))}
    all_cols = sorted(set(lcols) | set(rcols))
    tiled = tile_width is not None
    W = np.int64(tile_width if tiled else 1)

    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            t, kh = _drop_null_keys(t, on)
            if side == 1 and tiled:
                # replicate each interval once per covered tile
                s = _ts_i64(t[right_start].to_numpy(zero_copy_only=False))
                e = _ts_i64(t[right_end].to_numpy(zero_copy_only=False))
                t0, t1 = s // W, (e - 1) // W     # end exclusive
                reps = np.where(e > s, t1 - t0 + 1, 0).astype(np.int64)
                idx = np.repeat(np.arange(t.num_rows, dtype=np.int64),
                                reps)
                tot = int(reps.sum())
                offs = (np.arange(tot, dtype=np.int64)
                        - np.repeat(np.cumsum(reps) - reps, reps))
                tile = t0[idx] + offs
                t, kh = t.take(idx), kh[idx]
            elif tiled:
                tile = _ts_i64(t[left_ts].to_numpy(
                    zero_copy_only=False)) // W
            if tiled:
                kh = splitmix64(kh + splitmix64(tile.view(np.uint64)))
            out = _tagged(t, side, (lcols, rcols)[side], all_cols, types,
                          kh, num_buckets)
            return out.append_column("__tile", pa.array(
                tile.astype(np.int64))) if tiled else out
        return fn

    out_right = [c for c in right_cols if c != on]
    extra = ["__tile"] if tiled else []

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lg = g.loc[g["__side"] == 0, lcols + extra].reset_index(drop=True)
        rg = g.loc[g["__side"] == 1, rcols + extra].reset_index(drop=True)
        if not len(lg) or not len(rg):
            return pd.DataFrame()
        rk, lk = rg[on].to_numpy(), lg[on].to_numpy()
        uk = np.unique(np.concatenate([rk, lk]))
        rkc = np.searchsorted(uk, rk).astype(np.int64)
        lkc = np.searchsorted(uk, lk).astype(np.int64)
        if tiled:
            # exact dense (key, tile) pair codes across both sides
            pair = np.stack([np.concatenate([rkc, lkc]),
                             np.concatenate([rg["__tile"].to_numpy(),
                                             lg["__tile"].to_numpy()])],
                            axis=1)
            _, codes = np.unique(pair, axis=0, return_inverse=True)
            codes = codes.reshape(-1)     # numpy >= 2.1 shape change
            rkc, lkc = (codes[:len(rk)].astype(np.int64),
                        codes[len(rk):].astype(np.int64))
        rt = _ts_i64(rg[right_start].to_numpy())
        re_ = _ts_i64(rg[right_end].to_numpy())
        lt = _ts_i64(lg[left_ts].to_numpy())
        order = np.lexsort((rt, rkc))
        rkc_s, rt_s, re_s = rkc[order], rt[order], re_[order]
        allt = np.sort(np.concatenate([rt_s, lt]))
        if len(allt) >= PACK_LIMIT:
            raise ValueError(
                f"range_join bucket holds {len(allt)} rows >= {PACK_LIMIT}; "
                "raise num_buckets")
        rtr = np.searchsorted(allt, rt_s, side="left").astype(np.int64)
        ltr = np.searchsorted(allt, lt, side="left").astype(np.int64)
        lo = np.searchsorted(rkc_s, lkc, side="left")
        hi = np.searchsorted((rkc_s << 32) | rtr, (lkc << 32) | ltr,
                             side="right")
        counts = hi - lo
        tot = int(counts.sum())
        if tot == 0:
            return pd.DataFrame()
        row_of = np.repeat(np.arange(len(lg), dtype=np.int64), counts)
        cand = lo[row_of] + (np.arange(tot, dtype=np.int64)
                             - np.repeat(np.cumsum(counts) - counts,
                                         counts))
        keep = re_s[cand] > lt[row_of]
        if not keep.any():
            return pd.DataFrame()
        res = lg.loc[row_of[keep], left_cols].reset_index(drop=True)
        picked = rg.iloc[order[cand[keep]]].reset_index(drop=True)
        for c in out_right:
            name = c + (suffix if c in res.columns else "")
            res[name] = picked[c].to_numpy()
        return res

    return _co_partition(left, right, tag).map_groups(
        merge_bucket, batch_format="pandas")
