"""Large-large equi-join strategies (SURVEY §2.4: the reference has only
an index-aligned label join; the engine provides real distributed
joins):

- ``native_join``: Ray Data's built-in hash-partitioned ``Dataset.join``
  (Ray >= 2.46) — the default when both sides are large.
- ``bucketed_join``: the portable explicit pattern — both sides ride
  one ``transport.keyed_map`` (every row routed by ``slice_of`` of its
  key hash, so equal keys of both sides meet in one slice task), and an
  exact hash-factorized merge runs per slice.  The slice count is
  ``transport.default_num_parts()``.
- small sides should NOT be here at all: broadcast them
  (``ray.put`` + per-batch lookup, see ``semi_join``).

Null rule (SQL): a NULL key never matches, not even another NULL.
Inner, as-of and range joins and ``semi_join`` drop null-key rows; left
and outer joins emit them null-extended; an anti join keeps them
(``NOT EXISTS``).  Every key goes through ``sketches.key_hash`` (slices)
or ``sketches.key_values`` (exact matching), so a key hashes and compares
alike on both sides and in every block.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..sketches import key_values
from .transport import keyed_map

# asof_join / range_join pack (key_code << 32) | ts_rank into a SIGNED
# int64, so both halves must stay below 2^31.  Key codes index the
# distinct keys of the slice's rows, so bounding the slice's rows
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


def _keyed(side, cols: list[str], on: str, drop_null: bool):
    """One join side as ``keyed_map`` takes it: its ``cols`` only, and
    without null-key rows when they can never reach the output (they
    would all land in the null hash's one slice)."""
    def fn(t: pa.Table) -> pa.Table:
        t = t.select(cols)
        return t.filter(pa.array(key_values(t[on])[1])) if drop_null else t
    return side.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def _source_types(left, right, schema_hint: tuple | None) -> tuple:
    """(left names, right names, name -> Arrow type over both sides).
    ``schema_hint=(left_schema, right_schema)`` skips the ``.schema()``
    calls — on a computed chain (e.g. a rename map over a read) those
    execute tasks just to learn types the caller already knows from the
    parquet footer."""
    lsch, rsch = schema_hint or (left.schema(), right.schema())
    return lsch.names, rsch.names, {**dict(zip(lsch.names, lsch.types)),
                                    **dict(zip(rsch.names, rsch.types))}


def _side(t: pa.Table, cols: list[str], types: dict) -> pa.Table:
    """A side's rows in one slice; a side without rows there (a table
    without columns) becomes the typed empty table of its ``cols``."""
    return t if t.num_columns else \
        pa.schema([(c, types[c]) for c in cols]).empty_table()


def _typed(res: pd.DataFrame | None, out_types: dict) -> pa.Table:
    """A per-slice result frame as Arrow columns of the SOURCE types
    (``out_types``: name -> type), so every slice emits one schema;
    ``None`` is the typed empty result."""
    if res is None:
        return pa.schema(list(out_types.items())).empty_table()
    return pa.table({name: pa.array(res[name], type=t, from_pandas=True)
                     for name, t in out_types.items()})


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


def bucketed_join(left, right, on: str, *,
                  left_cols: list[str] | None = None,
                  right_cols: list[str] | None = None,
                  how: str = "inner",
                  schema_hint: tuple | None = None):
    """Explicit key-routed join (``how`` = 'inner' | 'left' | 'outer'):
    both sides ride ONE ``transport.keyed_map`` on ``on``; each slice
    joins its two sides on the exact canonical key values (factorize +
    counting sort).  Key-hash routing sends any single hot key's
    *partner* rows with it, so skew shows up as a large slice.

    Left/full-outer semantics work per slice with no extra pass because
    ``key_hash`` is a function of the key VALUE alone — not of the side,
    the column's width or nullability, or the block — so equal keys from
    both sides always share a slice: "no match in my slice" is "no match
    anywhere" and the null-extended row emits locally.  Null keys match
    nothing: inner joins drop them before the exchange, left/outer joins
    carry the side(s) they emit null-extended.

    Output blocks are Arrow tables on the SOURCE column types (rows are
    ``take``n from the slice's own columns, null-extension is typed
    nulls), deterministically on every slice layout."""
    lnames, rnames, types = _source_types(left, right, schema_hint)
    lcols = sorted(set((left_cols or lnames) + [on]))
    rcols = sorted(set((right_cols or rnames) + [on]))
    # the sides whose null-key rows reach the output
    emit_null = (how != "inner", how == "outer")
    out_cols = lcols + [c for c in rcols if c != on]

    def merge(lg: pa.Table, rg: pa.Table) -> pa.Table:
        lg, rg = _side(lg, lcols, types), _side(rg, rcols, types)
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

    return keyed_map((_keyed(left, lcols, on, not emit_null[0]),
                      _keyed(right, rcols, on, not emit_null[1])),
                     [on], merge)


def asof_join(left, right, *, on: str, left_ts: str, right_ts: str,
              left_cols: list[str], right_cols: list[str],
              tie_col: str | None = None, suffix: str = "_asof",
              schema_hint: tuple | None = None):
    """Distributed as-of (nearest-prior) join: for each left row, the
    right row with the same ``on`` key and the LARGEST ``right_ts`` <=
    ``left_ts`` (ties on ``right_ts`` broken by largest ``tie_col``).
    Inner semantics: left rows with no prior right row, and rows of
    either side with a null key, are dropped.

    Same exchange as :func:`bucketed_join` — ONE ``transport.keyed_map``
    of both sides on ``on`` — then a per-slice vectorized merge: sort
    the slice's right side by (key, ts, tie), the left side by key, and
    ``np.searchsorted`` each left row's (key, ts) upper bound into the
    right arrays (no per-row Python).  Key-hash routing keeps every
    key's two sides together.

    Timestamps compare as their raw int64 representation (us) — exact,
    no float math — so results match a SQL window/ASOF oracle exactly.
    """
    types = _source_types(left, right, schema_hint)[2]
    lcols = sorted(set(left_cols + [on, left_ts]))
    rcols = sorted(set(right_cols + [on, right_ts]
                       + ([tie_col] if tie_col else [])))

    out_right = [c for c in rcols if c not in (on, right_ts)] \
        + [right_ts]
    # Output schema pinned from the SOURCE arrow types, so every slice
    # emits the same schema whatever its rows' pandas dtypes.
    out_types = {c: types[c] for c in lcols}
    for c in out_right:
        out_types[c + (suffix if c in lcols else "")] = types[c]

    def merge(la: pa.Table, ra: pa.Table) -> pa.Table:
        if not la.num_rows or not ra.num_rows:
            return _typed(None, out_types)
        lg = la.to_pandas()
        rsort = [on, right_ts] + ([tie_col] if tie_col else [])
        rg = ra.to_pandas().sort_values(rsort, kind="mergesort") \
            .reset_index(drop=True)
        rk = rg[on].to_numpy()
        rt = _ts_i64(rg[right_ts].to_numpy())
        lk = lg[on].to_numpy()
        lt = _ts_i64(lg[left_ts].to_numpy())
        # Fully vectorized lexicographic search: dense-rank keys and
        # timestamps into one int64 composite (key_code << 32 | ts_rank;
        # equal timestamps share a rank, so side='right' - 1 lands on
        # the LAST right row with (key, ts) <= (key, ts)_left — which,
        # with rg sorted by (key, ts, tie), is also the max-tie winner).
        # ts_rank and key_code < slice rows, so a slice must stay below
        # PACK_LIMIT rows.
        uk = np.unique(np.concatenate([rk, lk]))
        rkc = np.searchsorted(uk, rk).astype(np.int64)
        lkc = np.searchsorted(uk, lk).astype(np.int64)
        allt = np.sort(np.concatenate([rt, lt]))
        if len(allt) >= PACK_LIMIT:
            raise ValueError(
                f"asof_join slice holds {len(allt)} rows >= {PACK_LIMIT}")
        rtr = np.searchsorted(allt, rt, side="left").astype(np.int64)
        ltr = np.searchsorted(allt, lt, side="left").astype(np.int64)
        pos = np.searchsorted((rkc << 32) | rtr, (lkc << 32) | ltr,
                              side="right") - 1
        ok = (pos >= 0) & (rkc[np.maximum(pos, 0)] == lkc)
        if not ok.any():
            return _typed(None, out_types)
        res = lg.loc[ok].reset_index(drop=True)
        picked = rg.iloc[pos[ok]].reset_index(drop=True)
        for c in out_right:
            name = c + (suffix if c in res.columns else "")
            res[name] = picked[c].to_numpy()
        return _typed(res, out_types)

    return keyed_map((_keyed(left, lcols, on, True),
                      _keyed(right, rcols, on, True)), [on], merge)


def range_join(left, right, *, on: str, left_ts: str, right_start: str,
               right_end: str, left_cols: list[str],
               right_cols: list[str], tile_width: int | None = None,
               suffix: str = "_r", schema_hint: tuple | None = None):
    """Distributed interval (range) join: every (left, right) pair with
    equal non-null ``on`` key and ``right_start <= left_ts <
    right_end``.  Inner semantics, one output row per matching pair;
    all comparisons in raw int64 (us for timestamps) so results match a
    SQL non-equi-join oracle exactly.

    Two routing modes, same per-slice vectorized merge, both ONE
    ``transport.keyed_map`` of the two sides:

    - ``tile_width=None``: keyed on ``on`` (the :func:`bucketed_join`
      shape).  Candidates for a left row are ALL same-key intervals
      with ``start <= ts`` — fine when keys don't accumulate long
      histories.
    - ``tile_width=W`` (int, in the ts column's int64 unit): intervals
      replicate once per W-wide time tile they cover (vectorized
      ``np.repeat`` — typically 2 rows for window-style intervals with
      width <= W) and left rows land in tile ``ts // W``; the exchange
      keys on (``on``, tile).  Each true pair matches in exactly one
      tile (the left row's), so no dedup pass is needed, candidate
      scans are bounded by per-tile interval counts rather than a key's
      full history, and a hot key's timeline spreads across the
      cluster — the 100-TB shape.  Pick W ~ the typical interval width.

    The per-slice merge is the as-of composite-rank searchsorted with
    a counted expansion instead of a single pick: dense (key[, tile])
    pair codes (exact equality — the slice hash never decides a
    match), one ``searchsorted`` pair per slice for the
    ``start <= ts`` upper bounds, ``np.repeat`` expansion of the
    candidate ranges, and an ``end > ts`` filter.  No per-row Python.
    Composite is ``code << 32 | ts_rank`` — a slice must stay below
    ``PACK_LIMIT`` (2^31) rows.

    Output pair volume is intrinsic to the join predicate (a key+tile
    with many overlapping intervals genuinely matches many pairs);
    the expansion is O(candidates), not O(slice^2).
    """
    types = _source_types(left, right, schema_hint)[2]
    lcols = sorted(set(left_cols + [on, left_ts]))
    rcols = sorted(set(right_cols + [on, right_start, right_end]))
    tiled = tile_width is not None
    W = np.int64(tile_width if tiled else 1)
    lside = _keyed(left, lcols, on, True)
    rside = _keyed(right, rcols, on, True)

    def tile_left(t: pa.Table) -> pa.Table:
        return t.append_column("__tile", pa.array(_ts_i64(
            t[left_ts].to_numpy(zero_copy_only=False)) // W))

    def tile_right(t: pa.Table) -> pa.Table:
        # replicate each interval once per covered tile
        s = _ts_i64(t[right_start].to_numpy(zero_copy_only=False))
        e = _ts_i64(t[right_end].to_numpy(zero_copy_only=False))
        t0, t1 = s // W, (e - 1) // W     # end exclusive
        reps = np.where(e > s, t1 - t0 + 1, 0).astype(np.int64)
        idx = np.repeat(np.arange(t.num_rows, dtype=np.int64), reps)
        offs = (np.arange(int(reps.sum()), dtype=np.int64)
                - np.repeat(np.cumsum(reps) - reps, reps))
        return t.take(idx).append_column("__tile",
                                         pa.array(t0[idx] + offs))

    if tiled:
        lside = lside.map_batches(tile_left, batch_format="pyarrow",
                                  zero_copy_batch=True)
        rside = rside.map_batches(tile_right, batch_format="pyarrow",
                                  zero_copy_batch=True)
    out_right = [c for c in right_cols if c != on]
    out_types = {c: types[c] for c in left_cols}
    for c in out_right:
        out_types[c + (suffix if c in left_cols else "")] = types[c]

    def merge(la: pa.Table, ra: pa.Table) -> pa.Table:
        if not la.num_rows or not ra.num_rows:
            return _typed(None, out_types)
        lg, rg = la.to_pandas(), ra.to_pandas()
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
                f"range_join slice holds {len(allt)} rows >= {PACK_LIMIT}")
        rtr = np.searchsorted(allt, rt_s, side="left").astype(np.int64)
        ltr = np.searchsorted(allt, lt, side="left").astype(np.int64)
        lo = np.searchsorted(rkc_s, lkc, side="left")
        hi = np.searchsorted((rkc_s << 32) | rtr, (lkc << 32) | ltr,
                             side="right")
        counts = hi - lo
        tot = int(counts.sum())
        if tot == 0:
            return _typed(None, out_types)
        row_of = np.repeat(np.arange(len(lg), dtype=np.int64), counts)
        cand = lo[row_of] + (np.arange(tot, dtype=np.int64)
                             - np.repeat(np.cumsum(counts) - counts,
                                         counts))
        keep = re_s[cand] > lt[row_of]
        if not keep.any():
            return _typed(None, out_types)
        res = lg.loc[row_of[keep], left_cols].reset_index(drop=True)
        picked = rg.iloc[order[cand[keep]]].reset_index(drop=True)
        for c in out_right:
            name = c + (suffix if c in res.columns else "")
            res[name] = picked[c].to_numpy()
        return _typed(res, out_types)

    return keyed_map((lside, rside), [on] + (["__tile"] if tiled else []),
                     merge)
