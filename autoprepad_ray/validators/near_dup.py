"""Near-duplicate detection on the ``phash`` column (SURVEY §2.7,
FIXTURES R5): exact-bucket stage + banded-Hamming stage, skew-safe.

Skew handling (the north rule names popular phash values as the hazard):
counting is two-level — the per-block partial (np.unique inside
``map_batches``) contributes at most ONE (value, count) entry per
distinct value per block no matter how hot the value, and partials fold
through ``stages.transport.fold`` (flat tasks merge FAN_IN blocks each)
before the driver sees a handful of arrays.  No row-shaped data ever
shuffles; the Ray sort-based groupby is deliberately avoided here
because bucket keys are near-unique (a groupby would pay a full sort
exchange to mostly rediscover singletons).

Banded Hamming (multi-index hashing, Norouzi et al.'s substring
pigeonhole): the 64-bit hash splits into 4x16-bit bands; two hashes at
Hamming distance d share an exact band whenever some band carries none
of the d differing bits — guaranteed for d <= 3 (4 bands, pigeonhole),
~90% for d = 4 under uniform bit positions (documented recall bound;
exact-equal hashes are the other stage's job).  The opt-in
``scheme='2x32f1'`` (2x32-bit bands, 1-bit-flip enumeration) makes
recall EXACT through d = 5 at 66 keys/row — see :func:`_scheme_keys`.

One census rule and one arm rule serve every 4x16 caller
(:func:`hamming_neardup_pairs`, ``validate_images``' pass 1 and the
runner over its checkpointed cells): :func:`band_census` over each
block's DISTINCT hashes, summed, and :func:`hamming_arm` over the sum.
The arm's bounds (``SAT_MIN``, ``SAT_FRAC``) and the pairing's bucket
cap (``BUCKET_CAP``) are module constants read at call time, not
parameters; a test reaches both arms by setting them.

Execution shape — pairing, id resolution and verification are all
DISTRIBUTED, never driver-side:

1. the deduped band stream carries (band_key, hash, block-min id)
   triples routed by ``transport.slice_of(band_key, P)`` — every bucket
   lands complete in one slice, and because EVERY block containing a
   hash ships that hash's row for each of its band keys, a pairing task
   can fold the GLOBAL min id per hash from its own slice alone;
2. one ``transport.slice_map`` task per live slice dedupes cross-block
   rows, pairs within lexsorted bucket segments with the
   size-class-batched XOR+popcount kernel, and returns verified
   (hash_a, hash_b, dist) pairs PLUS the (hash, min id) resolution
   entries for exactly the hashes their pairs touch.
Only verified pairs and their per-hash representatives — the output —
reach the driver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from ..stages import transport
from ..stages.transport import (fold, fold_payloads, kind_rows,
                                merge_concat, merge_counts, pack_slices,
                                slice_map, slice_of)


def _minid_per_key(keys: np.ndarray, ids: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(sorted unique keys, min id per key) — vectorized lexsort fold
    of (key, id) partials."""
    return _capped_per_key(keys, ids, 1)


def _concat_pairs(parts: list[tuple[np.ndarray, np.ndarray]]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate (int64 key, object id) array partials."""
    return merge_concat(parts) or (np.empty(0, np.int64),
                                   np.empty(0, object))


def _null_last_rank(ids: np.ndarray) -> np.ndarray:
    """``ids`` as a sort key that orders null ids last: the ids
    themselves when none is null (Python comparison cannot order None
    against a string), else their ascending rank."""
    null = pd.isna(ids)
    if not null.any():
        return ids
    live = np.flatnonzero(~null)
    rank = np.full(len(ids), len(live), dtype=np.int64)
    rank[live[np.argsort(ids[live], kind="stable")]] = np.arange(len(live))
    return rank


def _capped_per_key(keys: np.ndarray, ids: np.ndarray, cap: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(key, id) rows lexsorted, null ids last, keeping the ``cap``
    smallest ids per key — associative, so partials and merges share
    it."""
    order = np.lexsort((_null_last_rank(ids), keys))
    keys, ids = keys[order], ids[order]
    if not len(keys):
        return keys, ids
    first = np.r_[True, keys[1:] != keys[:-1]]
    rank = np.arange(len(keys)) - np.maximum.accumulate(
        np.where(first, np.arange(len(keys)), 0))
    keep = rank < cap
    return keys[keep], ids[keep]


def duplicate_phash_groups(ds, *, phash_col: str = "phash",
                           id_col: str = "image_id", sample_cap: int = 64):
    """Exact near-dup buckets: phash values occurring >= 2 times, with an
    exact count and a bounded id sample per bucket.  Returns an Arrow
    table (phash, n, ids)."""

    (vals, cnts), layout = transport.fold_with_layout(
        ds, lambda t: np.unique(t[phash_col].to_numpy(zero_copy_only=False),
                                return_counts=True), merge_counts)
    dup_mask = cnts >= 2
    if not dup_mask.any():
        # empty-list value type derives from the id column the census
        # saw, so the output schema is stable whether or not dups exist
        # (a hardcoded list<string> flipped it for int64-id inputs); a
        # Dataset filtered to nothing runs no partial
        sch = layout.schema
        id_type = sch.field(id_col).type if sch is not None \
            and id_col in sch.names else pa.string()
        return pa.table({phash_col: pa.array([], type=pa.int64()),
                         "n": pa.array([], type=pa.int64()),
                         "ids": pa.array([], type=pa.list_(id_type))})
    dup = dict(zip(vals[dup_mask].tolist(), cnts[dup_mask].tolist()))
    dup_ref = ray.put(vals[dup_mask].astype(np.int64))

    def members(t: pa.Table) -> pa.Table:
        """Capped member sample PER BLOCK: at most sample_cap (min) ids
        per dup hash leave each block, so the driver collection is
        bounded by dup_hashes x sample_cap x blocks-touching-them even
        when a hot hash has millions of rows (counts stay exact from
        the census)."""
        from ..sketches import np_object

        dups = ray.get(dup_ref)
        ph = t[phash_col].to_numpy(zero_copy_only=False)
        m = np.isin(ph, dups)
        return _capped_per_key(ph[m].astype(np.int64),
                               np_object(t[id_col])[m], sample_cap)

    ph_all, id_all = fold(ds, members, lambda parts: _capped_per_key(
        *_concat_pairs(parts), sample_cap))
    bounds = np.flatnonzero(np.r_[True, ph_all[1:] != ph_all[:-1], True])
    hashes, id_lists = [], []
    for s, e in zip(bounds[:-1], bounds[1:]):
        hashes.append(int(ph_all[s]))
        id_lists.append(id_all[s:e].tolist())
    return pa.table({
        phash_col: pa.array(hashes, type=pa.int64()),
        "n": pa.array([dup[h] for h in hashes], type=pa.int64()),
        "ids": pa.array(id_lists)})


_GROUPED_SEG_MAX = 256  # segments up to this size batch by size class


def _segment_pairs(keys: np.ndarray, ids: np.ndarray, ph: np.ndarray,
                   max_dist: int, bucket_cap: int, *,
                   verify: bool = True) -> pd.DataFrame:
    """Vectorized within-bucket pairing over lexsorted candidate rows.

    Segments are batched BY SIZE CLASS: all size-m buckets stack into a
    (k, m) hash matrix and every intra-bucket pair is verified with one
    XOR + popcount broadcast per class — no per-segment Python loop (at
    n >> 2^16 per band the average bucket holds n/2^16 rows and the
    loop, not the shuffle, dominated).  Segments past _GROUPED_SEG_MAX
    (rare; capped at ``bucket_cap``) fall back to a row-vs-rest sweep.

    ``verify=False`` skips the Hamming check and emits EVERY intra-
    bucket pair with dist 0 — the LSH candidate-enumeration mode (the
    minhash / sign-LSH stages verify with their own exact metric
    afterwards); ``ph`` is ignored there."""
    from ..sketches import popcount64

    order = np.argsort(keys, kind="mergesort")
    keys, ids, ph = keys[order], ids[order], ph[order]
    bounds = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1], True])
    sizes = np.diff(bounds)
    starts = bounds[:-1]
    out_a: list = []
    out_b: list = []
    out_d: list = []
    u = ph.astype(np.int64).view(np.uint64)

    def emit(a, b, d):
        swap = a > b
        out_a.append(np.where(swap, b, a))
        out_b.append(np.where(swap, a, b))
        out_d.append(d)

    sel = (sizes >= 2) & (sizes <= _GROUPED_SEG_MAX)
    for m in np.unique(sizes[sel]):
        st = starts[sizes == m]
        idx = st[:, None] + np.arange(m)[None, :]          # (k, m)
        iu, ju = np.triu_indices(int(m), 1)
        # chunk so the (k, m(m-1)/2) pair matrix stays ~32 MB
        step = max(1, 4_000_000 // max(1, len(iu)))
        for c in range(0, len(st), step):
            ic = idx[c:c + step]
            if verify:
                Pc = u[ic]
                d = popcount64(Pc[:, iu] ^ Pc[:, ju]).astype(np.int64)
                hit = (d >= 1) & (d <= max_dist)
                if not hit.any():
                    continue
                ks, ps = np.nonzero(hit)
                emit(ids[ic[ks, iu[ps]]], ids[ic[ks, ju[ps]]], d[hit])
            else:
                emit(ids[ic[:, iu].ravel()], ids[ic[:, ju].ravel()],
                     np.zeros(len(ic) * len(iu), dtype=np.int64))
    for s, size in zip(starts[sizes > _GROUPED_SEG_MAX],
                       sizes[sizes > _GROUPED_SEG_MAX]):
        e = s + min(int(size), bucket_cap)
        for i in range(s, e - 1):
            if verify:
                d = popcount64(u[i + 1:e] ^ u[i]).astype(np.int64)
                hit = (d >= 1) & (d <= max_dist)
                if hit.any():
                    j = np.nonzero(hit)[0] + i + 1
                    emit(np.broadcast_to(ids[i], j.shape).copy(), ids[j],
                         d[hit])
            else:
                j = np.arange(i + 1, e)
                emit(np.broadcast_to(ids[i], j.shape).copy(), ids[j],
                     np.zeros(len(j), dtype=np.int64))
    if out_a:
        df = pd.DataFrame({
            "id_a": pd.Series(np.concatenate(out_a)),
            "id_b": pd.Series(np.concatenate(out_b)),
            "dist": pd.Series(np.concatenate(out_d), dtype=np.int64)})
    else:
        # typed even when empty: per-slice frames concatenate, and an
        # untyped empty column would break schema unification
        df = pd.DataFrame({
            "id_a": pd.Series(np.asarray([], dtype=ids.dtype)),
            "id_b": pd.Series(np.asarray([], dtype=ids.dtype)),
            "dist": pd.Series([], dtype=np.int64)})
    # a pair can surface from several bands
    return df.drop_duplicates(subset=["id_a", "id_b"])


N_BANDS = 4
BAND_SLOTS = 65536  # 16-bit substrings; dense combo key = band*65536+val

# the collision bound of :func:`hamming_arm` and the row cap of a
# bucket past ``_GROUPED_SEG_MAX`` in the pairing, read at call time
SAT_MIN = 100_000
SAT_FRAC = 0.02
BUCKET_CAP = 4096

_EMPTY_PAIRS = {"id_a": pd.Series([], dtype=object),
                "id_b": pd.Series([], dtype=object),
                "dist": pd.Series([], dtype=np.int64)}


def band_census(ph: np.ndarray) -> np.ndarray:
    """The dense 4x16 band census of one block's DISTINCT hashes: rows
    per band bucket (4 x 65536 slots), so a block counts a hash once
    however hot it is.  Block censuses add up (:func:`_sum_census`) to
    the per-bucket rows of a block-deduped band stream, so two distinct
    hashes sharing a bucket always make it hot."""
    return np.bincount(_band_combos(ph).ravel(),
                       minlength=N_BANDS * BAND_SLOTS).astype(np.int32)


def _sum_census(parts: list[np.ndarray]) -> np.ndarray:
    return sum(parts, np.zeros(N_BANDS * BAND_SLOTS, dtype=np.int64))


def hamming_arm(census: np.ndarray) -> tuple[str, np.ndarray | None]:
    """(arm, the bucket keys :func:`_band_cells` keeps) a summed
    :func:`band_census` picks: ``none`` (no key) when no bucket holds
    two rows; ``prune`` (the hot keys) when collisions are rare, so the
    hot-bucket broadcast cuts the band stream to almost nothing;
    ``mih_shuffle`` (None: every key) when collision rows pass
    max(``SAT_MIN``, ``SAT_FRAC`` x band rows), i.e. n >> 2^16 per
    band, where the filter would keep ~everything and the whole deduped
    stream goes to the pairing tasks (multi-index hashing)."""
    hot = np.nonzero(census >= 2)[0].astype(np.int64)
    if not hot.size:
        return "none", hot
    if int(census[hot].sum()) > max(SAT_MIN, int(SAT_FRAC * census.sum())):
        return "mih_shuffle", None
    return "prune", hot


def _band_combos(ph: np.ndarray) -> np.ndarray:
    """(n, 4) dense band-bucket keys for 64-bit hashes."""
    u = ph.astype(np.int64).view(np.uint64)
    out = np.empty((len(ph), N_BANDS), dtype=np.int64)
    for b in range(N_BANDS):
        out[:, b] = np.int64(b * BAND_SLOTS) + (
            (u >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64)
    return out


def _scheme_keys(ph: np.ndarray, scheme: str) -> tuple[np.ndarray, int]:
    """All band-bucket keys per hash for a banding scheme, row-major.

    ``4x16``: 4 16-bit substrings (multi-index hashing) — exact recall
    to d = 3, ~90% at d = 4; 4 keys/hash.

    ``2x32f1``: 2x32-bit bands with 1-bit-flip enumeration (Norouzi et
    al. MIH with query expansion).  Each hash emits, per band, its band
    value plus all 32 1-bit flips (66 keys/hash).  Two hashes at
    distance d split their differing bits between the two bands; by
    pigeonhole some band carries <= floor(d/2) of them, so for d <= 5
    some band differs in <= 2 bits — and 1-bit flips FROM BOTH SIDES
    meet in the middle: diff 0 collides on the originals, diff 1 on one
    side's flip, diff 2 on the two complementary flips.  Recall is
    therefore exact for max_dist <= 5; the pairing stage's XOR+popcount
    verify discards the extra candidates flips invent.  Cost: 66
    keys/hash vs 4 — opt-in where the missed ~10% at d = 4 matters more
    than the 16x band-stream volume.

    Returns (keys flattened to (n * keys_per_hash,), keys_per_hash);
    ``np.repeat(ph, keys_per_hash)`` aligns hashes with their keys."""
    if scheme == "4x16":
        return _band_combos(ph).ravel(), N_BANDS
    if scheme == "2x32f1":
        u = ph.astype(np.int64).view(np.uint64)
        flips = (np.uint64(1) << np.arange(32, dtype=np.uint64))
        cols = []
        for b in range(2):
            val = ((u >> np.uint64(32 * b))
                   & np.uint64(0xFFFFFFFF))                  # (n,)
            cand = np.concatenate(
                [val[:, None], val[:, None] ^ flips[None, :]],
                axis=1)                                      # (n, 33)
            off = np.uint64((b + 1) << 32)  # band tag above the 32 bits
            cols.append((cand + off).astype(np.int64))
        return np.concatenate(cols, axis=1).ravel(), 66
    raise ValueError(f"unknown banding scheme {scheme!r}")


def _owner_keys(ph: np.ndarray, scheme: str) -> np.ndarray:
    """ONE deterministic band key per hash (its first key) — used to
    assign each hash an owner slice so per-hash side-channel emissions
    (exact-dup min ids) happen exactly once across pairing tasks."""
    u = ph.astype(np.int64).view(np.uint64)
    if scheme == "4x16":
        return (u & np.uint64(0xFFFF)).astype(np.int64)
    if scheme == "2x32f1":
        return ((u & np.uint64(0xFFFFFFFF))
                + np.uint64(1 << 32)).astype(np.int64)
    raise ValueError(f"unknown banding scheme {scheme!r}")


def _band_cells(ph_rows: np.ndarray, id_col, num_parts: int,
                scheme: str = "4x16", hot: np.ndarray | None = None
                ) -> pa.Table:
    """One block's id-carrying ``band`` cells over its DISTINCT hash
    values: ``(key, hash, block-min id)`` rows, one pickled payload per
    key slice (``transport.pack_slices``; the exchange moves blocks x
    slices payloads, not row-shaped records), kept to the ``hot`` bucket
    keys when given.  Routing by the bucket key keeps every bucket whole
    in one slice, and the hot set is global, so every block holding a
    hash ships its row for each kept key: a pairing task folds the
    GLOBAL min id per hash from its own slice, with no join back to the
    table.  Per-block dedupe also neutralizes hot-value skew (a popular
    hash is one row per bucket per block).
    Block-min ids are folded only over the rows whose hash ships a
    cell, and only those rows' ids become Python objects."""
    from ..sketches import np_object

    ph = np.unique(ph_rows)
    keys, kpr = _scheme_keys(ph, scheme)
    out_ph = np.repeat(ph, kpr)
    if hot is not None:
        m = np.isin(keys, hot)
        keys, out_ph = keys[m], out_ph[m]
    rows = np.isin(ph_rows, out_ph)
    ph_u, minid = _minid_per_key(ph_rows[rows],
                                 np_object(id_col.filter(pa.array(rows))))
    return pack_slices(slice_of(keys, num_parts), keys, out_ph,
                       minid[np.searchsorted(ph_u, out_ph)], kind="band")


_NO_PAIRS = (np.empty(0, np.int64), np.empty(0, np.int64),
             np.empty(0, np.int64), np.empty(0, np.int64),
             np.empty(0, object))


def _id_pair_slice(s: int, parts: list, max_dist: int, dup_ref,
                   num_parts: int, scheme: str) -> tuple:
    """Pair ONE slice of the id-carrying band stream (the
    ``transport.slice_map`` function of :func:`_pair_ids`).

    Returns (ph_a, ph_b, dist, res_ph, res_id):

    - verified hash pairs within this slice's buckets (cross-block
      dedupe + size-class-batched XOR+popcount verify);
    - (hash, GLOBAL min id) resolution entries for every hash touched
      by an emitted pair — valid because all blocks deliver a hash's
      row for each of its kept band keys (see ``_band_cells``) — plus,
      when ``dup_ref`` names exact-duplicate hashes, the entries for
      dup hashes whose owner key routes to slice ``s`` (so each dup
      hash resolves exactly once across slices even when it pairs with
      nothing; its owner key ships a cell, so that slice is live)."""
    keys, ph, ids = merge_concat(parts)
    ph_u, minid = _minid_per_key(ph, ids)
    uniq = np.unique(np.stack([keys, ph], axis=1), axis=0)
    pairs = _segment_pairs(uniq[:, 0], uniq[:, 1], uniq[:, 1],
                           max_dist, BUCKET_CAP)
    ph_a = pairs["id_a"].to_numpy().astype(np.int64)
    ph_b = pairs["id_b"].to_numpy().astype(np.int64)
    dist = pairs["dist"].to_numpy().astype(np.int64)
    res = np.unique(np.concatenate([ph_a, ph_b]))
    if dup_ref is not None:
        dup = ray.get(dup_ref)
        if len(dup):
            pos = np.minimum(np.searchsorted(dup, ph_u), len(dup) - 1)
            cand = ph_u[dup[pos] == ph_u]
            own = slice_of(_owner_keys(cand, scheme), num_parts) == s
            res = np.unique(np.concatenate([res, cand[own]]))
    return (ph_a, ph_b, dist, res, minid[np.searchsorted(ph_u, res)])


def _pair_ids(packed, num_parts: int, max_dist: int, scheme: str, *,
              dup_ref=None):
    """Distributed pairing over the ``band`` cells of a MATERIALIZED
    packed stream: one ``transport.slice_map`` task per live slice
    pairs and resolves ids in one visit.  Returns (hash-pair DataFrame
    (ph_a, ph_b, dist), sorted resolution arrays (hashes, min ids))."""
    outs = ray.get(slice_map(
        packed, num_parts,
        lambda s, parts: _id_pair_slice(s, parts, max_dist, dup_ref,
                                        num_parts, scheme),
        kind="band"))
    ph_a, ph_b, dist, res_ph, res_id = merge_concat(outs) or _NO_PAIRS
    # a pair can surface in several buckets routed to different slices;
    # its dist is identical everywhere (exact Hamming), keep the first
    if len(ph_a):
        order = np.lexsort((ph_b, ph_a))
        ph_a, ph_b, dist = ph_a[order], ph_b[order], dist[order]
        first = np.r_[True, (ph_a[1:] != ph_a[:-1])
                      | (ph_b[1:] != ph_b[:-1])]
        ph_a, ph_b, dist = ph_a[first], ph_b[first], dist[first]
    pairs = pd.DataFrame({"ph_a": pd.Series(ph_a, dtype=np.int64),
                          "ph_b": pd.Series(ph_b, dtype=np.int64),
                          "dist": pd.Series(dist, dtype=np.int64)})
    # same hash from several slices carries the identical global min id
    ph_map, id_map = _minid_per_key(res_ph, res_id)
    return pairs, ph_map, id_map


def _lookup_minid(ph_map: np.ndarray, id_map: np.ndarray,
                  col: np.ndarray) -> np.ndarray:
    pos = np.minimum(np.searchsorted(ph_map, col), len(ph_map) - 1) \
        if len(ph_map) else np.zeros(len(col), dtype=np.int64)
    if len(col) and (not len(ph_map) or not (ph_map[pos] == col).all()):
        missing = col if not len(ph_map) else col[ph_map[pos] != col]
        raise KeyError(
            f"_lookup_minid: {len(missing)} pair hash(es) missing from "
            "the in-task id resolution — pairing and resolution ride "
            "the same stream, so this indicates a bug, not input skew")
    return id_map[pos]


def _id_pairs(ph_pairs: pd.DataFrame, ph_map: np.ndarray,
              id_map: np.ndarray) -> pd.DataFrame:
    """Hash pairs -> (id_a, id_b, dist), id_a < id_b (a null id last),
    each hash represented by its resolved global min id
    (:func:`_pair_ids`)."""
    if not len(ph_pairs):
        return pd.DataFrame(_EMPTY_PAIRS)
    a = _lookup_minid(ph_map, id_map, ph_pairs["ph_a"].to_numpy())
    b = _lookup_minid(ph_map, id_map, ph_pairs["ph_b"].to_numpy())
    rank = _null_last_rank(np.concatenate([a, b]))
    swap = rank[:len(a)] > rank[len(a):]
    out = pd.DataFrame({
        "id_a": pd.Series(np.where(swap, b, a)),
        "id_b": pd.Series(np.where(swap, a, b)),
        "dist": ph_pairs["dist"].to_numpy()})
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def hamming_neardup_pairs(ds, *, max_dist: int = 4,
                          phash_col: str = "phash",
                          id_col: str = "image_id",
                          materialize_input: bool = False,
                          scheme: str = "4x16") -> pd.DataFrame:
    """Banded-LSH candidates + exact Hamming verification, distributed.

    Returns a DataFrame (id_a, id_b, dist), id_a < id_b, 1 <= dist <=
    max_dist, one representative id (the global min) per distinct hash
    value.  The band census (:func:`hamming_arm`) picks the path:
    ``prune`` (collisions rare
    — ship only multi-member buckets' rows) or ``mih_shuffle``
    (collisions the norm at n >> 2^16 per band — ship the whole deduped
    band stream; the filter would keep ~everything anyway).  Both paths
    end in the same slice-addressed flat-task pairing; results are
    path-independent.

    ``scheme='2x32f1'`` switches to the exact-recall banding
    (:func:`_scheme_keys`): recall is EXACT for max_dist <= 5 instead
    of exact-to-3/~90%-at-4, at 66 keys/row instead of 4 — no census
    (32-bit bands make collisions rare, and every candidate is
    popcount-verified anyway).

    ``ds`` is consumed up to TWICE (census, band stream; the band cells
    carry block-min ids, so pairing tasks resolve global representative
    ids in the same visit).  For a cheap pruned parquet read two reads
    are the right trade; when ``ds`` is a COMPUTED chain (e.g. SimHash
    signatures), pass ``materialize_input=True`` so the chain executes
    once.
    """
    num_parts = transport.default_num_parts()
    if materialize_input:
        ds = ds.materialize()
    hot_ref = None
    if scheme == "2x32f1":
        if max_dist > 5:
            raise ValueError("2x32f1 guarantees recall only to dist 5")
    elif scheme == "4x16":
        path, hot = hamming_arm(fold(ds, lambda t: band_census(np.unique(
            t[phash_col].to_numpy(zero_copy_only=False))), _sum_census))
        if path == "none":
            return pd.DataFrame(_EMPTY_PAIRS)
        hot_ref = None if hot is None else ray.put(hot)
    else:
        raise ValueError(f"unknown banding scheme {scheme!r}")

    def cells(t: pa.Table) -> pa.Table:
        return _band_cells(
            t[phash_col].to_numpy(zero_copy_only=False).astype(np.int64),
            t[id_col], num_parts, scheme,
            None if hot_ref is None else ray.get(hot_ref))

    # smaller batches under the 66x key expansion: per-batch scratch is
    # ~1 KB/row there — keep batch x concurrency well inside worker heaps
    band_ds = ds.map_batches(cells, batch_format="pyarrow",
                             zero_copy_batch=True,
                             batch_size=16384 if scheme == "2x32f1" else None)
    return _id_pairs(*_pair_ids(band_ds.materialize(), num_parts,
                                max_dist, scheme))


def phash_dedup_clusters(ds, *, phash_col: str = "phash",
                         id_col: str = "image_id", max_dist: int = 4,
                         scheme: str = "4x16",
                         materialize_input: bool = False):
    """Transitive near-duplicate CLUSTERS for the image/phash family —
    the keep-one-canonical step the minhash path already has (pairs
    name WHO matches; a dedup needs the components).

    Clustering happens in HASH space, so exact-collision members never
    materialize anywhere:

    1. ONE fused pass over (id, phash) emits per block BOTH the exact
       value census partial (row counts per hash) and the id-carrying
       band cells;
    2. flat pairing tasks return verified hash pairs + the global min
       id per pair-touched hash, plus min ids for exact-dup hashes
       (owner-sliced, each resolved exactly once);
    3. the driver runs connected components over HASH-pair edges (dup
       hashes ride as self-nodes), assigns every component the minimum
       member min-id as its cluster id, and broadcasts one sorted
       (hash -> cluster id) map — bounded by pair-touched + dup hashes,
       never by rows;
    4. one labeling pass maps every row through its hash: rows sharing
       a hash join the hash's component implicitly (NO star edges, NO
       member listings, NO cap), unmatched rows label themselves.

    The transitive closure equals the closure of ALL row pairs at
    Hamming distance <= max_dist including dist 0 (recall caveats of
    the banding ``scheme`` apply to the near component — exact to d=3
    for 4x16, d=5 for 2x32f1).

    Two executions of ``ds`` total (fused pass + labeling) — pass
    ``materialize_input=True`` for computed chains.  Returns a Dataset
    (id, cluster_id, is_canonical); the canonical row of every cluster
    is its minimum id (the one a dedup keeps).
    """
    from ..stages.graph import _star_forest

    num_parts = transport.default_num_parts()
    if materialize_input:
        ds = ds.materialize()

    def fused(t: pa.Table) -> pa.Table:
        ph_rows = t[phash_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        vals, cnts = np.unique(ph_rows, return_counts=True)
        return pa.concat_tables([
            _band_cells(ph_rows, t[id_col], num_parts, scheme),
            kind_rows({"census": (vals, cnts)})])

    fused_out = ds.map_batches(
        fused, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=16384 if scheme == "2x32f1" else None).materialize()

    # exact value census: fold the census rows of the materialized
    # stream (a Dataset execution pays ~0.5 s of flat scheduling cost
    # just to re-read KB-scale payload rows); hashes with >= 2 rows form
    # components even without a near pair
    vals, cnts = fold_payloads(fused_out, merge_counts, kind="census")
    dup = vals[cnts >= 2].astype(np.int64)
    dup_ref = ray.put(dup)

    ph_pairs, ph_map, id_map = _pair_ids(fused_out, num_parts, max_dist,
                                         scheme, dup_ref=dup_ref)

    # hash-space connected components: pair edges + dup self-nodes
    node, root = _star_forest(ph_pairs["ph_a"].to_numpy(),
                              ph_pairs["ph_b"].to_numpy())
    all_h = np.unique(np.concatenate([node, dup]))
    root_of = all_h.copy()
    if len(node):
        pos = np.minimum(np.searchsorted(node, all_h), len(node) - 1)
        hit = node[pos] == all_h
        root_of[hit] = root[pos[hit]]
    if len(all_h):
        # every mapped hash has a resolved min id: pair hashes from the
        # task that paired them, dup hashes from their owner slice; a
        # cluster's id is its smallest non-null member id
        m = _lookup_minid(ph_map, id_map, all_h)
        order = np.lexsort((_null_last_rank(m), root_of))
        r_s, m_s = root_of[order], m[order]
        first = np.r_[True, r_s[1:] != r_s[:-1]]
        roots_u, cluster_min = r_s[first], m_s[first]
        cluster_of_hash = cluster_min[np.searchsorted(roots_u, root_of)]
    else:
        cluster_of_hash = np.empty(0, dtype=object)
    map_ref = ray.put((all_h, cluster_of_hash))

    def label(t: pa.Table) -> pa.Table:
        from ..sketches import np_object

        h_sorted, c_arr = ray.get(map_ref)
        ph = t[phash_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ids = np_object(t[id_col])
        out = ids.copy()
        if len(h_sorted):
            pos = np.minimum(np.searchsorted(h_sorted, ph),
                             len(h_sorted) - 1)
            hit = h_sorted[pos] == ph
            out[hit] = c_arr[pos[hit]]
        return pa.table({id_col: pa.array(ids),
                         "cluster_id": pa.array(out),
                         "is_canonical": pa.array(out == ids)})

    return ds.map_batches(label, batch_format="pyarrow",
                          zero_copy_batch=True)
