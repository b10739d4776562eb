"""Dedup family for document tables (SURVEY §2.7 "new engine" ops):

- exact dedup (content hash -> keep-first),
- MinHash + LSH near-dup candidate generation with exact-Jaccard verify,
- SimHash fingerprints (Hamming near-dup via the banded phash stage).

Execution shape: signatures are computed in vectorized ``map_batches``
(hashing via the C-backed ``sketches.hash64`` + splitmix64 mixing — no
Python hash, stable across processes), candidates come from ONE slice
exchange keyed on (band, band_hash) over exploded band rows, and verification
touches only candidate documents (broadcast id-set filter, never a
second full scan).  Bucket caps bound the O(n^2) inner loop against
degenerate buckets; the cap events are reported, not silent.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from ..sketches import hash64, key_hash, splitmix64
from . import transport
from .transport import (fold, keyed_map, merge_concat, merge_counts,
                        merge_groups, pack_slices, slice_map, slice_of)


def _batch_shingles(texts, n_words: int):
    """Distinct word-shingle hashes for a whole batch through the
    SHARED gram kernel (``stages.text._gram_hashes`` — one flat
    ``hash_array`` call for every word in the batch, polynomial gram
    mixing, no per-document Python).  Documents shorter than
    ``n_words`` contribute one whole-doc gram (``short_doc_gram``).
    Returns (doc_idx, grams) sorted by (doc, gram) with per-doc
    duplicate grams removed — the shingle SET stream.

    Tokenization matches ``str.split()`` (the dedup family's historic
    semantics): whitespace RUNS of any kind — including Unicode
    separators (NBSP, ideographic space: ``\\p{Z}``), NEL and the
    \\x0B/\\x1C-\\x1F controls RE2's ASCII ``\\s`` misses — separate
    words and edge whitespace is ignored, so 'a\\tb', 'a\\xa0b' and
    'a  b' all shingle identically.  One vectorized Arrow regex
    normalization before the single-space kernel split (which
    decontamination keeps raw for its SQL-oracle parity)."""
    import pyarrow.compute as pc

    from .text import _flat_words, _gram_hashes

    if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = pa.array(list(texts), type=pa.string())
    texts = pc.utf8_trim_whitespace(pc.replace_substring_regex(
        texts,
        pattern=r"[\s\p{Z}\x{0085}\x{000B}\x{001C}-\x{001F}]+",
        replacement=" "))
    words, counts = _flat_words(texts)
    doc_idx, grams, _ = _gram_hashes(words, counts, n_words,
                                     short_doc_gram=True)
    if not len(grams):
        return doc_idx, grams
    order = np.lexsort((grams, doc_idx))
    doc_idx, grams = doc_idx[order], grams[order]
    first = np.r_[True, (doc_idx[1:] != doc_idx[:-1])
                  | (grams[1:] != grams[:-1])]
    return doc_idx[first], grams[first]


def _shingle_hashes(text: str, n_words: int = 3) -> np.ndarray:
    """Distinct shingle hashes of ONE document — the verify-path /
    brute-force-oracle view of the same kernel the signature stage
    uses, so both sides always agree on gram identity."""
    _, grams = _batch_shingles([text or ""], n_words)
    return grams


def minhash_signature(shingles: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """k-min signature: min over shingles of splitmix64(h ^ seed_k)."""
    if shingles.size == 0:
        return np.zeros(len(seeds), dtype=np.uint64)
    mixed = splitmix64(shingles[None, :] ^ seeds[:, None])
    return mixed.min(axis=1)


def _band_hashes(sig: np.ndarray, bands: int) -> np.ndarray:
    r = len(sig) // bands
    folded = sig[: bands * r].reshape(bands, r)
    acc = np.zeros(bands, dtype=np.uint64)
    for j in range(r):
        acc = splitmix64(acc ^ folded[:, j])
    return acc


class MinHasher:
    """Stateless-task callable: the seed matrix is a few KB built once
    on the driver and cloudpickled with the task closure — an actor
    pool here would pay multi-second spinup per execution for state
    that costs microseconds to build (the repo's actor-pool lesson:
    pools only for genuinely heavy per-actor state)."""

    def __init__(self, text_col: str, id_col: str, *, num_perm: int = 128,
                 bands: int = 32, n_words: int = 3, seed: int = 7):
        rng = np.random.default_rng(seed)
        self.seeds = rng.integers(1, 2 ** 63, size=num_perm, dtype=np.int64
                                  ).astype(np.uint64)
        self.text_col, self.id_col = text_col, id_col
        self.bands, self.n_words = bands, n_words

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_docs = batch.num_rows
        # shared gram kernel: one flat hash_array call for every word
        # in the batch, doc-segmented distinct shingles (the per-doc
        # Python join/tokenize loop this replaces dominated the stage)
        doc_idx, grams = _batch_shingles(batch[self.text_col],
                                         self.n_words)
        sig = np.zeros((n_docs, len(self.seeds)), dtype=np.uint64)
        if len(grams):
            starts = np.flatnonzero(np.r_[True,
                                          doc_idx[1:] != doc_idx[:-1]])
            docs_present = doc_idx[starts]
            # chunk the (perms, grams) mix matrix to ~16 MB transients
            step = max(1, (2 << 20) // max(1, len(grams)))
            for s in range(0, len(self.seeds), step):
                mixed = splitmix64(grams[None, :]
                                   ^ self.seeds[s:s + step, None])
                mins = np.minimum.reduceat(mixed, starts, axis=1)
                sig[docs_present, s:s + step] = mins.T
        # per-doc band fold, vectorized across the batch:
        # (docs, bands, r) -> r shifted splitmix folds -> (docs, bands)
        r = len(self.seeds) // self.bands
        folded = sig[:, : self.bands * r].reshape(n_docs, self.bands, r)
        acc = np.zeros((n_docs, self.bands), dtype=np.uint64)
        for j in range(r):
            acc = splitmix64(acc ^ folded[:, :, j])
        from ..sketches import np_object
        out_band = np.tile(np.arange(self.bands, dtype=np.int32), n_docs)
        out_id = np.repeat(np_object(batch[self.id_col]), self.bands)
        return pa.table({"band": pa.array(out_band),
                         "band_hash": pa.array(
                             acc.reshape(-1).view(np.int64)),
                         "doc_id": pa.array(out_id)})


def exact_jaccard(a: np.ndarray, b: np.ndarray) -> float:
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - inter
    return inter / union if union else 1.0


def _pair_part_codes(id_a: np.ndarray, id_b: np.ndarray,
                     num_parts: int) -> np.ndarray:
    """Deterministic verify-part assignment per pair — computed inside
    WORKER tasks, so it must not depend on process state (Python's
    builtin ``hash`` is salted per process; ``sketches.key_hash`` is
    stable, and alike for int64-typed and object-typed id arrays)."""
    return slice_of(key_hash([id_a, id_b])[0], num_parts)


_EMPTY_CELL_IDS = (np.empty(0, dtype=object), np.empty(0, dtype=object))


def _cand_pair_slice(parts: list, bucket_cap: int, num_parts: int
                     ) -> list[tuple]:
    """Candidate pairing of one slice of the packed key stream (the
    ``transport.slice_map`` function of :func:`candidate_pairs_grid`).
    Bucket enumeration reuses the property-tested size-class kernel
    (``near_dup._segment_pairs`` with verification off) — the nested
    per-pair Python loop it replaces was the 8.8x-slower shape the
    Hamming stage already abandoned.

    Returns ``num_parts`` cells, cell ``p`` = (id_a, id_b) arrays of
    this slice's pairs whose deterministic pair hash routes to verify
    part ``p`` — so the full pair list NEVER assembles on the driver: a
    pair's every duplicate (it can surface from buckets in several
    slices) lands in the same part, where the verify task dedups it."""
    from ..validators.near_dup import _segment_pairs

    keys, ids = merge_concat(parts)
    # one row per (bucket, id): a doc can land in one bucket via
    # several bands and cross-block repeats are the norm
    order = np.lexsort((ids, keys))
    keys, ids = keys[order], ids[order]
    first = np.r_[True, (keys[1:] != keys[:-1]) | (ids[1:] != ids[:-1])]
    keys, ids = keys[first], ids[first]
    out = _segment_pairs(keys, ids, np.zeros(len(ids), dtype=np.int64),
                         0, bucket_cap, verify=False)
    cells = [_EMPTY_CELL_IDS] * num_parts
    if not len(out):
        return cells
    ida = out["id_a"].to_numpy()
    idb = out["id_b"].to_numpy()
    code = _pair_part_codes(ida, idb, num_parts)
    o = np.argsort(code, kind="stable")
    code, ida, idb = code[o], ida[o], idb[o]
    bounds = np.flatnonzero(np.r_[True, code[1:] != code[:-1], True])
    for s, e in zip(bounds[:-1], bounds[1:]):
        cells[int(code[s])] = (ida[s:e], idb[s:e])
    return cells


def candidate_pairs_grid(keyed, bucket_cap: int
                         ) -> list[list["ray.ObjectRef"]]:
    """Distributed LSH candidate pairing, pairs kept DISTRIBUTED: per-
    block (slice, payload) packing of the pruned (key, doc_id) rows,
    then one ``transport.slice_map`` task per live slice enumerates its
    complete buckets and returns their pairs pre-partitioned by verify
    part (``returns=num_parts``).  Neither bucket rows nor the pair
    list ever collect on the driver — the grid of cell refs is the
    result, and ``verify_pairs_routed`` consumes it part-by-part.  Slices
    and verify parts both number ``transport.default_num_parts()``.

    Returns ``grid`` where ``grid[p]`` lists one cell ref per live
    slice, each an (id_a, id_b) array pair for verify part ``p``.

    Transport regime note: cells below Ray's ~100 KB inline-return
    bound live in the DRIVER's in-process store, so a small pair
    stream routes its bytes through the driver — bounded by O(pairs),
    i.e. never worse than the pre-grid design that materialized the
    whole list there.  A large (dup-heavy) stream's cells clear the
    bound and live in plasma, where each byte moves once — the regime
    where distribution actually matters."""
    n = transport.default_num_parts()

    def pack(t: dict) -> pa.Table:
        keys = np.asarray(t["key"], dtype=np.int64)
        return pack_slices(slice_of(keys, n), keys,
                           np.asarray(t["doc_id"], dtype=object))

    packed = keyed.map_batches(pack, batch_format="numpy").materialize()
    rows = slice_map(packed, n,
                     lambda s, parts: _cand_pair_slice(parts, bucket_cap, n),
                     returns=n)
    return [[r[p] for r in rows] for p in range(n)]


@ray.remote
def _part_ids_task(*pair_cells) -> np.ndarray:
    """Distinct ids touched by one verify part's candidate pairs —
    the per-part partial the driver folds into the id->part routing
    map (arrays in flight, never pair rows)."""
    a, b = merge_concat(pair_cells) or _EMPTY_CELL_IDS
    return np.unique(np.concatenate([a, b]))


def _verify_part(parts: list, pair_cells: list, score, score_name: str,
                 out_mode):
    """Score one verify part (the ``transport.slice_map`` function of
    :func:`verify_pairs_routed`): ``pair_cells`` are its (id_a, id_b)
    pair cells, one per candidate slice (deduped here, the part owns
    every copy of its pairs), ``parts`` its packed (ids, payload
    objects).  ``out_mode=None`` returns a pandas frame; ``(id_type,
    min_score)`` returns a typed Arrow table with the threshold applied
    task-side (the Dataset output path)."""
    a, b = merge_concat(pair_cells) or _EMPTY_CELL_IDS
    dfp = pd.DataFrame({"a": a, "b": b}).drop_duplicates()
    pairs = list(zip(dfp["a"], dfp["b"]))
    local: dict = {}
    for ids, objs in parts:
        for i, obj in zip(ids, objs):
            local.setdefault(i, obj)
    rows = [(a, b, score(local[a], local[b]))
            for a, b in pairs if a in local and b in local]
    out = pd.DataFrame({
        "id_a": pd.Series([r[0] for r in rows], dtype=object),
        "id_b": pd.Series([r[1] for r in rows], dtype=object),
        score_name: pd.Series([r[2] for r in rows], dtype=np.float64)})
    if out_mode is None:
        return out
    id_type, min_score = out_mode
    if min_score is not None:
        out = out[out[score_name] >= min_score]
    return pa.table({
        "id_a": pa.array(out["id_a"], type=id_type, from_pandas=True),
        "id_b": pa.array(out["id_b"], type=id_type, from_pandas=True),
        score_name: pa.array(out[score_name], type=pa.float64(),
                             from_pandas=True)})


def verify_pairs_routed(ds, id_col: str, cand, extract, score,
                        score_name: str, *, output: str = "pandas",
                        id_type: "pa.DataType | None" = None,
                        min_score: float | None = None):
    """Distributed pair verification as a broadcast-routed candidate
    join.  ``cand`` is either a :func:`candidate_pairs_grid` result
    (pairs stay DISTRIBUTED end-to-end — the preferred form) or a
    small driver-side DataFrame (converted to a one-cell-per-part
    grid; fine for test/debug-sized pair lists).

    The id->verify-part routing map folds from per-part distinct-id
    partials (``_part_ids_task`` — arrays move, pair rows don't); the
    data stream computes each candidate row's payload and packs it per
    destination part; ``transport.slice_map`` runs one task per part
    that a candidate row reached (each payload byte moves once), which
    reads its part's pair cells, dedups its own pairs and applies
    ``score(pa, pb)`` locally.  Driver state is O(distinct candidate
    ids) routing arrays — never the pair list, never payloads.

    ``output='pandas'`` concatenates the VERIFIED pairs (the final
    result) on the driver; ``output='dataset'`` returns a Ray Dataset
    of typed Arrow blocks (pass ``id_type``; ``min_score`` filters
    task-side) so downstream stages — connected components, cluster
    attach — consume pairs without any driver materialization.

    ``extract(sub_batch)`` receives a batch already FILTERED to
    candidate rows (vectorized key-hash mask against the sorted candidate
    hash set — never a per-row Python membership scan over the full
    dataset) and returns one payload object per row of ``sub_batch``.
    """
    import ray.data as rd

    from ..sketches import np_object

    if isinstance(cand, pd.DataFrame):
        num_parts = max(4, min(64, len(cand) // 32 + 1))
        ida = cand["id_a"].to_numpy(dtype=object)
        idb = cand["id_b"].to_numpy(dtype=object)
        code = _pair_part_codes(ida, idb, num_parts)
        grid = [[ray.put((ida[code == p], idb[code == p]))]
                for p in range(num_parts)]
    else:
        grid = cand
        num_parts = len(grid)

    # routing map as SORTED ARRAYS, folded vectorized from the per-part
    # id partials — no Python loop over candidate ids on the driver.
    # Keys are ``key_hash`` of the ids, alike for object-array and typed
    # Arrow sources; a hash collision only ships a payload to an extra
    # part, where the verify task's real-id dict ignores it.
    id_futs = [_part_ids_task.remote(*grid[p]) for p in range(num_parts)]
    h_list, p_list = [], []
    for p, arr in enumerate(ray.get(id_futs)):
        if len(arr):
            h_list.append(key_hash([arr])[0])
            p_list.append(np.full(len(arr), p, dtype=np.int32))
    route_h = np.concatenate(h_list) if h_list else \
        np.empty(0, dtype=np.uint64)
    route_p = np.concatenate(p_list) if p_list else \
        np.empty(0, dtype=np.int32)
    order = np.lexsort((route_p, route_h))
    route_h, route_p = route_h[order], route_p[order]
    out_mode = None if output == "pandas" else (id_type, min_score)
    futs = []
    if len(route_h):
        # no candidates anywhere skips the full-dataset ship scan (a
        # whole extra execution)
        route_ref = ray.put((route_h, route_p))

        def ship(batch: pa.Table) -> pa.Table:
            rh, rp = ray.get(route_ref)
            h_all, _ = key_hash([batch[id_col]])
            lo = np.searchsorted(rh, h_all, side="left")
            n = np.searchsorted(rh, h_all, side="right") - lo
            sub = batch.filter(pa.array(n > 0))
            objs = np.empty(sub.num_rows, dtype=object)
            for k, obj in enumerate(extract(sub) if sub.num_rows else ()):
                objs[k] = obj
            # one packed row per (candidate row, verify part it routes to)
            lo, n = lo[n > 0], n[n > 0]
            row = np.repeat(np.arange(len(n)), n)
            part = rp[lo[row] + np.arange(len(row))
                      - (np.cumsum(n) - n)[row]]
            return pack_slices(part, np_object(sub[id_col])[row], objs[row])

        packed = ds.map_batches(ship, batch_format="pyarrow",
                                zero_copy_batch=True).materialize()
        # a part no candidate row reached verifies nothing and runs no
        # task; its pair cells stay unread
        futs = slice_map(packed, num_parts, lambda p, parts: _verify_part(
            parts, ray.get(grid[p]), score, score_name, out_mode))
    if output == "dataset":
        return rd.from_arrow_refs(futs) if futs else rd.from_arrow(pa.table({
            "id_a": pa.array([], type=id_type),
            "id_b": pa.array([], type=id_type),
            score_name: pa.array([], type=pa.float64())}))
    out = pd.concat(ray.get(futs), ignore_index=True) if futs else None
    if out is None or not len(out):
        return pd.DataFrame({"id_a": [], "id_b": [], score_name: []})
    return out


def _verify_jaccard_distributed(ds, text_col: str, id_col: str,
                                cand, n_words: int, **kwargs):
    def extract(sub: pa.Table) -> list:
        # ONE batched kernel call over the surviving candidate rows
        # (the key-hash mask in verify_pairs_routed filtered the batch);
        # per-row _shingle_hashes would pay Arrow array construction +
        # two kernels + a hash call per document
        doc_idx, grams = _batch_shingles(sub[text_col], n_words)
        bounds = np.searchsorted(doc_idx,
                                 np.arange(sub.num_rows + 1))
        return [grams[s:e] for s, e in zip(bounds[:-1], bounds[1:])]

    return verify_pairs_routed(ds, id_col, cand, extract, exact_jaccard,
                               "jaccard", **kwargs)


def minhash_lsh_pairs(ds, text_col: str, id_col: str, *,
                      num_perm: int = 128, bands: int = 32,
                      n_words: int = 3, threshold: float = 0.5,
                      bucket_cap: int = 256,
                      batch_size: int = 512, output: str = "pandas",
                      id_type: "pa.DataType | None" = None):
    """Near-duplicate pairs with verified word-shingle Jaccard >= threshold.

    ``output='pandas'`` returns a sorted DataFrame (id_a, id_b,
    jaccard) — the final result is the only thing the driver holds;
    ``output='dataset'`` returns a Ray Dataset of typed Arrow pair
    blocks (threshold applied task-side) so the cluster path —
    connected components, attach — consumes pairs with ZERO driver
    materialization at any step.  Every heavy step is distributed:
    signature + band keys in stateless vectorized tasks, candidate
    buckets census-pruned then paired by one ``transport.slice_map``
    task per live slice, pairs kept partitioned by verify part
    (``returns`` grid),
    exact-Jaccard verification as a broadcast-routed candidate join.
    """
    if output == "dataset" and id_type is None:
        sch = ds.schema()
        id_type = sch.types[sch.names.index(id_col)]
    hasher = MinHasher(text_col=text_col, id_col=id_col,
                       num_perm=num_perm, bands=bands, n_words=n_words)
    band_rows = ds.map_batches(
        hasher.__call__, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size)

    # candidate generation uses the census-prune plan from
    # validators.near_dup: fold bucket sizes, broadcast the
    # multi-member bucket keys — no sort-groupby over (mostly
    # singleton) buckets.
    def fold_key(t: pa.Table) -> dict:
        band = t["band"].to_numpy(zero_copy_only=False).astype(np.int64)
        bh = t["band_hash"].to_numpy(zero_copy_only=False)
        key = splitmix64(bh.view(np.uint64) ^ band.view(np.uint64)) \
            .view(np.int64)
        return {"key": key,
                "doc_id": np.asarray(t["doc_id"].to_numpy(
                    zero_copy_only=False))}

    # keyed is consumed twice (census, then pruned pairing); materialize
    # so the signature chain runs ONCE — the keyed stream is small
    # (bands x n rows of int64 + id) and object-store-resident/spillable
    keyed = band_rows.map_batches(fold_key,
                                  batch_format="pyarrow").materialize()

    cvals, ccnts = fold(keyed, lambda t: np.unique(
        t["key"].to_numpy(), return_counts=True), merge_counts)
    hot = cvals[ccnts >= 2]
    if hot.size == 0:
        if output == "dataset":
            import ray.data as rd

            return rd.from_arrow(pa.table({
                "id_a": pa.array([], type=id_type),
                "id_b": pa.array([], type=id_type),
                "jaccard": pa.array([], type=pa.float64())}))
        return pd.DataFrame({"id_a": [], "id_b": [], "jaccard": []})
    hot_ref = ray.put(np.sort(hot))

    def keep_hot(t: dict) -> dict:
        mask = np.isin(t["key"], ray.get(hot_ref))
        return {"key": t["key"][mask], "doc_id": t["doc_id"][mask]}

    pruned = keyed.map_batches(keep_hot, batch_format="numpy")
    grid = candidate_pairs_grid(pruned, bucket_cap)
    if output == "dataset":
        return _verify_jaccard_distributed(
            ds, text_col, id_col, grid, n_words, output="dataset",
            id_type=id_type, min_score=threshold)
    verified = _verify_jaccard_distributed(ds, text_col, id_col, grid,
                                           n_words)
    out = verified[verified["jaccard"] >= threshold]
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def _simhash_batch(texts: list, *, _bits=np.arange(64, dtype=np.uint64)
                   ) -> np.ndarray:
    """64-bit SimHash over word unigrams for a whole batch at once.

    Token-count weighting means the per-doc weighted bit-sign sum equals
    the plain sign sum over ALL token instances — so the batch folds to
    ONE hash64 call over every token and one segment-summed (docs, 64)
    sign matrix; no per-document loop, no per-document unique."""
    toks_per_doc = [(t or "").split() for t in texts]
    lens = np.array([len(t) for t in toks_per_doc], dtype=np.int64)
    n = len(texts)
    out = np.zeros(n, dtype=np.int64)
    all_toks = [w for toks in toks_per_doc for w in toks]
    if not all_toks:
        return out
    h = hash64(all_toks)
    signs = (((h[:, None] >> _bits[None, :]) & np.uint64(1))
             .astype(np.int8) * 2 - 1)                      # (tokens, 64)
    doc_idx = np.repeat(np.arange(n), lens)
    score = np.zeros((n, 64), dtype=np.int64)
    np.add.at(score, doc_idx, signs)
    val = ((score > 0).astype(np.uint64) << _bits[None, :]).sum(axis=1)
    out = val.view(np.int64)
    out[lens == 0] = 0
    return out


def simhash_signatures(ds, text_col: str, id_col: str, *,
                       batch_size: int = 512):
    """Stateless vectorized task (no actor pool: there is no per-actor
    state to amortize — the repo's actor-pool lesson)."""

    def fn(batch: pa.Table) -> pa.Table:
        hashes = _simhash_batch(batch[text_col].to_pylist())
        return pa.table({id_col: batch[id_col],
                         "simhash": pa.array(hashes, type=pa.int64())})

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)


def simhash_neardup_pairs(ds, text_col: str, id_col: str, *,
                          max_dist: int = 4):
    """SimHash near-dups: signatures -> banded Hamming stage (reuses the
    phash machinery — same 4x16-bit band LSH + exact verify)."""
    from ..validators.near_dup import hamming_neardup_pairs

    sigs = simhash_signatures(ds, text_col, id_col)
    # materialize: the Hamming stage consumes its input three times and
    # would otherwise re-run the SimHash chain over all documents 3x
    return hamming_neardup_pairs(sigs, phash_col="simhash", id_col=id_col,
                                 max_dist=max_dist,
                                 materialize_input=True)


def exact_dedup(ds, key_cols: list[str], *, order_col: str):
    """Keep-first exact dedup: one representative (``keep``, the min
    ``order_col``) and the row count ``n`` per distinct key
    combination, null keys one group.  Each block collapses to one row
    per key, and a ``transport.keyed_map`` on the keys merges them —
    the exchange moves block-level partials, never raw rows."""
    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(key_cols).aggregate([(order_col, "min"),
                                            ([], "count_all")])
        return pa.table({**{k: g[k] for k in key_cols},
                         "keep": g[f"{order_col}_min"],
                         "n": g["count_all"]})

    merge = merge_groups(key_cols, {"keep": "min", "n": "sum"})
    return keyed_map(ds.map_batches(partial, batch_format="pyarrow",
                                    zero_copy_batch=True),
                     key_cols, lambda t: merge([t]))


def prefix_dup_flags(ds, *, text_col: str = "text",
                     id_col: str = "doc_id", flag_col: str = "prefix_dup"):
    """Truncation-duplicate detection: flag every document whose text
    is a strict PREFIX of some other document's text (the partial-
    fetch / cut-off page duplicates exact hashing misses — the
    RefinedWeb-style dedup family's third member next to exact and
    near-dup).

    Sorted-successor property: in lexicographic order, t is a strict
    prefix of SOME text iff its immediate DISTINCT successor starts
    with t (any string between t and an extension of t must itself
    extend t).  So: one global sort by text (the unavoidable exchange)
    on :func:`transport.scan`, then per-block runs check against the
    next run in-block, and each block's LAST run checks the boundary
    successor.  Each block summarizes ``(first, second distinct, last)``
    text; for block i, let k be the first later block whose last text
    exceeds ``last_i`` (the blocks in between hold only ``last_i``): the
    successor is ``first_k`` when it exceeds ``last_i``, else block k's
    second distinct text.  One reverse pass over the O(blocks) summaries
    finds every block's successor, so a mega-run of one duplicated text
    costs nothing extra.  Row data never reaches the driver; the prefix
    tests are the vectorized flat-buffer byte kernel, byte-prefix ==
    char-prefix for valid UTF-8.  Null texts are canonicalized to ""
    (the empty string is a strict prefix of any non-empty text) so the
    sort and boundary comparisons never see None."""
    import pyarrow.compute as pc

    from ..functions.strings import elementwise_starts_with
    from .rank import run_starts
    from .transport import scan

    def _denull(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index(text_col)
        return t.set_column(i, text_col, pc.fill_null(t[text_col], ""))

    def texts(t: pa.Table) -> np.ndarray:
        return t[text_col].to_numpy(zero_copy_only=False)

    def summarize(t: pa.Table):
        a = texts(t)
        if not len(a):
            return None
        i = np.searchsorted(a, a[0], side="right")
        return a[0], a[i] if i < len(a) else None, a[-1]

    def successors(sums: list) -> list:
        succ, k = [None] * len(sums), None
        for i in range(len(sums) - 2, -1, -1):
            if sums[i + 1][2] > sums[i][2]:
                k = i + 1                 # first later block past last_i
            if k is not None:
                first, second, _ = sums[k]
                succ[i] = first if first > sums[i][2] else second
        return succ

    def emit(t: pa.Table, boundary_succ) -> pa.Table:
        a = texts(t)
        starts = np.flatnonzero(run_starts([a]))  # first row of each run
        runs = a[starts]                          # distinct texts, sorted
        succ = np.array([*runs[1:], boundary_succ][:len(runs)], dtype=object)
        have = np.array([s is not None for s in succ], dtype=bool)
        flag_runs = np.zeros(len(runs), dtype=np.int64)
        if have.any():
            flag_runs[have] = elementwise_starts_with(
                runs[have], succ[have], strict=True).astype(np.int64)
        lens = np.diff(np.append(starts, len(a)))
        return pa.table({id_col: t[id_col],
                         flag_col: pa.array(np.repeat(flag_runs, lens),
                                            pa.int64())})

    return scan(ds.map_batches(_denull, batch_format="pyarrow",
                               zero_copy_batch=True),
                [text_col], summarize, successors, emit)
