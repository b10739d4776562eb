"""Exact character-n-gram Jaccard similarity join (PPJoin-style).

Completes the near-dup family (SURVEY §2.7) with an EXACT set-similarity
join: every pair of documents whose char-``n``-gram Jaccard >= threshold,
with the exact Jaccard value — SQL-oracle-checkable, unlike the
MinHash/SimHash paths whose banding is probabilistic.  The reference's
dedup surface stops at exact-key duplicates
(/root/reference/pipelines/defaults.py:61); this operator is part of the
beyond-reference LLM-pipeline tier next to ``stages.dedup``.

Algorithm (Xiao et al., "Efficient Similarity Joins for Near Duplicate
Detection", WWW 2008 — prefix + positional filtering; all public):

1. GRAMS: each doc's distinct char-``n``-grams, byte-packed into uint64
   (``n <= 8``) — gram identity is EXACT (no hashing, no collisions) and
   the whole batch is computed with one sliding-window matmul over the
   Arrow string buffer (zero per-row Python).
2. FREQ ORDER: a Misra-Gries gram→doc-frequency census (mergeable,
   bounded at ``census_k`` counters — ``validators.heavy``) broadcast to
   every task.  Correctness needs only SOME consistent total order of
   grams; frequency order merely minimizes candidates, so the sketch
   being approximate past ``census_k`` distinct grams costs recall
   nothing (order key = (freq, gram), rare grams first).
3. PREFIX FILTER: a doc of ``s`` grams indexes only its
   ``s - ceil(t*s) + 1`` rarest grams; two docs with Jaccard >= t must
   share a prefix gram.  Entries route by gram hash through
   ``transport.slice_map`` (bytes move once on a multi-node cluster),
   whose per-slice tasks enumerate intra-bucket pairs
   size-class-batched (the ``near_dup._segment_pairs`` shape), pruning
   with the length filter (min >= t*max) and the positional filter
   (remaining-suffix overlap bound).  Both filters are applied with a
   -1e-9 slack so float round-off can only ADD candidates, never drop
   a true pair.
4. VERIFY: exact intersection counts by SLICE-PARTIAL bitmap popcount —
   the same pack pass also emits every doc's FULL gram list sliced by
   gram hash (``kind``-tagged rows, one scatter stream), the candidate
   pair list broadcasts to every slice, and each slice intersects only
   the grams it owns: ``common = Σ_slices popcount(bits[a] & bits[b])``.
   Every gram byte moves once (no per-pair payload duplication — an
   earlier routed-verify draft shipped each doc's grams to every part
   holding one of its pairs, ~55× duplication on dense candidate
   graphs); the driver folds dense per-slice count partials.  jaccard =
   common / (|a| + |b| - common) in exact int64 → float64 division
   (bit-identical to DuckDB's DOUBLE division).

Scale notes: candidate volume is corpus-dependent — on natural text the
prefix filter keeps it near-linear in true pairs; on low-diversity
corpora (tiny vocab, high background similarity) it degrades toward
quadratic, which is intrinsic to EXACT joins (VLDB'16 "An Empirical
Evaluation of Set Similarity Join Techniques") — use
``stages.dedup.minhash_lsh_pairs`` when approximate recall is
acceptable.  The driver holds only (id, id) candidate pairs and the
census; gram payloads move block→slice-cell→task, once.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..sketches import popcount64
from ..validators.heavy import mg_merge
from . import transport
from .transport import fold, merge_concat, pack_slices, slice_map, slice_of

_EPS = 1e-9
_SEG_MAX = 512          # size-class batching bound; larger buckets sweep
_VERIFY_CHUNK_WORDS = 4_000_000   # ~32 MB of uint64 per popcount chunk


def _pw(n: int) -> np.ndarray:
    return np.uint64(256) ** np.arange(n - 1, -1, -1, dtype=np.uint64)


def doc_gram_sets(texts: "pa.ChunkedArray | pa.Array", n: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct byte-packed char-n-gram codes per document, vectorized.

    Returns ``(sizes, doc_idx, codes)``: ``sizes[i]`` = distinct grams of
    doc i (0 when shorter than ``n`` bytes or null), and ``codes`` holds
    every doc's sorted distinct grams concatenated, ``doc_idx`` its
    owning doc per entry.  One sliding-window matmul per batch; per-doc
    dedupe is a single lexsort — no per-row Python.
    """
    if not 1 <= n <= 8:
        raise ValueError("n must be in [1, 8] (uint64 byte packing)")
    col = pc.fill_null(pc.cast(texts, pa.large_string()), "")
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    m = len(arr)
    # offsets/data straight off the Arrow buffers; honor arr.offset (the
    # pyarrow sliced-array lesson — never assume offset 0)
    off = np.frombuffer(arr.buffers()[1], dtype=np.int64)[
        arr.offset:arr.offset + m + 1]
    empty = (np.zeros(m, dtype=np.int64), np.empty(0, dtype=np.int64),
             np.empty(0, dtype=np.uint64))
    if m == 0 or off[-1] - off[0] < n:
        return empty
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)[off[0]:off[-1]]
    off_rel = (off - off[0]).astype(np.int64)
    from numpy.lib.stride_tricks import sliding_window_view
    codes_all = sliding_window_view(data, n).astype(np.uint64) @ _pw(n)
    starts = np.arange(data.size - n + 1, dtype=np.int64)
    doc = np.searchsorted(off_rel, starts, side="right") - 1
    valid = starts + n <= off_rel[doc + 1]
    doc, codes = doc[valid], codes_all[valid]
    if not doc.size:
        return empty
    o = np.lexsort((codes, doc))
    doc, codes = doc[o], codes[o]
    keep = np.r_[True, (doc[1:] != doc[:-1]) | (codes[1:] != codes[:-1])]
    doc, codes = doc[keep], codes[keep]
    return np.bincount(doc, minlength=m), doc, codes


def _ids_np(batch: pa.Table, id_col: str) -> np.ndarray:
    return batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)


# ---------------------------------------------------------------------------
# phase 2: gram doc-frequency census (Misra-Gries, mergeable)


def _gram_census(ds, text_col: str, n: int, census_k: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    def partial(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        _, _, codes = doc_gram_sets(batch[text_col], n)
        return mg_merge([np.unique(codes, return_counts=True)], census_k)

    return fold(ds, partial, lambda parts: mg_merge(parts, census_k))


# ---------------------------------------------------------------------------
# phase 3: prefix entries -> slice-addressed candidate pairing


def _prefix_pack(batch: pa.Table, text_col: str, id_col: str, n: int,
                 threshold: float, census_ref, num_slices: int) -> pa.Table:
    """Emit BOTH scatter streams off one gram computation: ``kind='p'``
    prefix entries (code, id, pos, size) for candidate pairing and
    ``kind='f'`` full gram lists (code, id) for slice-partial verify."""
    g_sorted, g_freq = ray.get(census_ref)
    sizes, doc, codes = doc_gram_sets(batch[text_col], n)
    ids = _ids_np(batch, id_col)
    sl_all = slice_of(codes, num_slices)
    full = pack_slices(sl_all, codes, ids[doc], kind="f")
    if len(g_sorted):
        idx = np.searchsorted(g_sorted, codes)
        found = (idx < len(g_sorted))
        idx_c = np.minimum(idx, len(g_sorted) - 1)
        freq = np.where(found & (g_sorted[idx_c] == codes), g_freq[idx_c], 0)
    else:
        freq = np.zeros(codes.size, dtype=np.int64)
    # per-doc (freq, code) ascending order in ONE lexsort
    o = np.lexsort((codes, freq, doc))
    doc_p, codes_p, sl_p = doc[o], codes[o], sl_all[o]
    doc_start = np.r_[0, np.cumsum(sizes)]
    pos = np.arange(doc_p.size, dtype=np.int64) - doc_start[doc_p]
    # prefix length s - ceil(t*s) + 1; eps-slack ceil errs LONGER (safe)
    plen = sizes - np.ceil(threshold * sizes - _EPS).astype(np.int64) + 1
    keep = pos < plen[doc_p]
    doc_p, codes_p, pos, sl_p = doc_p[keep], codes_p[keep], pos[keep], \
        sl_p[keep]
    return pa.concat_tables([full, pack_slices(
        sl_p, codes_p, ids[doc_p], pos.astype(np.int32),
        sizes[doc_p].astype(np.int32), kind="p")])


def _pair_filters(ids_m: np.ndarray, pos_m: np.ndarray, siz_m: np.ndarray,
                  iu: np.ndarray, ju: np.ndarray, threshold: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Length + positional filters over stacked pair index matrices.

    ``*_m`` are (k, m) per-bucket matrices; (iu, ju) index the m(m-1)/2
    intra-bucket pairs.  Returns flat (id_a, id_b, size_a, size_b)
    arrays, a < b.
    """
    sa, sb = siz_m[:, iu].astype(np.float64), siz_m[:, ju].astype(np.float64)
    lo, hi = np.minimum(sa, sb), np.maximum(sa, sb)
    ok = lo >= threshold * hi - _EPS
    # positional: common <= 1 + min(remaining suffix); needed overlap
    # t/(1+t)*(sa+sb) (c >= t*(sa+sb)/(1+t)  <=>  jaccard >= t)
    ub = 1.0 + np.minimum(sa - pos_m[:, iu] - 1, sb - pos_m[:, ju] - 1)
    ok &= ub >= (threshold / (1.0 + threshold)) * (sa + sb) - _EPS
    a = ids_m[:, iu][ok]
    b = ids_m[:, ju][ok]
    za = siz_m[:, iu][ok].astype(np.int64)
    zb = siz_m[:, ju][ok].astype(np.int64)
    swap = a > b
    return (np.where(swap, b, a), np.where(swap, a, b),
            np.where(swap, zb, za), np.where(swap, za, zb))


def _pair_slice(parts: list, threshold: float) -> tuple:
    """Enumerate candidate pairs for one gram slice: sort by gram code,
    segment, size-class-batched filter sweep (no per-pair Python).
    Returns the distinct (id_a, id_b, size_a, size_b) quads."""
    codes, ids, pos, siz = merge_concat(parts)
    pos, siz = pos.astype(np.int64), siz.astype(np.int64)
    order = np.argsort(codes, kind="mergesort")
    codes, ids, pos, siz = codes[order], ids[order], pos[order], siz[order]
    bounds = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1], True])
    sizes = np.diff(bounds)
    starts = bounds[:-1]
    out: list = []
    sel = (sizes >= 2) & (sizes <= _SEG_MAX)
    for m in np.unique(sizes[sel]):
        st = starts[sizes == m]
        iu, ju = np.triu_indices(int(m), 1)
        step = max(1, 4_000_000 // max(1, len(iu)))
        for c in range(0, len(st), step):
            idx = st[c:c + step, None] + np.arange(m)[None, :]
            out.append(_pair_filters(ids[idx], pos[idx], siz[idx], iu, ju,
                                     threshold))
    for s0, m in zip(starts[sizes > _SEG_MAX], sizes[sizes > _SEG_MAX]):
        seg = slice(s0, s0 + int(m))
        ids_s, pos_s, siz_s = ids[seg], pos[seg], siz[seg]
        for i in range(int(m) - 1):
            cols = np.r_[i, np.arange(i + 1, int(m))]
            out.append(_pair_filters(
                ids_s[None, cols], pos_s[None, cols], siz_s[None, cols],
                np.zeros(int(m) - 1 - i, np.int64),
                np.arange(1, int(m) - i), threshold))
    if not out:
        return np.empty((0, 4), np.int64)
    return np.unique(np.stack(merge_concat(out), axis=1), axis=0)


# ---------------------------------------------------------------------------
# phase 4: exact verify via slice-partial bitmap popcount


def _verify_slice_partial(parts: list, pairs_ref) -> tuple:
    """Partial intersection counts for ONE gram slice: local-dictionary
    bitmaps over only the grams this slice owns, popcount over the
    (broadcast) candidate pairs whose docs both appear here.  Returns
    (pair_index, partial_common) sparse arrays."""
    a, b = ray.get(pairs_ref)
    codes, ids = merge_concat(parts)
    sids = np.unique(ids)
    ia = np.searchsorted(sids, a)
    ib = np.searchsorted(sids, b)
    ia_c = np.minimum(ia, sids.size - 1)
    ib_c = np.minimum(ib, sids.size - 1)
    present = (sids[ia_c] == a) & (sids[ib_c] == b)
    pidx = np.flatnonzero(present)
    if not pidx.size:
        return pidx, pidx
    uc = np.unique(codes)
    W = max(1, (uc.size + 63) // 64)
    ridx = np.searchsorted(sids, ids)
    cidx = np.searchsorted(uc, codes).astype(np.int64)
    flat = ridx * W + (cidx >> 6)
    bit = np.uint64(1) << (cidx.astype(np.uint64) & np.uint64(63))
    o = np.argsort(flat, kind="mergesort")
    flat, bit = flat[o], bit[o]
    seg = np.flatnonzero(np.r_[True, flat[1:] != flat[:-1]])
    bits = np.zeros(sids.size * W, dtype=np.uint64)
    bits[flat[seg]] = np.bitwise_or.reduceat(bit, seg)
    bits = bits.reshape(sids.size, W)
    common = np.empty(pidx.size, dtype=np.int64)
    step = max(1, _VERIFY_CHUNK_WORDS // W)
    ia_p, ib_p = ia_c[pidx], ib_c[pidx]
    for c in range(0, pidx.size, step):
        common[c:c + step] = popcount64(
            bits[ia_p[c:c + step]] & bits[ib_p[c:c + step]]).sum(axis=1)
    nz = common > 0
    return pidx[nz], common[nz]


# ---------------------------------------------------------------------------
# driver orchestration


def ngram_jaccard_pairs(ds, text_col: str, id_col: str, *, n: int = 8,
                        threshold: float = 0.8, census_k: int = 1 << 20
                        ) -> pd.DataFrame:
    """All document pairs with char-``n``-gram Jaccard >= ``threshold``
    and the EXACT Jaccard value — (id_a, id_b, jaccard), id_a < id_b.

    ``ds`` is consumed three times (census, prefix, verify); pass a
    pruned parquet read, or ``materialize()`` a computed chain first.
    ``id_col`` must be int64-valued and unique.  Grams route to
    ``transport.default_num_parts()`` slices.
    """
    num_slices = transport.default_num_parts()
    census = _gram_census(ds, text_col, n, census_k)
    census_ref = ray.put(census)

    packed = ds.map_batches(
        lambda t: _prefix_pack(t, text_col, id_col, n, threshold,
                               census_ref, num_slices),
        batch_format="pyarrow", zero_copy_batch=True).materialize()
    quads = ray.get(slice_map(
        packed, num_slices, lambda s, parts: _pair_slice(parts, threshold),
        kind="p"))
    quad = np.unique(np.concatenate(quads), axis=0) if quads else ()
    if not len(quad):
        return pd.DataFrame({"id_a": pd.Series([], dtype=np.int64),
                             "id_b": pd.Series([], dtype=np.int64),
                             "jaccard": pd.Series([], dtype=np.float64)})
    a, b, sa, sb = quad.T
    pairs_ref = ray.put((a, b))

    common = np.zeros(a.size, dtype=np.int64)
    for pidx, cnt in ray.get(slice_map(
            packed, num_slices,
            lambda s, parts: _verify_slice_partial(parts, pairs_ref),
            kind="f")):
        common[pidx] += cnt         # pidx unique within one slice result
    union = sa + sb - common
    with np.errstate(invalid="ignore", divide="ignore"):
        jac = np.where(union > 0, common / np.maximum(union, 1), 0.0)
    keep = jac >= threshold
    return pd.DataFrame({"id_a": a[keep], "id_b": b[keep],
                         "jaccard": jac[keep]})
