"""Blocked edit-distance fuzzy matching (entity resolution).

The classic record-linkage shape: never all-pairs — a cheap blocking
key (here: the last name token, the "noun") bounds candidates to pairs
that share a block, and a Levenshtein verify scores only those.  The
distinct-name census rides ``stages.transport.fold`` (bounded by distinct
strings, not rows); pairing fans out one flat Ray task per block-hash
slice, so no block's candidate set ever assembles on the driver.

No reference counterpart (the reference's string ops are categorical
pattern encodings, /root/reference/pipelines/statistics/
CategoricalStatistics.py); standard blocking+verify from the entity-
resolution literature (Fellegi & Sunter 1969; PPJoin kin of
stages/textjoin.py).

Scale note: candidates are bounded per BLOCK (cap documented at the
call site), and blocks are hash-partitioned across tasks.  A corpus
whose distinct-string census outgrows the driver fold swaps the census
for hash-partitioned distinct (the uniqueness pattern) with pairing
unchanged — the per-slice layout is already partition-local.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _levenshtein_class(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """DP over one (m, n) length class, vectorized ACROSS pairs:
    A is (P, m) and B is (P, n) int32 byte codes; m*n scalar steps
    each operating on all P pairs at once."""
    P, m = A.shape
    n = B.shape[1]
    prev = np.tile(np.arange(n + 1, dtype=np.int32), (P, 1))
    cur = np.empty_like(prev)
    for i in range(1, m + 1):
        cur[:, 0] = i
        ai = A[:, i - 1]
        for j in range(1, n + 1):
            cost = (ai != B[:, j - 1]).astype(np.int32)
            cur[:, j] = np.minimum(np.minimum(prev[:, j] + 1,
                                              cur[:, j - 1] + 1),
                                   prev[:, j - 1] + cost)
        prev, cur = cur, prev
    return prev[:, n].astype(np.int64)


def levenshtein_batch(a, b) -> np.ndarray:
    """Levenshtein distance for aligned pair arrays of strings,
    grouped by (len_a, len_b) class so the DP is SIMD across every
    pair of a class.  Byte-level codes == character-level for ASCII;
    any non-ASCII pair falls back to a per-pair codepoint DP (the
    byte-class-LUT lesson: Python is Unicode-aware, the kernel is
    not)."""
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    out = np.zeros(len(a), dtype=np.int64)
    if not len(a):
        return out
    enc_a = [s.encode() for s in a]
    enc_b = [s.encode() for s in b]
    ascii_ok = np.array([len(ea) == len(sa) and len(eb) == len(sb)
                         for ea, sa, eb, sb in zip(enc_a, a, enc_b, b)])
    la = np.array([len(e) for e in enc_a])
    lb = np.array([len(e) for e in enc_b])
    classes: dict[tuple[int, int], list[int]] = {}
    for k in np.flatnonzero(ascii_ok):
        classes.setdefault((int(la[k]), int(lb[k])), []).append(int(k))
    for (m, n), idx in classes.items():
        idx = np.asarray(idx)
        A = np.frombuffer(b"".join(enc_a[k] for k in idx),
                          dtype=np.uint8).astype(np.int32) \
            .reshape(len(idx), m) if m else \
            np.empty((len(idx), 0), dtype=np.int32)
        B = np.frombuffer(b"".join(enc_b[k] for k in idx),
                          dtype=np.uint8).astype(np.int32) \
            .reshape(len(idx), n) if n else \
            np.empty((len(idx), 0), dtype=np.int32)
        out[idx] = _levenshtein_class(A, B)
    for k in np.flatnonzero(~ascii_ok):          # rare: unicode pairs
        out[k] = _levenshtein_py(a[k], b[k])
    return out


def _levenshtein_py(s: str, t: str) -> int:
    prev = list(range(len(t) + 1))
    for i, cs in enumerate(s, 1):
        cur = [i]
        for j, ct in enumerate(t, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1,
                           prev[j - 1] + (cs != ct)))
        prev = cur
    return prev[-1]


def blocked_editdist_pairs(ds, col: str, *, max_dist: int = 3,
                           num_slices: int = 16,
                           block_pair_cap: int = 200_000):
    """Distinct values of ``ds[col]`` -> block on last whitespace token
    -> per-block all-pairs Levenshtein verify, one flat Ray task per
    block-hash slice.  Returns an Arrow table (name_a, name_b, dist)
    with name_a < name_b and dist <= max_dist.  A block whose pair
    count exceeds ``block_pair_cap`` raises loudly (a degenerate
    blocking key must be re-chosen, never silently sampled)."""
    import pickle

    import ray

    from ..sketches import hash64
    from .transport import fold, merge_unique

    # SQL NULL semantics: a NULL name never blocks or pairs (a.blk =
    # c.blk and a < c are both NULL) — drop, don't canonicalize; None
    # would also break the object-array sort
    names = fold(ds, lambda t: np.unique(t[col].drop_null().to_numpy()),
                 merge_unique)
    names = np.asarray(names, dtype=object)
    blocks = np.array([s.rsplit(" ", 1)[-1] for s in names], dtype=object)
    slc = (hash64(blocks) % np.uint64(num_slices)).astype(np.int64)

    @ray.remote
    def pair_slice(payload_ref: bytes) -> bytes:
        nm, blk = pickle.loads(payload_ref)
        order = np.lexsort((nm, blk))
        nm, blk = nm[order], blk[order]
        bounds = np.flatnonzero(
            np.r_[True, blk[1:] != blk[:-1], True])
        ia, ib = [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            k = e - s
            n_pairs = k * (k - 1) // 2
            if n_pairs > block_pair_cap:
                raise ValueError(
                    f"blocked_editdist_pairs: block {blk[s]!r} has "
                    f"{n_pairs} candidate pairs (> {block_pair_cap}); "
                    "choose a finer blocking key")
            if k < 2:
                continue
            i, j = np.triu_indices(k, k=1)
            ia.append(i + s)
            ib.append(j + s)
        if not ia:
            return pickle.dumps((np.empty(0, object), np.empty(0, object),
                                 np.empty(0, np.int64)))
        ia = np.concatenate(ia)
        ib = np.concatenate(ib)
        d = levenshtein_batch(nm[ia], nm[ib])
        keep = d <= max_dist
        return pickle.dumps((nm[ia[keep]], nm[ib[keep]], d[keep]))

    outs = []
    for s in range(num_slices):
        m = slc == s
        if m.any():
            outs.append(pair_slice.remote(
                pickle.dumps((names[m], blocks[m]))))
    a_parts, b_parts, d_parts = [], [], []
    for r in ray.get(outs):
        pa_, pb_, pd_ = pickle.loads(r)
        a_parts.append(pa_)
        b_parts.append(pb_)
        d_parts.append(pd_)
    if not a_parts:
        return pa.table({"name_a": pa.array([], pa.string()),
                         "name_b": pa.array([], pa.string()),
                         "dist": pa.array([], pa.int64())})
    return pa.table({
        "name_a": pa.array(np.concatenate(a_parts).tolist(), pa.string()),
        "name_b": pa.array(np.concatenate(b_parts).tolist(), pa.string()),
        "dist": pa.array(np.concatenate(d_parts), pa.int64())})
