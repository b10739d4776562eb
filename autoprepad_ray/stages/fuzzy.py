"""Blocked edit-distance fuzzy matching (entity resolution).

The classic record-linkage shape: never all-pairs — a cheap blocking
key (here: the last name token, the "noun") bounds candidates to pairs
that share a block, and a Levenshtein verify scores only those.  Every
block keeps its distinct (name, block) rows, which route by block
through ``stages.transport.keyed_fold``: one task per live slice
dedupes its names and pairs within each block, so neither the distinct
names nor a block's candidate set ever assembles on the driver.

No reference counterpart (the reference's string ops are categorical
pattern encodings, /root/reference/pipelines/statistics/
CategoricalStatistics.py); standard blocking+verify from the entity-
resolution literature (Fellegi & Sunter 1969; PPJoin kin of
stages/textjoin.py).

Scale note: candidates are bounded per BLOCK (cap documented at the
call site), and blocks are hash-partitioned across tasks.
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


def _block_pairs(t: pa.Table, max_dist: int, block_pair_cap: int
                 ) -> pa.Table:
    """(name_a, name_b, dist) of every pair of distinct ``name``s that
    share a ``blk`` in ``t``, name_a < name_b and dist <= max_dist."""
    nm, first = np.unique(t["name"].to_numpy(zero_copy_only=False),
                          return_index=True)
    blk = t["blk"].to_numpy(zero_copy_only=False)[first]
    order = np.lexsort((nm, blk))
    nm, blk = nm[order], blk[order]
    bounds = np.flatnonzero(np.r_[True, blk[1:] != blk[:-1], True])
    ia, ib = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for s, e in zip(bounds[:-1], bounds[1:]):
        n_pairs = (e - s) * (e - s - 1) // 2
        if n_pairs > block_pair_cap:
            raise ValueError(
                f"blocked_editdist_pairs: block {blk[s]!r} has "
                f"{n_pairs} candidate pairs (> {block_pair_cap}); "
                "choose a finer blocking key")
        i, j = np.triu_indices(e - s, k=1)
        ia.append(i + s)
        ib.append(j + s)
    ia, ib = np.concatenate(ia), np.concatenate(ib)
    d = levenshtein_batch(nm[ia], nm[ib])
    keep = d <= max_dist
    return pa.table({"name_a": pa.array(nm[ia[keep]].tolist(), pa.string()),
                     "name_b": pa.array(nm[ib[keep]].tolist(), pa.string()),
                     "dist": pa.array(d[keep], pa.int64())})


def blocked_editdist_pairs(ds, col: str, *, max_dist: int = 3,
                           block_pair_cap: int = 200_000) -> pa.Table:
    """Distinct values of ``ds[col]`` -> block on last whitespace token
    -> per-block all-pairs Levenshtein verify, one
    ``transport.keyed_fold`` over the blocks.  Returns an Arrow table
    (name_a, name_b, dist) with name_a < name_b and dist <= max_dist.
    A block whose pair count exceeds ``block_pair_cap`` raises loudly
    (a degenerate blocking key must be re-chosen, never silently
    sampled)."""
    import pyarrow.compute as pc

    from .transport import keyed_fold

    def partial(t: pa.Table) -> pa.Table:
        # SQL NULL semantics: a NULL name never blocks or pairs (a.blk =
        # c.blk and a < c are both NULL) — drop, don't canonicalize
        names = pc.unique(t[col].drop_null())
        return pa.table({"name": names, "blk": pc.replace_substring_regex(
            names, pattern=r"(?s)^.* ", replacement="")})

    out = keyed_fold(ds, partial, ["blk"], lambda parts: _block_pairs(
        pa.concat_tables(parts), max_dist, block_pair_cap))
    return out if out is not None else _block_pairs(
        pa.table({"name": pa.array([], pa.string()),
                  "blk": pa.array([], pa.string())}), max_dist,
        block_pair_cap)
