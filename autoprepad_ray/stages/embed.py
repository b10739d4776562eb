"""Embedding similarity stages: brute-force cosine top-k (baseline) and
random-hyperplane-LSH cosine near-dup (the scale path).

The query matrix / hyperplane tensor is ``ray.put`` ONCE and read from
the local object store inside each task — broadcast, not re-shipped per
batch.  Per-batch math is one numpy matmul.  The LSH variant buckets by
sign-pattern over ``planes`` hyperplanes across ``tables`` independent
tables (recall boost), verifies candidates with exact float64 cosine,
and caps degenerate buckets.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

from .transport import fold


def _matrix(batch_col) -> np.ndarray:
    """list<float> column -> (n, d) float64 matrix without per-row pylist."""
    arr = batch_col.combine_chunks() if hasattr(batch_col, "combine_chunks") \
        else batch_col
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    d = len(arr[0])
    return flat.reshape(len(arr), d)


def _hits(qids, ids, scores, id_col: str, score: str = "cos") -> pa.Table:
    """A ``(query_id, id_col, score)`` candidate table (int64, int64,
    float64)."""
    return pa.table({"query_id": pa.array(qids, type=pa.int64()),
                     id_col: pa.array(ids, type=pa.int64()),
                     score: pa.array(scores, type=pa.float64())})


def top_per_query(id_col: str, score: str, k: int):
    """A fold ``merge`` keeping each query's ``k`` best rows of
    ``(query_id, id_col, score)`` candidate tables: ``score``
    descending, ties by ``id_col`` (``None`` for no table).  Cutting a
    union of cuts is the cut of the union, so it folds in any order."""
    def merge(parts: list[pa.Table]) -> pa.Table | None:
        if not parts:
            return None
        t = pa.concat_tables(parts)
        t = t.take(pc.sort_indices(t, sort_keys=[
            ("query_id", "ascending"), (score, "descending"),
            (id_col, "ascending")]))
        q = t["query_id"].to_numpy()
        first = np.flatnonzero(np.r_[True, q[1:] != q[:-1]])
        rank = np.arange(len(q)) - np.repeat(first, np.diff(
            np.r_[first, len(q)]))
        return t.filter(pa.array(rank < k))
    return merge


def cosine_topk(ds, vec_col: str, id_col: str, query: np.ndarray,
                query_ids: np.ndarray, k: int = 5) -> pa.Table | None:
    """Brute-force cosine top-k: broadcast queries, per-batch partial
    top-k, folded to each query's top k (:func:`top_per_query`)."""
    Qn = query / np.linalg.norm(query, axis=1, keepdims=True)
    q_ref = ray.put((np.asarray(query_ids), Qn))

    def partial(t: pa.Table) -> pa.Table:
        qids, Qn_ = ray.get(q_ref)
        if t.num_rows == 0:
            return _hits([], [], [], id_col)
        M = _matrix(t[vec_col])
        Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
        vids = t[id_col].to_numpy(zero_copy_only=False)
        S = Mn @ Qn_.T
        oq, ov, oc = [], [], []
        for j, qid in enumerate(qids):
            order = np.lexsort((vids, -S[:, j]))[:k]
            oq.extend([qid] * len(order))
            ov.extend(vids[order].tolist())
            oc.extend(S[order, j].tolist())
        return _hits(oq, ov, oc, id_col)

    return fold(ds, partial, top_per_query(id_col, "cos", k))


def cosine_neardup_pairs(ds, vec_col: str, id_col: str, *,
                         threshold: float = 0.9, planes: int = 12,
                         tables: int = 4, seed: int = 11,
                         bucket_cap: int = 512) -> pd.DataFrame:
    """Approximate cosine near-dup pairs via sign-LSH, exactly verified.

    Recall note: a pair at cosine c collides in one table with
    probability (1 - arccos(c)/pi)^planes; with c=0.95, planes=12,
    tables=4 -> ~93% overall.  Raise ``tables`` for higher recall; the
    brute-force baseline is :func:`cosine_topk`.

    Shuffle shape: the LSH exchange carries ONLY (bucket key, id) rows —
    never the vectors (x``tables`` vector shipping was the old scale
    flaw); candidate pairs come from the shared sliced-payload
    groupby(slice) pairing, and exact float64 cosine verification is a
    broadcast-routed candidate join that ships each candidate's
    normalized vector only to the part(s) whose pairs need it, so total
    exchange volume stays well under 1x the dataset.
    """
    from .dedup import candidate_pairs_grid, verify_pairs_routed

    rng = np.random.default_rng(seed)
    first = ds.take(1)
    if not first:
        return pd.DataFrame({"id_a": [], "id_b": [], "cos": []})
    d = len(first[0][vec_col])
    G = rng.standard_normal((tables, planes, d))
    g_ref = ray.put(G)
    powers = (1 << np.arange(planes)).astype(np.int64)

    def explode_keys(t: pa.Table) -> dict:
        G_ = ray.get(g_ref)
        M = _matrix(t[vec_col])
        Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
        ids = np.asarray(t[id_col].to_numpy(zero_copy_only=False))
        keys, out_i = [], []
        for ti in range(G_.shape[0]):
            signs = (Mn @ G_[ti].T) > 0
            buckets = (signs @ powers).astype(np.int64)
            keys.append(np.int64(ti << planes) | buckets)
            out_i.append(ids)
        return {"key": np.concatenate(keys),
                "doc_id": np.concatenate(out_i)}

    keyed = ds.map_batches(explode_keys, batch_format="pyarrow",
                           zero_copy_batch=True)
    grid = candidate_pairs_grid(keyed, bucket_cap)

    def extract(sub: pa.Table) -> list:
        # sub is pre-filtered to candidate rows by the vectorized
        # hash64 mask in verify_pairs_routed
        Mn = _matrix(sub[vec_col])
        Mn = Mn / np.linalg.norm(Mn, axis=1, keepdims=True)
        return [Mn[k] for k in range(len(Mn))]

    verified = verify_pairs_routed(
        ds, id_col, grid, extract,
        lambda a, b: float(a @ b), "cos")
    out = verified[verified["cos"] >= threshold]
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# IVF (inverted-file) ANN — the clustered scale path beside sign-LSH


def train_ivf_centroids(ds, vec_col: str, *, nlist: int = 64,
                        sample_rows: int = 20_000, iters: int = 12,
                        seed: int = 17) -> np.ndarray:
    """Lloyd k-means on a bounded sample (driver-side numpy — centroid
    training is O(sample), not O(n); the full dataset only gets
    assigned).  Returns unit-norm (nlist, d) centroids."""
    sampled = []
    remaining = sample_rows
    for b in ds.iter_batches(batch_size=8192, batch_format="pyarrow"):
        M = _matrix(b[vec_col])
        sampled.append(M[:remaining])
        remaining -= len(M)
        if remaining <= 0:
            break
    if not sampled or not sum(len(s) for s in sampled):
        raise ValueError(
            "train_ivf_centroids: dataset yielded no rows to sample — "
            "cannot train on an empty input")
    X = np.concatenate(sampled)
    X = X / np.linalg.norm(X, axis=1, keepdims=True)
    rng = np.random.default_rng(seed)
    C = X[rng.choice(len(X), size=min(nlist, len(X)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(X @ C.T, axis=1)
        for j in range(len(C)):
            members = X[assign == j]
            if len(members):
                c = members.mean(axis=0)
                n = np.linalg.norm(c)
                if n > 0:
                    C[j] = c / n
    return C


def ivf_topk(ds, vec_col: str, id_col: str, query: np.ndarray,
             query_ids: np.ndarray, *, k: int = 5, nlist: int = 64,
             nprobe: int = 8, centroids: np.ndarray | None = None
             ) -> pa.Table | None:
    """IVF approximate top-k: rows are bucketed by nearest centroid;
    each query probes only its ``nprobe`` nearest lists.  Centroids are
    broadcast once; per batch the candidate subset per query is scored
    exactly (float64 cosine).  recall -> 1 as nprobe -> nlist
    (``cosine_topk`` is the exact baseline)."""
    if centroids is None:
        centroids = train_ivf_centroids(ds, vec_col, nlist=nlist)
    Qn = query / np.linalg.norm(query, axis=1, keepdims=True)
    probes = np.argsort(-(Qn @ centroids.T), axis=1)[:, :nprobe]
    state_ref = ray.put((np.asarray(query_ids), Qn, centroids,
                         [set(p) for p in probes]))

    def partial(t: pa.Table) -> pa.Table:
        qids, Qn_, C, probe_sets = ray.get(state_ref)
        if t.num_rows == 0:
            return _hits([], [], [], id_col)
        M = _matrix(t[vec_col])
        Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
        vids = t[id_col].to_numpy(zero_copy_only=False)
        assign = np.argmax(Mn @ C.T, axis=1)
        oq, ov, oc = [], [], []
        for j, qid in enumerate(qids):
            mask = np.isin(assign, list(probe_sets[j]))
            if not mask.any():
                continue
            sub = Mn[mask]
            sub_ids = vids[mask]
            s = sub @ Qn_[j]
            order = np.lexsort((sub_ids, -s))[:k]
            oq.extend([qid] * len(order))
            ov.extend(sub_ids[order].tolist())
            oc.extend(s[order].tolist())
        return _hits(oq, ov, oc, id_col)

    return fold(ds, partial, top_per_query(id_col, "cos", k))


def label_centroids(ds, vec_col: str = "embedding",
                    label_col: str = "label") -> pa.Table:
    """Per-class mean embedding (class centroids / prototype vectors —
    the fit step of nearest-centroid labeling and a standard corpus
    diagnostic).  Per-block partials: sort the block's rows by label
    code and ``np.add.reduceat`` the matrix into one (label, count,
    sum-vector) row per label per block — the exchange carries
    labels x blocks tiny payload rows, never vectors per row; the
    driver folds the handful of partials and divides once.  Rows-only
    checked (float sums are order-sensitive; pytest pins against a
    single-process numpy mean at 1e-12)."""

    def partial(t: pa.Table) -> dict:
        if t.num_rows == 0:     # dynamic block splits can emit empties
            return {}
        M = _matrix(t[vec_col])
        labels = t[label_col].to_numpy(zero_copy_only=False)
        order = np.argsort(labels, kind="stable")
        ls, Ms = labels[order], M[order]
        uniq, starts = np.unique(ls, return_index=True)
        sums = np.add.reduceat(Ms, starts, axis=0)
        cnts = np.diff(np.concatenate([starts, [len(ls)]]))
        return {lab: [int(c), s] for lab, c, s in zip(uniq, cnts, sums)}

    def merge(parts: list) -> dict:
        acc: dict = {}
        for part in parts:
            for lab, (c, s) in part.items():
                if lab in acc:
                    acc[lab][0] += c
                    acc[lab][1] = acc[lab][1] + s
                else:
                    acc[lab] = [c, s]
        return acc

    acc = fold(ds, partial, merge)
    labs = sorted(acc)
    return pa.table({
        label_col: pa.array(labs, pa.int64()),
        "n": pa.array([acc[l][0] for l in labs], pa.int64()),
        "centroid": pa.array([(acc[l][1] / acc[l][0]).tolist()
                              for l in labs],
                             pa.list_(pa.float64())),
        # raw per-dim sums ride along so SQL-parity consumers can apply
        # the ROUND(SUM, 2)/COUNT mean trick (queries.py header) —
        # mean*n would NOT reproduce the sum bit-exactly
        "vec_sum": pa.array([acc[l][1].tolist() for l in labs],
                            pa.list_(pa.float64()))})


def sq8_minmax(ds, vec_col: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension (min, max) census of an embedding column — one
    streaming pass, per-block partials folded on the driver (two
    d-length vectors per block; d is model-fixed, never data-scale)."""

    def part(t: pa.Table):
        if t.num_rows == 0:
            return None
        M = _matrix(t[vec_col])
        return M.min(axis=0), M.max(axis=0)

    def merge(parts: list):
        parts = [p for p in parts if p is not None]
        if not parts:
            return None
        return (np.min([p[0] for p in parts], axis=0),
                np.max([p[1] for p in parts], axis=0))

    lo_hi = fold(ds, part, merge)
    if lo_hi is None:
        raise ValueError("sq8_minmax: empty embedding column")
    return lo_hi


def sq8_topk(ds, vec_col: str, id_col: str, query: np.ndarray,
             query_ids: np.ndarray, *, k: int = 5, rerank_factor: int = 4):
    """Scalar-quantized (int8) cosine top-k — the MEMORY scale path
    beside IVF's compute path: uint8 codes are 4x smaller than float32
    (8x than float64), so the working set a 100-TB ANN pass streams
    through the object store shrinks by that factor, and the quantized
    corpus can be written once and re-scanned for every query batch.
    Standard SQ8 from the FAISS/ScaNN literature: per-dim affine grid
    (pass 1 = min/max census), approximate scores on dequantized codes
    (pass 2, float32 matmul + per-block partial top-(rerank*k), folded
    by the same cut per query), exact float64 rerank of the surviving
    candidate ids only (pass 3 gathers just those rows).  With
    rerank_factor*k >= corpus size the result equals brute force
    exactly; recall at practical settings is pinned by pytest against
    ``cosine_topk``."""
    lo, hi = sq8_minmax(ds, vec_col)
    scale = (hi - lo) / 255.0
    scale[scale == 0] = 1.0                       # constant dims
    Q = np.asarray(query, dtype=np.float64)
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    r = rerank_factor * k
    ref = ray.put((np.asarray(query_ids), Qn.astype(np.float32),
                   lo.astype(np.float32), scale.astype(np.float32)))

    def partial(t: pa.Table) -> pa.Table:
        qids, Qn32, lo32, sc32 = ray.get(ref)
        if t.num_rows == 0:
            return _hits([], [], [], id_col, score="approx")
        M = _matrix(t[vec_col]).astype(np.float32)
        codes = np.clip(np.rint((M - lo32) / sc32), 0, 255) \
            .astype(np.uint8)                     # the stored form
        deq = lo32 + codes.astype(np.float32) * sc32
        nrm = np.linalg.norm(deq, axis=1, keepdims=True)
        nrm[nrm == 0] = 1.0
        S = (deq / nrm) @ Qn32.T
        vids = t[id_col].to_numpy(zero_copy_only=False)
        oq, ov, oc = [], [], []
        for j, qid in enumerate(qids):
            order = np.lexsort((vids, -S[:, j]))[:r]
            oq.extend([int(qid)] * len(order))
            ov.extend(vids[order].tolist())
            oc.extend(S[order, j].astype(np.float64).tolist())
        return _hits(oq, ov, oc, id_col, score="approx")

    cand = fold(ds, partial, top_per_query(id_col, "approx", r)).to_pandas()
    cand_ids = np.unique(cand[id_col].to_numpy())
    ids_ref = ray.put(cand_ids)

    def gather(t: pa.Table) -> pa.Table:
        want = ray.get(ids_ref)
        m = np.isin(t[id_col].to_numpy(zero_copy_only=False), want)
        return t.filter(pa.array(m)).select([id_col, vec_col])

    rows = ds.map_batches(gather, batch_format="pyarrow",
                          zero_copy_batch=True).take_all()
    vids = np.array([r2[id_col] for r2 in rows], dtype=np.int64)
    V = np.stack([np.asarray(r2[vec_col], dtype=np.float64)
                  for r2 in rows]) if rows else np.zeros((0, Q.shape[1]))
    Vn = V / np.linalg.norm(V, axis=1, keepdims=True)
    out_q, out_v, out_c = [], [], []
    by_query = {qid: g[id_col].to_numpy()
                for qid, g in cand.groupby("query_id")}
    pos = {int(v): i for i, v in enumerate(vids)}
    for j, qid in enumerate(np.asarray(query_ids)):
        cids = by_query.get(int(qid), np.empty(0, np.int64))
        idx = np.array([pos[int(c)] for c in cids], dtype=np.int64)
        cos = Vn[idx] @ Qn[j]
        order = np.lexsort((cids, -cos))[:k]
        out_q.extend([int(qid)] * len(order))
        out_v.extend(cids[order].tolist())
        out_c.extend(cos[order].tolist())
    return _hits(out_q, out_v, out_c, id_col)
