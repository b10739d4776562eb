"""Dedup + similarity stages vs brute-force oracles (planted duplicates)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from autoprepad_ray.stages.dedup import (_shingle_hashes, exact_jaccard,
                                         minhash_lsh_pairs,
                                         simhash_neardup_pairs)
from autoprepad_ray.stages.embed import cosine_neardup_pairs, cosine_topk
from autoprepad_ray.stages.text import lang_id

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_with_dups():
    import pyarrow.parquet as pq
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    ids = t["doc_id"].to_pylist()
    texts = t["text"].to_pylist()
    # plant near-dups: copy first 10 docs, drop the last 2 words
    for k in range(10):
        ids.append(100000 + k)
        texts.append(" ".join(texts[k].split()[:-2]))
    return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                     "text": pa.array(texts)})


def brute_force_pairs(table: pa.Table, threshold: float) -> dict:
    ids = table["doc_id"].to_pylist()
    sh = [_shingle_hashes(t) for t in table["text"].to_pylist()]
    out = {}
    for i in range(len(ids) - 1):
        for j in range(i + 1, len(ids)):
            jac = exact_jaccard(sh[i], sh[j])
            if jac >= threshold:
                out[(min(ids[i], ids[j]), max(ids[i], ids[j]))] = jac
    return out

def test_minhash_lsh_vs_bruteforce(docs_with_dups):
    ds = rd.from_arrow(docs_with_dups).repartition(4)
    got = minhash_lsh_pairs(ds, "text", "doc_id", threshold=0.5)
    got_pairs = {(a, b): j for a, b, j in
                 zip(got["id_a"], got["id_b"], got["jaccard"])}
    exact = brute_force_pairs(docs_with_dups, 0.5)
    strong = {p for p, j in exact.items() if j >= 0.7}
    # all strong true pairs recalled; every reported pair is a true pair
    assert strong <= set(got_pairs), strong - set(got_pairs)
    for p, j in got_pairs.items():
        assert p in exact and np.isclose(j, exact[p])
    # the 10 planted dups are all strong
    planted = {(k, 100000 + k) for k in range(10)}
    assert planted <= set(got_pairs)


def test_simhash_neardups_found(docs_with_dups):
    ds = rd.from_arrow(docs_with_dups).repartition(4)
    got = simhash_neardup_pairs(ds, "text", "doc_id", max_dist=8)
    if not isinstance(got, pd.DataFrame):
        got = got.to_pandas()
    pairs = {(a, b) for a, b in zip(got["id_a"], got["id_b"])}
    found = sum((k, 100000 + k) in pairs for k in range(10))
    assert found >= 7  # simhash of near-identical texts lands within 8 bits


def test_cosine_topk_matches_numpy():
    import pyarrow.parquet as pq
    t = pq.read_table(f"{SF}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    M = np.stack([np.asarray(v, dtype=np.float64)
                  for v in t["embedding"].to_pylist()])
    ids = np.asarray(t["vec_id"].to_pylist())
    Q = M[:2]
    ds = rd.from_arrow(t).repartition(3)
    got = cosine_topk(ds, "embedding", "vec_id", Q, ids[:2], k=5).to_pandas()
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    S = Mn @ (Q / np.linalg.norm(Q, axis=1, keepdims=True)).T
    for j, qid in enumerate(ids[:2]):
        order = np.lexsort((ids, -S[:, j]))[:5]
        exp_ids = ids[order].tolist()
        got_ids = got[got["query_id"] == qid].sort_values(
            ["cos", "vec_id"], ascending=[False, True])["vec_id"].tolist()
        assert got_ids == exp_ids


def test_cosine_neardup_planted():
    import pyarrow.parquet as pq
    t = pq.read_table(f"{SF}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_pylist()
    vecs = [np.asarray(v, dtype=np.float32) for v in t["embedding"].to_pylist()]
    rng = np.random.default_rng(5)
    for k in range(10):
        ids.append(100000 + k)
        v = vecs[k]
        vecs.append(v + 0.02 * float(np.linalg.norm(v)) / np.sqrt(len(v))
                    * rng.standard_normal(len(v)).astype(np.float32))
    tbl = pa.table({"vec_id": pa.array(ids, type=pa.int64()),
                    "embedding": pa.array([v.tolist() for v in vecs],
                                          type=pa.list_(pa.float32()))})
    ds = rd.from_arrow(tbl).repartition(3)
    got = cosine_neardup_pairs(ds, "embedding", "vec_id", threshold=0.95,
                               tables=6)
    pairs = set(zip(got["id_a"], got["id_b"]))
    planted = {(k, 100000 + k) for k in range(10)}
    assert len(planted & pairs) >= 9  # >=90% recall at cos~0.999
    # no false positives: every reported pair really is >= threshold
    M = {i: v / np.linalg.norm(v.astype(np.float64))
         for i, v in zip(ids, [np.asarray(v, np.float64) for v in vecs])}
    for a, b, c in zip(got["id_a"], got["id_b"], got["cos"]):
        assert float(M[a] @ M[b]) >= 0.95 - 1e-9


def test_langid_detects_real_english():
    tbl = pa.table({
        "doc_id": pa.array([1, 2], type=pa.int64()),
        "text": pa.array(["the cat sat on the mat and it is a test of the system",
                          "xyzzy qwerty asdf"])})
    out = lang_id(rd.from_arrow(tbl)).to_pandas() \
        .sort_values("doc_id")
    assert out["lang_pred"].tolist()[0] == "en"
    assert out["lang_pred"].tolist()[1] == "und"


def test_joins_native_and_bucketed():
    from autoprepad_ray.stages.join import bucketed_join, native_join

    l = pa.table({"k": pa.array([1, 2, 2, 3], type=pa.int64()),
                  "a": pa.array([10, 20, 21, 30], type=pa.int64())})
    r = pa.table({"k": pa.array([2, 3, 4], type=pa.int64()),
                  "b": pa.array(["x", "y", "z"])})
    exp = (l.to_pandas().merge(r.to_pandas(), on="k")
           .sort_values(["k", "a"]).reset_index(drop=True))
    got_b = (bucketed_join(rd.from_arrow(l).repartition(2),
                           rd.from_arrow(r).repartition(2), "k")
             .to_pandas()
             .sort_values(["k", "a"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got_b[["k", "a", "b"]],
                                  exp[["k", "a", "b"]], check_dtype=False)
    try:
        got_n = (native_join(rd.from_arrow(l).repartition(2),
                             rd.from_arrow(r).repartition(2), "k",
                             num_partitions=2).to_pandas()
                 .sort_values(["k", "a"]).reset_index(drop=True))
        pd.testing.assert_frame_equal(got_n[["k", "a", "b"]],
                                      exp[["k", "a", "b"]],
                                      check_dtype=False)
    except Exception as e:  # pragma: no cover - version-dependent API
        pytest.skip(f"native Dataset.join unavailable/changed: {e!r}")


@pytest.mark.parametrize("how", ["left", "outer"])
def test_bucketed_join_outer_modes(how):
    from autoprepad_ray.stages.join import bucketed_join

    l = pa.table({"k": pa.array([1, 2, 2, 3, 9], type=pa.int64()),
                  "a": pa.array([10, 20, 21, 30, 90], type=pa.int64())})
    r = pa.table({"k": pa.array([2, 3, 4], type=pa.int64()),
                  "b": pa.array(["x", "y", "z"])})
    exp = (l.to_pandas().merge(r.to_pandas(), on="k", how=how)
           .sort_values(["k", "a"]).reset_index(drop=True))
    got = (bucketed_join(rd.from_arrow(l).repartition(3),
                         rd.from_arrow(r).repartition(2), "k",
                         how=how).to_pandas()
           .sort_values(["k", "a"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got[["k", "a", "b"]],
                                  exp[["k", "a", "b"]], check_dtype=False)
    if how == "outer":
        assert got["a"].isna().sum() == 1      # k=4 right-only row
    assert got["b"].isna().sum() == 2          # k=1, k=9 left-only rows


def test_ivf_topk_recall_vs_bruteforce():
    import pyarrow.parquet as pq
    from autoprepad_ray.stages.embed import cosine_topk, ivf_topk

    t = pq.read_table(f"{SF}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    M = np.stack([np.asarray(v, dtype=np.float64)
                  for v in t["embedding"].to_pylist()])
    ids = np.asarray(t["vec_id"].to_pylist())
    Q, qids = M[:4], ids[:4]
    ds = rd.from_arrow(t).repartition(3)
    exact = cosine_topk(ds, "embedding", "vec_id", Q, qids, k=5).to_pandas()
    approx = ivf_topk(ds, "embedding", "vec_id", Q, qids, k=5,
                      nlist=16, nprobe=8).to_pandas()
    recalls = []
    for qid in qids:
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        a = set(approx[approx["query_id"] == qid]["vec_id"])
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.5, recalls   # half the lists probed
    # probing every list reproduces the exact result
    full = ivf_topk(ds, "embedding", "vec_id", Q, qids, k=5,
                    nlist=16, nprobe=16).to_pandas()
    for qid in qids:
        e = list(exact[exact["query_id"] == qid]
                 .sort_values(["cos", "vec_id"],
                              ascending=[False, True])["vec_id"])
        f = list(full[full["query_id"] == qid]
                 .sort_values(["cos", "vec_id"],
                              ascending=[False, True])["vec_id"])
        assert e == f


def test_bucketed_join_keeps_allnull_column():
    """A genuinely all-null real column must survive the per-bucket merge
    (regression: null-padding was stripped by all-nullness inference)."""
    from autoprepad_ray.stages.join import bucketed_join

    l = pa.table({"k": pa.array([1, 2], type=pa.int64()),
                  "a": pa.array([None, None], type=pa.int64())})
    r = pa.table({"k": pa.array([1, 2], type=pa.int64()),
                  "b": pa.array(["x", "y"])})
    out = bucketed_join(rd.from_arrow(l), rd.from_arrow(r),
                        "k").to_pandas()
    assert len(out) == 2
    assert "a" in out.columns and out["a"].isna().all()
    assert sorted(out["b"]) == ["x", "y"]


def test_minhash_dup_heavy_clusters():
    """Dup-heavy corpus (3 clusters of 20 near-identical docs -> dense
    buckets, ~570 intra-cluster pairs): the distributed pairing + verify
    must return exactly the brute-force pair set — the regime where the
    old driver-side bucket collection was the scale flaw."""
    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(50)]
    ids, texts = [], []
    for c in range(3):
        base = " ".join(rng.choice(words, size=40))
        for k in range(20):
            # drop one word per doc -> pairwise jaccard stays >= ~0.9
            toks = base.split()
            del toks[int(rng.integers(len(toks)))]
            ids.append(c * 1000 + k)
            texts.append(" ".join(toks))
    tbl = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                    "text": pa.array(texts)})
    got = minhash_lsh_pairs(rd.from_arrow(tbl).repartition(4),
                            "text", "doc_id", threshold=0.5)
    got_pairs = {(a, b): j for a, b, j in
                 zip(got["id_a"], got["id_b"], got["jaccard"])}
    exact = brute_force_pairs(tbl, 0.5)
    assert set(got_pairs) == set(exact), \
        (len(got_pairs), len(exact))
    for p, j in got_pairs.items():
        assert np.isclose(j, exact[p])


def test_label_centroids_match_numpy():
    from autoprepad_ray.stages.embed import label_centroids

    rng = np.random.default_rng(3)
    n, d = 400, 16
    labels = rng.integers(0, 5, n).astype(np.int32)
    M = rng.normal(size=(n, d)).astype(np.float32)
    t = pa.table({"label": pa.array(labels),
                  "embedding": pa.array([row.tolist() for row in M],
                                        pa.list_(pa.float32()))})
    got = label_centroids(rd.from_arrow(t).repartition(6)).to_pandas()
    assert list(got["label"]) == [0, 1, 2, 3, 4]
    for _, row in got.iterrows():
        sel = M[labels == row["label"]].astype(np.float64)
        assert row["n"] == len(sel)
        np.testing.assert_allclose(np.array(row["centroid"]),
                                   sel.mean(axis=0), atol=1e-12)


def test_minhasher_batch_matches_perdoc_reference():
    """The vectorized batch signature path (shared gram kernel +
    reduceat segment mins + batch band fold) must emit exactly the
    per-document reference composition minhash_signature ->
    _band_hashes over _shingle_hashes."""
    from autoprepad_ray.stages.dedup import (MinHasher, _band_hashes,
                                             minhash_signature)

    texts = ["the quick brown fox jumps over the lazy dog",
             "one two", "", "single",
             "the quick brown fox jumps over the lazy cat",
             "a b c d e f g h i j k l m n o p"]
    ids = list(range(len(texts)))
    mh = MinHasher("text", "doc_id", num_perm=64, bands=16)
    got = mh(pa.table({"doc_id": pa.array(ids, pa.int64()),
                       "text": pa.array(texts)})).to_pandas()
    for i, txt in enumerate(texts):
        sh = _shingle_hashes(txt, 3)
        want = _band_hashes(minhash_signature(sh, mh.seeds), 16) \
            .view(np.int64)
        rows = got[got["doc_id"] == i].sort_values("band")
        assert rows["band_hash"].to_numpy().tolist() == want.tolist(), i


def test_label_centroids_wide_and_long_forms_equal():
    """The stage's wide list<float64> output (the real-consumer form)
    and the query's long (label, n, dim, value) explode (the
    oracle-harness form — list columns don't sort/hash there) must
    carry the same values."""
    from autoprepad_ray.pipelines.queries import label_centroids_embeddings
    from autoprepad_ray.stages.embed import label_centroids

    sf = "/root/testdata/sf0.001"
    import ray.data as rd
    wide = label_centroids(
        rd.read_parquet(f"{sf}/embeddings.parquet",
                        columns=["embedding", "label"]))
    assert wide.schema.field("centroid").type == pa.list_(pa.float64())
    long = label_centroids_embeddings(sf).to_pandas()
    for lab, n, cent, vsum in zip(wide["label"].to_pylist(),
                                  wide["n"].to_pylist(),
                                  wide["centroid"].to_pylist(),
                                  wide["vec_sum"].to_pylist()):
        sub = long[long["label"] == lab].sort_values("dim")
        assert (sub["n"] == n).all()
        # the query emits the SQL-parity form ROUND(SUM, 2)/COUNT
        # (queries.py header trick); the raw sums must also divide back
        # to the stage's centroid means exactly
        vsum = np.asarray(vsum, dtype=np.float64)
        np.testing.assert_array_equal(sub["value"].to_numpy(),
                                      np.round(vsum, 2) / n)
        np.testing.assert_array_equal(
            vsum / n, np.asarray(cent, dtype=np.float64))


def test_shingles_whitespace_run_invariant():
    """str.split() semantics (r4 review finding): whitespace RUNS and
    kinds must not change the shingle set — 'a\\tb  c' shingles like
    'a b c', so whitespace-variant near-dups keep jaccard 1.0."""
    a = _shingle_hashes("alpha beta gamma delta epsilon", 3)
    b = _shingle_hashes("alpha\tbeta  gamma\ndelta epsilon ", 3)
    np.testing.assert_array_equal(a, b)
    assert exact_jaccard(a, b) == 1.0
    # Unicode separators + the controls RE2's ASCII \s misses (NBSP,
    # NEL, VT, FS) — str.split() splits them all
    c = _shingle_hashes(
        "alpha\xa0beta\x85gamma\x0bdelta\x1cepsilon", 3)
    np.testing.assert_array_equal(a, c)


def test_embed_dedup_clusters_planted_components():
    """Every planted near-duplicate (vec_id+100000) must share its
    source vector's cluster with the source as canonical (min id);
    untouched vectors stay singletons."""
    from autoprepad_ray.pipelines.queries import embed_dedup_clusters

    out = embed_dedup_clusters("/root/testdata/sf0.001").to_pandas() \
        .set_index("vec_id")
    for k in range(10):
        assert out.loc[k + 100000, "cluster_id"] == k, k
        assert out.loc[k, "cluster_id"] == k
        assert out.loc[k, "is_canonical"] == 1
        assert out.loc[k + 100000, "is_canonical"] == 0
    singles = out.drop(index=[*range(10),
                              *[k + 100000 for k in range(10)]])
    assert (singles["cluster_id"] == singles.index).all()
    assert (singles["is_canonical"] == 1).all()


def test_sq8_topk_recall_and_exactness(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from autoprepad_ray.stages.embed import cosine_topk, sq8_topk

    rng = np.random.default_rng(11)
    n, d = 400, 16
    V = rng.normal(size=(n, d))
    ids = np.arange(n, dtype=np.int64)
    t = pa.table({"vec_id": ids,
                  "embedding": pa.array(V.tolist(),
                                        type=pa.list_(pa.float32()))})
    ds = rd.from_arrow(t).repartition(5)
    Q = rng.normal(size=(3, d))
    qids = np.array([900, 901, 902], dtype=np.int64)

    exact = cosine_topk(ds, "embedding", "vec_id", Q, qids,
                        k=5).to_pandas()
    approx = sq8_topk(ds, "embedding", "vec_id", Q, qids, k=5,
                      rerank_factor=4).to_pandas()

    ex = {q: set(g["vec_id"]) for q, g in exact.groupby("query_id")}
    ap = {q: set(g["vec_id"]) for q, g in approx.groupby("query_id")}
    recalls = [len(ex[q] & ap[q]) / 5 for q in ex]
    assert np.mean(recalls) >= 0.9          # SQ8 + 4x rerank

    # rerank_factor covering the corpus -> exactly brute force
    full = sq8_topk(ds, "embedding", "vec_id", Q, qids, k=5,
                    rerank_factor=n).to_pandas()
    for q in ex:
        assert set(full[full["query_id"] == q]["vec_id"]) == ex[q]
