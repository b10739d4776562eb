"""Exactness tests for the char-n-gram Jaccard similarity join
(``stages.textjoin``): brute-force oracles pin the prefix + positional
filters (no false negatives) and the bitmap verify (exact floats)."""

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from autoprepad_ray.stages import transport
from autoprepad_ray.stages.textjoin import doc_gram_sets, ngram_jaccard_pairs

SF = "/root/testdata/sf0.001"


def _ref_grams(s: str, n: int = 8) -> set:
    return {s[i:i + n] for i in range(len(s) - n + 1)}


def _brute_pairs(ids, texts, threshold, n=8) -> list[tuple]:
    gs = [_ref_grams(t or "", n) for t in texts]
    out = []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            c = len(gs[i] & gs[j])
            u = len(gs[i]) + len(gs[j]) - c
            if u and c / u >= threshold:
                a, b = sorted((ids[i], ids[j]))
                out.append((a, b, c / u))
    return sorted(out)


def _engine_pairs(ids, texts, threshold, n=8) -> list[tuple]:
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(ids, pa.int64()),
                                 "text": texts}))
    out = ngram_jaccard_pairs(ds, "text", "doc_id", n=n,
                              threshold=threshold)
    return sorted(zip(out.id_a.tolist(), out.id_b.tolist(),
                      out.jaccard.tolist()))


def test_doc_gram_sets_matches_python_reference():
    texts = ["abcdefghij", "", "short", "abcdefgh", None,
             "aaaaaaaaaaaa", "xyxyxyxyxyxyxy"]
    arr = pa.chunked_array([texts[:3], texts[3:]], type=pa.string())
    sizes, doc, codes = doc_gram_sets(arr, 8)
    off = np.r_[0, np.cumsum(sizes)]
    for i, t in enumerate(texts):
        ref = _ref_grams(t or "")
        assert sizes[i] == len(ref)
        got = {int(c) for c in codes[off[i]:off[i + 1]]}
        exp = {int.from_bytes(g.encode(), "big") for g in ref}
        assert got == exp


def test_doc_gram_sets_honors_sliced_input():
    # offset-sliced arrays are the documented pyarrow hazard (CLAUDE.md)
    base = pa.array(["padpadpadpad", "abcdefghi", "abcdefghz"])
    sliced = base.slice(1, 2)
    sizes, _, codes = doc_gram_sets(sliced, 8)
    assert sizes.tolist() == [2, 2]
    assert {int(c) for c in codes[:2]} == {
        int.from_bytes(b"abcdefgh", "big"), int.from_bytes(b"bcdefghi", "big")}


def test_ngram_jaccard_exact_vs_bruteforce_sf0001(ray_session):
    import pyarrow.parquet as pq
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    ids = t["doc_id"].to_pylist()
    texts = t["text"].to_pylist()
    exp = _brute_pairs(ids, texts, 0.8)
    ds = rd.read_parquet(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"])
    out = ngram_jaccard_pairs(ds, "text", "doc_id", threshold=0.8)
    got = list(zip(out.id_a.tolist(), out.id_b.tolist(),
                   out.jaccard.tolist()))
    assert got == exp          # ids AND bit-exact float jaccard


def test_ngram_jaccard_randomized_adversarial(ray_session, monkeypatch):
    """Low-diversity corpora (tiny vocab) maximize background gram
    sharing — the regime where a buggy prefix/positional filter would
    drop true pairs.  Exact match vs brute force at two thresholds, on
    8 gram slices."""
    monkeypatch.setattr(transport, "default_num_parts", lambda: 8)
    vocab = ["spark", "sort", "scan", "agg", "row", "col", "key", "map"]
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        texts = [" ".join(rng.choice(vocab, rng.integers(6, 40)))
                 for _ in range(80)]
        # planted near-dups: single-word substitutions
        for k in range(0, 80, 9):
            w = texts[k].split(" ")
            w[rng.integers(0, len(w))] = str(rng.choice(vocab))
            texts.append(" ".join(w))
        ids = list(range(len(texts)))
        for thr in (0.5, 0.8):
            assert _engine_pairs(ids, texts, thr) == \
                _brute_pairs(ids, texts, thr), (seed, thr)


def test_ngram_jaccard_short_and_null_docs(ray_session, monkeypatch):
    monkeypatch.setattr(transport, "default_num_parts", lambda: 8)
    texts = ["tiny", None, "", "exactly8", "exactly8", "exactly8x"]
    ids = [10, 20, 30, 40, 50, 60]
    got = _engine_pairs(ids, texts, 0.5)
    exp = _brute_pairs(ids, texts, 0.5)
    assert got == exp
    assert (40, 50, 1.0) in got          # identical single-gram docs
