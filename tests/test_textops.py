"""Decontamination / repetition-quality stage tests: brute-force string
oracles (no hashes) over synthetic docs, plus ragged edge cases."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from autoprepad_ray.stages.text import (decontaminate, eval_gram_set,
                                        word_repetition)


def _grams(text: str, n: int):
    w = text.split(" ")
    return [" ".join(w[i:i + n]) for i in range(len(w) - n + 1)]


def _mkdocs(texts):
    return rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts)})).repartition(3)


TEXTS = [
    "a b c d e f g h i j",          # 10 words
    "x y z a b c d",                # 7 words -> 4 grams at n=4
    "a b c",                        # shorter than n -> dropped
    "a b c d a b c d a b c d",      # internal repeats
    "q r s t u v w",                # disjoint
    "e f g h i j k l",              # shares a 4-gram tail with doc 0
]


@pytest.mark.parametrize("n", [2, 4])
def test_decontaminate_matches_string_bruteforce(n):
    eval_ids = {0, 5}
    docs = _mkdocs(TEXTS)
    eval_ds = docs.map_batches(
        lambda t: t.filter(pa.array(np.isin(
            t["doc_id"].to_numpy(zero_copy_only=False), list(eval_ids)))),
        batch_format="pyarrow")
    ref = eval_gram_set(eval_ds, n=n)
    got = (decontaminate(docs, ref, n=n).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))

    ev = set()
    for i in eval_ids:
        ev.update(_grams(TEXTS[i], n))
    exp_rows = []
    for i, text in enumerate(TEXTS):
        gs = _grams(text, n)
        if not gs:
            continue
        hits = sum(g in ev for g in gs)
        exp_rows.append((i, len(gs), hits, int(hits > 0)))
    exp = pd.DataFrame(exp_rows, columns=["doc_id", "n_grams", "n_hits",
                                          "contaminated"])
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_decontaminate_empty_eval_set():
    docs = _mkdocs(TEXTS[:2])
    empty = docs.map_batches(lambda t: t.slice(0, 0),
                             batch_format="pyarrow")
    ref = eval_gram_set(empty, n=3)
    got = decontaminate(docs, ref, n=3).to_pandas()
    assert (got["n_hits"] == 0).all() and (got["contaminated"] == 0).all()


def test_word_repetition_matches_pandas():
    docs = _mkdocs(TEXTS)
    got = (word_repetition(docs).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    for _, row in got.iterrows():
        w = TEXTS[int(row["doc_id"])].split(" ")
        assert row["n_words"] == len(w)
        assert row["n_distinct"] == len(set(w))
        assert row["dup_ratio"] == (len(w) - len(set(w))) / len(w)
    assert len(got) == len(TEXTS)


def test_kernels_survive_chunked_columns():
    """zero-copy batches can arrive as multi-chunk columns (the repo's
    sliced-array lesson) — both kernels must see identical results."""
    t1 = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                   "text": pa.array(TEXTS[:2])})
    t2 = pa.table({"doc_id": pa.array([2, 3], pa.int64()),
                   "text": pa.array(TEXTS[2:4])})
    chunked = pa.concat_tables([t1, t2])     # 2-chunk columns
    assert chunked["text"].num_chunks == 2
    from autoprepad_ray.stages.text import _flat_words
    w, c = _flat_words(chunked["text"])
    assert list(c) == [len(s.split(" ")) for s in TEXTS[:4]]
    assert list(w) == " ".join(TEXTS[:4]).split(" ")


def test_bm25_matches_pure_python():
    import math

    from autoprepad_ray.stages.text import bm25_scores

    docs = _mkdocs(TEXTS)
    terms = ["a", "b", "q"]
    got = (bm25_scores(docs, terms).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))

    toks = [t.split(" ") for t in TEXTS]
    n = len(toks)
    avgdl = sum(len(w) for w in toks) / n
    k1, b = 1.2, 0.75
    for i, w in enumerate(toks):
        s = 0.0
        for term in terms:
            df = sum(term in ws for ws in toks)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            tf = w.count(term)
            s += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(w) / avgdl))
        assert abs(got.loc[i, "bm25"] - round(s, 6)) < 1e-9, (i, s)
    # ranking sanity: docs with query terms outrank the one with none
    assert got.loc[5, "bm25"] == 0.0
    assert (got.loc[[0, 1, 2, 3, 4], "bm25"] > 0).all()


def test_gram_hashes_respect_doc_boundaries_property():
    """Property: the batch kernel over many docs equals per-doc calls —
    no gram ever crosses a document boundary, counts are exact."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from autoprepad_ray.stages.text import _flat_words, _gram_hashes

    word = st.text(alphabet="abcxyz", min_size=1, max_size=3)
    doc = st.lists(word, min_size=1, max_size=12).map(" ".join)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(doc, min_size=1, max_size=6), st.integers(2, 4))
    def inner(texts, n):
        batch = pa.array(texts)
        w, c = _flat_words(batch)
        didx, grams, gpd = _gram_hashes(w, c, n)
        per_doc = []
        for t in texts:
            wi, ci = _flat_words(pa.array([t]))
            _, gi, _ = _gram_hashes(wi, ci, n)
            per_doc.append(gi)
        exp = np.concatenate(per_doc) if per_doc else np.empty(0)
        assert list(gpd) == [max(len(t.split(" ")) - n + 1, 0)
                             for t in texts]
        np.testing.assert_array_equal(grams, exp)
        np.testing.assert_array_equal(
            didx, np.repeat(np.arange(len(texts)), gpd))

    inner()


def test_gram_hashes_short_doc_mode_property():
    """Property (short_doc_gram=True, the MinHash shingling mode): the
    batch kernel equals per-doc calls; a doc with 0 < k < n words gets
    exactly ONE gram, equal to the default kernel's n-gram with n = k
    over that doc; docs with >= n words are byte-identical to the
    default mode."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from autoprepad_ray.stages.text import _flat_words, _gram_hashes

    word = st.text(alphabet="abcxyz", min_size=1, max_size=3)
    doc = st.lists(word, min_size=1, max_size=10).map(" ".join)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(doc, min_size=1, max_size=6), st.integers(2, 4))
    def inner(texts, n):
        batch = pa.array(texts)
        w, c = _flat_words(batch)
        didx, grams, gpd = _gram_hashes(w, c, n, short_doc_gram=True)
        exp_grams, exp_gpd = [], []
        for t in texts:
            wi, ci = _flat_words(pa.array([t]))
            k = len(t.split(" "))
            _, gi, _ = _gram_hashes(wi, ci, n if k >= n else k)
            exp_grams.append(gi)
            exp_gpd.append(len(gi))
        np.testing.assert_array_equal(
            grams, np.concatenate(exp_grams) if exp_grams
            else np.empty(0))
        assert list(gpd) == exp_gpd
        np.testing.assert_array_equal(
            didx, np.repeat(np.arange(len(texts)), gpd))

    inner()


def test_chunk_documents_coverage_and_overlap():
    """Chunker invariants: every character covered, consecutive chunks
    overlap by size-step, chunk k starts at k*step, empty/short docs
    emit exactly one chunk, and reassembly reproduces the document."""
    import ray.data as rd

    from autoprepad_ray.stages.text import chunk_documents

    docs = {
        1: "a" * 577,          # bench-scale max length
        2: "xy",               # shorter than overlap -> one chunk
        3: "",                 # empty -> one empty chunk
        4: "b" * 200,          # exactly one window
        5: "c" * 201,          # one char past -> two chunks
        6: "".join(chr(97 + i % 26) for i in range(350)),
    }
    t = pa.table({"doc_id": pa.array(list(docs), type=pa.int64()),
                  "text": pa.array(list(docs.values()))})
    out = chunk_documents(rd.from_arrow(t).repartition(3),
                          size=200, step=150).to_pandas() \
        .sort_values(["doc_id", "chunk_id"])
    for did, text in docs.items():
        sub = out[out["doc_id"] == did]
        n_exp = (max(len(text) - 50, 1) + 149) // 150
        assert len(sub) == n_exp, (did, len(sub), n_exp)
        assert sub["chunk_id"].tolist() == list(range(n_exp))
        rebuilt = ""
        for k, chunk in zip(sub["chunk_id"], sub["chunk"]):
            assert chunk == text[k * 150:k * 150 + 200]
            rebuilt = rebuilt[:k * 150] + chunk
        assert rebuilt == text


def test_bpe_token_counts_vs_re():
    """RE2 pattern count == Python re.findall count on mixed text."""
    import re

    import ray.data as rd

    from autoprepad_ray.stages.text import (BPE_TOKEN_PATTERN,
                                            bpe_token_counts)

    texts = ["the quick, brown fox's 42 jumps!!", "", "  ", "a1b2c3",
             "don't stop-me now... (ok?)", "tab\tand\nnewline end "]
    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": pa.array(texts)})
    out = bpe_token_counts(rd.from_arrow(t)).to_pandas() \
        .sort_values("doc_id")
    pat = re.compile(BPE_TOKEN_PATTERN)
    for txt, n in zip(texts, out["n_tokens"]):
        assert n == len(pat.findall(txt)), (txt, n)


def test_chunk_table_property_vs_python_reference():
    """Hypothesis: the vectorized chunk kernel == a per-doc Python
    reference for random texts (incl. unicode) and random size/step."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from autoprepad_ray.stages.text import _chunk_table

    txt = st.text(alphabet="ab éλ\n", max_size=60)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(txt, min_size=0, max_size=6),
           st.integers(1, 12), st.integers(1, 12))
    def inner(texts, step, extra):
        size = step + extra % (step + 3)      # 0 <= overlap < step+3
        t = pa.table({"doc_id": pa.array(range(len(texts)),
                                         type=pa.int64()),
                      "text": pa.array(texts, type=pa.string())})
        got = _chunk_table(t, size, step, "text", "doc_id").to_pandas()
        exp = []
        overlap = size - step
        for d, s in enumerate(texts):
            n = -(-max(len(s) - overlap, 1) // step)
            for k in range(n):
                exp.append((d, k, s[k * step:k * step + size]))
        got_t = sorted(zip(got["doc_id"], got["chunk_id"], got["chunk"]))
        assert got_t == sorted(exp)

    inner()


def test_gopher_quality_matches_pure_python():
    from autoprepad_ray.stages.text import gopher_quality

    texts = [
        "the cat sat of the mat and went to sleep now",   # 11 words, keeps
        "a b c d e f g h i j k l",                        # mean len 1 -> drop
        "only four words here",                           # < min_words
        "the longwordhere of extraordinarily and to " * 3,
    ]
    texts[3] = texts[3].strip()
    docs = _mkdocs(texts)
    got = (gopher_quality(docs, min_words=5).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))

    stop = {"the", "a", "of", "and", "to"}
    for i, txt in enumerate(texts):
        w = txt.split(" ")
        n = len(w)
        sum_len = sum(len(x) for x in w)
        alpha = sum(any(c.isascii() and c.isalpha() for c in x) for x in w)
        hits = sum(x in stop for x in w)
        keep = int(5 <= n <= 100_000 and 3 * n <= sum_len <= 10 * n
                   and 10 * alpha >= 8 * n and hits >= 2)
        row = got.loc[i]
        assert (row["n_words"], row["sum_word_len"], row["alpha_words"],
                row["stop_hits"], row["keep_flag"]) == \
            (n, sum_len, alpha, hits, keep), (i, txt)
    assert got["keep_flag"].tolist() == [1, 0, 0, 1]
    assert all(got[c].dtype == np.int64 for c in got.columns if c != "text")


def test_unigram_logprob_matches_pure_python():
    import math

    from autoprepad_ray.stages.text import unigram_logprob

    docs = _mkdocs(TEXTS)
    got = (unigram_logprob(docs).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))

    allw = [w for t in TEXTS for w in t.split(" ")]
    total = len(allw)
    cf = {w: allw.count(w) for w in set(allw)}
    for i, t in enumerate(TEXTS):
        w = t.split(" ")
        s = 0.0
        for x in w:          # sequential, document order (engine mirrors)
            s += math.log(cf[x] / total)
        assert abs(got.loc[i, "logprob"] - round(s / len(w), 6)) < 1e-9, i
    # rare-word doc scores lower than common-word doc
    assert got["logprob"].between(-15, 0).all()


def test_ngram_repetition_matches_pure_python():
    from autoprepad_ray.stages.text import ngram_repetition

    texts = TEXTS + ["one", "a b a b a b a b"]
    docs = _mkdocs(texts)
    for n in (2, 3):
        got = (ngram_repetition(docs, n=n).to_pandas()
               .sort_values("doc_id").reset_index(drop=True))
        for i, txt in enumerate(texts):
            w = txt.split(" ")
            grams = [" ".join(w[j:j + n]) for j in range(len(w) - n + 1)]
            exp_n, exp_d = len(grams), len(set(grams))
            row = got.loc[i]
            assert (row["n_grams"], row["n_distinct"]) == (exp_n, exp_d), \
                (n, i, txt)
            exp_ratio = (exp_n - exp_d) / max(exp_n, 1)
            assert row["dup_ratio"] == exp_ratio
    # the pure-repeat doc is caught hard at n=2: 7 grams, 2 distinct
    rep = got.iloc[-1]  # n=3 loop state: 6 grams, 2 distinct
    assert rep["n_grams"] == 6 and rep["n_distinct"] == 2


def test_ngram_repetition_rejects_unigram():
    import pytest as _pytest

    from autoprepad_ray.stages.text import ngram_repetition

    with _pytest.raises(ValueError):
        ngram_repetition(_mkdocs(TEXTS), n=1)


def test_source_mixture_weights_matches_pure_python():
    import math

    import pyarrow as _pa
    import ray.data as _rd

    from autoprepad_ray.stages.text import source_mixture_weights

    texts = ["a b c", "d e", "f", "g h i j", "k l"]
    srcs = ["web", "web", "books", "books", "code"]
    ds = _rd.from_arrow(_pa.table({
        "text": _pa.array(texts), "source": _pa.array(srcs)})) \
        .repartition(3)
    got = source_mixture_weights(ds).sort_values("source") \
        .reset_index(drop=True)

    words = {}
    docs = {}
    for t, s in zip(texts, srcs):
        words[s] = words.get(s, 0) + len(t.split(" "))
        docs[s] = docs.get(s, 0) + 1
    order = sorted(words)
    z = 0.0
    for s in order:
        z += math.sqrt(words[s])
    for i, s in enumerate(order):
        row = got.loc[i]
        assert row["source"] == s
        assert row["n_docs"] == docs[s] and row["n_words"] == words[s]
        assert row["weight"] == round(math.sqrt(words[s]) / z, 6)
    assert abs(got["weight"].sum() - 1.0) < 1e-5


def test_token_drift_matches_pure_python():
    import pyarrow as _pa
    import ray.data as _rd

    from autoprepad_ray.stages.text import token_drift_by_source

    texts = ["a a a b", "a b c", "c c c c", "a b", "b b c"]
    srcs = ["s1", "s1", "s2", "s2", "s3"]
    ds = _rd.from_arrow(_pa.table({
        "text": _pa.array(texts), "source": _pa.array(srcs)})) \
        .repartition(2)
    got = (token_drift_by_source(ds).sort_values("source")
           .reset_index(drop=True))

    from collections import Counter
    allw = Counter(w for t in texts for w in t.split(" "))
    terms = sorted(allw)
    gtot = sum(allw.values())
    per = {}
    for t, s in zip(texts, srcs):
        per.setdefault(s, Counter()).update(t.split(" "))
    for i, s in enumerate(sorted(per)):
        stot = sum(per[s].values())
        tvd = 0.5 * sum(abs(per[s][x] / stot - allw[x] / gtot)
                        for x in terms)
        assert got.loc[i, "source"] == s
        assert abs(got.loc[i, "tvd"] - round(tvd, 6)) < 1e-9, s
    assert got["tvd"].between(0.0, 1.0).all()


def test_dup_doc_ratio_planted_duplicates():
    import pyarrow as _pa
    import ray.data as _rd

    from autoprepad_ray.stages.text import dup_doc_ratio_by_source

    texts = ["same doc", "same doc", "unique one", "same doc",
             "other dup", "other dup", "solo"]
    srcs = ["s1", "s1", "s1", "s2", "s2", "s3", "s3"]
    ds = _rd.from_arrow(_pa.table({
        "text": _pa.array(texts), "source": _pa.array(srcs)})) \
        .repartition(3)
    got = (dup_doc_ratio_by_source(ds).sort_values("source")
           .reset_index(drop=True))
    # s1: 2/3 dup ("same doc" x2); s2: both rows dup (one cross-source
    # "same doc", one "other dup"); s3: 1/2 dup
    assert got["n_docs"].tolist() == [3, 2, 2]
    assert got["n_dup_docs"].tolist() == [2, 2, 1]
    assert got["dup_ratio"].tolist() == [2 / 3, 1.0, 0.5]


def test_dup_doc_ratio_no_duplicates():
    import pyarrow as _pa
    import ray.data as _rd

    from autoprepad_ray.stages.text import dup_doc_ratio_by_source

    ds = _rd.from_arrow(_pa.table({
        "text": _pa.array([f"doc number {i}" for i in range(10)]),
        "source": _pa.array(["a", "b"] * 5)})).repartition(4)
    got = dup_doc_ratio_by_source(ds)
    assert got["n_dup_docs"].tolist() == [0, 0]
    assert got["dup_ratio"].tolist() == [0.0, 0.0]


def test_vocab_jaccard_matches_pure_python():
    import pyarrow as _pa
    import ray.data as _rd

    from autoprepad_ray.stages.text import vocab_jaccard_source_pairs

    texts = ["a b c", "b c d", "c d e f", "x y", "a b c d e"]
    srcs = ["s1", "s1", "s2", "s2", "s3"]
    ds = _rd.from_arrow(_pa.table({
        "text": _pa.array(texts), "source": _pa.array(srcs)})) \
        .repartition(2)
    got = (vocab_jaccard_source_pairs(ds)
           .sort_values(["source_a", "source_b"]).reset_index(drop=True))

    vocab = {}
    for t, s in zip(texts, srcs):
        vocab.setdefault(s, set()).update(t.split(" "))
    keys = sorted(vocab)
    rows = [(a, b, len(vocab[a] & vocab[b]), len(vocab[a] | vocab[b]))
            for i, a in enumerate(keys) for b in keys[i + 1:]]
    assert len(got) == len(rows)
    for i, (a, b, ni, nu) in enumerate(rows):
        r = got.loc[i]
        assert (r["source_a"], r["source_b"]) == (a, b)
        assert (r["n_inter"], r["n_union"]) == (ni, nu)
        assert r["jaccard"] == ni / nu


def test_token_budget_resample_invariants():
    import pyarrow as _pa
    import ray.data as _rd

    from autoprepad_ray.functions.sampling import split_code
    from autoprepad_ray.stages.text import token_budget_resample

    # big source (many tokens) vs small source (few): only big thins
    texts = (["w " * 19 + "w"] * 8          # 20 words x 8 docs = 160
             + ["x y"] * 4)                 # 2 words x 4 docs = 8
    srcs = ["big"] * 8 + ["small"] * 4
    ids = list(range(12))
    ds = _rd.from_arrow(_pa.table({
        "doc_id": _pa.array(ids, _pa.int64()),
        "text": _pa.array(texts),
        "source": _pa.array(srcs)})).repartition(3)
    got = (token_budget_resample(ds).sort_values("source")
           .reset_index(drop=True))

    tw, ns = 168, 2
    cut_big = min(1000, tw * 1000 // (2 * ns * 160))   # 525
    cut_small = min(1000, tw * 1000 // (2 * ns * 8))   # 1000: keep all
    assert got["cut"].tolist() == [cut_big, cut_small]
    assert got.loc[1, "n_kept"] == 4                   # small keeps all
    # big keeps exactly the ids whose split hash clears its cut
    exp_big = sum(int(split_code(__import__("numpy").array([i]))[0]
                      < cut_big) for i in range(8))
    assert got.loc[0, "n_kept"] == exp_big
    assert got.loc[0, "words_kept"] == 20 * exp_big
    # rows mode agrees with the summary
    rows = token_budget_resample(ds, output="rows").to_pandas()
    assert len(rows) == got["n_kept"].sum()
    # deterministic: a rerun keeps the identical id set
    rows2 = token_budget_resample(ds, output="rows").to_pandas()
    assert sorted(rows["doc_id"]) == sorted(rows2["doc_id"])


def test_corpus_assembly_funnel_planted():
    import pyarrow as _pa
    import ray.data as _rd

    from autoprepad_ray.functions.sampling import split_code
    from autoprepad_ray.stages.text import corpus_assembly_funnel

    good = ("the cat sat of the mat and the dog ran to the big house "
            "with many windows")                        # passes quality
    ds_rows = [
        (0, "s1", good),                                # canonical dup
        (1, "s1", good),                                # removed (same text)
        (2, "s2", good),                                # removed cross-source
        (3, "s2", "too short"),                         # fails quality
        (4, "s2", good + " extra word here now ok"),    # unique survivor
        (5, "s3", "a b c d e f g h i j k l"),           # mean len 1: fails
    ]
    ds = _rd.from_arrow(_pa.table({
        "doc_id": _pa.array([r[0] for r in ds_rows], _pa.int64()),
        "source": _pa.array([r[1] for r in ds_rows]),
        "text": _pa.array([r[2] for r in ds_rows])})).repartition(3)
    got = (corpus_assembly_funnel(ds).sort_values("source")
           .reset_index(drop=True))

    assert got["n_raw"].tolist() == [2, 3, 1]
    assert got["n_quality"].tolist() == [2, 2, 0]
    # dup group {0,1,2}: min id 0 (s1) wins; s1 loses 1, s2 loses 1
    assert got["n_dedup"].tolist() == [1, 1, 0]
    # budget: w_dedup = [17, 22]; tw=39, ns=2 live sources
    cut_s1 = min(1000, 39 * 1000 // (2 * 2 * 17))
    cut_s2 = min(1000, 39 * 1000 // (2 * 2 * 22))
    assert got["cut"].tolist() == [cut_s1, cut_s2, 0]
    import numpy as _np
    exp_final = [int(split_code(_np.array([0]))[0] < cut_s1),
                 int(split_code(_np.array([4]))[0] < cut_s2), 0]
    assert got["n_final"].tolist() == exp_final


def test_quality_parts_property_vs_python():
    """Property: the batched Arrow quality kernel equals a per-doc pure
    Python computation on arbitrary word soups (incl. empty strings,
    stopwords, non-alpha tokens)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from autoprepad_ray.stages.text import _quality_parts

    word = st.text(alphabet="ab9#.", min_size=0, max_size=4)
    doc = st.lists(word, min_size=1, max_size=8).map(" ".join)
    stop_arr = pa.array(["a", "ab"])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(doc, min_size=1, max_size=6))
    def inner(texts):
        counts, sum_len, alpha_w, stop_h = _quality_parts(
            pa.array(texts), stop_arr)
        for i, t in enumerate(texts):
            w = t.split(" ")
            assert counts[i] == len(w)
            assert sum_len[i] == sum(len(x) for x in w)
            assert alpha_w[i] == sum(
                any(c.isalpha() and c.isascii() for c in x) for x in w)
            assert stop_h[i] == sum(x in ("a", "ab") for x in w)

    inner()


def test_ngram_repetition_property_vs_python():
    """Property: the sliced-join bigram kernel equals per-doc Python
    n-gramming for arbitrary docs (boundary safety, single-word docs,
    repeated words)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from autoprepad_ray.stages.text import ngram_repetition

    word = st.text(alphabet="xyz", min_size=1, max_size=2)
    doc = st.lists(word, min_size=1, max_size=7).map(" ".join)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(doc, min_size=1, max_size=5), st.integers(2, 3))
    def inner(texts, n):
        ds = _mkdocs(texts)
        got = (ngram_repetition(ds, n=n).to_pandas()
               .sort_values("doc_id").reset_index(drop=True))
        for i, t in enumerate(texts):
            w = t.split(" ")
            grams = [" ".join(w[j:j + n]) for j in range(len(w) - n + 1)]
            assert got.loc[i, "n_grams"] == len(grams)
            assert got.loc[i, "n_distinct"] == len(set(grams))

    inner()


def test_source_folds_when_a_block_keeps_nothing():
    """A block whose rows all fail the quality gate contributes empty
    per-source partials to every pass; the per-source folds give the
    one-block answer on any block layout."""
    from autoprepad_ray.stages.text import (corpus_assembly_funnel,
                                            token_budget_resample)

    good = ("the cat sat of the mat and the dog ran to the big house "
            "with many windows")
    t = pa.table({
        "doc_id": pa.array(range(8), pa.int64()),
        "source": pa.array(["s1", "s2"] * 4),
        "text": pa.array(["too short"] * 4
                         + [good, good + " and more", good + " x",
                            good + " y z"])})
    split = rd.from_arrow([t.slice(0, 4), t.slice(4, 0), t.slice(4)])
    for fn in (corpus_assembly_funnel, token_budget_resample):
        pd.testing.assert_frame_equal(fn(split), fn(rd.from_arrow(t)))
    assert corpus_assembly_funnel(split)["n_quality"].tolist() == [2, 2]


# ---------------------------------------------------------------------------
# normalize_text + length_quantile_filter (r5 session-5)


def test_normalize_text_rules():
    from autoprepad_ray.stages.text import normalize_text
    texts = ["  Hello,   WORLD!! 123  ", "a-b_c", "", "ALL CAPS",
             None, "already clean"]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string())})).repartition(2)
    got = normalize_text(ds).to_pandas().sort_values("doc_id")
    assert list(got["norm_text"]) == [
        "hello world 123", "abc", "", "all caps", None, "already clean"]
    # n_norm_chars matches the normalized string, null stays null
    assert got["n_norm_chars"].tolist()[:4] == [15, 3, 0, 8]
    assert pd.isna(got["n_norm_chars"].iloc[4])


def test_length_quantile_filter_vs_numpy():
    from autoprepad_ray.stages.text import length_quantile_filter
    rng = np.random.default_rng(5)
    srcs, texts = [], []
    for s, lo, hi in [("a", 3, 40), ("b", 1, 8)]:
        for i in range(60):
            k = int(rng.integers(lo, hi))
            srcs.append(s)
            texts.append(" ".join(["w"] * k))
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "source": pa.array(srcs), "text": pa.array(texts)})) \
        .repartition(5)
    got = length_quantile_filter(ds, q=0.9).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    nw = np.array([len(t.split(" ")) for t in texts], dtype=np.int64)
    for s in ("a", "b"):
        m = np.array(srcs) == s
        cut = round(float(np.percentile(nw[m], 90)), 6)
        sub = got[got["source"] == s]
        assert (sub["cutoff"] == cut).all()
        np.testing.assert_array_equal(
            sub["keep_flag"].to_numpy(),
            (nw[m].astype(np.float64) <= cut).astype(np.int64))


def test_prefix_dup_flags_bruteforce():
    from autoprepad_ray.stages.dedup import prefix_dup_flags
    rng = np.random.default_rng(3)
    base = ["a b c d e", "a b c", "a b", "x y z", "x y z w",
            "q", "q r s", "zz", "a b c d e", "a b c"]  # dups of dups
    # add random texts, some prefix pairs spanning shuffle boundaries
    vocab = list("abcdef")
    for _ in range(40):
        k = int(rng.integers(1, 8))
        base.append(" ".join(rng.choice(vocab, k)))
    rng.shuffle(base)
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(base)), pa.int64()),
        "text": pa.array(base)})).repartition(7)
    got = prefix_dup_flags(ds).to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    exp = np.array([int(any(s != t and s.startswith(t) and len(s) > len(t)
                            for s in base)) for t in base], dtype=np.int64)
    np.testing.assert_array_equal(got["prefix_dup"].to_numpy(), exp)


@pytest.mark.parametrize("blocks,flags", [
    # one text spanning every block, then its extension
    ([["same text"] * 6] * 5 + [["same text plus more"]], [1] * 30 + [0]),
    # block 1 holds only block 0's last text "b" and block 2 starts with
    # it: the successor of "b" is block 2's SECOND distinct text
    ([["a", "b"], ["b", "b"], ["b", "bc", "z"]], [0, 1, 1, 1, 1, 0, 0]),
    # a final run spanning blocks has no successor
    ([["y", "yy"], ["yy"], ["yy"]], [1, 0, 0, 0]),
], ids=["mega_run", "second_distinct", "final_run"])
def test_prefix_dup_single_run_spanning_blocks(blocks, flags, monkeypatch):
    """Runs that span sorted blocks.  Ray's sort keeps equal keys in one
    block, so the scan's sort hands back the given sorted layout."""
    from autoprepad_ray.stages.dedup import prefix_dup_flags
    texts = [x for b in blocks for x in b]
    starts = np.cumsum([0] + [len(b) for b in blocks])
    laid_out = rd.from_arrow([pa.table({
        "doc_id": pa.array(range(s, s + len(b)), pa.int64()),
        "text": pa.array(b)}) for s, b in zip(starts, blocks)])
    monkeypatch.setattr(rd.Dataset, "sort", lambda self, *a, **k: laid_out)
    got = prefix_dup_flags(rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts)}))).to_pandas().sort_values("doc_id")
    assert got["prefix_dup"].tolist() == flags


def test_prefix_dup_null_and_empty_texts():
    from autoprepad_ray.stages.dedup import prefix_dup_flags
    texts = [None, "", "a b", "a b c", "zz"]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string())})).repartition(3)
    got = prefix_dup_flags(ds).to_pandas().sort_values("doc_id")
    # null -> "" which is a strict prefix of any non-empty text
    assert got["prefix_dup"].tolist() == [1, 1, 1, 0, 0]


def test_elementwise_starts_with_hypothesis():
    from hypothesis import given, settings, strategies as st

    from autoprepad_ray.functions.strings import elementwise_starts_with

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.text(alphabet="abé中 ", max_size=8),
        st.text(alphabet="abé中 ", max_size=8)), max_size=20))
    def check(pairs):
        p = np.array([a for a, _ in pairs], dtype=object)
        s = np.array([b for _, b in pairs], dtype=object)
        got = elementwise_starts_with(p, s)
        exp = np.array([b.startswith(a) for a, b in pairs], dtype=bool)
        np.testing.assert_array_equal(got, exp)

    check()


def test_ngram_strings_hypothesis():
    """The shared gram-string kernel vs a per-doc Python reference:
    doc-boundary safety, short docs, empty docs, any n."""
    from hypothesis import given, settings, strategies as st

    from autoprepad_ray.stages.text import _ngram_strings

    word = st.text(alphabet="abc", min_size=1, max_size=3)
    doc = st.lists(word, max_size=6).map(" ".join)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(doc, max_size=8), st.integers(min_value=2, max_value=4))
    def check(docs, n):
        grams, doc_idx, gpd = _ngram_strings(pa.array(docs, pa.string()), n)
        exp_grams, exp_idx, exp_gpd = [], [], []
        for i, d in enumerate(docs):
            w = d.split(" ")
            g = [" ".join(w[j:j + n]) for j in range(len(w) - n + 1)]
            exp_grams += g
            exp_idx += [i] * len(g)
            exp_gpd.append(max(len(w) - (n - 1), 0))
        assert grams.to_pylist() == exp_grams
        np.testing.assert_array_equal(doc_idx, np.array(exp_idx, np.int64))
        np.testing.assert_array_equal(gpd, np.array(exp_gpd, np.int64))

    check()


def test_term_census_matches_counter():
    from collections import Counter

    from autoprepad_ray.stages.text import term_census
    texts = ["a b a", "b c", "", "c c c", "a"]
    ds = rd.from_arrow(pa.table({"text": pa.array(texts)})).repartition(3)
    terms, cnts = term_census(ds)
    exp = Counter(w for t in texts for w in t.split(" "))
    assert dict(zip(terms, cnts)) == dict(exp)
    assert list(terms) == sorted(terms)


def test_elementwise_starts_with_strict():
    from autoprepad_ray.functions.strings import elementwise_starts_with
    p = np.array(["ab", "ab", ""], dtype=object)
    s = np.array(["ab", "abc", ""], dtype=object)
    np.testing.assert_array_equal(
        elementwise_starts_with(p, s), [True, True, True])
    np.testing.assert_array_equal(
        elementwise_starts_with(p, s, strict=True), [False, True, False])
