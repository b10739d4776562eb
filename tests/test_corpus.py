"""Resumable text-corpus audit runner: checkpoint/resume semantics and
count parity with the one-shot stages."""

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from autoprepad_ray.pipelines.corpus import discover_shards, run_text_audit

TEXTS = [
    "the quick brown fox jumps over the lazy dog end",
    "pack my box with five dozen liquor jugs now then",
    "a b c d e f g h i j k l",
    "the quick brown fox jumps over the lazy dog end",   # dup of doc 0
]


@pytest.fixture()
def corpus_dir(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    for s in range(3):
        ids = np.arange(s * 100, s * 100 + len(TEXTS), dtype=np.int64)
        pq.write_table(pa.table({"doc_id": pa.array(ids),
                                 "text": pa.array(TEXTS)}),
                       docs / f"shard{s}.parquet")
    return str(docs)


def test_discover_shards_modes(corpus_dir, tmp_path):
    assert len(discover_shards(corpus_dir)) == 3
    one = os.path.join(corpus_dir, "shard0.parquet")
    assert discover_shards(one) == {"shard0": one}
    assert len(discover_shards(os.path.join(corpus_dir, "*.parquet"))) == 3
    with pytest.raises(FileNotFoundError):
        discover_shards(str(tmp_path / "empty_glob_*.parquet"))


def test_run_audit_counts_and_resume(corpus_dir, tmp_path, ray_session):
    out = str(tmp_path / "audit")
    # self-eval slice = doc_id % 97 == 0 -> exactly doc_id 0 (TEXTS[0]);
    # so TEXTS[0] and its dup (doc 3 of every shard) are contaminated
    m1 = run_text_audit(corpus_dir, out, ngram=4)
    assert sorted(m1["runs"][-1]["pending"]) == ["shard0", "shard1",
                                                 "shard2"]

    shard0 = pq.read_table(
        os.path.join(out, "shards", "shard=shard0", "audit.parquet")
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(shard0.columns) == ["doc_id", "n_words", "n_distinct",
                                    "dup_ratio", "n_grams", "n_hits",
                                    "contaminated"]
    # doc 0 is an eval doc -> contaminated; doc 3 duplicates doc 0 ->
    # contaminated; docs 1,2 share no 4-gram with the eval slice
    assert list(shard0["contaminated"]) == [1, 0, 0, 1]
    assert shard0.loc[0, "n_words"] == 10
    assert shard0.loc[0, "n_distinct"] == 9          # 'the' repeats
    # verdict json mirrors the parquet
    with open(os.path.join(out, "shards", "shard=shard0",
                           "audit.json")) as f:
        v = json.load(f)
    assert v["n_docs"] == 4 and v["contaminated_docs"] == 2

    # resume: nothing pending on a second run
    m2 = run_text_audit(corpus_dir, out, ngram=4)
    assert m2["runs"][-1]["pending"] == []

    # delete one shard's checkpoint -> exactly that shard re-runs
    shutil.rmtree(os.path.join(out, "shards", "shard=shard1"))
    m3 = run_text_audit(corpus_dir, out, ngram=4)
    assert m3["runs"][-1]["pending"] == ["shard1"]

    # changing the ngram changes the eval fingerprint -> full re-run
    m4 = run_text_audit(corpus_dir, out, ngram=3)
    assert sorted(m4["runs"][-1]["pending"]) == ["shard0", "shard1",
                                                 "shard2"]


def test_explicit_eval_docs(corpus_dir, tmp_path, ray_session):
    ev = tmp_path / "eval.parquet"
    pq.write_table(pa.table({"doc_id": pa.array([9000], pa.int64()),
                             "text": pa.array([TEXTS[1]])}), ev)
    out = str(tmp_path / "audit2")
    run_text_audit(corpus_dir, out, eval_docs=str(ev), ngram=4)
    shard0 = pq.read_table(
        os.path.join(out, "shards", "shard=shard0", "audit.parquet")
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    # only doc 1 (== the eval doc) is contaminated now
    assert list(shard0["contaminated"]) == [0, 1, 0, 0]


def test_run_corpus_clean_oracle_and_resume(tmp_path, ray_session):
    import glob as _glob

    import pandas as pd

    from autoprepad_ray.pipelines.corpus import run_corpus_clean

    src = pd.read_parquet("/root/testdata/sf0.001/documents.parquet")
    docs = tmp_path / "docs"
    docs.mkdir()
    step = (len(src) + 2) // 3
    for i in range(3):
        pq.write_table(
            pa.Table.from_pandas(src.iloc[i * step:(i + 1) * step],
                                 preserve_index=False),
            docs / f"part{i}.parquet")

    out = tmp_path / "clean"
    m = run_corpus_clean(str(docs), str(out))

    got = pd.concat([
        pd.read_parquet(f) for f in _glob.glob(
            str(out / "shards" / "shard=*" / "clean.parquet" /
                "*.parquet"))])
    got_ids = np.sort(got["doc_id"].to_numpy())

    # pure-pandas oracle of the three gates
    w = src["text"].fillna("").str.split(" ")
    nw = w.str.len().to_numpy()
    sumlen = w.apply(lambda ws: sum(len(x) for x in ws)).to_numpy()
    import re
    alpha = w.apply(lambda ws: sum(bool(re.search("[A-Za-z]", x))
                                   for x in ws)).to_numpy()
    stops = w.apply(lambda ws: sum(x in {"the", "a", "of", "and", "to"}
                                   for x in ws)).to_numpy()
    quality = ((nw >= 10) & (nw <= 100_000)
               & (sumlen >= 3 * nw) & (sumlen <= 10 * nw)
               & (10 * alpha >= 8 * nw) & (stops >= 2))

    def grams(ws):
        return {tuple(ws[i:i + 8]) for i in range(len(ws) - 7)}

    ev = set()
    for ws in w[(src["doc_id"] % 97 == 0).to_numpy()]:
        ev |= grams(ws)
    contaminated = w.apply(lambda ws: bool(grams(ws) & ev)).to_numpy()

    q = src[quality]
    losers = set()
    for _, g in q.groupby("text"):
        ids = np.sort(g["doc_id"].to_numpy())
        losers |= set(ids[1:].tolist())
    want = src["doc_id"][
        quality & ~contaminated
        & ~src["doc_id"].isin(sorted(losers)).to_numpy()].to_numpy()
    assert got_ids.tolist() == np.sort(want).tolist()
    assert len(got_ids) < len(src)            # gates actually bind
    assert set(got.columns) == set(src.columns)

    # resume: nothing pending; deleting one shard re-runs exactly it
    m2 = run_corpus_clean(str(docs), str(out))
    assert m2["runs"][-1]["pending"] == []
    shutil.rmtree(out / "shards" / "shard=part1")
    m3 = run_corpus_clean(str(docs), str(out))
    assert m3["runs"][-1]["pending"] == ["part1"]
    assert m3["runs"][-1]["total_clean"] == m["runs"][-1]["total_clean"]


def test_resume_reruns_changed_shard(corpus_dir, tmp_path, ray_session):
    """With an explicit eval set the eval fingerprint does not cover the
    shards: rewriting one shard's file still re-runs exactly it."""
    ev = tmp_path / "eval.parquet"
    pq.write_table(pa.table({"doc_id": pa.array([9000], pa.int64()),
                             "text": pa.array([TEXTS[1]])}), ev)
    out = str(tmp_path / "audit3")
    m1 = run_text_audit(corpus_dir, out, eval_docs=str(ev), ngram=4)
    assert m1["runs"][-1]["total_contaminated"] == 3
    ids = np.arange(100, 100 + len(TEXTS) + 1, dtype=np.int64)
    pq.write_table(pa.table({"doc_id": pa.array(ids),
                             "text": pa.array(TEXTS + [TEXTS[1]])}),
                   os.path.join(corpus_dir, "shard1.parquet"))
    m2 = run_text_audit(corpus_dir, out, eval_docs=str(ev), ngram=4)
    assert m2["runs"][-1]["pending"] == ["shard1"]
    assert m2["runs"][-1]["total_contaminated"] == 4
