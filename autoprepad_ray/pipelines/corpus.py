"""Resumable text-corpus audit runner — the documents-side sibling of
``pipelines/runner.run_validation`` (north rule: runs resume from
per-partition checkpoints carrying lineage + metrics).

A 100-TB corpus arrives as thousands of parquet shards; the audit
(benchmark decontamination + repetition quality) must survive
preemption and re-run only what is missing.  The audit and the cleaner
run on the shared scaffold ``pipelines.checkpoint._run_sharded`` with
unit ``shard`` (the reference has no runner — it is a single-process
pipeline, control.py:139-170; resumability is the engine's north-rule
addition):

- a shard is complete iff its ``audit.json`` / ``clean.json`` exists
  AND its manifest entry carries the current eval-set (and dup-state)
  fingerprints and the current fingerprint of the shard's own file —
  deleting a shard directory or rewriting its file re-runs exactly
  that shard;
- the eval n-gram set builds once per fingerprint and persists beside
  the manifest (``evalgrams_<fp>.npy``), so a resume never re-reads
  the eval source;
- shard outputs are written atomically (tmp dir + rename), so a kill
  mid-shard leaves no half-checkpoint.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from .. import __version__
from ..io import read_table
from ..stages.transport import fold, merge_concat, merge_counts, merge_unique
from .checkpoint import _finish_run, _fingerprint, _run_sharded


def discover_shards(docs_path: str) -> dict[str, str]:
    """Map shard name -> parquet file.  ``docs_path`` may be a single
    parquet file, a directory of them, or a glob."""
    if os.path.isdir(docs_path):
        files = sorted(glob.glob(os.path.join(docs_path, "*.parquet")))
    elif any(ch in docs_path for ch in "*?["):
        files = sorted(glob.glob(docs_path))
    else:
        files = [docs_path]
    if not files:
        raise FileNotFoundError(f"no parquet shards under {docs_path!r}")
    shards = {os.path.splitext(os.path.basename(f))[0]: f for f in files}
    if len(shards) != len(files):
        # dict keying would silently drop one of a/x.parquet, b/x.parquet
        names = [os.path.splitext(os.path.basename(f))[0] for f in files]
        dups = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(
            f"duplicate shard basenames under {docs_path!r}: {dups}; "
            "shard checkpoints are keyed by basename — rename or glob "
            "one directory at a time")
    return shards


def _load_or_build_evalgrams(out_dir: str, eval_files: list[str], *,
                             text_col: str, id_col: str, n: int,
                             self_eval: bool) -> tuple[np.ndarray, str]:
    """Eval gram array keyed by (source files, ngram, rule) — cached on
    disk so resumes skip the eval pass entirely."""
    from ..stages.text import _flat_words, _gram_hashes

    fp = _fingerprint(eval_files) + f"-n{n}" + ("-self" if self_eval
                                                else "")
    cache = os.path.join(out_dir, f"evalgrams_{fp}.npy")
    if os.path.exists(cache):
        return np.load(cache), fp

    ds = read_table(eval_files, columns=[id_col, text_col])
    if self_eval:          # the doc_id % 97 slice stands in for a suite
        def _slice(t: pa.Table) -> pa.Table:
            ids = t[id_col].to_numpy(zero_copy_only=False)
            return t.filter(pa.array(ids % 97 == 0))
        ds = ds.map_batches(_slice, batch_format="pyarrow",
                            zero_copy_batch=True)

    def uniq(t: pa.Table) -> np.ndarray:
        words, counts = _flat_words(t[text_col])
        return np.unique(_gram_hashes(words, counts, n)[1])

    merged = fold(ds, uniq, merge_unique).astype(np.uint64)
    tmp = cache + ".tmp.npy"
    np.save(tmp, merged)
    os.replace(tmp, cache)
    return merged, fp


def run_text_audit(docs_path: str, out_dir: str, *,
                   eval_docs: str | None = None, ngram: int = 8,
                   text_col: str = "text", id_col: str = "doc_id") -> dict:
    """Audit every shard, skipping those already checkpointed.

    Returns the manifest dict (also persisted to ``manifest.json``).
    Per-shard outputs: ``shards/shard=<name>/audit.parquet`` (doc_id,
    n_grams, n_hits, contaminated, n_words, n_distinct, dup_ratio) and
    ``audit.json`` (counts + lineage).

    Shards audit ``checkpoint.MAX_PARALLEL`` at a time through driver
    threads sharing the one Ray session (``checkpoint._run_sharded``)
    — per-shard checkpoint granularity without serializing the cluster
    behind one small shard's pipeline; the manifest write is the only
    serialized step (lock + atomic replace)."""
    from ..stages.text import decontaminate, word_repetition

    os.makedirs(out_dir, exist_ok=True)   # global-state caches land here
    shards = discover_shards(docs_path)
    eval_files = sorted(discover_shards(eval_docs).values()) \
        if eval_docs else sorted(shards.values())
    evalgrams, eval_fp = _load_or_build_evalgrams(
        out_dir, eval_files, text_col=text_col, id_col=id_col, n=ngram,
        self_eval=eval_docs is None)
    eval_ref = ray.put(evalgrams)

    def _audit_shard(name: str, tmp_dir: str) -> dict:
        ds = read_table(shards[name], columns=[id_col, text_col])
        dec = decontaminate(ds, eval_ref, text_col=text_col,
                            id_col=id_col, n=ngram).to_pandas()
        rep = word_repetition(ds, text_col=text_col,
                              id_col=id_col).to_pandas()
        audit = rep.merge(dec, on=id_col, how="left")
        for c in ("n_grams", "n_hits", "contaminated"):
            audit[c] = audit[c].fillna(0).astype(np.int64)
        pq.write_table(pa.Table.from_pandas(audit, preserve_index=False),
                       os.path.join(tmp_dir, "audit.parquet"))
        return {
            "n_docs": int(len(audit)),
            "contaminated_docs": int(audit["contaminated"].sum()),
            "max_dup_ratio": float(audit["dup_ratio"].max())
            if len(audit) else 0.0,
            "ngram": ngram, "source": shards[name],
        }

    manifest, pending = _run_sharded(
        out_dir, "shard", {n: [f] for n, f in shards.items()},
        {"eval_fp": eval_fp}, _audit_shard,
        {"engine_version": __version__, "docs_path": docs_path,
         "kind": "audit", "ngram": ngram, "shards": {}, "runs": []},
        checkpoint_file="audit.json")
    return _finish_run(manifest, out_dir, {
        "pending": pending, "eval_fp": eval_fp,
        "total_contaminated": int(sum(
            v["verdict"]["contaminated_docs"]
            for v in manifest["shards"].values())),
    })


def _load_or_build_dup_losers(out_dir: str, files: list[str], *,
                              text_col: str, id_col: str
                              ) -> tuple[np.ndarray, str]:
    """Global exact-dup loser ids (non-min-id members of identical-text
    groups among Gopher-quality survivors — the assembly-funnel
    semantics), cached by shard fingerprint so a resume skips both
    global passes.  Census-prune shape: 64-bit text-hash counts fold
    (stages/transport.fold; dup-rare uniqueness regime), only
    candidate-hash rows ship their md5, exact groups resolve
    driver-side (a 64-bit collision only adds a candidate row)."""
    from ..functions.strings import md5_fingerprint
    from ..stages.text import (_candidate_hits, _minid_losers,
                               _quality_text_state)

    fp = _fingerprint(files) + "-dup1"
    cache = os.path.join(out_dir, f"duplosers_{fp}.npy")
    if os.path.exists(cache):
        return np.load(cache), fp

    ds = read_table(files, columns=[id_col, text_col])

    def census(t: pa.Table) -> tuple:
        keep, _, _, h = _quality_text_state(t, text_col)
        return np.unique(h[keep], return_counts=True)

    vals, cnts = fold(ds, census, merge_counts)
    cand = np.sort(np.asarray(vals, dtype=np.uint64)[cnts >= 2])
    losers = np.empty(0, dtype=np.int64)
    if cand.size:
        cand_ref = ray.put(cand)

        def collect(t: pa.Table) -> tuple:
            keep, _, texts, h = _quality_text_state(t, text_col)
            hit = _candidate_hits(h, keep, ray.get(cand_ref))
            return (t[id_col].to_numpy(zero_copy_only=False)[hit],
                    md5_fingerprint(texts[hit]).to_numpy(dtype=object))

        ids, fps = fold(ds, collect, merge_concat)
        ids = ids.astype(np.int64)
        order, rm = _minid_losers(ids, fps)
        losers = np.sort(ids[order][rm])
    tmp = cache + ".tmp.npy"
    np.save(tmp, losers)
    os.replace(tmp, cache)
    return losers, fp


def run_corpus_clean(docs_path: str, out_dir: str, *,
                     eval_docs: str | None = None, ngram: int = 8,
                     text_col: str = "text", id_col: str = "doc_id") -> dict:
    """Resumable corpus CLEANER — the writer sibling of
    :func:`run_text_audit`: Gopher quality gate + benchmark
    decontamination + global exact dedup (min-id canonical), emitting
    the SURVIVING documents as per-shard parquet
    (``shards/shard=<name>/clean.parquet`` + ``clean.json`` lineage).

    Same north-rule checkpoint design as the audit/image runners: the
    output IS the checkpoint — a shard is complete iff its
    ``clean.json`` exists under the CURRENT eval-set and dup-state
    fingerprints; global state (eval grams, dup losers) caches beside
    the manifest keyed by input fingerprints, so a resume re-reads
    neither; shard outputs land atomically (tmp dir + rename).

    Scale shape: both global artifacts are broadcast-bounded (eval
    suites are MBs; dup losers are bounded by duplicate count, the
    dup-rare uniqueness regime) and every per-shard pass is a pure
    pruned-column map — shards clean independently, in parallel,
    with no cross-shard exchange."""
    from ..stages.text import _gram_hashes, _split_list, gopher_keep_from

    os.makedirs(out_dir, exist_ok=True)   # global-state caches land here
    shards = discover_shards(docs_path)
    eval_files = sorted(discover_shards(eval_docs).values()) \
        if eval_docs else sorted(shards.values())
    evalgrams, eval_fp = _load_or_build_evalgrams(
        out_dir, eval_files, text_col=text_col, id_col=id_col, n=ngram,
        self_eval=eval_docs is None)
    losers, dup_fp = _load_or_build_dup_losers(
        out_dir, sorted(shards.values()), text_col=text_col,
        id_col=id_col)
    state_ref = ray.put((evalgrams, losers))

    def _clean_shard(name: str, tmp_dir: str) -> dict:
        ds = read_table(shards[name])

        def filt(t: pa.Table) -> pa.Table:
            evalg, rm = ray.get(state_ref)
            # ONE Arrow split per batch feeds both the quality gate
            # and the gram pass (stages/text._split_list — the shared
            # tokenization kernel; the split IS the stage's hot cost)
            la, wc = _split_list(t[text_col])
            keep, _ = gopher_keep_from(la.values, wc)
            words = la.values.to_numpy(zero_copy_only=False)
            didx, grams, _ = _gram_hashes(words, wc, ngram)
            if len(grams) and len(evalg):
                pos = np.searchsorted(evalg, grams)
                pos[pos == len(evalg)] = 0
                hits = np.bincount(
                    didx, weights=(evalg[pos] == grams).astype(
                        np.float64), minlength=len(wc)).astype(np.int64)
            else:
                hits = np.zeros(len(wc), dtype=np.int64)
            ids = t[id_col].to_numpy(zero_copy_only=False)
            if len(rm):
                p2 = np.searchsorted(rm, ids)
                p2[p2 == len(rm)] = 0
                dup = rm[p2] == ids
            else:
                dup = np.zeros(len(ids), dtype=bool)
            return t.filter(pa.array(keep & (hits == 0) & ~dup))

        out = ds.map_batches(filt, batch_format="pyarrow",
                             zero_copy_batch=True)
        out.write_parquet(os.path.join(tmp_dir, "clean.parquet"))
        n_in = pq.read_metadata(shards[name]).num_rows
        n_out = sum(
            pq.read_metadata(f).num_rows for f in glob.glob(
                os.path.join(tmp_dir, "clean.parquet", "*.parquet")))
        return {"n_docs": int(n_in), "n_clean": int(n_out),
                "ngram": ngram, "source": shards[name]}

    manifest, pending = _run_sharded(
        out_dir, "shard", {n: [f] for n, f in shards.items()},
        {"eval_fp": eval_fp, "dup_fp": dup_fp}, _clean_shard,
        {"engine_version": __version__, "docs_path": docs_path,
         "kind": "clean", "ngram": ngram, "shards": {}, "runs": []},
        checkpoint_file="clean.json")
    return _finish_run(manifest, out_dir, {
        "pending": pending, "eval_fp": eval_fp, "dup_fp": dup_fp,
        "total_clean": int(sum(
            v["verdict"]["n_clean"] for v in manifest["shards"].values())),
    })
