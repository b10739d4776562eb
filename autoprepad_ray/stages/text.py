"""Text-analysis stages: language-ID heuristic, quality scoring, token
counting, fingerprinting, benchmark decontamination and repetition
quality — thin ``map_batches`` wrappers over vectorized kernels
(quality/tokens/fingerprints/decontamination/repetition are exercised
by the SQL-checked queries; langid is heuristic, rows-only checked).
Every corpus-wide count (vocabularies, per-source totals, gram sets,
BM25 statistics) is a per-block partial reduced by
``stages.transport.fold``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .transport import (fold, merge_concat, merge_counts, merge_fields,
                        merge_groups, merge_unique)

STOPWORDS = {
    "en": {"the", "a", "of", "and", "to", "in", "is", "it", "that", "for"},
    "de": {"der", "die", "das", "und", "ist", "ein", "eine", "zu", "mit"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "una", "es", "por"},
    "fr": {"le", "la", "les", "de", "et", "un", "une", "est", "que", "en"},
}

_LANGS = list(STOPWORDS)
_TABLES = [frozenset(STOPWORDS[lang]) for lang in _LANGS]


def _langid_frame(df: pd.DataFrame, text_col: str,
                  min_score: float) -> pd.DataFrame:
    """Vectorized stopword language-ID: one explode + per-language isin
    over the whole batch (no per-row Python loop).  Argmax over
    per-language stopword hit rate; 'und' when no language scores above
    ``min_score``.  Stateless — the per-language tables are 4 tiny
    module-level frozensets, so a task (not an actor pool) is the right
    stage shape."""
    df = df.reset_index(drop=True)
    toks = df[text_col].fillna("").str.lower() \
        .str.split(r"\s+", regex=True)
    n = toks.str.len().clip(lower=1).to_numpy(dtype=np.float64)
    ex = toks.explode()
    scores = np.zeros((len(df), len(_LANGS)))
    for j, table in enumerate(_TABLES):
        hits = ex.isin(table).groupby(level=0).sum()
        scores[hits.index.to_numpy(), j] = hits.to_numpy(dtype=np.float64)
    scores /= n[:, None]
    best_j = np.argmax(scores, axis=1)          # ties -> earlier language
    best = scores[np.arange(len(df)), best_j]
    langs = np.where(best >= min_score,
                     np.array(_LANGS, dtype=object)[best_j], "und")
    out = df.copy()
    out["lang_pred"] = langs
    out["lang_score"] = np.round(best, 6)
    return out


def lang_id(ds, text_col: str = "text", *, min_score: float = 0.05,
            batch_size: int = 1024):

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return _langid_frame(df, text_col, min_score)

    return ds.map_batches(fn, batch_format="pandas", batch_size=batch_size)


# ---------------------------------------------------------------------------
# benchmark decontamination (word-n-gram overlap vs a small eval set)

_GRAM_MULT = np.uint64(0x9E3779B97F4A7C15)   # golden-ratio odd multiplier


def _split_list(texts: pa.ChunkedArray | pa.Array):
    """THE tokenization kernel (combine_chunks + fill_null + one Arrow
    ``split_pattern``): returns (ListArray, per-doc word counts).  All
    tokenizing callers ride this one function — split_pattern on a
    ChunkedArray has no .values/.offsets, and hand-rolled copies keep
    re-hitting that (the session-5 lesson)."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    la = pc.split_pattern(pc.fill_null(texts, ""), pattern=" ")
    counts = np.diff(la.offsets.to_numpy(zero_copy_only=False)).astype(
        np.int64)
    return la, counts


def _flat_words(texts: pa.ChunkedArray | pa.Array):
    """Tokenize a string column on single spaces entirely in Arrow C:
    returns (flat word object-array, per-doc word counts).  No per-row
    Python — ``split_pattern`` produces one ListArray whose flattened
    values and offsets drive everything downstream."""
    la, counts = _split_list(texts)
    return la.values.to_numpy(zero_copy_only=False), counts


def _word_counts(texts: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Per-doc word counts WITHOUT materializing the word objects —
    the zero-copy offsets-diff view of :func:`_flat_words` for callers
    that only need lengths (keep both passes of a stage on this one
    path so tokenization rules can never diverge between them)."""
    return _split_list(texts)[1]


def term_census(ds, *, text_col: str = "text"):
    """Corpus term-count census as (sorted terms, int64 counts): each
    block's ``np.unique`` counts are one fold partial (never per-term
    Python rows — a web-scale vocabulary is millions of terms), summed
    by ``stages.transport.fold``.  The Heaps'-law driver-fold shape
    shared by unigram_logprob / OOV scoring."""

    def partial(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        return np.unique(_flat_words(t[text_col])[0], return_counts=True)

    return fold(ds, partial, merge_counts)


def _gram_hashes(words: np.ndarray, counts: np.ndarray, n: int, *,
                 short_doc_gram: bool = False):
    """64-bit hashes of all word n-grams, doc boundaries respected.

    Word hash = ``pd.util.hash_array`` over the OBJECT array (one C
    call; the repo's hash-dtype lesson — both the eval pass and the
    scan pass come through this one function, so the two sides always
    agree).  Gram hash = positional polynomial over the n word hashes
    with uint64 wraparound — vectorized as n shifted adds, no per-gram
    loop.  Returns (doc_index_per_gram, gram_hashes, grams_per_doc),
    grams sorted by document.

    ``short_doc_gram=True`` adds the MinHash-shingling rule for
    documents shorter than ``n`` words: such a doc contributes ONE
    gram — the same polynomial over its k < n words — instead of none
    (the decontamination semantics, where sub-n docs genuinely have no
    n-gram, keep the default).  Vectorized by length class: at most
    n - 1 extra shifted-add passes, each over only the short docs of
    that length.
    """
    h = pd.util.hash_array(words) if len(words) else np.empty(
        0, dtype=np.uint64)
    g_per_doc = np.maximum(counts - (n - 1), 0)
    if short_doc_gram:
        g_per_doc = np.where(counts > 0, np.maximum(g_per_doc, 1),
                             g_per_doc)
    total = int(g_per_doc.sum())
    if total == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64),
                g_per_doc)
    off = np.concatenate([[0], np.cumsum(counts)])[:-1]
    doc_idx = np.repeat(np.arange(len(counts), dtype=np.int64), g_per_doc)
    base = np.repeat(off, g_per_doc)
    intra = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate([[0], np.cumsum(g_per_doc)])[:-1], g_per_doc)
    starts = base + intra
    grams = np.zeros(total, dtype=np.uint64)
    # short docs occupy their single gram slot (width = their own word
    # count).  The HOT path stays the contiguous unmasked loop — short
    # grams are the rare slice, so they are recomputed separately
    # afterwards instead of paying gather/scatter masking on every gram
    # of the dominant >= n-word population.
    short_pos = None
    if short_doc_gram:
        short_docs = (counts > 0) & (counts < n)
        if short_docs.any():
            short_pos = np.flatnonzero(np.repeat(short_docs, g_per_doc))
    with np.errstate(over="ignore"):               # uint64 wrap is the point
        mult = np.uint64(1)
        last = len(h) - 1
        for j in range(n):
            # a trailing short doc's starts+j can run past the word
            # array — clip (the garbage it mixes is overwritten below)
            idx = starts + j if short_pos is None \
                else np.minimum(starts + j, last)
            grams = grams * _GRAM_MULT + h[idx] * mult
            mult = mult * np.uint64(0x100000001B3)  # FNV odd prime
        if short_pos is not None:
            s_starts = starts[short_pos]
            s_width = np.repeat(counts, g_per_doc)[short_pos]
            g = np.zeros(len(short_pos), dtype=np.uint64)
            mult = np.uint64(1)
            for j in range(int(s_width.max())):
                live = j < s_width
                g[live] = g[live] * _GRAM_MULT \
                    + h[s_starts[live] + j] * mult
                mult = mult * np.uint64(0x100000001B3)
            grams[short_pos] = g
    return doc_idx, grams, g_per_doc


def eval_gram_set(eval_ds, *, text_col: str = "text", n: int = 8) -> object:
    """Collect the DISTINCT word-n-gram hashes of a (small) benchmark /
    eval dataset and broadcast them once via ``ray.put``.

    The eval side of decontamination is always the small side (eval
    suites are MBs against a 100-TB corpus), so the scale shape is a
    broadcast set, never a join: each block's unique gram hashes are
    one ``stages.transport.fold`` partial, merged by ``merge_unique``,
    and ONE sorted uint64 array ships to the object store."""
    import ray

    def uniq(t: pa.Table) -> np.ndarray:
        words, counts = _flat_words(t[text_col])
        return np.unique(_gram_hashes(words, counts, n)[1])

    return ray.put(fold(eval_ds, uniq, merge_unique).astype(np.uint64))


def decontaminate(ds, eval_ref, *, text_col: str = "text",
                  id_col: str = "doc_id", n: int = 8):
    """Benchmark decontamination: per-document count of word-n-grams
    that collide with the broadcast eval-set grams (the standard
    13-gram-overlap test-set-leakage check of LLM training pipelines,
    n here sized to the fixture's short documents).

    Embarrassingly parallel — no shuffle at any scale: the eval gram
    set rides the object store once (``eval_gram_set``), every block
    resolves membership with one ``searchsorted`` against the sorted
    array, and per-doc hit counts fold with ``bincount``.  Documents
    shorter than n words produce no grams and are dropped (matching
    the SQL oracle's empty-generate_series semantics).  Hashed-gram
    membership vs the oracle's string compare differs only on 64-bit
    collisions (~1e-12 at bench scale; documented, not observed)."""

    def scan(t: pa.Table) -> pa.Table:
        import ray
        evalg = ray.get(eval_ref) if hasattr(eval_ref, "hex") else eval_ref
        words, counts = _flat_words(t[text_col])
        doc_idx, grams, g_per_doc = _gram_hashes(words, counts, n)
        keep = g_per_doc > 0
        if len(grams):
            pos = np.searchsorted(evalg, grams)
            pos[pos == len(evalg)] = 0
            hit = (evalg[pos] == grams) if len(evalg) else np.zeros(
                len(grams), dtype=bool)
            hits_per_doc = np.bincount(
                doc_idx, weights=hit.astype(np.float64),
                minlength=len(counts)).astype(np.int64)
        else:
            hits_per_doc = np.zeros(len(counts), dtype=np.int64)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        return pa.table({
            id_col: pa.array(ids[keep]),
            "n_grams": pa.array(g_per_doc[keep]),
            "n_hits": pa.array(hits_per_doc[keep]),
            "contaminated": pa.array(
                (hits_per_doc[keep] > 0).astype(np.int64))})

    return ds.map_batches(scan, batch_format="pyarrow",
                          zero_copy_batch=True)


def word_repetition(ds, *, text_col: str = "text", id_col: str = "doc_id"):
    """Gopher-style repetition quality signal: per-document word count,
    distinct-word count and duplicate-word fraction.

    Distinct counting is EXACT on the strings (no hash shortcut): one
    Arrow ``group_by`` over (doc, word) collapses repeats, a second
    counts survivors per doc — both C kernels, both inside the block,
    so the stage is a pure map with no exchange.  dup_ratio is a
    single IEEE division of two exact ints (file-header float-parity
    rule: one op after exact integers is bit-stable)."""

    def rep(t: pa.Table) -> pa.Table:
        words, counts = _flat_words(t[text_col])
        doc_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        pairs = pa.table({"d": pa.array(doc_idx),
                          "w": pa.array(words, pa.string())})
        dist = (pairs.group_by(["d", "w"]).aggregate([([], "count_all")])
                .group_by("d").aggregate([([], "count_all")]))
        n_dist = np.zeros(len(counts), dtype=np.int64)
        n_dist[dist["d"].to_numpy()] = \
            dist["count_all"].to_numpy().astype(np.int64)
        nw = counts.astype(np.int64)
        return pa.table({
            id_col: t[id_col],
            "n_words": pa.array(nw),
            "n_distinct": pa.array(n_dist),
            "dup_ratio": pa.array((nw - n_dist).astype(np.float64)
                                  / np.maximum(nw, 1))})

    return ds.map_batches(rep, batch_format="pyarrow", zero_copy_batch=True)


# a GPT-2-style pretokenizer simplified to RE2 (no lookahead — RE2 has
# none, which is exactly what makes it SQL-mirrorable: pyarrow's
# count_substring_regex and DuckDB's regexp_extract_all BOTH compile
# RE2, so match counts agree by construction)
BPE_TOKEN_PATTERN = (r"'(?:s|t|re|ve|m|ll|d)"
                     r"| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+|\s+")


def bpe_token_counts(ds, *, text_col: str = "text",
                     id_col: str = "doc_id"):
    """Per-document token counts under a BPE-ish pretokenizer regex —
    the cost estimator an LLM-corpus pipeline runs before packing
    (whitespace word counts undercount punctuation-heavy text).  One
    vectorized RE2 count per batch; no shuffle."""

    def fn(t: pa.Table) -> pa.Table:
        txt = pc.fill_null(t[text_col], "")
        return pa.table({
            id_col: t[id_col],
            "n_tokens": pc.cast(pc.count_substring_regex(
                txt, pattern=BPE_TOKEN_PATTERN), pa.int64()),
            "n_chars": pc.cast(pc.utf8_length(txt), pa.int64())})

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def chunk_documents(ds, *, size: int = 200, step: int = 150,
                    text_col: str = "text", id_col: str = "doc_id"):
    """Split documents into fixed-size character windows with overlap
    (size - step) — the context-chunking step between cleaning and
    embedding/packing in a RAG/training pipeline.

    Chunk k covers [k*step, k*step + size); a document emits
    ``ceil(max(len - overlap, 1) / step)`` chunks, so every character
    is covered, consecutive chunks overlap by ``size - step``, and a
    final window shorter than the overlap never spawns a chunk of
    pure repetition.  Vectorized by CHUNK ROUND: round k slices every
    document with > k chunks in one Arrow kernel call — the loop is
    bounded by max chunks per document, never rows.  flat_map-shaped
    output (doc_id, chunk_id, chunk)."""
    if size - step < 0 or step <= 0:
        raise ValueError("need 0 < step <= size")

    def fn(t: pa.Table) -> pa.Table:
        return _chunk_table(t, size, step, text_col, id_col)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def _chunk_table(t: pa.Table, size: int, step: int, text_col: str,
                 id_col: str) -> pa.Table:
    """Pure per-batch chunking kernel (hypothesis-tested directly)."""
    overlap = size - step
    txt = pc.fill_null(t[text_col], "").combine_chunks()
    lens = pc.utf8_length(txt).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    n_chunks = (np.maximum(lens - overlap, 1) + step - 1) // step
    ids = t[id_col].combine_chunks()
    parts = []
    for k in range(int(n_chunks.max()) if len(lens) else 0):
        idx = pa.array(np.flatnonzero(n_chunks > k))
        piece = pc.utf8_slice_codeunits(
            txt.take(idx), start=k * step, stop=k * step + size)
        parts.append(pa.table({
            id_col: ids.take(idx),
            "chunk_id": pa.array(np.full(len(idx), k, dtype=np.int64)),
            "chunk": piece}))
    if not parts:
        return pa.table({id_col: ids.slice(0, 0),
                         "chunk_id": pa.array([], type=pa.int64()),
                         "chunk": pa.array([], type=pa.string())})
    return pa.concat_tables(parts)


# ---------------------------------------------------------------------------
# BM25 relevance scoring (two-pass: corpus stats -> broadcast -> score)

def bm25_scores(ds, query_terms: list[str], *, text_col: str = "text",
                id_col: str = "doc_id", k1: float = 1.2, b: float = 0.75):
    """BM25 score of every document against a fixed query — the
    retrieval-side ranker of a search/RAG corpus pipeline.

    Two passes, no shuffle: pass 1 reduces each block to (n_docs,
    total_words, df per query term) — a handful of ints summed by
    ``stages.transport.fold`` into idf/avgdl; pass 2 broadcasts that
    state and scores each batch vectorized (one explode+isin per query
    term, the langid shape).  Scores are float (log idf), so this
    stage is rows-only checked: pytest pins it against a
    single-process pure-numpy BM25 at 1e-9 (test_textops)."""
    import ray

    terms = list(query_terms)

    def stats(t: pa.Table) -> np.ndarray:
        words, counts = _flat_words(t[text_col])
        doc_idx = np.repeat(np.arange(len(counts), dtype=np.int64),
                            counts)
        dfs = [len(np.unique(doc_idx[words == term])) for term in terms]
        return np.array([len(counts), int(counts.sum())] + dfs,
                        dtype=np.int64)

    acc = fold(ds, stats, lambda parts: sum(
        parts, np.zeros(2 + len(terms), dtype=np.int64)))
    n_docs, total_words, dfs = int(acc[0]), int(acc[1]), acc[2:]
    avgdl = total_words / max(n_docs, 1)
    idf = np.log(1.0 + (n_docs - dfs + 0.5) / (dfs + 0.5))
    state = ray.put((np.array(terms, dtype=object), idf, avgdl))

    def score(t: pa.Table) -> pa.Table:
        terms_b, idf_b, avgdl_b = ray.get(state)
        words, counts = _flat_words(t[text_col])
        doc_idx = np.repeat(np.arange(len(counts), dtype=np.int64),
                            counts)
        dl = counts.astype(np.float64)
        s = np.zeros(len(counts), dtype=np.float64)
        denom_dl = k1 * (1.0 - b + b * dl / avgdl_b)
        for j, term in enumerate(terms_b):
            tf = np.bincount(doc_idx[words == term],
                             minlength=len(counts)).astype(np.float64)
            s += idf_b[j] * tf * (k1 + 1.0) / (tf + denom_dl)
        return pa.table({id_col: t[id_col],
                         "bm25": pa.array(np.round(s, 6))})

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def _quality_parts(texts, stop_arr: pa.Array):
    """Per-doc integer quality components from one Arrow split:
    (word count, summed word length, alphabetic-word count, stopword
    hits).  Word lengths / alpha matches / stopword hits are C kernels
    over the flat word values segment-summed per doc; counts are tiny
    per doc, so float64 bincount accumulators are exact well past 2^53
    and the int64 casts are lossless."""
    la, counts = _split_list(texts)
    return _quality_parts_from(la.values, counts, stop_arr)


def _quality_parts_from(vals: pa.Array, counts: np.ndarray,
                        stop_arr: pa.Array):
    """:func:`_quality_parts` on an ALREADY-split word stream — for
    callers (the corpus cleaner) that need both the quality gate and
    the gram pass off ONE Arrow split per batch."""
    n = len(counts)
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
    wl = pc.utf8_length(vals).to_numpy(zero_copy_only=False)
    alpha = pc.match_substring_regex(vals, "[A-Za-z]") \
        .to_numpy(zero_copy_only=False)
    stopm = pc.is_in(vals, value_set=stop_arr) \
        .to_numpy(zero_copy_only=False)
    sum_len = np.bincount(doc_idx, weights=wl,
                          minlength=n).astype(np.int64)
    alpha_w = np.bincount(doc_idx, weights=alpha,
                          minlength=n).astype(np.int64)
    stop_h = np.bincount(doc_idx, weights=stopm,
                         minlength=n).astype(np.int64)
    return counts, sum_len, alpha_w, stop_h


def gopher_quality(ds, *, text_col: str = "text", id_col: str = "doc_id",
                   min_words: int = 10, max_words: int = 100_000,
                   min_mean_len: int = 3, max_mean_len: int = 10,
                   alpha_num: int = 8, alpha_den: int = 10,
                   min_stop_hits: int = 2,
                   stopwords: tuple[str, ...] = ("the", "a", "of",
                                                 "and", "to")):
    """Gopher-style composite quality filter (the Rae et al. 2021 rule
    family: word-count window, mean-word-length window, alphabetic-word
    fraction, minimum stopword hits) — the keep/drop gate a web-corpus
    pipeline runs before dedup and packing.

    Every component is an INTEGER count (mean-word-length and the
    alpha fraction are tested as cross-multiplied integer inequalities,
    ``min_mean_len*n <= sum_len <= max_mean_len*n`` and
    ``alpha_den*alpha >= alpha_num*n``), so the keep flag is exact with
    no float-parity rules at all.  One Arrow split per batch; word
    lengths / alpha matches / stopword hits are C kernels over the flat
    word values segment-summed per doc — a pure map stage, no exchange,
    scale-independent."""
    stop_arr = pa.array(sorted(set(stopwords)))

    def fn(t: pa.Table) -> pa.Table:
        counts, sum_len, alpha_w, stop_h = _quality_parts(
            t[text_col], stop_arr)
        keep = _gopher_rules(
            counts, sum_len, alpha_w, stop_h,
            min_words=min_words, max_words=max_words,
            min_mean_len=min_mean_len, max_mean_len=max_mean_len,
            alpha_num=alpha_num, alpha_den=alpha_den,
            min_stop_hits=min_stop_hits)[0].astype(np.int64)
        return pa.table({id_col: t[id_col],
                         "n_words": pa.array(counts),
                         "sum_word_len": pa.array(sum_len),
                         "alpha_words": pa.array(alpha_w),
                         "stop_hits": pa.array(stop_h),
                         "keep_flag": pa.array(keep)})

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


_GOPHER_STOPS = pa.array(sorted({"the", "a", "of", "and", "to"}))


def gopher_keep_mask(texts) -> tuple[np.ndarray, np.ndarray]:
    """(keep bool mask, word counts) under the DEFAULT Gopher rules of
    :func:`gopher_quality` — the single shared gate the assembly funnel
    and the corpus cleaner both ride, so the two can never drift."""
    return _gopher_rules(*_quality_parts(texts, _GOPHER_STOPS))


def gopher_keep_from(vals: pa.Array, counts: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`gopher_keep_mask` on an already-split word stream."""
    return _gopher_rules(*_quality_parts_from(vals, counts,
                                              _GOPHER_STOPS))


def _gopher_rules(counts, sum_len, alpha_w, stop_h, *,
                  min_words: int = 10, max_words: int = 100_000,
                  min_mean_len: int = 3, max_mean_len: int = 10,
                  alpha_num: int = 8, alpha_den: int = 10,
                  min_stop_hits: int = 2):
    """The ONE statement of the Gopher inequality chain — the
    SQL-checked gopher_quality query, the assembly funnel and the
    corpus cleaner all route here, so the rule can never drift."""
    keep = ((counts >= min_words) & (counts <= max_words)
            & (sum_len >= min_mean_len * counts)
            & (sum_len <= max_mean_len * counts)
            & (alpha_den * alpha_w >= alpha_num * counts)
            & (stop_h >= min_stop_hits))
    return keep, counts


def unigram_logprob(ds, *, text_col: str = "text", id_col: str = "doc_id"):
    """Per-document mean log-probability under the corpus's own unigram
    LM — the perplexity-style fluency score a CCNet/Gopher pipeline
    thresholds on (boilerplate and keyword-stuffed docs sit in the
    improbable tail).

    Two passes, no shuffle (the bm25 shape): pass 1 folds per-block
    term counts into the global vocab (:func:`term_census`;
    vocabularies are MBs even at 100 TB corpus scale — Heaps' law — so
    a fold + broadcast beats any exchange); pass 2 broadcasts (sorted terms,
    ln p) and scores each batch via searchsorted + a SEQUENTIAL
    per-doc ``np.add.reduceat`` in document word order.  That order
    mirrors DuckDB's ``list_sum(list_transform(w, ...))`` fold exactly,
    so with per-term doubles identical (one IEEE divide + ln, which
    numpy and DuckDB agree on to the ulp here) the r6-rounded mean is
    bit-exact — verified value-exact at sf 0.001/0.01/0.1.  OOV words
    cannot occur (the LM is trained on the scored corpus itself)."""
    import ray

    terms, cnts = term_census(ds, text_col=text_col)
    total = np.float64(cnts.sum())
    lp = np.log(cnts.astype(np.float64) / total)
    state = ray.put((terms, lp))

    def score(t: pa.Table) -> pa.Table:
        terms_b, lp_b = ray.get(state)
        texts = t[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        texts = pc.fill_null(texts, "")
        la = pc.split_pattern(texts, pattern=" ")
        words = la.values.to_numpy(zero_copy_only=False)
        off = la.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        counts = np.diff(off)
        lp_w = lp_b[np.searchsorted(terms_b, words)]
        sums = (np.add.reduceat(lp_w, off[:-1])
                if len(counts) else np.empty(0, dtype=np.float64))
        return pa.table({id_col: t[id_col],
                         "logprob": pa.array(np.round(sums / counts, 6))})

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def _ngram_strings(texts, n: int):
    """Word n-gram STRINGS for a whole batch (the shared shifted
    zero-copy-slice + ``binary_join_element_wise`` kernel): returns
    (grams Arrow string array, owning-doc index np array, grams per
    doc) with boundary-crossing starts masked by doc-position
    arithmetic.  Docs with fewer than n words contribute no grams."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    texts = pc.fill_null(texts, "")
    la = pc.split_pattern(texts, pattern=" ")
    vals = la.values
    off = la.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    counts = np.diff(off)
    nv = len(vals)
    n_starts = max(nv - (n - 1), 0)
    g_per_doc = np.maximum(counts - (n - 1), 0)
    doc_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    if not n_starts:
        return pa.array([], pa.string()), np.empty(0, np.int64), g_per_doc
    slices = [vals.slice(k, n_starts) for k in range(n)]
    grams = pc.binary_join_element_wise(*slices, " ")
    in_pos = np.arange(nv, dtype=np.int64) - np.repeat(off[:-1], counts)
    valid = in_pos[:n_starts] <= counts[doc_idx[:n_starts]] - n
    return (grams.filter(pa.array(valid)), doc_idx[:n_starts][valid],
            g_per_doc)


def ngram_repetition(ds, *, n: int = 2, text_col: str = "text",
                     id_col: str = "doc_id"):
    """Gopher's duplicate n-gram fraction (the n >= 2 generalization of
    ``word_repetition``): per document, how many of its word n-grams are
    repeats of an earlier n-gram in the SAME document — boilerplate and
    template spam show up as a heavy dup tail.

    Same in-block exact-string shape as word_repetition: gram strings
    are built by one ``binary_join_element_wise`` over n shifted
    zero-copy slices of the flat word array (no per-row Python),
    boundary-crossing starts masked off with the doc-position
    arithmetic, and distinct counting is two Arrow ``group_by`` passes
    inside the block — a pure map stage, no exchange.  dup_ratio is one
    IEEE division of exact ints (header float rule: bit-stable)."""
    if n < 2:
        raise ValueError("use word_repetition for n=1")

    def rep(t: pa.Table) -> pa.Table:
        grams, gram_doc, g_per_doc = _ngram_strings(t[text_col], n)
        nd = len(g_per_doc)
        pairs = pa.table({"d": pa.array(gram_doc), "g": grams})
        dist = (pairs.group_by(["d", "g"]).aggregate([([], "count_all")])
                .group_by("d").aggregate([([], "count_all")]))
        n_dist = np.zeros(nd, dtype=np.int64)
        n_dist[dist["d"].to_numpy()] = \
            dist["count_all"].to_numpy().astype(np.int64)
        return pa.table({
            id_col: t[id_col],
            "n_grams": pa.array(g_per_doc),
            "n_distinct": pa.array(n_dist),
            "dup_ratio": pa.array((g_per_doc - n_dist).astype(np.float64)
                                  / np.maximum(g_per_doc, 1))})

    return ds.map_batches(rep, batch_format="pyarrow", zero_copy_batch=True)


def _source_frame(g: pa.Table | None, keys: list[str],
                  cols: tuple[str, ...]) -> pd.DataFrame:
    """A :func:`merge_groups` result as a pandas frame sorted by
    ``keys``, rows with a null key dropped; typed (object keys, int64
    ``cols``) and empty for ``None``, the fold of a Dataset whose
    blocks never ran."""
    if g is None:
        return pd.DataFrame({**{k: pd.Series([], dtype=object)
                                for k in keys},
                             **{c: pd.Series([], dtype=np.int64)
                                for c in cols}})
    for k in keys:
        g = g.filter(pc.is_valid(g[k]))
    return g.sort_by([(k, "ascending") for k in keys]).to_pandas()


def _source_sums(ds, rows, keys: list[str], cols: tuple[str, ...]
                 ) -> pd.DataFrame:
    """Sum the int64 ``cols`` of ``rows(block) -> pa.Table`` per
    ``keys`` group: each block's Arrow ``group_by`` is one
    ``stages.transport.fold`` partial, merged by ``merge_groups``
    (source cardinality is dozens, sources x vocab KBs under Heaps'
    law).  Returns :func:`_source_frame`."""
    merge = merge_groups(keys, dict.fromkeys(cols, "sum"))
    return _source_frame(fold(ds, lambda t: merge([rows(t)]), merge),
                         keys, cols)


def _source_words(t: pa.Table, source_col: str, text_col: str
                  ) -> pa.Table:
    """One block's (source, n_docs = 1, n_words) rows."""
    return pa.table({"source": t[source_col],
                     "n_docs": np.ones(t.num_rows, dtype=np.int64),
                     "n_words": _word_counts(t[text_col])})


def _source_terms(ds, source_col: str, text_col: str) -> pd.DataFrame:
    """Per-(source, term) word counts ``c`` of the whole corpus."""
    def rows(t: pa.Table) -> pa.Table:
        la, counts = _split_list(t[text_col])
        doc = np.repeat(np.arange(t.num_rows, dtype=np.int64), counts)
        return pa.table({"source": t[source_col].take(pa.array(doc)),
                         "term": la.values,
                         "c": np.ones(len(doc), dtype=np.int64)})

    return _source_sums(ds, rows, ["source", "term"], ("c",))


def source_mixture_weights(ds, *, source_col: str = "source",
                           text_col: str = "text"):
    """Temperature-scaled source sampling weights (alpha = 0.5) — the
    data-mixing step that decides how much of each source a training
    run draws: w_s = sqrt(tokens_s) / sum_s sqrt(tokens_s), the
    sqrt-temperature rule that upsamples small high-quality sources.

    One fold of per-block integer partials (source, docs, words)
    (:func:`_source_sums`), then pure driver math: sqrt is
    CORRECTLY-ROUNDED IEEE (unlike pow, which is why alpha is spelled
    as sqrt), and the normalizer is a sequential sum over sources in
    sorted-name order — mirroring
    DuckDB's ``list_sum(list_transform(list(... ORDER BY source)))``
    fold, so the r6-rounded weights are bit-exact."""
    folded = _source_sums(ds, lambda t: _source_words(t, source_col,
                                                      text_col),
                          ["source"], ("n_docs", "n_words"))
    sq = np.sqrt(folded["n_words"].to_numpy(dtype=np.float64))
    z = np.float64(0.0)
    for v in sq:                      # sequential: DuckDB list_sum order
        z = z + v
    return pd.DataFrame({
        "source": folded["source"],
        "n_docs": folded["n_docs"].astype(np.int64),
        "n_words": folded["n_words"].astype(np.int64),
        "weight": np.round(sq / z, 6)})


def token_drift_by_source(ds, *, source_col: str = "source",
                          text_col: str = "text"):
    """Token-distribution drift per source: total-variation distance
    between each source's unigram distribution and the whole corpus's —
    the text-side sibling of the PSI/KS numeric drift checks (a source
    whose vocabulary usage diverges is a candidate for re-weighting or
    exclusion in the mixing step).

    One fold of per-block (source, term, count) integer partials
    (:func:`_source_terms`; sources x vocab is KBs under Heaps' law at
    any corpus scale); per-source math is two exact int divisions, an
    abs, and a SEQUENTIAL sum over terms in sorted order — mirroring
    the oracle's ``list_sum(list(... ORDER BY term))`` fold, so the
    r6-rounded TVD is bit-exact."""
    scd = _source_terms(ds, source_col, text_col)
    terms = np.sort(scd["term"].unique())
    gterm = (scd.groupby("term")["c"].sum().reindex(terms)
             .to_numpy(dtype=np.int64))
    gq = gterm.astype(np.float64) / np.float64(gterm.sum())
    out_src, out_tvd = [], []
    for s, grp in scd.groupby("source"):
        v = (grp.set_index("term")["c"].reindex(terms, fill_value=0)
             .to_numpy(dtype=np.int64))
        ad = np.abs(v.astype(np.float64) / np.float64(v.sum()) - gq)
        z = np.float64(0.0)
        for x in ad:                  # sequential: DuckDB list_sum order
            z = z + x
        out_src.append(s)
        out_tvd.append(np.round(np.float64(0.5) * z, 6))
    return pd.DataFrame({"source": out_src,
                         "tvd": np.array(out_tvd, dtype=np.float64)})


def dup_doc_ratio_by_source(ds, *, source_col: str = "source",
                            text_col: str = "text"):
    """Exact-duplicate telemetry per source: how many of a source's
    documents are byte-identical to SOME other document in the corpus
    (the dedup-audit rollup a pipeline reports before/after exact
    dedup; sources dominated by dup docs are mirror/scrape artifacts).

    Duplicates are RARE at uniqueness-check scale, so this is the
    census-prune shape (validators/uniqueness.py): pass 1 folds
    per-block 64-bit text-hash counts, pass 2
    broadcasts the (few) candidate hashes and collects only candidate
    (md5, source) rows, and the driver verifies candidates on the EXACT
    md5 strings — a 64-bit collision only adds a candidate row, never a
    wrong count.  Per-source totals ride pass 2 as integer partials.
    dup_ratio is one int division (bit-stable)."""
    import ray

    from ..sketches import hash64
    from ..functions.strings import md5_fingerprint

    def census(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        texts = pc.fill_null(t[text_col], "").to_pandas()
        return np.unique(hash64(texts.to_numpy(dtype=object)),
                         return_counts=True)

    vals, cnts = fold(ds, census, merge_counts)
    cand = np.sort(vals[cnts >= 2].astype(np.uint64))
    cand_ref = ray.put(cand)

    def collect(t: pa.Table) -> tuple:
        cand_b = ray.get(cand_ref)
        src = pd.Series(t[source_col].to_numpy(zero_copy_only=False))
        texts = pc.fill_null(t[text_col], "").to_pandas()
        h = hash64(texts.to_numpy(dtype=object))
        pos = np.searchsorted(cand_b, h)
        hit = (pos < len(cand_b)) & (cand_b[np.minimum(
            pos, max(len(cand_b) - 1, 0))] == h) if len(cand_b) else \
            np.zeros(len(h), bool)
        tot = src.groupby(src).size()
        fps = md5_fingerprint(texts[hit]) if hit.any() else pd.Series(
            [], dtype=object)
        return ((tot.index.to_numpy(dtype=object),
                 tot.to_numpy(dtype=np.int64)),
                fps.to_numpy(dtype=object), src[hit].to_numpy(dtype=object))

    def merge(parts: list[tuple]) -> tuple:
        return (merge_counts([p[0] for p in parts]),
                *(merge_concat([p[1:] for p in parts])
                  or (np.empty(0, object),) * 2))

    (s_keys, s_cnts), fp_all, src_all = fold(ds, collect, merge)
    totals = dict(zip(s_keys.tolist(), s_cnts.tolist()))
    # exact verification on the md5 strings: true dups have count >= 2
    uniq, inv, ucnt = np.unique(fp_all, return_inverse=True,
                                return_counts=True)
    is_dup = ucnt[inv] >= 2 if len(fp_all) else np.empty(0, bool)
    dups: dict[str, int] = {}
    for s in src_all[is_dup]:
        dups[s] = dups.get(s, 0) + 1
    srcs_sorted = sorted(totals)
    n_docs = np.array([totals[s] for s in srcs_sorted], dtype=np.int64)
    n_dup = np.array([dups.get(s, 0) for s in srcs_sorted],
                     dtype=np.int64)
    return pd.DataFrame({
        "source": srcs_sorted,
        "n_docs": n_docs,
        "n_dup_docs": n_dup,
        "dup_ratio": n_dup.astype(np.float64) / n_docs})


def vocab_jaccard_source_pairs(ds, *, source_col: str = "source",
                               text_col: str = "text"):
    """Pairwise vocabulary overlap between sources (Jaccard of distinct
    word sets) — the corpus-composition diagnostic that spots mirror
    sources (Jaccard ~1) and domain outliers (Jaccard ~0) before
    mixing.

    The distinct (source, term) pairs come from one fold
    (:func:`_source_terms`); the pairwise intersection is one boolean
    matmul.  Scale note: the fold is dozens-of-sources x vocab — at
    web scale (vocab ~10M under Heaps' law) that is a few hundred MB
    of driver memory, still a fold, never a shuffle; past that, hash
    terms to uint64 and fold the hash sets (a 64-bit collision
    under-counts the union by ~0 at any realistic vocab).
    n_inter/n_union are exact ints, jaccard one int division
    (bit-stable) — SQL-exact against the term-join oracle."""
    d = _source_terms(ds, source_col, text_col)
    srcs = np.sort(d["source"].unique())
    terms = np.sort(d["term"].unique())
    m = np.zeros((len(srcs), len(terms)), dtype=bool)
    m[np.searchsorted(srcs, d["source"].to_numpy(dtype=object)),
      np.searchsorted(terms, d["term"].to_numpy(dtype=object))] = True
    inter = (m.astype(np.int64) @ m.astype(np.int64).T)
    sizes = m.sum(axis=1).astype(np.int64)
    ia, ib = np.triu_indices(len(srcs), k=1)
    n_inter = inter[ia, ib]
    n_union = sizes[ia] + sizes[ib] - n_inter
    return pd.DataFrame({
        "source_a": srcs[ia], "source_b": srcs[ib],
        "n_inter": n_inter, "n_union": n_union,
        "jaccard": n_inter.astype(np.float64) / n_union})


def token_budget_resample(ds, *, id_col: str = "doc_id",
                          source_col: str = "source",
                          text_col: str = "text",
                          budget_num: int = 1, budget_den: int = 2,
                          buckets: int = 1000, output: str = "summary"):
    """Token-budgeted corpus resampling: deterministically thin each
    source toward a per-source token budget of ``num/den`` times the
    mean source's tokens — the "apply the mixture" step after
    ``source_mixture_weights`` decides shares (a source over budget is
    hash-thinned; one at/under budget keeps everything).

    Per-source keep rates quantize to INTEGER bucket cuts with floor
    division (``min(buckets, tw*buckets*num // (den*ns*w_s))`` — no
    float rounding rule to mirror), and the row decision is the repo's
    stateless split hash (functions/sampling.split_code arithmetic:
    pure int64, retry/partition/cluster-size invariant, ids >= 0 for
    SQL parity).  Two passes, no shuffle: integer partials fold
    (:func:`_source_sums`), cuts broadcast into a pure filter map.

    ``output='rows'`` returns the filtered Dataset (the pipeline step);
    ``'summary'`` returns per-source (n_docs, n_words, cut, n_kept,
    words_kept) — all-integer, SQL-exact."""
    from ..functions.sampling import split_code

    g = _source_sums(ds, lambda t: _source_words(t, source_col, text_col),
                     ["source"], ("n_docs", "n_words"))
    tw = np.int64(g["n_words"].sum())
    ns = np.int64(len(g))
    w_s = g["n_words"].to_numpy(dtype=np.int64)
    cut = np.minimum(np.int64(buckets),
                     (tw * buckets * budget_num)
                     // (budget_den * ns * w_s))
    srcs = g["source"].to_numpy(dtype=object)
    order = np.argsort(srcs)

    import ray
    cut_ref = ray.put((srcs[order], cut[order]))

    def keep_mask(t: pa.Table) -> np.ndarray:
        srcs_b, cut_b = ray.get(cut_ref)
        code = split_code(t[id_col].to_numpy(zero_copy_only=False),
                          buckets=buckets)
        row_src = np.asarray(t[source_col].to_numpy(
            zero_copy_only=False), dtype=object)
        return code < cut_b[np.searchsorted(srcs_b, row_src)]

    if output == "rows":
        def filt(t: pa.Table) -> pa.Table:
            return t.filter(pa.array(keep_mask(t)))

        return ds.map_batches(filt, batch_format="pyarrow",
                              zero_copy_batch=True)

    def kept_counts(t: pa.Table) -> pa.Table:
        keep = keep_mask(t)
        return pa.table({"source": t[source_col].filter(pa.array(keep)),
                         "n_kept": np.ones(keep.sum(), dtype=np.int64),
                         "words_kept": _word_counts(t[text_col])[keep]})

    kf = _source_sums(ds, kept_counts, ["source"],
                      ("n_kept", "words_kept")) \
        .set_index("source").reindex(g["source"], fill_value=0)
    return pd.DataFrame({
        "source": g["source"],
        "n_docs": g["n_docs"].to_numpy(dtype=np.int64),
        "n_words": w_s,
        "cut": cut,
        "n_kept": kf["n_kept"].to_numpy(dtype=np.int64),
        "words_kept": kf["words_kept"].to_numpy(dtype=np.int64)})


def _quality_text_state(t: pa.Table, text_col: str):
    """(gopher keep mask, word counts, pandas texts, hash64 of the
    np_object text array) — the ONE quality-gated dedup-hash kernel the
    assembly funnel and the corpus cleaner both ride, pinning the
    hash-dtype rule (always the object array) in a single place."""
    from ..sketches import hash64

    keep, counts = gopher_keep_mask(t[text_col])
    texts = pd.Series(pc.fill_null(t[text_col], "").to_pandas())
    return keep, counts, texts, hash64(texts.to_numpy(dtype=object))


def _candidate_hits(h: np.ndarray, keep: np.ndarray,
                    cand: np.ndarray) -> np.ndarray:
    """Mask of quality rows whose text hash is in the sorted candidate
    array (broadcast searchsorted membership)."""
    pos = np.searchsorted(cand, h)
    return keep & (pos < len(cand)) & (
        cand[np.minimum(pos, len(cand) - 1)] == h)


def _minid_losers(ids: np.ndarray, fps: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-fingerprint min-id resolution: lexsort by (fp, id),
    first of each run wins.  Returns (sort order, loser mask in sorted
    order) so callers slice their own aligned extras."""
    order = np.lexsort((ids, fps))
    fps_s = fps[order]
    first = np.r_[True, fps_s[1:] != fps_s[:-1]] if len(fps_s) else         np.empty(0, dtype=bool)
    return order, ~first


def corpus_assembly_funnel(ds, *, id_col: str = "doc_id",
                           source_col: str = "source",
                           text_col: str = "text",
                           buckets: int = 1000):
    """End-to-end corpus-assembly funnel: Gopher quality gate -> exact
    dedup (min-id canonical per identical text) -> token-budget
    thinning, reporting per-source survivor counts at every stage —
    the acceptance dashboard a training-data pipeline publishes per
    ingest batch.

    Three pruned passes, no shuffle (all state that crosses passes is
    KB-scale and broadcast): pass A folds per-source raw/quality
    integer partials plus a 64-bit text-hash census of the quality
    survivors (dup-rare uniqueness regime — heavy-dup corpora should
    run stages/dedup.exact_dedup first); pass B collects only
    candidate-hash survivor rows and resolves exact md5 groups
    driver-side (min doc_id wins, cross-source groups resolve to the
    winner's source; a 64-bit collision only adds a candidate row);
    pass C broadcasts the removed-id array + integer bucket cuts
    (token_budget_resample's floor-division rule over the DEDUPED word
    totals) and folds final keep counts.  Every number is an exact
    integer — SQL-exact end to end."""
    import ray

    from ..functions.sampling import split_code
    from ..functions.strings import md5_fingerprint

    def _keep(t: pa.Table) -> np.ndarray:
        return gopher_keep_mask(t[text_col])

    a_cols = ("n_raw", "n_quality", "w_quality")
    merge_src = merge_groups(["source"], dict.fromkeys(a_cols, "sum"))

    def pass_a(t: pa.Table) -> tuple:
        keep, counts, _, h = _quality_text_state(t, text_col)
        g = merge_src([pa.table({
            "source": t[source_col],
            "n_raw": np.ones(t.num_rows, dtype=np.int64),
            "n_quality": keep.astype(np.int64),
            "w_quality": counts * keep})])
        return g, np.unique(h[keep], return_counts=True)

    g, (vals, cnts) = fold(ds, pass_a,
                           merge_fields(merge_src, merge_counts))
    agg = _source_frame(g, ["source"], a_cols)
    cand = np.sort(vals[cnts >= 2].astype(np.uint64))

    removed_ids = np.empty(0, dtype=np.int64)
    rem_adjust = _source_frame(None, ["source"], ("n_rm", "w_rm"))
    if cand.size:
        cand_ref = ray.put(cand)

        def pass_b(t: pa.Table) -> tuple:
            keep, counts, texts, h = _quality_text_state(t, text_col)
            hit = _candidate_hits(h, keep, ray.get(cand_ref))
            return (t[id_col].to_numpy(zero_copy_only=False)[hit],
                    np.asarray(t[source_col].to_numpy(
                        zero_copy_only=False), dtype=object)[hit],
                    counts[hit],
                    md5_fingerprint(texts[hit]).to_numpy(dtype=object))

        ids, srcs, nws, fps = fold(ds, pass_b, merge_concat)
        ids, nws = ids.astype(np.int64), nws.astype(np.int64)
        # exact per-md5 min-id: lexsort by (fp, id), first of each run wins
        order, rm = _minid_losers(ids, fps)
        removed_ids = np.sort(ids[order][rm])
        rem_adjust = (pd.DataFrame({"source": srcs[order][rm],
                                    "n_rm": 1, "w_rm": nws[order][rm]})
                      .groupby("source", as_index=False).sum())

    agg = agg.merge(rem_adjust, on="source", how="left").fillna(0)
    n_dedup = (agg["n_quality"] - agg["n_rm"]).to_numpy(dtype=np.int64)
    w_dedup = (agg["w_quality"] - agg["w_rm"]).to_numpy(dtype=np.int64)
    live = w_dedup > 0
    tw = np.int64(w_dedup[live].sum())
    ns = np.int64(int(live.sum()))
    cut = np.zeros(len(agg), dtype=np.int64)
    if ns:
        cut[live] = np.minimum(np.int64(buckets),
                               (tw * buckets) // (2 * ns * w_dedup[live]))
    srcs_sorted = agg["source"].to_numpy(dtype=object)
    state_ref = ray.put((srcs_sorted, cut, np.sort(removed_ids)))

    def pass_c(t: pa.Table) -> pa.Table:
        srcs_b, cut_b, rm_b = ray.get(state_ref)
        keep, _ = _keep(t)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        canon = keep & ~np.isin(ids, rm_b, assume_unique=False)
        src = np.asarray(t[source_col].to_numpy(zero_copy_only=False),
                         dtype=object)
        code = split_code(ids, buckets=buckets)
        fin = canon & (code < cut_b[np.searchsorted(srcs_b, src)])
        return pa.table({"source": t[source_col].filter(pa.array(fin)),
                         "n_final": np.ones(fin.sum(), dtype=np.int64)})

    ff = _source_sums(ds, pass_c, ["source"], ("n_final",)) \
        .set_index("source").reindex(agg["source"], fill_value=0)
    return pd.DataFrame({
        "source": agg["source"],
        "n_raw": agg["n_raw"].to_numpy(dtype=np.int64),
        "n_quality": agg["n_quality"].to_numpy(dtype=np.int64),
        "n_dedup": n_dedup,
        "cut": cut,
        "n_final": ff["n_final"].to_numpy(dtype=np.int64)})


def normalize_text(ds, *, text_col: str = "text", id_col: str = "doc_id"):
    """Dedup-canonicalization text normalization (the CCNet-style
    pre-hash pass: lowercase, strip non-alphanumerics, collapse runs of
    spaces, trim) — the transform that turns "near"-exact duplicates
    differing only in case/punct/whitespace into EXACT hash duplicates
    (reference string cleanup analogue: MissingValues.py NaN-token
    canonicalization, generalized to full-text canonical form).

    Four vectorized Arrow C kernels per batch (utf8_lower + two RE2
    replace_substring_regex + utf8_trim), pure map, no shuffle; the
    normalized STRING is exactly SQL-checkable because pyarrow and
    DuckDB regexp_replace both compile RE2 (the pii_mask parity
    trick).  Nulls stay null on both sides."""

    def fn(t: pa.Table) -> pa.Table:
        x = pc.utf8_lower(t[text_col])
        x = pc.replace_substring_regex(x, pattern="[^a-z0-9 ]",
                                       replacement="")
        x = pc.replace_substring_regex(x, pattern=" +", replacement=" ")
        x = pc.utf8_trim(x, characters=" ")
        return pa.table({id_col: t[id_col],
                         "norm_text": x,
                         "n_norm_chars": pc.cast(pc.utf8_length(x),
                                                 pa.int64())})

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def length_quantile_filter(ds, *, q: float = 0.9,
                           source_col: str = "source",
                           text_col: str = "text",
                           id_col: str = "doc_id", round_digits: int = 6):
    """Per-source length-outlier gate: keep a doc iff its word count is
    <= the source's q-quantile (the adaptive-length cut a mixed-source
    corpus uses instead of one global max — transcript sources run
    long, social sources short).

    Two passes, no shuffle: pass 1 folds per-block (source, n_words)
    count partials (word counts are bounded small ints, so the partial
    is bounded by sources x distinct lengths, not rows) through
    ``stages.transport.fold`` into per-source :class:`ValueCounts`; the
    driver takes each source's quantile (linear interpolation ==
    DuckDB ``quantile_cont``, the profile query's proven parity path)
    and broadcasts the tiny source->cutoff map; pass 2 flags each row.
    The flag compares against the r6-ROUNDED cutoff on both sides so
    last-ulp quantile noise can never flip it."""
    from ..sketches import ValueCounts

    def partial(t: pa.Table) -> pa.Table:
        nw = _word_counts(t[text_col])
        g = pa.table({source_col: t[source_col],
                      "n_words": pa.array(nw),
                      "cnt": pa.array(np.ones(len(nw), np.int64))}) \
            .group_by([source_col, "n_words"]).aggregate([("cnt", "sum")])
        return pa.table({source_col: g[source_col],
                         "n_words": g["n_words"], "cnt": g["cnt_sum"]})

    census = fold(ds, partial, merge_groups([source_col, "n_words"],
                                            {"cnt": "sum"}))
    cuts = {}
    for s, grp in (census.to_pandas() if census is not None
                   else pd.DataFrame({source_col: []})).groupby(source_col):
        vc = ValueCounts.from_items(grp["n_words"].to_numpy(),
                                    grp["cnt"].to_numpy())
        cuts[s] = round(vc.quantile(q), round_digits)
    import ray
    keys = np.array(sorted(cuts), dtype=object)
    vals = np.array([cuts[k] for k in keys], dtype=np.float64)
    state = ray.put((keys, vals))

    def flag(t: pa.Table) -> pa.Table:
        keys_b, vals_b = ray.get(state)
        nw = _word_counts(t[text_col])
        src = t[source_col].to_numpy(zero_copy_only=False)
        cut = vals_b[np.searchsorted(keys_b, src.astype(object))]
        return pa.table({id_col: t[id_col], source_col: t[source_col],
                         "n_words": pa.array(nw),
                         "cutoff": pa.array(cut),
                         "keep_flag": pa.array(
                             (nw.astype(np.float64) <= cut)
                             .astype(np.int64))})

    return ds.map_batches(flag, batch_format="pyarrow",
                          zero_copy_batch=True)


def crossdoc_gram_coverage(ds, *, n: int = 3, text_col: str = "text",
                           id_col: str = "doc_id"):
    """Cross-document n-gram coverage: per document, how many of its
    DISTINCT word n-grams also occur in at least one OTHER document
    (the span-level dup telemetry behind substring-dedup decisions —
    Lee et al. 2022 "Deduplicating Training Data Makes Language Models
    Better" motivates exactly this measurement).  Boilerplate-heavy
    docs score n_shared ~= n_distinct.

    Two streaming passes over the corpus, zero shuffle:

    1. census — each block emits (gram-hash, distinct-doc-count)
       partials (a document lives in exactly one row/block, so
       per-block doc counts SUM exactly across blocks); the near_dup
       tree merge folds them and grams with >= 2 docs broadcast once
       as a sorted uint64 array.  On the test fixture the shared set
       is vocab-bounded (31^n); an open-vocab corpus would swap the
       broadcast for a slice-partitioned membership check
       (``transport.slice_map``) past object-store size.
    2. score — each block re-derives its docs' distinct grams
       (the shared ``_gram_hashes`` kernel both passes ride, so
       tokenization can never diverge), one searchsorted against the
       broadcast set, bincount per doc.

    Docs with fewer than n words carry no grams and are dropped
    (matching the oracle's empty-list unnest).  Hashed grams vs the
    oracle's strings differ only on 64-bit collisions (~1e-10 here;
    the decontaminate caveat)."""
    import ray

    def _distinct_doc_grams(t: pa.Table):
        words, counts = _flat_words(t[text_col])
        doc_idx, grams, g_per_doc = _gram_hashes(words, counts, n)
        order = np.lexsort((grams, doc_idx))
        d2, g2 = doc_idx[order], grams[order]
        keep = np.r_[True, (d2[1:] != d2[:-1]) | (g2[1:] != g2[:-1])] \
            if len(d2) else np.empty(0, bool)
        return d2[keep], g2[keep], counts

    vals, cnts = fold(ds, lambda t: np.unique(
        _distinct_doc_grams(t)[1], return_counts=True), merge_counts)
    shared_ref = ray.put(np.asarray(vals, dtype=np.uint64)[cnts >= 2])

    def score(t: pa.Table) -> pa.Table:
        shared = ray.get(shared_ref)
        dd, gg, counts = _distinct_doc_grams(t)
        n_docs = len(counts)
        n_distinct = np.bincount(dd, minlength=n_docs).astype(np.int64)
        if len(gg) and len(shared):
            pos = np.searchsorted(shared, gg)
            pos[pos == len(shared)] = 0
            hit = shared[pos] == gg
            n_shared = np.bincount(dd, weights=hit.astype(np.float64),
                                   minlength=n_docs).astype(np.int64)
        else:
            n_shared = np.zeros(n_docs, dtype=np.int64)
        keep = counts >= n                   # docs owning >= 1 gram
        return pa.table({
            id_col: t[id_col].filter(pa.array(keep)),
            "n_distinct": pa.array(n_distinct[keep]),
            "n_shared": pa.array(n_shared[keep])})

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def dup_cluster_size_histogram(ds, *, text_col: str = "text"):
    """Exact-duplicate CLUSTER-SIZE distribution: how many duplicate
    groups of each size the corpus contains (size 1 = unique docs) —
    the telemetry a dedup stage reports to size its work and catch
    mirror blowups (one size-50k cluster is a very different corpus
    from 50k size-2 clusters; the reference's duplicate check reports
    only a flat count, AnomalyValueChecker.py:63-77).

    Same census-prune shape as ``dup_doc_ratio_by_source``: a 64-bit
    text-hash census folds per-block partials; only rows whose
    hash count >= 2 are collected and resolved on EXACT md5 strings
    (a 64-bit collision only adds a candidate, never a wrong size);
    every row the census saw exactly once is a size-1 cluster counted
    from the census alone — singleton rows never move.  All-integer
    output: (cluster_size, n_clusters, n_docs)."""
    import ray

    from ..sketches import hash64
    from ..functions.strings import md5_fingerprint

    def census(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        texts = pc.fill_null(t[text_col], "").to_pandas()
        return np.unique(hash64(texts.to_numpy(dtype=object)),
                         return_counts=True)

    vals, cnts = fold(ds, census, merge_counts)
    total = int(cnts.sum())
    empty = pd.DataFrame({"cluster_size": pd.Series([], dtype=np.int64),
                          "n_clusters": pd.Series([], dtype=np.int64),
                          "n_docs": pd.Series([], dtype=np.int64)})
    if total == 0:
        return empty
    cand = np.sort(vals[cnts >= 2].astype(np.uint64))
    if len(cand) == 0:
        return pd.DataFrame({"cluster_size": np.array([1], np.int64),
                             "n_clusters": np.array([total], np.int64),
                             "n_docs": np.array([total], np.int64)})
    cand_ref = ray.put(cand)

    def collect(t: pa.Table) -> tuple[np.ndarray]:
        cand_b = ray.get(cand_ref)
        texts = pc.fill_null(t[text_col], "").to_pandas()
        h = hash64(texts.to_numpy(dtype=object))
        pos = np.searchsorted(cand_b, h)
        hit = (cand_b[np.minimum(pos, len(cand_b) - 1)] == h)
        fps = md5_fingerprint(texts[hit]) if hit.any() else \
            pd.Series([], dtype=object)
        return (fps.to_numpy(dtype=object),)

    fp_all, = fold(ds, collect, merge_concat)
    # exact md5 group sizes among the candidates; everything else is a
    # size-1 cluster counted straight off the census totals
    _, ucnt = np.unique(fp_all, return_counts=True)
    sizes, n_clusters = np.unique(ucnt, return_counts=True)
    sizes = sizes.astype(np.int64)
    n_clusters = n_clusters.astype(np.int64)
    singletons = total - len(fp_all)
    if singletons:
        if len(sizes) and sizes[0] == 1:
            n_clusters[0] += singletons
        else:
            sizes = np.concatenate([[1], sizes]).astype(np.int64)
            n_clusters = np.concatenate([[singletons],
                                         n_clusters]).astype(np.int64)
    return pd.DataFrame({"cluster_size": sizes,
                         "n_clusters": n_clusters,
                         "n_docs": sizes * n_clusters})
