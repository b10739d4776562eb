"""Pluggable validator registry — the SURVEY §2.10 extension surface.

The reference's extension hook is duck typing: any pyod estimator with
``fit``/``decision_function`` can be passed as ``clf``
(control.py:139-170, used at runs.py:162,198), and any sklearn-style
transformer slots into the pipeline.  The engine's equivalent is a
NAMED registry of validator factories so pipelines can be assembled
from declarative config (name + kwargs) instead of imports.

A registered validator is a callable ``fn(ds, **kwargs)`` returning its
findings (violation rows / flags dataset / scalar report).  Built-ins
cover the SURVEY §7.1 validator families; users add their own with
``@register("name")``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class ValidatorSpec:
    name: str
    fn: Callable
    description: str


_REGISTRY: dict[str, ValidatorSpec] = {}


def register(name: str, description: str = ""):
    """Decorator: add a validator factory under ``name`` (last wins)."""
    def deco(fn):
        _REGISTRY[name] = ValidatorSpec(name=name, fn=fn,
                                        description=description
                                        or (fn.__doc__ or "").strip()
                                        .split("\n")[0])
        return fn
    return deco


def get(name: str) -> ValidatorSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown validator {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def names() -> list[str]:
    return sorted(_REGISTRY)


def run(name: str, ds, **kwargs):
    """Config-driven invocation: ``run('duplicate_keys', ds, cols=[...])``."""
    return get(name).fn(ds, **kwargs)


def _install_builtins() -> None:
    from ..functions import sampling
    from ..stages import cluster, graph, media, text
    from ..stages.dedup import exact_dedup, minhash_lsh_pairs, \
        simhash_neardup_pairs
    from ..stages.textjoin import ngram_jaccard_pairs
    from . import domain, drift, heavy, referential, uniqueness
    from .near_dup import (duplicate_phash_groups, hamming_neardup_pairs,
                           phash_dedup_clusters)

    def _decontaminate_self_eval(ds, eval_ds=None, *, text_col="text",
                                 id_col="doc_id", n=8):
        """Decontaminate ``ds`` against ``eval_ds`` (defaults to ``ds``
        itself, flagging internal n-gram repeats)."""
        from ..stages.text import decontaminate, eval_gram_set
        ref = eval_gram_set(eval_ds if eval_ds is not None else ds,
                            text_col=text_col, n=n)
        return decontaminate(ds, ref, text_col=text_col, id_col=id_col,
                             n=n)

    for spec_name, fn, desc in [
        ("duplicate_keys", uniqueness.duplicate_keys,
         "exact uniqueness violation listing on key columns"),
        ("distinct_counts", uniqueness.distinct_counts,
         "exact distinct counts per column (tree-merged)"),
        ("hll_distinct", uniqueness.hll_distinct,
         "approximate distinct counts (HyperLogLog)"),
        ("hll_distinct_per_group", uniqueness.hll_distinct_per_group,
         "approximate distinct values per key (HLL sketch per group)"),
        ("constant_columns", domain.constant_columns,
         "constant / zero-variance column finding (profile-driven)"),
        ("orphans", referential.orphans,
         "referential-integrity anti-join between two key streams"),
        ("psi_numeric", drift.psi_numeric,
         "population-stability-index drift on a numeric column"),
        ("psi_categorical", drift.psi_categorical,
         "population-stability-index drift on a categorical column"),
        ("ks_numeric", drift.ks_numeric,
         "two-sample Kolmogorov-Smirnov drift on a numeric column"),
        ("duplicate_phash_groups", duplicate_phash_groups,
         "exact near-dup buckets on a 64-bit hash column"),
        ("hamming_neardup_pairs", hamming_neardup_pairs,
         "banded-Hamming near-duplicate pairs (distributed MIH)"),
        ("phash_dedup_clusters", phash_dedup_clusters,
         "transitive near-dup clusters + canonical flags on a hash col"),
        ("minhash_neardup_pairs", minhash_lsh_pairs,
         "MinHash+LSH near-duplicate pairs with exact-Jaccard verify"),
        ("simhash_neardup_pairs", simhash_neardup_pairs,
         "SimHash near-duplicate pairs via banded Hamming"),
        ("ngram_jaccard_pairs", ngram_jaccard_pairs,
         "EXACT char-n-gram Jaccard similarity join (PPJoin filters)"),
        ("exact_dedup", exact_dedup,
         "keep-first exact dedup on key columns"),
        ("audio_features", media.audio_features,
         "audio decode + feature extraction (wavr)"),
        ("video_metadata", media.video_metadata,
         "header-only video metadata + truncation check"),
        ("video_frame_neardup", media.video_frame_neardup,
         "video near-dup pairs via sampled-frame phash matching"),
        ("heavy_hitters", heavy.heavy_hitters,
         "exact frequent-item listing via Misra-Gries sketch + verify"),
        ("decontaminate", _decontaminate_self_eval,
         "benchmark decontamination vs a broadcast eval n-gram set"),
        ("word_repetition", text.word_repetition,
         "Gopher-style duplicate-word fraction per document"),
        ("quota_sample", sampling.quota_sample,
         "deterministic at-most-k rows per key (per-domain cap)"),
        ("connected_components", graph.attach_clusters,
         "connected-component cluster ids over an edge stream"),
        ("cluster_similarity", cluster.cluster_similarity,
         "distance-to-k-medoid pattern similarity (CLARA/PAM, F15)"),
    ]:
        _REGISTRY[spec_name] = ValidatorSpec(spec_name, fn, desc)


_install_builtins()
