"""Distributed Bloom-filter build + broadcast probe.

The scale story: ``stages/join.semi_join`` broadcasts the right side's
EXACT distinct-key array, which is perfect until the key set outgrows
the object store (its ``max_broadcast_keys`` bail-out).  A Bloom filter
at ~12 bits/key is ~40x smaller than raw int64 keys, so at 100-TB scale
it is the prefilter that lets the probe side drop the overwhelming
majority of rows BEFORE any exchange — the surviving sliver is then
verified exactly (broadcast keys when they fit, a bucketed shuffle join
otherwise).  Bloom filters have false positives but never false
negatives, so prefilter + exact verify is lossless.

No reference counterpart (the reference joins only index-aligned
labels, /root/reference/pipelines/experiment/experiment.py:125); this
is a standard large-pipeline building block (Bloom 1970; Broder &
Mitzenmacher 2004 survey).

Build shape: one pass over the key stream — each block sets its keys'
bits into a PRIVATE bitmap, one fold partial per block (never per-key
Python rows), and ``stages.transport.fold`` ORs them.  Probe shape:
the (bits, m, k) tuple rides the object store once via ``ray.put``;
each probe block tests all k positions vectorized (word-index gather +
bit masks), no Python loop over rows.

Null rule (SQL ``IN``): a NULL key is never a member — build drops
nulls, probe reports them non-member.  Build and probe hash keys with
``sketches.key_hash``, so a key has the same bit positions whatever its
column's width, nullability or block layout.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sketches import key_hash, key_values, splitmix64
from .transport import fold, merge_unique

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _positions(base: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """(n, k) uint64 bit positions of the key hashes ``base`` via double
    hashing (Kirsch & Mitzenmacher 2006: h1 + i*h2 preserves the
    asymptotic FP rate with two hash evaluations)."""
    h1 = splitmix64(base)
    h2 = splitmix64(base ^ _GOLDEN) | np.uint64(1)
    i = np.arange(k, dtype=np.uint64)[None, :]
    with np.errstate(over="ignore"):
        return (h1[:, None] + i * h2[:, None]) % np.uint64(m_bits)


def _set_bits(words: np.ndarray, pos: np.ndarray) -> None:
    np.bitwise_or.at(words, (pos >> np.uint64(6)).astype(np.int64),
                     np.uint64(1) << (pos & np.uint64(63)))


def _test_bits(words: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Boolean (n,) mask: every one of the k positions set."""
    sel = words[(pos >> np.uint64(6)).astype(np.int64)]
    hit = (sel >> (pos & np.uint64(63))) & np.uint64(1)
    return hit.all(axis=1)


def _build(ds, col: str, m_bits: int, k: int, with_keys: bool):
    """Shared build pass: each block's payload carries its private
    bitmap (+ its unique keys when ``with_keys``); the merge ORs /
    uniques respectively, the driver folds the survivors."""
    n_words = (m_bits + 63) // 64

    def part(t: pa.Table) -> tuple:
        words = np.zeros(n_words, dtype=np.uint64)
        h, valid = key_hash([t[col]])
        if valid.any():
            _set_bits(words, _positions(h[valid], m_bits, k))
        if not with_keys:
            return (words,)
        keys, valid = key_values(t[col])
        return words, np.unique(keys[valid])

    def merge(parts: list[tuple]) -> tuple:
        acc = np.zeros(n_words, dtype=np.uint64)
        for p in parts:
            np.bitwise_or(acc, p[0], out=acc)
        return (acc, merge_unique([p[1] for p in parts])) if with_keys \
            else (acc,)

    acc, *keys = fold(ds, part, merge)
    bloom = {"bits": acc, "m": m_bits, "k": k}
    return (bloom, keys[0]) if with_keys else bloom


def build_bloom(ds, col: str, *, m_bits: int, k: int = 7) -> dict:
    """One-pass distributed build over ``ds[col]``; returns
    ``{"bits": uint64 words, "m": m_bits, "k": k}`` ready for
    ``ray.put``.  Size ``m_bits`` ~ 12 bits per expected distinct key
    for ~1% FP at k=7."""
    return _build(ds, col, m_bits, k, with_keys=False)


def build_bloom_with_keys(ds, col: str, *, m_bits: int, k: int = 7
                          ) -> tuple[dict, np.ndarray]:
    """ONE pass producing BOTH the Bloom bitmap and the exact sorted
    distinct-key array — the query shape at test scale: bloom
    prefilter + exact-broadcast verify without executing the build
    side twice.  At true 100-TB scale the exact half is dropped (keys
    won't fit) and the verify becomes a bucketed join on the bloom
    survivors."""
    return _build(ds, col, m_bits, k, with_keys=True)


def probe_bloom(values, bloom: dict) -> np.ndarray:
    """Vectorized membership test — boolean mask aligned with the
    input, no false negatives.  Accepts numpy arrays or Arrow
    arrays/ChunkedArrays; Arrow nulls report non-member."""
    h, valid = key_hash([values])
    hit = np.zeros(len(h), dtype=bool)
    if valid.any():
        hit[valid] = _test_bits(bloom["bits"],
                                _positions(h[valid], bloom["m"],
                                           bloom["k"]))
    return hit
