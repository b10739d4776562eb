"""String scalar functions: NaN-token canonicalization, shape patterns,
text-quality metrics, fingerprints — all vectorized per batch.

Reference provenance:
- NaN tokens {"NaN","nan"," ",""} -> null: XCopySchemaTransformer.py:55-63.
- char-class shape codes (upper/lower/digit/other per char) + length:
  CategoricalPatterns.py:46-83 — the engine emits a readable shape
  alphabet (A/a/9/#) instead of the reference's 2-bit BitArray hex, same
  information, SQL-mirrorable.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

NAN_TOKENS = ("NaN", "nan", " ", "")


def canonicalize_nan_tokens(arr: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Map the reference's string NaN tokens to real nulls
    (XCopySchemaTransformer.py:55-63).

    The input is COMPACTED to offset 0 first: pyarrow 16.1's ``if_else``
    with a null string scalar SILENTLY CORRUPTS values when the string
    array is an offset slice (zero-copy batches sliced by batch_size hit
    this) — regression-pinned in tests/test_row_checks.py."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if arr.offset != 0:
        arr = pa.concat_arrays([arr])
    mask = pc.is_in(arr, value_set=pa.array(NAN_TOKENS))
    return pc.if_else(mask, pa.scalar(None, type=pa.string()), arr)


def shape_pattern(series: pd.Series) -> pd.Series:
    """Char-class shape: upper->A, lower->a, digit->9, other->#
    (CategoricalPatterns.py:57-75 re-expressed).  Vectorized regex chain;
    mirrored 1:1 by the oracle SQL regexp_replace chain."""
    s = series.astype("string")
    s = s.str.replace(r"[A-Z]", "A", regex=True)
    s = s.str.replace(r"[a-z]", "a", regex=True)
    s = s.str.replace(r"[0-9]", "9", regex=True)
    s = s.str.replace(r"[^Aa9]", "#", regex=True)
    return s


# byte-class LUT for the vectorized reference_bit_pattern: per ASCII
# byte the two code chars (upper->'00', lower->'01', digit->'10',
# other->'11') — the same flat-buffer trick _gram_hashes uses
_BIT0 = np.full(256, ord("1"), dtype=np.uint8)
_BIT1 = np.full(256, ord("1"), dtype=np.uint8)
_BIT0[ord("A"):ord("Z") + 1] = ord("0")
_BIT1[ord("A"):ord("Z") + 1] = ord("0")
_BIT0[ord("a"):ord("z") + 1] = ord("0")
_BIT1[ord("a"):ord("z") + 1] = ord("1")
_BIT0[ord("0"):ord("9") + 1] = ord("1")
_BIT1[ord("0"):ord("9") + 1] = ord("0")


def _bit_pattern_rowwise(series: pd.Series) -> pd.Series:
    """Per-row reference encoding — the non-ASCII / non-string fallback
    (Python char classes are Unicode-aware; the byte LUT is not)."""
    def enc(v):
        if v is None or (isinstance(v, float) and np.isnan(v)):
            return None
        bits = []
        for ch in str(v):
            if ch.isupper():
                bits.append("00")
            elif ch.islower():
                bits.append("01")
            elif ch.isdigit():
                bits.append("10")
            else:
                bits.append("11")
        return "0b0" + "".join(bits)

    return series.map(enc)


def reference_bit_pattern(series: pd.Series) -> pd.Series:
    """EXACT reference encoding (CategoricalPatterns.py:57-75): per char
    upper->'00', lower->'01', digit->'10', other->'11'; '0' prepended;
    rendered as ``str(BitArray(bin=bits))``.  The bit length is always
    odd (2n+1), and bitstring renders non-nibble-aligned values in
    binary form — i.e. ``'0b' + bits`` — so the encoding is reproduced
    here without the bitstring dependency.  Nulls stay null.

    Vectorized: a uint8 byte-class LUT over the Arrow flat string
    buffer writes every output byte with two fancy-indexed stores and
    the result array assembles via ``StringArray.from_buffers`` — no
    per-row Python on the ASCII hot path (non-ASCII or non-string
    inputs fall back to the row-wise Unicode-exact encoder)."""
    try:
        arr = pa.Array.from_pandas(series, type=pa.string())
    except (pa.ArrowInvalid, pa.ArrowTypeError):
        return _bit_pattern_rowwise(series)
    if arr.offset != 0:
        arr = pa.concat_arrays([arr])
    off = arr.buffers()[1]
    off = np.frombuffer(off, dtype=np.int32, count=len(arr) + 1)
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8,
                         count=int(off[-1])) if arr.buffers()[2] else \
        np.empty(0, dtype=np.uint8)
    if data.size and (data >= 0x80).any():
        return _bit_pattern_rowwise(series)
    n = len(arr)
    lens = np.diff(off).astype(np.int64)
    out_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(3 + 2 * lens, out=out_off[1:])
    buf = np.empty(int(out_off[-1]), dtype=np.uint8)
    starts = out_off[:-1]
    buf[starts] = ord("0")
    buf[starts + 1] = ord("b")
    buf[starts + 2] = ord("0")
    if data.size:
        row = np.repeat(np.arange(n, dtype=np.int64), lens)
        in_pos = np.arange(len(data), dtype=np.int64) - np.repeat(
            off[:-1].astype(np.int64), lens)
        pos = out_off[row] + 3 + 2 * in_pos
        buf[pos] = _BIT0[data]
        buf[pos + 1] = _BIT1[data]
    validity = arr.buffers()[0]
    out = pa.StringArray.from_buffers(
        n, pa.py_buffer(out_off.astype(np.int32).tobytes()),
        pa.py_buffer(buf.tobytes()), validity, arr.null_count)
    return pd.Series(out.to_pandas().to_numpy(), index=series.index)


def word_counts(series: pd.Series) -> pd.Series:
    """Whitespace token count (trimmed); empty -> 0."""
    t = series.fillna("").str.strip()
    n = t.str.split(r"\s+", regex=True).str.len()
    return n.where(t.str.len() > 0, 0).astype("int64")


def stopword_ratio(series: pd.Series, stopwords: tuple[str, ...] = ("the", "a", "of", "and", "to")) -> pd.Series:
    """Share of tokens that are stopwords — a quality-score component.

    Vectorized: one explode + ``isin`` + level-0 segment sum over the
    whole batch (the ``_langid_frame`` shape) — no per-row Python."""
    idx = series.index
    s = series.reset_index(drop=True)
    t = s.fillna("").str.strip()
    toks = t.str.split(r"\s+", regex=True)
    n = toks.str.len().where(t.str.len() > 0, 0).astype("int64")
    hits = (toks.explode().isin(frozenset(stopwords))
            .groupby(level=0).sum()
            .reindex(range(len(s)), fill_value=0).astype("int64"))
    out = (hits / n.replace(0, 1)).where(n > 0, 0.0)
    out.index = idx
    return out


def punct_ratio(series: pd.Series) -> pd.Series:
    """Share of non-alphanumeric-non-space chars — quality component."""
    t = series.fillna("")
    total = t.str.len()
    punct = t.str.count(r"[^A-Za-z0-9\s]")
    return (punct / total.replace(0, 1)).where(total > 0, 0.0)


def md5_fingerprint(series: pd.Series) -> pd.Series:
    """Document fingerprint (md5 hex) — mirrored by DuckDB md5().

    Per-row hashlib is acceptable for a fingerprint column (bounded by
    IO, not CPU); the pure-speed path for dedup keys is
    ``sketches.hash64`` (vectorized C)."""
    return series.fillna("").map(
        lambda s: hashlib.md5(s.encode("utf-8")).hexdigest())


def elementwise_starts_with(prefixes: np.ndarray,
                            strings: np.ndarray, *,
                            strict: bool = False) -> np.ndarray:
    """Vectorized per-pair ``strings[i].startswith(prefixes[i])`` over
    object arrays — Arrow's ``starts_with`` only takes a SCALAR
    pattern, so pairwise prefix tests (sorted-successor dedup) need
    this flat-buffer form: gather both sides' bytes with one
    repeat/cumsum index build (the gram-kernel idiom) and segment-count
    byte equality.  Byte-prefix == character-prefix for valid UTF-8, so
    this is exact for any input, not just ASCII.  ``strict=True``
    additionally requires the string to be LONGER than its prefix
    (strict-prefix semantics, computed from the lengths the kernel
    already has — callers need no second length pass)."""
    import pyarrow as pa

    k = len(prefixes)
    if k == 0:
        return np.zeros(0, dtype=bool)
    pa_p = pa.array(prefixes, pa.string())
    pa_s = pa.array(strings, pa.string())
    # freshly-built arrays: offset 0, offsets buffer is [1], data is [2]
    po = np.frombuffer(pa_p.buffers()[1], dtype=np.int32)[:k + 1] \
        .astype(np.int64)
    so = np.frombuffer(pa_s.buffers()[1], dtype=np.int32)[:k + 1] \
        .astype(np.int64)
    pb = np.frombuffer(pa_p.buffers()[2] or b"", dtype=np.uint8)
    sb = np.frombuffer(pa_s.buffers()[2] or b"", dtype=np.uint8)
    plen = np.diff(po)
    slen = np.diff(so)
    ok_len = (slen > plen) if strict else (slen >= plen)
    cmp_len = np.minimum(plen, slen)
    total = int(cmp_len.sum())
    if total == 0:
        return ok_len & True
    # per-pair byte index ramps: start offset repeated + intra position
    seg = np.repeat(np.arange(k, dtype=np.int64), cmp_len)
    intra = np.arange(total, dtype=np.int64) - \
        np.repeat(np.concatenate([[0], np.cumsum(cmp_len)[:-1]]), cmp_len)
    eq = pb[po[:-1][seg] + intra] == sb[so[:-1][seg] + intra]
    eq_cnt = np.bincount(seg, weights=eq, minlength=k).astype(np.int64)
    return ok_len & (eq_cnt == cmp_len)
