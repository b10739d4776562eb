"""Mergeable sketches (pure numpy) for distributed column profiling.

Every sketch supports ``update(values)`` / ``merge(other)`` / a finalize
accessor, so profiles compose as: per-block partial (inside
``map_batches``) -> balanced pairwise merge -> driver finalize.
Exactness contract:

- :class:`MomentSketch` (count / nulls / nan / sum / sumsq / min / max)
  is exact and associative.
- :class:`ValueCounts` is exact while the merged distinct count stays
  under ``max_items``; past that it flips ``overflow`` and downstream
  consumers must fall back to :class:`KLL` / :class:`HyperLogLog`
  (the documented 100-TB path; the small-scale/correctness path is
  exact, mirroring the reference's exact numpy statistics, e.g.
  /root/reference/pipelines/preprocessing/statistical/TukeyTransformer.py:37-38).
- :class:`KLL` quantiles are approximate with a stated rank-error bound:
  normalised rank error <= 1% at the default k=600 (KLL compactors,
  KLL± VLDB 2021; k chosen from the bound per "An Experimental Analysis
  of Quantile Sketches over Data Streams", EDBT 2023).  KLL bounds
  rank, not value, error.
- :class:`HyperLogLog` distinct counts are approximate (p=14, ~0.8%;
  the standard mergeable distinct-count register sketch).
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import pandas as pd

# ---------------------------------------------------------------------------
# hashing helpers

_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def np_object(arr) -> np.ndarray:
    """pa.Array/ChunkedArray/array-like -> numpy object array, robustly.

    StringArray.to_numpy(zero_copy_only=False) can fail on large chunks
    ("Wrapping ... failed"); the pandas conversion path is reliable."""
    import pyarrow as _pa

    if isinstance(arr, (_pa.Array, _pa.ChunkedArray)):
        return np.asarray(arr.to_pandas(), dtype=object)
    return np.asarray(arr, dtype=object)


def hash64(values: Any, seed: int = 0) -> np.ndarray:
    """Deterministic vectorized 64-bit hashes of an array-like.

    Uses pandas' C hash (stable across processes — no PYTHONHASHSEED
    dependence), optionally re-mixed with a seed via splitmix64 so
    independent hash families (minhash permutations, HLL, salts) can be
    derived from one base hash.
    """
    h = pd.util.hash_pandas_object(pd.Series(values), index=False).to_numpy()
    if seed:
        h = splitmix64(h ^ np.uint64(seed * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF))
    return h


# the hash of a null key slot: fixed, so it never depends on the block
_NULL_HASH = np.uint64(0x6A09E667F3BCC909)


def key_values(col) -> tuple[np.ndarray, np.ndarray]:
    """(canonical numpy values, valid mask) of one key column — an Arrow
    array/ChunkedArray or anything ``pa.array`` accepts.

    The canonical form depends only on the column's Arrow type, never on
    whether its block holds a null: ints, bools, timestamps and dates
    become int64 (a null does NOT demote the column to float64); floats
    become float64 with -0.0 as 0.0 and every NaN alike; strings and
    binary become object arrays.  Null slots hold a filler value and are
    ``False`` in the mask."""
    import pyarrow as pa

    if not isinstance(col, (pa.Array, pa.ChunkedArray)):
        col = pa.array(col)
    t = col.type
    if pa.types.is_dictionary(t):
        col, t = col.cast(t.value_type), t.value_type
    valid = np.ones(len(col), dtype=bool) if not col.null_count \
        else np.asarray(col.is_valid()).astype(bool)
    if pa.types.is_temporal(t):
        col = col.cast(pa.int64() if t.bit_width == 64 else pa.int32())
    elif pa.types.is_boolean(t) or pa.types.is_null(t):
        col = col.cast(pa.int8())
    if pa.types.is_integer(col.type) or pa.types.is_floating(col.type):
        if col.null_count:
            col = col.fill_null(0)
        v = col.to_numpy()
        if v.dtype.kind == "f":
            v = v.astype(np.float64) + 0.0       # -0.0 + 0.0 == +0.0
            v[np.isnan(v)] = np.nan
            return v, valid
        return v.astype(np.int64, copy=False), valid
    if col.null_count and (pa.types.is_string(t) or
                           pa.types.is_large_string(t)):
        col = col.fill_null("")
    elif col.null_count and (pa.types.is_binary(t) or
                             pa.types.is_large_binary(t)):
        col = col.fill_null(b"")
    return np_object(col), valid


def key_hash(columns) -> tuple[np.ndarray, np.ndarray]:
    """(uint64 hashes, valid mask) of a (multi-column) key — the ONE way
    a key becomes a hash, for every census, join slice, Bloom filter
    and routing map.

    Each column hashes its :func:`key_values` (``hash64`` seeded with
    the column position, XOR-combined), so a key hashes alike in every
    block and on both sides of a join.  A null slot hashes to one fixed
    value and is ``False`` in the mask: censuses may count null as one
    group, joins must not match it.  Non-null int64 and string columns
    hash bit-identically to ``hash64`` of their values."""
    h = valid = None
    for i, col in enumerate(columns):
        v, ok = key_values(col)
        hi = hash64(v, seed=i)
        hi[~ok] = _NULL_HASH
        h, valid = (hi, ok) if h is None else (h ^ hi, valid & ok)
    return h, valid


def splitmix64(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += np.uint64(0x9E3779B97F4A7C15)
        z = x
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z


def popcount64(x: np.ndarray) -> np.ndarray:
    """Exact vectorized popcount for uint64 (numpy<2 has no bitwise_count)."""
    x = np.atleast_1d(np.asarray(x))
    # force C-order: fancy indexing can hand us F-ordered arrays whose
    # last axis is not contiguous, which the uint8 view rejects
    b = np.ascontiguousarray(x, dtype=np.uint64) \
        .view(np.uint8).reshape(*x.shape, 8)
    return _POP8[b].sum(axis=-1).astype(np.int64)


def _bit_length64(z: np.ndarray) -> np.ndarray:
    """Exact vectorized bit_length for uint64: the float exponent of each
    32-bit half (a uint32 converts to float64 exactly)."""
    z = z.astype(np.uint64, copy=False)
    hi = np.frexp((z >> np.uint64(32)).astype(np.float64))[1]
    lo = np.frexp((z & np.uint64(0xFFFFFFFF)).astype(np.float64))[1]
    return np.where(hi > 0, hi + 32, lo).astype(np.int64)


def _weighted_quantile(vals: np.ndarray, cnts: np.ndarray, q: float
                       ) -> float:
    """np.quantile(linear) of sorted ``vals`` each repeated ``cnts``
    times: value ``i`` covers the 0-based ranks ending at ``cum[i] - 1``."""
    n = int(cnts.sum())
    pos = q * (n - 1)
    lo_rank = int(math.floor(pos))
    hi_rank = min(lo_rank + 1, n - 1)
    cum = np.cumsum(cnts)
    lo_val = float(vals[np.searchsorted(cum, lo_rank, side="right")])
    hi_val = float(vals[np.searchsorted(cum, hi_rank, side="right")])
    return lo_val + (hi_val - lo_val) * (pos - lo_rank)


# ---------------------------------------------------------------------------
# moments


@dataclass
class MomentSketch:
    """Exact count/null/nan/sum/min/max + stable variance — associative.

    Variance uses the parallel Welford merge (n, mean, M2) — the naive
    sum-of-squares sketch cancels catastrophically for data with
    |mean| >> std.  Finalized mean/std(ddof=1) mirror the reference's
    ZTransformerMean.py:37-39 semantics; min/max back the MinMax score
    scaling (runs.py:200-201).
    """

    n: int = 0          # non-null, non-nan observations
    nulls: int = 0      # arrow nulls
    nans: int = 0       # float NaNs
    total: float = 0.0
    mean_: float = 0.0
    m2: float = 0.0
    vmin: float = math.inf
    vmax: float = -math.inf

    def _combine(self, nb: int, mean_b: float, m2_b: float) -> None:
        na = self.n
        n = na + nb
        delta = mean_b - self.mean_
        self.mean_ += delta * nb / n
        self.m2 += m2_b + delta * delta * na * nb / n
        self.n = n

    def update(self, values: np.ndarray, nulls: int = 0) -> None:
        self.nulls += int(nulls)
        if values.size == 0:
            return
        if values.dtype.kind == "f":
            mask = np.isnan(values)
            self.nans += int(mask.sum())
            values = values[~mask]
        if values.size == 0:
            return
        v = values.astype(np.float64, copy=False)
        mb = float(v.mean())
        self.total += float(v.sum())
        self._combine(v.size, mb, float(((v - mb) ** 2).sum()))
        self.vmin = min(self.vmin, float(v.min()))
        self.vmax = max(self.vmax, float(v.max()))

    def merge(self, o: "MomentSketch") -> "MomentSketch":
        self.nulls += o.nulls
        self.nans += o.nans
        self.total += o.total
        if o.n:
            self._combine(o.n, o.mean_, o.m2)
        self.vmin = min(self.vmin, o.vmin)
        self.vmax = max(self.vmax, o.vmax)
        return self

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else float("nan")

    @property
    def var(self) -> float:
        """Sample variance, ddof=1 (reference ZTransformerMean.py:38)."""
        if self.n < 2:
            return 0.0
        return max(0.0, self.m2 / (self.n - 1))

    @property
    def std(self) -> float:
        return math.sqrt(self.var)

    def to_dict(self) -> dict:
        return {
            "n": self.n, "nulls": self.nulls, "nans": self.nans,
            "total": self.total, "mean_": self.mean_, "m2": self.m2,
            "vmin": self.vmin, "vmax": self.vmax,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MomentSketch":
        return cls(**d)


# ---------------------------------------------------------------------------
# exact value counts (bounded)


class ValueCounts:
    """Exact value->count map, bounded; ``overflow`` => approximate path.

    Backs exact quantiles (numpy-linear-interpolation semantics, matching
    both np.quantile — reference TukeyTransformer.py:37-38 — and DuckDB
    quantile_cont), exact distinct counts, modes and histograms at
    correctness scale.  ``max_items`` caps driver/shuffle memory; at
    100-TB scale the profile job flips to KLL/HLL when any block's
    merged map overflows.

    Internally array-backed (sorted values + int64 counts) so update and
    merge are vectorized sorted-run merges — no per-value Python loops in
    the profile hot path.
    """

    __slots__ = ("max_items", "overflow", "_vals", "_cnts")

    def __init__(self, max_items: int = 1_000_000):
        self.max_items = max_items
        self.overflow = False
        self._vals: np.ndarray | None = None   # sorted
        self._cnts: np.ndarray | None = None

    @classmethod
    def from_items(cls, values, counts, max_items: int = 1_000_000
                   ) -> "ValueCounts":
        vc = cls(max_items=max_items)
        vc._fold(np.asarray(values), np.asarray(counts, dtype=np.int64))
        return vc

    def merge_all(self, parts: list["ValueCounts"]
                  ) -> list["ValueCounts"]:
        """Merge exact ``parts`` in, a group of whole parts per pass: the
        group's sorted runs and the held run concatenate, and one stable
        argsort (timsort merges the runs) and one ``np.add.reduceat``
        collapse them.  A group holds at most ``max_items`` values (or
        one part), so no pass builds more than about ``2 * max_items``
        values; parts that fit ``max_items`` together merge in one pass.
        Stops once the merged distinct count exceeds ``max_items``
        (``overflow``) and returns the parts it did not merge, for the
        caller to spill."""
        held = [p for p in parts if p._vals is not None]
        i = 0
        while i < len(held) and not self.overflow:
            j, size = i + 1, len(held[i]._vals)
            while j < len(held) and \
                    size + len(held[j]._vals) <= self.max_items:
                size += len(held[j]._vals)
                j += 1
            self._fold(np.concatenate([p._vals for p in held[i:j]]),
                       np.concatenate([p._cnts for p in held[i:j]]))
            i = j
        return held[i:]

    def _fold(self, vals: np.ndarray, cnts: np.ndarray) -> None:
        """Merge (value, count) pairs in.  The held values are one sorted
        run and merged-in maps are another, so the stable argsort is
        timsort's linear two-run merge; equal neighbours then collapse
        with one ``np.add.reduceat``."""
        if self.overflow or vals.size == 0:
            return
        if self._vals is not None:
            vals = np.concatenate([self._vals, vals])
            cnts = np.concatenate([self._cnts, cnts])
        order = np.argsort(vals, kind="stable")
        vals, cnts = vals[order], cnts[order]
        new = vals[1:] != vals[:-1]
        if vals.dtype.kind == "f":      # NaNs are one value, as np.unique
            new &= ~(np.isnan(vals[1:]) & np.isnan(vals[:-1]))
        starts = np.flatnonzero(np.concatenate([[True], new]))
        self._vals = vals[starts]
        self._cnts = np.add.reduceat(cnts, starts)
        if len(starts) > self.max_items:
            # keep the merged arrays so the owner can drain() them into
            # the approximate sketches (KLL / HLL) before they vanish
            self.overflow = True

    def drain(self) -> tuple[np.ndarray, np.ndarray]:
        """Hand over the merged arrays (used to seed the approximate
        sketches when exactness is abandoned) and clear."""
        vals = self._vals if self._vals is not None else np.array([])
        cnts = (self._cnts if self._cnts is not None
                else np.array([], dtype=np.int64))
        self._vals = self._cnts = None
        return vals, cnts

    def update(self, values: np.ndarray) -> None:
        if self.overflow or values.size == 0:
            return
        if values.dtype.kind == "f":
            values = values[~np.isnan(values)]
            if values.size == 0:
                return
        uniq, cnt = np.unique(values, return_counts=True)
        self._fold(uniq, cnt)

    def merge(self, o: "ValueCounts") -> "ValueCounts":
        if o.overflow:
            self.overflow = True
            self._vals = self._cnts = None
        if self.overflow:
            return self
        if o._vals is not None:
            self._fold(o._vals, o._cnts)
        return self

    @property
    def counts(self) -> dict:
        """Dict view (materialized on demand — finalize-time use only)."""
        if self._vals is None:
            return {}
        return dict(zip(self._vals.tolist(), self._cnts.tolist()))

    @property
    def distinct(self) -> int:
        return 0 if self._vals is None else len(self._vals)

    def sorted_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._vals is None:
            return np.array([]), np.array([], dtype=np.int64)
        return self._vals, self._cnts

    def quantile(self, q: float) -> float:
        """quantile_cont / np.quantile(linear) from weighted sorted values."""
        if self.overflow or self._vals is None:
            return float("nan")
        return _weighted_quantile(self._vals, self._cnts, q)

    def mode(self) -> tuple[Any, int]:
        """Most frequent value; ties broken by smallest value (deterministic,
        mirrors SQL `ORDER BY n DESC, value LIMIT 1`)."""
        top = int(self._cnts.max())
        cand = self._vals[self._cnts == top]
        return cand.min(), top

    def histogram(self, edges: np.ndarray) -> np.ndarray:
        """Fixed-edge histogram counts (len(edges)-1 bins, right-open last-closed)."""
        vals, cnts = self.sorted_arrays()
        out = np.zeros(len(edges) - 1, dtype=np.int64)
        idx = np.clip(np.searchsorted(edges, vals, side="right") - 1, 0, len(edges) - 2)
        np.add.at(out, idx, cnts)
        return out

    def to_dict(self) -> dict:
        items = ([] if self._vals is None
                 else list(zip(self._vals.tolist(), self._cnts.tolist())))
        return {"max_items": self.max_items, "overflow": self.overflow,
                "counts": items}

    @classmethod
    def from_dict(cls, d: dict) -> "ValueCounts":
        vc = cls(max_items=d["max_items"])
        vc.overflow = d["overflow"]
        if d["counts"]:
            vals = [k for k, _ in d["counts"]]
            cnts = [v for _, v in d["counts"]]
            vc._fold(np.asarray(vals), np.asarray(cnts, dtype=np.int64))
        return vc


# ---------------------------------------------------------------------------
# KLL quantile sketch


class KLL:
    """Approximate quantiles; mergeable; the 100-TB path for fences/medians.

    A stack of KLL compactors (KLL±, VLDB 2021): level ``h`` holds items
    of weight ``2^h``.  A level holding more than ``k`` items is sorted
    and halved: every other item, from an offset that alternates per
    level, moves up a level with twice the weight, and an odd item out
    stays behind.  Total weight stays exact, and one compaction at level
    ``h`` moves any rank by at most ``2^h``.  Update, weighted seeding
    and merge are whole-array numpy operations.

    Rank-error bound: normalised rank error <= 1% at the default
    ``k = 600``, the smallest tried ``k`` that held the bound; ``k``
    sets the bound as in the EDBT 2023 quantile-sketch study.  Worst
    cases measured over sorted, reversed, duplicate-heavy, two-point,
    lognormal and uniform streams of up to 4M items, split at random and
    merged in random trees: 0.74% at k=600; 1.2% at k=400 and 1.9% at
    k=200 (up to 1M items).  Each level holds at most ``k`` items
    after a compaction, so space is about ``k * log2(n / k)`` items.
    """

    __slots__ = ("k", "levels", "flips")

    def __init__(self, k: int = 600):
        self.k = k
        self.levels: list[np.ndarray] = []
        self.flips = 0      # bit h: offset of level h's next compaction

    def _add(self, h: int, items: np.ndarray) -> None:
        while len(self.levels) <= h:
            self.levels.append(np.empty(0))
        lv = self.levels[h]
        self.levels[h] = np.concatenate([lv, items]) if lv.size else items

    def _compress(self) -> None:
        h = 0
        while h < len(self.levels):
            lv = self.levels[h]
            if lv.size > self.k:
                lv = np.sort(lv)
                off = (self.flips >> h) & 1
                self.flips ^= 1 << h
                even = lv.size & ~1
                self._add(h + 1, lv[off:even:2])
                self.levels[h] = lv[even:].copy()   # frees the sorted copy
            h += 1

    def update(self, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if v.size:
            self._add(0, v)
            self._compress()

    def update_weighted(self, values: np.ndarray, counts: np.ndarray) -> None:
        """Seed from (value, count) pairs -- the exact ValueCounts
        handoff: level ``h`` gets the values whose count has bit ``h``
        set, which reproduces every count exactly."""
        if values.size == 0:
            return
        v = np.asarray(values, dtype=np.float64)
        c = np.asarray(counts, dtype=np.int64)
        for h in range(int(c.max()).bit_length()):
            bit = ((c >> h) & 1).astype(bool)
            if bit.any():
                self._add(h, v[bit])
        self._compress()

    def merge(self, o: "KLL") -> "KLL":
        for h, lv in enumerate(o.levels):
            if lv.size:
                self._add(h, lv)
        self._compress()
        return self

    @property
    def n(self) -> int:
        return sum(lv.size << h for h, lv in enumerate(self.levels))

    def quantile(self, q: float) -> float:
        """np.quantile(linear) over the weighted items -- equal to numpy
        while nothing has been compacted."""
        if not self.n:
            return float("nan")
        vals = np.concatenate(self.levels)
        w = np.concatenate([np.full(lv.size, 1 << h, dtype=np.int64)
                            for h, lv in enumerate(self.levels)])
        order = np.argsort(vals, kind="stable")
        return _weighted_quantile(vals[order], w[order], q)

    def to_dict(self) -> dict:
        return {"k": self.k, "flips": self.flips,
                "levels": [lv.tolist() for lv in self.levels]}

    @classmethod
    def from_dict(cls, d: dict) -> "KLL":
        s = cls(k=d["k"])
        s.flips = d["flips"]
        s.levels = [np.asarray(lv, dtype=np.float64) for lv in d["levels"]]
        return s


# ---------------------------------------------------------------------------
# HyperLogLog


def hll_index_rho(h: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(register index, rho) of 64-bit hashes: the top ``p`` bits pick
    the register, rho is one plus the leading zeros of the other 64 - p
    bits (64 - p + 1 when they are all zero)."""
    h = h.astype(np.uint64, copy=False)
    rest = h << np.uint64(p)
    return ((h >> np.uint64(64 - p)).astype(np.int64),
            (65 - np.maximum(_bit_length64(rest), p)).astype(np.uint8))


class HyperLogLog:
    """Approximate distinct count (mergeable registers); p=14 → ~0.8% err."""

    __slots__ = ("p", "m", "registers")

    def __init__(self, p: int = 14):
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def add_hashes(self, h: np.ndarray) -> None:
        if h.size:
            self.add_rho(*hll_index_rho(h, self.p))

    def add_rho(self, idx: np.ndarray, rho: np.ndarray) -> None:
        """Raise each ``idx`` register to its ``rho`` (numpy >= 1.25
        runs ``np.maximum.at`` as a fast indexed loop)."""
        np.maximum.at(self.registers, idx, rho.astype(np.uint8, copy=False))

    def update(self, values: Any, seed: int = 0x51) -> None:
        self.add_hashes(hash64(values, seed=seed))

    def merge(self, o: "HyperLogLog") -> "HyperLogLog":
        np.maximum(self.registers, o.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = self.m
        alpha = 0.7213 / (1 + 1.079 / m)
        raw = alpha * m * m / np.sum(np.exp2(-self.registers.astype(np.float64)))
        zeros = int(np.count_nonzero(self.registers == 0))
        if raw <= 2.5 * m and zeros > 0:
            return m * math.log(m / zeros)  # linear counting
        return float(raw)

    def to_dict(self) -> dict:
        return {"p": self.p,
                "registers": base64.b64encode(self.registers.tobytes()).decode()}

    @classmethod
    def from_dict(cls, d: dict) -> "HyperLogLog":
        h = cls(p=d["p"])
        h.registers = np.frombuffer(
            base64.b64decode(d["registers"]), dtype=np.uint8).copy()
        return h
