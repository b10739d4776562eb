"""Sketch unit + merge-associativity property tests (SURVEY §5)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from autoprepad_ray.sketches import (KLL, HyperLogLog, MomentSketch,
                                     ValueCounts, _bit_length64, hash64,
                                     popcount64)


def split3(x):
    k = len(x) // 3
    return x[:k], x[k:2 * k], x[2 * k:]


def test_popcount():
    v = np.array([0, 1, 3, 2**63, 2**64 - 1], dtype=np.uint64)
    assert popcount64(v).tolist() == [0, 1, 2, 1, 64]


def test_hash64_deterministic_and_typed():
    a = hash64(["a", "b", "a"])
    assert a[0] == a[2] and a[0] != a[1]
    b = hash64(np.array([1, 2, 3], dtype=np.int64))
    assert len(set(b.tolist())) == 3
    assert hash64(["x"], seed=1)[0] != hash64(["x"], seed=2)[0]


@given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=300))
@settings(max_examples=50, deadline=None)
def test_moments_merge_exact(xs):
    x = np.array(xs)
    parts = split3(x)
    merged = MomentSketch()
    for p in parts:
        s = MomentSketch()
        s.update(p)
        merged.merge(s)
    whole = MomentSketch()
    whole.update(x)
    assert merged.n == whole.n == len(x)
    assert np.isclose(merged.mean, x.mean(), rtol=1e-9)
    assert np.isclose(merged.std, x.std(ddof=1), rtol=1e-6, atol=1e-9)
    assert merged.vmin == x.min() and merged.vmax == x.max()


def test_moments_nan_null_accounting():
    s = MomentSketch()
    s.update(np.array([1.0, np.nan, 3.0]), nulls=2)
    assert s.n == 2 and s.nans == 1 and s.nulls == 2


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=500),
       st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]))
@settings(max_examples=60, deadline=None)
def test_valuecounts_quantile_matches_numpy(xs, q):
    x = np.array(xs, dtype=float)
    vc = ValueCounts()
    for p in split3(x):
        v2 = ValueCounts()
        v2.update(p)
        vc.merge(v2)
    assert np.isclose(vc.quantile(q), np.quantile(x, q), rtol=1e-12, atol=1e-12)


def test_valuecounts_mode_histogram_overflow():
    vc = ValueCounts(max_items=3)
    vc.update(np.array([1, 1, 2, 2, 3]))
    assert vc.mode() == (1, 2)  # tie 1/2 broken by smaller value
    edges = np.array([0.0, 1.5, 3.5])
    assert vc.histogram(edges).tolist() == [2, 3]
    vc.update(np.array([4, 5, 6]))
    assert vc.overflow
    vals, cnts = vc.drain()  # owner seeds approximate sketches from these
    assert len(vals) == 6 and int(cnts.sum()) == 8
    assert vc.counts == {}
    vc.update(np.array([7]))  # dormant after overflow
    assert vc.counts == {}


def _rank_error(x_sorted: np.ndarray, quantile, qs) -> float:
    """Worst normalised distance between the target rank q*(n-1) and the
    true rank interval [#(x < v), #(x <= v)] of the returned value v."""
    n, worst = len(x_sorted), 0.0
    for q in qs:
        v = quantile(q)
        lo = np.searchsorted(x_sorted, v, side="left")
        hi = np.searchsorted(x_sorted, v, side="right")
        t = q * (n - 1)
        worst = max(worst, max(lo - t, t - hi, 0.0) / n)
    return worst


def _merge_tree(parts: list, rng):
    """Merge partial sketches in a random binary tree (random adjacent
    pairs until one is left)."""
    parts = list(parts)
    while len(parts) > 1:
        i = int(rng.integers(len(parts) - 1))
        parts[i:i + 2] = [parts[i].merge(parts[i + 1])]
    return parts[0]


def _stream(kind: str, n: int, rng) -> np.ndarray:
    return {
        "sorted": lambda: np.arange(n, dtype=float),
        "reversed": lambda: np.arange(n, dtype=float)[::-1].copy(),
        "heavy_dup": lambda: rng.integers(0, 20, n).astype(float),
        "two_point": lambda: np.where(rng.random(n) < 0.3, 0.0, 1.0),
        "lognormal": lambda: rng.lognormal(3, 1, n),
    }[kind]()


@given(st.sampled_from(["sorted", "reversed", "heavy_dup", "two_point",
                        "lognormal"]),
       st.integers(2_000, 60_000), st.integers(1, 400),
       st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_kll_rank_error_bound(kind, n, n_chunks, seed):
    """KLL guarantees rank (not value) error: <= 1% at the default k on
    sorted, reversed, heavy-duplicate, two-point and lognormal streams
    split at random and merged in random trees; total weight is exact."""
    rng = np.random.default_rng(seed)
    x = _stream(kind, n, rng)
    parts = []
    for chunk in np.split(x, np.sort(rng.integers(0, n, n_chunks))):
        sk = KLL()
        sk.update(chunk)
        parts.append(sk)
    sk = _merge_tree(parts, rng)
    assert sk.n == n
    assert _rank_error(np.sort(x), sk.quantile, np.linspace(0, 1, 101)) \
        <= 0.01


def test_kll_weighted_seed_is_exact_in_weight():
    """The spill handoff puts each value on the levels of its count's set
    bits: the weights reproduce every count, so quantiles are numpy's
    while no level has compacted."""
    vals = np.array([1.0, 2.0, 5.0, 9.0])
    cnts = np.array([3, 1, 6, 2])
    sk = KLL()
    sk.update_weighted(vals, cnts)
    assert sk.n == 12
    x = np.repeat(vals, cnts)
    for q in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
        assert sk.quantile(q) == np.quantile(x, q)
    assert np.isnan(KLL().quantile(0.5))


@pytest.mark.parametrize("kind", ["int", "float", "object"])
def test_valuecounts_fold_matches_np_unique(kind):
    """The sorted-run merge equals np.unique over everything folded in,
    for unsorted seeds with repeated keys (from_items, which keeps NaN as
    one value, like np.unique), updates and merges in a random tree."""
    rng = np.random.default_rng(4)
    raw = rng.integers(0, 300, 5_000)
    x = {"int": raw, "float": raw / 7.0,
         "object": np.array([f"s{v}" for v in raw], dtype=object)}[kind]
    if kind == "float":
        x[::97] = np.nan
    parts, fed = [], []
    for i, c in enumerate(np.array_split(x, 9)):
        if i % 2:
            vc = ValueCounts()
            vc.update(c)
            fed.append(c[~np.isnan(c)] if kind == "float" else c)
        else:
            vc = ValueCounts.from_items(c, np.ones(len(c), dtype=np.int64))
            fed.append(c)
        parts.append(vc)
    vals, cnts = _merge_tree(parts, rng).sorted_arrays()
    want_v, want_c = np.unique(np.concatenate(fed), return_counts=True)
    assert vals.dtype == want_v.dtype
    np.testing.assert_array_equal(vals, want_v)     # NaN == NaN here
    np.testing.assert_array_equal(cnts, want_c)


def test_hll_accuracy_and_merge():
    rng = np.random.default_rng(7)
    vals = rng.integers(0, 2**60, 300_000, dtype=np.int64)
    true = len(np.unique(vals))
    h = HyperLogLog()
    for chunk in np.array_split(vals, 23):
        h2 = HyperLogLog()
        h2.update(chunk)
        h.merge(h2)
    assert abs(h.estimate() - true) / true < 0.03
    # serialization round-trip
    h3 = HyperLogLog.from_dict(h.to_dict())
    assert h3.estimate() == h.estimate()


def _smear_registers(h: np.ndarray, p: int) -> np.ndarray:
    """HLL registers the long way: bit length by smear + popcount."""
    reg = np.zeros(1 << p, dtype=np.uint8)
    if not h.size:
        return reg
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = h << np.uint64(p)
    z = rest.copy()
    for s in (1, 2, 4, 8, 16, 32):
        z |= z >> np.uint64(s)
    rho = np.where(rest == 0, 64 - p + 1, 64 - popcount64(z) + 1)
    np.maximum.at(reg, idx, rho.astype(np.uint8))
    return reg


@pytest.mark.parametrize("p", [4, 12, 14])
def test_hll_registers_match_smear_kernel(p):
    """The float-exponent bit length gives the registers of the smear +
    popcount kernel, on random hashes, on the edge hashes and on an
    empty input."""
    rng = np.random.default_rng(p)
    edges = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    for h in (rng.integers(0, 2**64, 50_000, dtype=np.uint64),
              rng.integers(0, 2**64, 99, dtype=np.uint64) >> np.uint64(33),
              edges, np.empty(0, np.uint64)):
        got = HyperLogLog(p=p)
        got.add_hashes(h)
        np.testing.assert_array_equal(got.registers, _smear_registers(h, p))
    assert _bit_length64(edges).tolist() == [0, 1, 64, 64]
    v = rng.integers(0, 2**64, 1000, dtype=np.uint64)
    assert _bit_length64(v).tolist() == [int(x).bit_length()
                                         for x in v.tolist()]


def test_sketch_serialization_roundtrip():
    x = np.array([1.0, 2.0, 2.0, 10.0])
    vc = ValueCounts()
    vc.update(x)
    vc2 = ValueCounts.from_dict(vc.to_dict())
    assert vc2.counts == vc.counts
    sk = KLL(k=2)
    sk.update(x)
    sk2 = KLL.from_dict(sk.to_dict())
    assert sk2.n == sk.n == 4
    assert sk2.quantile(0.5) == sk.quantile(0.5)
    ms = MomentSketch()
    ms.update(x)
    assert MomentSketch.from_dict(ms.to_dict()).mean == ms.mean


def test_columnsketch_exact_to_approx_handoff():
    """When ValueCounts overflows, KLL/HLL are seeded from the
    drained exact counts — quantiles/distinct stay accurate."""
    import pyarrow as pa
    from autoprepad_ray.profile import ColumnSketch

    rng = np.random.default_rng(11)
    x = rng.normal(100, 15, 60_000)
    cs = ColumnSketch(name="x", kind="numeric")
    cs.values.max_items = 1000
    for chunk in np.array_split(x, 13):
        cs.update_array(pa.array(chunk))
    assert not cs.exact_quantiles
    for q in (0.25, 0.5, 0.75):
        exact = np.quantile(x, q)
        assert abs(cs.quantile(q) - exact) / abs(exact) < 0.01
    true_distinct = len(np.unique(x))
    assert abs(cs.distinct() - true_distinct) / true_distinct < 0.05
    # merge of exact + approx sides also lands close
    cs2 = ColumnSketch(name="x", kind="numeric")
    cs2.values.max_items = 1000
    y = rng.normal(100, 15, 500)
    cs2.update_array(pa.array(y))
    assert cs2.exact_quantiles
    cs.merge(cs2)
    both = np.concatenate([x, y])
    assert abs(cs.quantile(0.5) - np.quantile(both, 0.5)) < 1.0


@pytest.mark.parametrize("extra", [0, 1])
def test_spill_boundary_across_merge_tree(extra):
    """Both arms of the exact->sketch spill across a random merge tree:
    exactly max_exact distinct values stay exact (quantiles equal
    numpy's), max_exact + 1 spill to KLL (within its rank bound)."""
    import pyarrow as pa
    from autoprepad_ray.profile import ColumnSketch

    m = 3_000
    rng = np.random.default_rng(21)
    distinct = rng.permutation(m + extra) * 0.5
    x = np.concatenate([distinct, rng.choice(distinct, 20_000)])
    rng.shuffle(x)
    parts = []
    for chunk in np.array_split(x, 17):      # each block stays under m
        cs = ColumnSketch(name="x", kind="numeric")
        cs.values.max_items = m
        cs.update_array(pa.array(chunk))
        parts.append(cs)
    cs = _merge_tree(parts, rng)
    assert cs.exact_quantiles == (extra == 0)
    assert cs.count == len(x)
    qs = np.linspace(0, 1, 41)
    if extra == 0:
        assert [cs.quantile(q) for q in qs] == np.quantile(x, qs).tolist()
    else:
        assert cs.kll.n == len(x)
        assert _rank_error(np.sort(x), cs.quantile, qs) <= 0.01


def _column_parts(chunks, m: int) -> list:
    import pyarrow as pa
    from autoprepad_ray.profile import ColumnSketch

    parts = []
    for chunk in chunks:
        cs = ColumnSketch(name="x", kind="numeric")
        cs.values.max_items = m
        cs.update_array(pa.array(chunk))
        parts.append(cs)
    return parts


def test_merge_all_bounds_each_pass(monkeypatch):
    """32 exact parts of 0.9 * max_items distinct values each: no merge
    pass concatenates more than 2 * max_items values (the held run plus
    a group of at most max_items), the merge stops at the overflow, and
    every value, merged or left over, still lands in KLL and HLL."""
    from autoprepad_ray.profile import _merge_columns

    m = 1_000
    rng = np.random.default_rng(5)
    chunks = [rng.choice(20_000, 900, replace=False) * 0.25
              for _ in range(32)]
    parts = _column_parts(chunks, m)
    assert all(p.exact_quantiles for p in parts)
    built, real = [], ValueCounts._fold

    def spy(self, vals, cnts):
        built.append(len(vals) + self.distinct)
        return real(self, vals, cnts)

    monkeypatch.setattr(ValueCounts, "_fold", spy)
    cs = _merge_columns(parts)
    x = np.concatenate(chunks)
    assert max(built) <= 2 * m and len(built) == 2
    assert not cs.exact_quantiles
    assert cs.kll.n == cs.count == len(x)
    assert _rank_error(np.sort(x), cs.quantile, np.linspace(0, 1, 41)) \
        <= 0.01
    true_distinct = len(np.unique(x))
    assert abs(cs.distinct() - true_distinct) / true_distinct < 0.05


def test_merge_all_fitting_parts_merge_in_one_pass(monkeypatch):
    """Parts whose values fit max_items together merge in ONE sort pass
    and stay exact, equal to np.unique over all of them."""
    from autoprepad_ray.profile import _merge_columns

    rng = np.random.default_rng(6)
    chunks = [rng.integers(0, 50, 400) * 0.5 for _ in range(16)]
    parts = _column_parts(chunks, 1_000)
    calls = []
    real = ValueCounts._fold
    monkeypatch.setattr(ValueCounts, "_fold", lambda self, v, c: (
        calls.append(len(v)), real(self, v, c)))
    cs = _merge_columns(parts)
    assert len(calls) == 1 and cs.exact_quantiles
    vals, cnts = cs.values.sorted_arrays()
    want_v, want_c = np.unique(np.concatenate(chunks), return_counts=True)
    np.testing.assert_array_equal(vals, want_v)
    np.testing.assert_array_equal(cnts, want_c)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mixed_exact_and_overflowed_merge_keeps_the_kll_bound(seed):
    """A merge of parts some of which overflowed below it (their values
    already in KLL) and some still exact: the exact parts seed KLL
    unmerged, so total weight is exact and quantiles stay within the
    KLL rank-error bound, whatever order the spill took."""
    from autoprepad_ray.profile import _merge_columns

    m = 2_000
    rng = np.random.default_rng(seed)
    sizes = rng.permutation([5_000, 300, 4_000, 800, 1_500, 6_000, 200])
    chunks = [rng.lognormal(3, 1, n) for n in sizes]
    parts = _column_parts(chunks, m)
    assert {p.exact_quantiles for p in parts} == {True, False}
    cs = _merge_columns(parts)
    x = np.sort(np.concatenate(chunks))
    assert not cs.exact_quantiles
    assert cs.kll.n == cs.count == len(x)
    assert _rank_error(x, cs.quantile, np.linspace(0, 1, 101)) <= 0.01


@given(st.lists(st.floats(-1e5, 1e5), min_size=6, max_size=400),
       st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_columnsketch_merge_associativity(xs, nsplits):
    """SURVEY §5: finalize(merge(split(X))) == finalize(X) for the full
    column sketch (moments exact, quantiles exact under the ValueCounts
    bound, distinct exact)."""
    import pyarrow as pa
    from autoprepad_ray.profile import ColumnSketch

    x = np.array(xs)
    whole = ColumnSketch(name="x", kind="numeric")
    whole.update_array(pa.array(x))
    merged = ColumnSketch(name="x", kind="numeric")
    for part in np.array_split(x, nsplits):
        cs = ColumnSketch(name="x", kind="numeric")
        cs.update_array(pa.array(part))
        merged.merge(cs)
    assert merged.count == whole.count
    assert np.isclose(merged.moments.mean, whole.moments.mean,
                      rtol=1e-9, atol=1e-12, equal_nan=True)
    assert np.isclose(merged.moments.std, whole.moments.std,
                      rtol=1e-6, atol=1e-9)
    assert merged.distinct() == whole.distinct()
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        a, b = merged.quantile(q), whole.quantile(q)
        assert (np.isnan(a) and np.isnan(b)) or np.isclose(
            a, b, rtol=1e-12, atol=1e-12)


def test_ks_empty_side_no_crash():
    """ks_from_valuecounts on an empty side: 0 when both empty, else the
    full CDF gap (regression: np.where indexed an empty array with -1)."""
    from autoprepad_ray.validators.drift import ks_from_valuecounts

    a = ValueCounts()
    a.update(np.array([1.0, 2.0, 3.0]))
    b = ValueCounts()
    assert ks_from_valuecounts(a, b) == 1.0
    assert ks_from_valuecounts(b, a) == 1.0
    assert ks_from_valuecounts(ValueCounts(), ValueCounts()) == 0.0
