"""Banded-Hamming near-dup (distributed pairing, multi-index hashing)
vs an exact brute-force oracle on planted fixtures.

Oracle semantics: a pair (a, b) is reported iff 1 <= hamming(a, b) <=
max_dist AND the hashes share at least one exact 16-bit band (the
documented MIH recall condition — guaranteed for d <= 3, ~90% at d = 4),
with one min-id representative per distinct hash value.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from autoprepad_ray.functions.imagecodec import hamming64
from autoprepad_ray.stages import transport
from autoprepad_ray.validators.near_dup import hamming_neardup_pairs


def _bands(v: np.ndarray) -> np.ndarray:
    u = v.astype(np.int64).view(np.uint64)
    return np.stack([((u >> np.uint64(16 * b)) & np.uint64(0xFFFF))
                     for b in range(4)], axis=1)


def brute_pairs(ids, ph, max_dist):
    ids = np.asarray(ids, dtype=object)
    ph = np.asarray(ph, dtype=np.int64)
    order = np.lexsort((ids, ph))
    ph, ids = ph[order], ids[order]
    first = np.r_[True, ph[1:] != ph[:-1]]
    ph, ids = ph[first], ids[first]
    bands = _bands(ph)
    out = {}
    for i in range(len(ph) - 1):
        d = hamming64(ph[i + 1:], int(ph[i]))
        share = (bands[i + 1:] == bands[i][None, :]).any(axis=1)
        for j in np.nonzero((d >= 1) & (d <= max_dist) & share)[0]:
            a, b = ids[i], ids[i + 1 + j]
            if a > b:
                a, b = b, a
            out[(a, b)] = int(d[j])
    return out


def _fixture(n_base=400, n_planted=30, seed=9):
    rng = np.random.default_rng(seed)
    ph = rng.integers(-2**62, 2**62, n_base).astype(np.int64)
    ids = [f"d{i:05d}" for i in range(n_base)]
    for k in range(n_planted):
        flips = (k % 4) + 1                      # distances 1..4
        v = np.uint64(np.int64(ph[k]).view(np.uint64))
        for bit in rng.choice(64, size=flips, replace=False):
            v ^= np.uint64(1) << np.uint64(bit)
        ph = np.append(ph, np.int64(v.view(np.int64)))
        ids.append(f"p{k:05d}")
    return pa.table({"image_id": pa.array(ids),
                     "phash": pa.array(ph, type=pa.int64())})


def _got_pairs(df: pd.DataFrame) -> dict:
    return {(a, b): int(d) for a, b, d in
            zip(df["id_a"], df["id_b"], df["dist"])}


def test_hamming_pairs_match_bruteforce_exactly():
    t = _fixture()
    ds = rd.from_arrow(t).repartition(5)
    got = _got_pairs(hamming_neardup_pairs(ds, max_dist=4))
    exp = brute_pairs(t["image_id"].to_pylist(), t["phash"].to_numpy(),
                      4)
    assert got == exp
    # every planted pair within distance <= 3 is guaranteed recalled
    for k in range(30):
        if (k % 4) + 1 <= 3:
            pair = (f"d{k:05d}", f"p{k:05d}")
            assert pair in got, pair


def _arms(monkeypatch) -> list:
    """The arms ``near_dup.hamming_arm`` picks from here on, in call
    order."""
    from autoprepad_ray.validators import near_dup

    picked, real = [], near_dup.hamming_arm

    def recording(census):
        arm, hot = real(census)
        picked.append(arm)
        return arm, hot

    monkeypatch.setattr(near_dup, "hamming_arm", recording)
    return picked


def test_hamming_paths_agree(monkeypatch):
    """prune and mih_shuffle must produce identical pairs — the path is
    a shuffle-volume choice, never a semantics choice.  The census picks
    ``prune`` here; with the collision bound at zero, ``mih_shuffle``."""
    from autoprepad_ray.validators import near_dup

    arms = _arms(monkeypatch)
    t = _fixture(n_base=200, n_planted=20, seed=3)
    ds = rd.from_arrow(t).repartition(4)
    a = _got_pairs(hamming_neardup_pairs(ds))
    monkeypatch.setattr(near_dup, "SAT_MIN", 0)
    monkeypatch.setattr(near_dup, "SAT_FRAC", 0.0)
    b = _got_pairs(hamming_neardup_pairs(ds))
    assert arms == ["prune", "mih_shuffle"]
    assert a == b and len(a) >= 15


def test_hamming_dup_heavy_saturated_path(monkeypatch):
    """Dup-heavy fixture (every bucket multi-member — the regime that
    used to hit the driver-side max_candidates cap / saturation skip):
    the full-shuffle path still returns the exact oracle pairs."""
    rng = np.random.default_rng(17)
    base = rng.integers(-2**62, 2**62, 25).astype(np.int64)
    ph_list, ids = [], []
    for i in range(3000):
        v = np.uint64(np.int64(base[i % 25]).view(np.uint64))
        for bit in rng.choice(64, size=rng.integers(0, 3), replace=False):
            v ^= np.uint64(1) << np.uint64(bit)
        ph_list.append(np.int64(v.view(np.int64)))
        ids.append(f"r{i:05d}")
    ph = np.array(ph_list, dtype=np.int64)
    t = pa.table({"image_id": pa.array(ids),
                  "phash": pa.array(ph, type=pa.int64())})
    ds = rd.from_arrow(t).repartition(6)
    # SAT_MIN low -> the census (almost every bucket >= 2 members)
    # flips to the mih_shuffle path organically
    from autoprepad_ray.validators import near_dup

    arms = _arms(monkeypatch)
    monkeypatch.setattr(near_dup, "SAT_MIN", 100)
    got = _got_pairs(hamming_neardup_pairs(ds, max_dist=4))
    exp = brute_pairs(ids, ph, 4)
    assert arms == ["mih_shuffle"]
    assert got == exp and len(exp) > 50


def _brute_segment_pairs(keys, ids, ph, max_dist, bucket_cap):
    """Independent per-bucket reference for _segment_pairs semantics."""
    import collections
    from autoprepad_ray.functions.imagecodec import hamming64

    buckets = collections.defaultdict(list)
    order = np.argsort(keys, kind="mergesort")
    for i in order:
        buckets[keys[i]].append(i)
    out = {}
    for rows in buckets.values():
        rows = rows[:bucket_cap]
        for x in range(len(rows) - 1):
            for y in range(x + 1, len(rows)):
                i, j = rows[x], rows[y]
                d = int(hamming64(np.int64(ph[i]), np.int64(ph[j]))[0])
                if 1 <= d <= max_dist:
                    a, b = ids[i], ids[j]
                    if a > b:
                        a, b = b, a
                    out.setdefault((a, b), d)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_segment_pairs_property(seed):
    """The size-class-batched kernel == per-bucket brute force, across
    mixed segment sizes including the >_GROUPED_SEG_MAX fallback."""
    from autoprepad_ray.validators.near_dup import (_GROUPED_SEG_MAX,
                                                    _segment_pairs)

    rng = np.random.default_rng(seed)
    keys_l, ph_l = [], []
    # many tiny buckets + several mid-size + one oversized bucket
    sizes = ([int(s) for s in rng.integers(1, 5, 60)]
             + [25, 40, 80] + [_GROUPED_SEG_MAX + 60])
    base_pool = rng.integers(-2**62, 2**62, 40).astype(np.int64)
    for k, size in enumerate(sizes):
        for _ in range(size):
            v = np.uint64(np.int64(base_pool[k % 40]).view(np.uint64))
            for bit in rng.choice(64, size=rng.integers(0, 4),
                                  replace=False):
                v ^= np.uint64(1) << np.uint64(bit)
            keys_l.append(k)
            ph_l.append(np.int64(v.view(np.int64)))
    keys = np.array(keys_l, dtype=np.int64)
    ph = np.array(ph_l, dtype=np.int64)
    # dedupe (key, ph) like the production callers do
    uniq = np.unique(np.stack([keys, ph], axis=1), axis=0)
    keys_u, ph_u = uniq[:, 0], uniq[:, 1]
    got = _segment_pairs(keys_u, ph_u, ph_u, 4, 4096)
    got_pairs = {(a, b): int(d) for a, b, d in
                 zip(got["id_a"], got["id_b"], got["dist"])}
    exp = _brute_segment_pairs(keys_u, ph_u, ph_u, 4, 4096)
    assert got_pairs == exp and len(exp) > 20


def test_duplicate_phash_groups_hot_hash_capped_sample():
    """A hot hash with thousands of rows yields an exact count but a
    bounded id sample — member collection is capped per block, so the
    driver never sees the hot hash's full row set."""
    from autoprepad_ray.validators.near_dup import duplicate_phash_groups

    ids = [f"i{k:04d}" for k in range(600)]
    ph = [7] * 500 + list(range(100, 200))
    t = pa.table({"image_id": pa.array(ids),
                  "phash": pa.array(ph, type=pa.int64())})
    out = duplicate_phash_groups(rd.from_arrow(t).repartition(5))
    assert out.num_rows == 1
    r = out.to_pylist()[0]
    assert r["phash"] == 7 and r["n"] == 500 and len(r["ids"]) == 64


def test_flip_scheme_exact_at_d4_where_4x16_misses(monkeypatch):
    """Adversarial d=4 pairs with one differing bit in EACH 16-bit band
    are invisible to the 4x16 banding; scheme='2x32f1' must find every
    brute-force pair at max_dist<=4 (it is exact through 5), on 8 band
    slices."""
    import itertools

    from autoprepad_ray.functions.imagecodec import hamming64
    from autoprepad_ray.validators.near_dup import hamming_neardup_pairs

    monkeypatch.setattr(transport, "default_num_parts", lambda: 8)

    rng = np.random.default_rng(23)
    base = rng.integers(-2**62, 2**62, size=60, dtype=np.int64)
    hashes = list(base)
    ids = [f"r{i:03d}" for i in range(len(base))]
    # planted pairs: flip one bit in each of the four 16-bit bands
    for k in range(8):
        h = int(base[k])
        flipped = h ^ (1 << (3 + 16 * 0)) ^ (1 << (5 + 16 * 1)) \
                    ^ (1 << (9 + 16 * 2)) ^ (1 << (12 + 16 * 3))
        hashes.append(np.int64(np.uint64(flipped & 0xFFFFFFFFFFFFFFFF)))
        ids.append(f"p{k:03d}")
    tbl = pa.table({"image_id": pa.array(ids),
                    "phash": pa.array(hashes, type=pa.int64())})
    ds = rd.from_arrow(tbl).repartition(3)

    arr = np.array(hashes, dtype=np.int64)

    def brute(max_dist):
        out = set()
        for i, j in itertools.combinations(range(len(arr)), 2):
            d = int(hamming64(arr[i], np.int64(arr[j]))[0])
            if 1 <= d <= max_dist:
                a, b = sorted((ids[i], ids[j]))
                out.add((a, b))
        return out

    for md in (4, 5):
        got = hamming_neardup_pairs(
            ds, max_dist=md, scheme="2x32f1")
        got_pairs = {(a, b) for a, b in zip(got["id_a"], got["id_b"])}
        assert got_pairs == brute(md), md

    # the default banding genuinely misses the planted spread-bit pairs
    legacy = hamming_neardup_pairs(ds, max_dist=4)
    legacy_pairs = {(a, b) for a, b in
                    zip(legacy["id_a"], legacy["id_b"])}
    planted = {tuple(sorted((f"r{k:03d}", f"p{k:03d}"))) for k in range(8)}
    assert not (legacy_pairs & planted)
    assert planted <= brute(4)


def test_phash_dedup_clusters_match_bruteforce_unionfind():
    """Clusters = transitive closure of ALL row pairs at dist <= 3
    (exact recall regime of the 4x16 banding), including exact-equal
    hashes; canonical = minimum id per component; untouched rows label
    themselves."""
    from autoprepad_ray.validators.near_dup import phash_dedup_clusters

    rng = np.random.default_rng(21)
    tbl = _fixture(n_base=300, n_planted=24, seed=21)
    ids = list(tbl["image_id"].to_pylist())
    ph = list(tbl["phash"].to_pylist())
    # plant exact duplicates (dist 0) of a few hashes, incl. a triple
    for k, src in enumerate([0, 0, 5, 17]):
        ids.append(f"x{k:05d}")
        ph.append(ph[src])
    tbl = pa.table({"image_id": pa.array(ids),
                    "phash": pa.array(ph, type=pa.int64())})
    ds = rd.from_arrow(tbl).repartition(5)

    got = phash_dedup_clusters(ds, max_dist=3).to_pandas() \
        .sort_values("image_id").reset_index(drop=True)

    # brute-force union-find over every pair at dist <= 3 (incl. 0)
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    arr = np.asarray(ph, dtype=np.int64)
    for i in range(len(ids) - 1):
        d = hamming64(arr[i + 1:], int(arr[i]))
        for j in np.nonzero(d <= 3)[0]:
            ra, rb = find(ids[i]), find(ids[i + 1 + j])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    want = {i: find(i) for i in ids}

    assert len(got) == len(ids)
    for _, row in got.iterrows():
        assert row["cluster_id"] == want[row["image_id"]], row["image_id"]
        assert bool(row["is_canonical"]) == \
            (want[row["image_id"]] == row["image_id"])


def test_phash_dedup_clusters_int_ids():
    """The registry advertises the cluster validator generically —
    int64 id columns must work end-to-end (duplicate_phash_groups'
    member lists infer their type from the data; r4 review finding:
    list_(string) was hardcoded and int ids crashed)."""
    from autoprepad_ray.validators.near_dup import phash_dedup_clusters

    # one exact pair, one d=1 pair, one far singleton (cross-group
    # distances 24-40 bits — verified pairwise)
    far = int(np.uint64(0xFFFF0000FFFF0000).astype(np.int64))
    ph = [0x0123456789ABCDEF, 0x0123456789ABCDEF, far,
          0x00FF00FF00FF00FF, 0x00FF00FF00FF00FE]
    ids = [7, 3, 50, 60, 61]
    tbl = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                    "phash": pa.array(ph, type=pa.int64())})
    out = phash_dedup_clusters(
        rd.from_arrow(tbl).repartition(2), phash_col="phash",
        id_col="doc_id", max_dist=3).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    got = dict(zip(out["doc_id"], out["cluster_id"]))
    assert got == {3: 3, 7: 3, 50: 50, 60: 60, 61: 60}


def test_phash_dedup_clusters_null_ids():
    """A cluster's id is its smallest non-null member id, and null only
    when every member is null: min ids mixing null and strings once
    raised TypeError in the cluster lexsort."""
    from autoprepad_ray.validators.near_dup import phash_dedup_clusters

    ph = [5, 5, 7, 6, 2**40, 2**40 + 1, 9, 9]
    ids = ["a", None, None, "b", None, "c", None, None]
    t = pa.table({"image_id": pa.array(ids, pa.string()),
                  "phash": pa.array(ph, pa.int64())})
    got = phash_dedup_clusters(rd.from_arrow([t.slice(0, 4),
                                              t.slice(4)])).to_pandas()
    # every hash is within 4 bits of another: one component
    assert got["cluster_id"].tolist() == ["a"] * 8
    assert got["is_canonical"].tolist() == [True] + [False] * 7

    far = int(np.uint64(0xFFFF0000FFFF0000).astype(np.int64))
    t = pa.table({"image_id": pa.array([None, None, "d"], pa.string()),
                  "phash": pa.array([far, far ^ 1, 5], pa.int64())})
    got = phash_dedup_clusters(rd.from_arrow(t)).to_pandas()
    assert got["cluster_id"].tolist() == [None, None, "d"]


def test_hamming_pairs_global_min_id_across_blocks():
    """r5 in-task id resolution: the representative id per hash must be
    the GLOBAL min across blocks even when the pair is discovered in a
    slice fed by many blocks — a hot hash with ids scattered over
    blocks must resolve to its overall minimum."""
    base = np.int64(0x0123456789ABCDEF)
    near = np.int64(base ^ 1)                       # dist 1
    # hot hash: 30 rows, ids deliberately NOT sorted with row order so
    # block boundaries separate the min id from most rows
    ids = [f"z{k:03d}" for k in range(29, -1, -1)] + ["m000"] + ["n500"]
    ph = [base] * 30 + [base] + [near]
    t = pa.table({"image_id": pa.array(ids),
                  "phash": pa.array(ph, type=pa.int64())})
    got = hamming_neardup_pairs(rd.from_arrow(t).repartition(7),
                                max_dist=2)
    assert len(got) == 1
    r = got.iloc[0]
    assert (r["id_a"], r["id_b"], r["dist"]) == ("m000", "n500", 1)

    from autoprepad_ray.validators.near_dup import phash_dedup_clusters
    cl = phash_dedup_clusters(rd.from_arrow(t).repartition(7),
                              max_dist=2).to_pandas()
    assert (cl["cluster_id"] == "m000").all()       # one component
    assert set(cl.loc[cl["is_canonical"], "image_id"]) == {"m000"}
