"""Exactness tests for the distributed interval join
(``stages.join.range_join``): brute-force oracles over randomized
inputs pin both co-partition modes (per-key and time-tiled), tile
boundaries, zero-length/long intervals, and negative timestamps."""

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from autoprepad_ray.stages.join import range_join


def _brute(lk, lt, lid, rk, rs, re, rid):
    out = []
    for i in range(len(lk)):
        for j in range(len(rk)):
            if lk[i] == rk[j] and rs[j] <= lt[i] < re[j]:
                out.append((lid[i], rid[j]))
    return sorted(out)


def _engine(lk, lt, lid, rk, rs, re, rid, *, tile_width,
            key_type=pa.int64()):
    left = rd.from_arrow(pa.table({
        "k": pa.array(list(lk), key_type), "ts": pa.array(lt, pa.int64()),
        "lid": pa.array(lid, pa.int64())}))
    right = rd.from_arrow(pa.table({
        "k": pa.array(list(rk), key_type), "s": pa.array(rs, pa.int64()),
        "e": pa.array(re, pa.int64()), "rid": pa.array(rid, pa.int64())}))
    out = range_join(left, right, on="k", left_ts="ts", right_start="s",
                     right_end="e", left_cols=["lid"], right_cols=["rid"],
                     tile_width=tile_width)
    df = out.to_pandas()
    return sorted(zip(df["lid"].astype(np.int64).tolist(),
                      df["rid"].astype(np.int64).tolist()))


def _rand_case(seed, n_left=200, n_right=80, tmax=1000):
    rng = np.random.default_rng(seed)
    lk = rng.integers(0, 6, n_left)
    lt = rng.integers(-60, tmax, n_left)
    lid = np.arange(n_left)
    rk = rng.integers(0, 6, n_right)
    rs = rng.integers(-80, tmax, n_right)
    # lengths 0 (empty), short, and tile-spanning long
    rlen = rng.choice([0, 1, 5, 32, 33, 120], n_right)
    re = rs + rlen
    rid = np.arange(1000, 1000 + n_right)
    return lk, lt, lid, rk, rs, re, rid


def test_range_join_randomized_both_modes(ray_session):
    for seed in (0, 1, 2):
        case = _rand_case(seed)
        exp = _brute(*case)
        for w in (None, 32, 17):        # untiled, aligned, odd width
            assert _engine(*case, tile_width=w) == exp, (seed, w)


def test_range_join_boundaries_and_tile_edges(ray_session):
    # ts == start included, ts == end excluded, exactly tile-aligned
    # intervals, and a window straddling a tile boundary
    lk = [1, 1, 1, 1, 1, 2]
    lt = [10, 19, 20, 32, 31, 10]
    lid = [0, 1, 2, 3, 4, 5]
    rk = [1, 1, 2]
    rs = [10, 32, 999]
    re = [20, 64, 1000]
    rid = [100, 101, 102]
    exp = _brute(lk, lt, lid, rk, rs, re, rid)
    assert (0, 100) in exp and (2, 100) not in exp     # sanity of oracle
    for w in (None, 32, 7):
        assert _engine(lk, lt, lid, rk, rs, re, rid, tile_width=w) == exp


def test_range_join_negative_ts_floor_division(ray_session):
    # negative timestamps exercise floor (not trunc) tile assignment
    lk = [1] * 6
    lt = [-65, -64, -33, -32, -1, 0]
    lid = list(range(6))
    rk = [1]
    rs = [-64]
    re = [0]
    rid = [7]
    exp = _brute(lk, lt, lid, rk, rs, re, rid)
    for w in (None, 32):
        assert _engine(lk, lt, lid, rk, rs, re, rid, tile_width=w) == exp


def test_range_join_string_keys(ray_session):
    rng = np.random.default_rng(3)
    keys = np.array(["alpha", "beta", "gamma"], dtype=object)
    lk = keys[rng.integers(0, 3, 60)]
    lt = rng.integers(0, 200, 60)
    lid = np.arange(60)
    rk = keys[rng.integers(0, 3, 20)]
    rs = rng.integers(0, 200, 20)
    re = rs + rng.integers(0, 50, 20)
    rid = np.arange(500, 520)
    exp = _brute(lk, lt, lid, rk, rs, re, rid)
    for w in (None, 16):
        assert _engine(lk, lt, lid, rk, rs, re, rid, tile_width=w,
                       key_type=pa.string()) == exp


def test_range_join_pack_limit_both_arms(ray_session, monkeypatch):
    """The signed (key_code << 32) | ts_rank composite needs a bucket
    below join.PACK_LIMIT rows: one bucket of exactly the limit raises,
    one row under it joins normally."""
    import pytest

    from autoprepad_ray.stages import join, transport

    monkeypatch.setattr(transport, "default_num_parts", lambda: 1)
    case = _rand_case(3, n_left=30, n_right=12)
    exp = _brute(*case)
    monkeypatch.setattr(join, "PACK_LIMIT", 43)        # 42 rows: passes
    assert _engine(*case, tile_width=None) == exp
    monkeypatch.setattr(join, "PACK_LIMIT", 42)
    with pytest.raises(ValueError, match="range_join slice holds 42 rows"):
        _engine(*case, tile_width=None)
