"""One key hash for every key-matching site (``sketches.key_hash``).

A key must hash and compare alike in every block and on both sides of
a join, whatever the block layout — a nullable int block must not hash
as float64.  The null rule: censuses and listings count null as one
group (DuckDB ``GROUP BY``); joins, semi joins and Bloom probes never
match a null key; anti joins keep null-key rows (``NOT EXISTS``).

The probe tests pin one layout each that used to give a wrong answer;
the hypothesis test splits random nullable key multisets into random
blocks (0-row blocks included) and checks every site against DuckDB.
"""

import duckdb
import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd
from hypothesis import given, settings, strategies as st

from autoprepad_ray.stages.bloom import build_bloom, probe_bloom
from autoprepad_ray.stages.join import (asof_join, bucketed_join,
                                        range_join, semi_join)
from autoprepad_ray.validators import uniqueness
from autoprepad_ray.validators.referential import orphans
from autoprepad_ray.validators.uniqueness import (duplicate_keys,
                                                  hll_distinct_per_group)


def _blocks(*tables):
    return rd.from_arrow([pa.table(t) for t in tables])


def _rows(ds, cols):
    return sorted((tuple(r[c] for c in cols) for r in ds.take_all()),
                  key=repr)


def _dups(ds, cols, max_collect):
    """``duplicate_keys`` with ``uniqueness.MAX_COLLECT`` at
    ``max_collect`` (0 forces the keyed-fold arm)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(uniqueness, "MAX_COLLECT", max_collect)
        return duplicate_keys(ds, cols)


def _sql(query, **tables):
    con = duckdb.connect()
    for name, t in tables.items():
        con.register(name, t)
    return sorted(con.execute(query).fetchall(), key=repr)


def test_key_hash_equals_hash64_on_nonnull_int64_and_string():
    from autoprepad_ray.sketches import hash64, key_hash, np_object

    ints = pa.chunked_array([pa.array([0, -1, 2 ** 62, 7], pa.int64()),
                             pa.array([5], pa.int64())])
    strs = pa.array(["a", "", "img_00017", "ü"])
    h, valid = key_hash([ints])
    assert valid.all()
    assert np.array_equal(h, hash64(ints.to_numpy()))
    h, valid = key_hash([strs])
    assert valid.all()
    assert np.array_equal(h, hash64(np_object(strs)))
    h2, _ = key_hash([pa.array([1, 2], pa.int64()), pa.array(["x", "y"])])
    assert np.array_equal(h2, hash64(np.array([1, 2]))
                          ^ hash64(np.array(["x", "y"], object), seed=1))


def test_duplicate_keys_arms_agree_with_null_in_block():
    ds = _blocks({"k": pa.array([5, 7], pa.int64())},
                 {"k": pa.array([5, None], pa.int64())})
    fast = duplicate_keys(ds, ["k"]).to_pylist()
    shuffle = _dups(ds, ["k"], 0).to_pylist()
    assert fast == shuffle == [{"k": 5, "n": 2}]


def test_duplicate_keys_null_string_key_is_one_group_on_both_arms():
    # the shuffle arm must not sort raw keys: None does not order
    # against a string
    ds = _blocks({"k": pa.array(["a", None, "b"])},
                 {"k": pa.array(["a", None])})
    for mc in (2_000_000, 0):
        got = _dups(ds, ["k"], mc).to_pylist()
        assert sorted(got, key=repr) == [{"k": "a", "n": 2},
                                         {"k": None, "n": 2}], mc


def test_duplicate_keys_negative_zero_counts_with_zero_on_both_arms():
    ds = _blocks({"k": pa.array([-0.0, 1.5])}, {"k": pa.array([0.0])})
    for mc in (2_000_000, 0):
        got = _dups(ds, ["k"], mc).to_pylist()
        assert got == [{"k": 0.0, "n": 2}], mc


def test_orphans_shuffle_null_string_key_agrees_with_broadcast():
    # the shuffle arm must not sort raw keys either; null is one group
    # (the census rule), so it is an orphan only when one side lacks it
    left = _blocks({"k": pa.array(["a", None])}, {"k": pa.array(["b"])})
    right = _blocks({"k": pa.array(["a", None, "c"])},
                    {"k": pa.array(["d"])})
    want = [("b", 1, 0), ("c", 0, 1), ("d", 0, 1)]
    for direction, keep in (("both", want), ("left", want[:1]),
                            ("right", want[1:])):
        for strategy in ("broadcast", "shuffle"):
            got = orphans(left, right, "k", direction=direction,
                          strategy=strategy).to_pylist()
            assert sorted((r["k"], r["left_n"], r["right_n"])
                          for r in got) == keep, (direction, strategy)
    lone = _blocks({"k": pa.array([None, "a"])})
    for strategy in ("broadcast", "shuffle"):
        got = orphans(lone, _blocks({"k": pa.array(["a", "c"])}), "k",
                      direction="left", strategy=strategy).to_pylist()
        assert got == [{"k": None, "left_n": 1, "right_n": 0}], strategy


def test_orphans_keep_int64_keys_beyond_float53_on_both_arms():
    # a pandas outer merge (broadcast) and a float64 pack (the old
    # int64-only fold) both turned 2**53 + 1 into 2**53
    left = _blocks({"k": pa.array([2 ** 53 + 1, None], pa.int64())})
    right = _blocks({"k": pa.array([None, 5], pa.int64())})
    for strategy in ("broadcast", "shuffle"):
        got = orphans(left, right, "k", strategy=strategy)
        assert got.schema.field("k").type == pa.int64(), strategy
        assert sorted(got.to_pylist(), key=repr) == [
            {"k": 5, "left_n": 0, "right_n": 1},
            {"k": 2 ** 53 + 1, "left_n": 1, "right_n": 0}], strategy


def test_hll_distinct_per_group_keeps_the_null_group():
    """A null group key is one group, as in DuckDB's ``GROUP BY``; each
    group's estimate is within the HLL error bound of the exact distinct
    count (here exact: a handful of values in linear counting)."""
    ds = _blocks({"g": ["a", None, "b"], "v": [1, 2, 3]},
                 {"g": ["a", None], "v": [4, 2]})
    got = hll_distinct_per_group(ds, "g", "v").to_pylist()
    want = _sql("SELECT g, COUNT(DISTINCT v) FROM t GROUP BY g",
                t=pa.table({"g": ["a", None, "b", "a", None],
                            "v": [1, 2, 3, 4, 2]}))
    assert [r["g"] for r in got] == ["a", "b", None]
    est = {r["g"]: r["distinct_est"] for r in got}
    for g, n in want:
        assert abs(est[g] - n) <= 0.05 * n, (g, est[g], n)


def test_hll_distinct_per_group_counts_an_all_null_group_zero():
    """A group whose values are all null is listed with 0 distinct
    values, as DuckDB's ``COUNT(DISTINCT v) ... GROUP BY g`` lists it."""
    ds = _blocks({"g": ["a", "z", None], "v": [1, None, None]},
                 {"g": ["z", "a"], "v": pa.array([None, 2], pa.int64())})
    got = hll_distinct_per_group(ds, "g", "v").to_pylist()
    want = _sql("SELECT g, COUNT(DISTINCT v) FROM t GROUP BY g",
                t=pa.table({"g": ["a", "z", None, "z", "a"],
                            "v": pa.array([1, None, None, None, 2],
                                          pa.int64())}))
    assert [(r["g"], r["distinct_est"]) for r in got] == \
        [("a", 2.0), ("z", 0.0), (None, 0.0)]
    assert sorted(want, key=repr) == sorted(
        [(r["g"], int(r["distinct_est"])) for r in got], key=repr)


def test_empty_listings_typed_without_an_extra_execution(ray_executions):
    """With no duplicate, ``duplicate_keys`` and ``duplicate_phash_groups``
    type their empty listing from what their census fold's partials saw:
    behind a repartition and a map, one execution each (``ds.schema()``
    used to re-run the input plan), and the key columns keep their
    types."""
    from autoprepad_ray.validators.near_dup import duplicate_phash_groups

    t = pa.table({"k": pa.array(range(1000), pa.int64()),
                  "s": pa.array([f"id{i}" for i in range(1000)])})
    ds = rd.from_arrow(t).repartition(4).map_batches(
        lambda b: b, batch_format="pyarrow")
    out = duplicate_keys(ds, ["k", "s"])
    assert len(ray_executions) == 1
    assert out.num_rows == 0
    assert out.schema.types == [pa.int64(), pa.string(), pa.int64()]
    groups = duplicate_phash_groups(ds, phash_col="k", id_col="s")
    assert len(ray_executions) == 2
    assert groups.num_rows == 0
    assert groups.schema.field("ids").type == pa.list_(pa.string())


def test_bucketed_inner_join_null_left_key_keeps_all_matches():
    left = _blocks({"k": pa.array(list(range(40)) + [None], pa.int64()),
                    "a": pa.array(range(41), pa.int64())})
    right = _blocks({"k": pa.array(range(40), pa.int64()),
                     "b": pa.array(range(40), pa.int64())})
    out = _rows(bucketed_join(left, right, "k"),
                ["k", "a", "b"])
    assert out == sorted(((i, i, i) for i in range(40)), key=repr)


def test_bucketed_join_never_matches_null_keys():
    left = _blocks({"k": pa.array([1, None], pa.int64()),
                    "a": pa.array([1, 2], pa.int64())})
    right = _blocks({"k": pa.array([None], pa.int64()),
                     "b": pa.array([10], pa.int64())},
                    {"k": pa.array([1], pa.int64()),
                     "b": pa.array([11], pa.int64())})
    out = _rows(bucketed_join(left, right, "k"),
                ["k", "a", "b"])
    assert out == [(1, 1, 11)]
    outer = _rows(bucketed_join(left, right, "k",
                                how="outer"), ["k", "a", "b"])
    assert outer == sorted([(1, 1, 11), (None, 2, None),
                            (None, None, 10)], key=repr)


def test_semi_join_exact_beyond_float53():
    left = _blocks({"k": pa.array([2 ** 53 + 1, None], pa.int64())})
    right = _blocks({"k": pa.array([2 ** 53], pa.int64())})
    assert semi_join(left, right, "k").take_all() == []
    anti = _rows(semi_join(left, right, "k", anti=True), ["k"])
    assert anti == sorted([(2 ** 53 + 1,), (None,)], key=repr)


def test_float_keys_match_alike_in_semi_and_bucketed_join():
    # NaN matches NaN and -0.0 matches 0.0 (DuckDB's float equality) in
    # the semi/anti join exactly as in the bucketed join; null never
    L = pa.table({"k": pa.array([np.nan, -0.0, 1.5, None, 2.0]),
                  "a": pa.array(range(5), pa.int64())})
    R = pa.table({"k": pa.array([0.0, np.nan, None, 1.5]),
                  "b": pa.array(range(4), pa.int64())})
    lds = _blocks({c: L[c].slice(0, 2) for c in L.column_names},
                  {c: L[c].slice(2) for c in L.column_names})
    rds = _blocks({c: R[c].slice(0, 3) for c in R.column_names},
                  {c: R[c].slice(3) for c in R.column_names})
    inner = _rows(bucketed_join(lds, rds, "k",
                                left_cols=["a"], right_cols=["b"]),
                  ["a", "b"])
    assert inner == _sql("SELECT a, b FROM L JOIN R ON L.k = R.k",
                         L=L, R=R) == [(0, 1), (1, 0), (2, 3)]
    for anti, op in ((False, "EXISTS"), (True, "NOT EXISTS")):
        got = _rows(semi_join(lds, rds, "k", anti=anti), ["a"])
        assert got == _sql(f"SELECT a FROM L WHERE {op} "
                           "(SELECT 1 FROM R WHERE R.k = L.k)", L=L, R=R)


def test_bloom_negative_zero_is_a_member():
    bloom = build_bloom(rd.from_arrow(pa.table({"k": pa.array([-0.0])})),
                        "k", m_bits=1 << 10)
    assert probe_bloom(np.array([0.0]), bloom).all()
    assert probe_bloom(pa.array([np.nan, None]), bloom).tolist() \
        in ([False, False], [True, False])


_INT_KEYS = st.one_of(st.none(), st.integers(0, 6),
                      st.sampled_from([2 ** 53, 2 ** 53 + 1, -(2 ** 40)]))
_STR_KEYS = st.one_of(st.none(), st.sampled_from(["a", "b", "c", "", "é"]))
_FLOAT_KEYS = st.one_of(st.none(),
                        st.sampled_from([0.0, -0.0, 1.5, float("nan")]))
_KEYS = {"int": (_INT_KEYS, pa.int64()), "str": (_STR_KEYS, pa.string()),
         "float": (_FLOAT_KEYS, pa.float64())}


@st.composite
def _side(draw, keys, n_max):
    ks = draw(st.lists(keys, max_size=n_max))
    n = len(ks)
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    ts = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    return ks, ts, [0, *cuts, n]


def _split(cols, bounds):
    return _blocks(*({c: v.slice(s, e - s) for c, v in cols.items()}
                     for s, e in zip(bounds[:-1], bounds[1:])))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(sorted(_KEYS)).flatmap(
    lambda kind: st.tuples(st.just(kind), _side(_KEYS[kind][0], 24),
                           _side(_KEYS[kind][0], 16))))
def test_every_key_site_is_layout_free_and_matches_duckdb(case):
    kind, (lk, lts, lb), (rk, rts, rb) = case
    ktype = _KEYS[kind][1]
    L = pa.table({"k": pa.array(lk, ktype),
                  "a": pa.array(range(len(lk)), pa.int64()),
                  "lts": pa.array(lts, pa.int64())})
    R = pa.table({"k": pa.array(rk, ktype),
                  "b": pa.array(range(len(rk)), pa.int64()),
                  "rts": pa.array(rts, pa.int64()),
                  "rte": pa.array([t + 3 for t in rts], pa.int64())})
    lds = _split({c: L[c] for c in L.column_names}, lb)
    rds = _split({c: R[c] for c in R.column_names}, rb)

    # censuses: null is one group, both arms agree with GROUP BY (a
    # group's key compares as the repr of its +0.0 form: NaN != NaN, and
    # DuckDB names the -0.0/0.0 group after its first row)
    def group(k, n):
        return repr(k + 0.0 if isinstance(k, float) else k), n

    dups = sorted((group(k, n) for k, n in _sql(
        "SELECT k, COUNT(*) FROM L GROUP BY k HAVING COUNT(*) >= 2", L=L)),
        key=repr)
    for mc in (2_000_000, 0):
        got = _dups(lds, ["k"], mc).to_pylist()
        assert sorted((group(r["k"], r["n"]) for r in got),
                      key=repr) == dups

    # orphans: the two sides' GROUP BY censuses, null one group
    census = _sql(
        "WITH lc AS (SELECT k, COUNT(*) AS n FROM L GROUP BY k), "
        "rc AS (SELECT k, COUNT(*) AS n FROM R GROUP BY k) "
        "SELECT CASE WHEN lc.n IS NULL THEN rc.k ELSE lc.k END, "
        "COALESCE(lc.n, 0), COALESCE(rc.n, 0) "
        "FROM lc FULL OUTER JOIN rc ON lc.k IS NOT DISTINCT FROM rc.k "
        "WHERE lc.n IS NULL OR rc.n IS NULL", L=L, R=R)
    keep = {"both": lambda ln, rn: True, "left": lambda ln, rn: rn == 0,
            "right": lambda ln, rn: ln == 0}
    for direction, kept in keep.items():
        want = sorted(((*group(k, ln), rn) for k, ln, rn in census
                       if kept(ln, rn)), key=repr)
        for strategy in ("broadcast", "shuffle"):
            got = orphans(lds, rds, "k", direction=direction,
                          strategy=strategy).to_pylist()
            assert sorted(((*group(r["k"], r["left_n"]), r["right_n"])
                           for r in got), key=repr) == want, \
                (direction, strategy)

    # equi joins: a null key never matches
    for how, sql_how in (("inner", "JOIN"), ("left", "LEFT JOIN"),
                         ("outer", "FULL OUTER JOIN")):
        got = _rows(bucketed_join(lds, rds, "k", how=how,
                                  left_cols=["a"], right_cols=["b"]),
                    ["a", "b"])
        assert got == _sql(f"SELECT a, b FROM L {sql_how} R ON L.k = R.k",
                           L=L, R=R), how

    # as-of: largest rts <= lts, ties by largest b
    got = _rows(asof_join(lds, rds, on="k", left_ts="lts", right_ts="rts",
                          left_cols=["a"], right_cols=["b"], tie_col="b"),
                ["a", "b"])
    assert got == _sql(
        "SELECT a, b FROM (SELECT a, b, ROW_NUMBER() OVER (PARTITION BY a "
        "ORDER BY rts DESC, b DESC) AS rn FROM L JOIN R ON L.k = R.k "
        "AND R.rts <= L.lts) WHERE rn = 1", L=L, R=R)

    # range: rts <= lts < rte, untiled and tiled
    want = _sql("SELECT a, b FROM L JOIN R ON L.k = R.k AND R.rts <= L.lts "
                "AND L.lts < R.rte", L=L, R=R)
    for tile in (None, 2):
        got = _rows(range_join(lds, rds, on="k", left_ts="lts",
                               right_start="rts", right_end="rte",
                               left_cols=["a"], right_cols=["b"],
                               tile_width=tile), ["a", "b"])
        assert got == want, tile

    # semi / anti: EXISTS and NOT EXISTS
    for anti, op in ((False, "EXISTS"), (True, "NOT EXISTS")):
        got = _rows(semi_join(lds, rds, "k", anti=anti), ["a"])
        assert got == _sql(f"SELECT a FROM L WHERE {op} "
                           "(SELECT 1 FROM R WHERE R.k = L.k)", L=L, R=R)

    # Bloom: no false negatives on any left block
    bloom = build_bloom(rds, "k", m_bits=1 << 12)
    members = set(R["k"].drop_null().to_pylist())
    for s, e in zip(lb[:-1], lb[1:]):
        col = L["k"].slice(s, e - s)
        hit = probe_bloom(col, bloom)
        for v, h in zip(col.to_pylist(), hit):
            assert h or v not in members
            assert not (v is None and h)
