"""Mini-driver replica: every ``queries()`` entry runs at sf0.001 and,
when an ``oracle_sql()`` entry exists, must match DuckDB exactly after
canonical ordering (the real gate compares row-count + schema +
order-insensitive value hash at sf0.01)."""

import glob
import os

import duckdb
import numpy as np
import pandas as pd
import pytest

import __ray_entry__ as entrymod

SF = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def _duck():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return con


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            pass
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype(np.float64)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype(np.int64)
    df = df.sort_values(by=list(df.columns)).reset_index(drop=True)
    return df


def _to_pandas(res):
    import pyarrow as pa
    import ray.data
    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


QUERIES = entrymod.queries()
ORACLES = entrymod.oracle_sql()


@pytest.mark.parametrize("name", sorted(QUERIES.keys()))
def test_query_matches_oracle(name):
    got = _canon(_to_pandas(QUERIES[name](SF)))
    assert len(got) >= 0
    if name not in ORACLES:
        return  # rows-only check, like the driver's weaker path
    con = _duck()
    exp = _canon(con.execute(ORACLES[name]).df())
    con.close()
    assert list(got.columns) == list(exp.columns), (
        f"{name}: columns {list(got.columns)} != {list(exp.columns)}")
    assert len(got) == len(exp), f"{name}: {len(got)} rows != {len(exp)}"
    # dtype KINDS must agree (int vs float vs object) — a dtype-exact
    # driver gate fails on int64-vs-float64 drift even when every value
    # matches (seen with HUGEINT window sums and typed-null join
    # padding), so catch it here at sf0.001
    got_kinds = [d.kind for d in got.dtypes]
    exp_kinds = [d.kind for d in exp.dtypes]
    assert got_kinds == exp_kinds, (
        f"{name}: dtype kinds {got_kinds} != oracle {exp_kinds} "
        f"({dict(got.dtypes)} vs {dict(exp.dtypes)})")
    pd.testing.assert_frame_equal(got, exp, check_dtype=False,
                                  check_exact=True, obj=name)


def test_entry_smoke():
    ds = entrymod.entry()
    df = _to_pandas(ds)
    assert len(df) > 0
    assert "AnomalyScore" in df.columns and "AnomalyLabel" in df.columns


def test_orphans_auto_never_counts(ray_session, monkeypatch):
    """strategy='auto' must not spend dataset executions on ds.count()
    (regression: two extra full executions just to pick a strategy)."""
    import pyarrow as pa
    import ray.data as rd
    from ray.data import Dataset
    from autoprepad_ray.validators import referential

    l = rd.from_arrow(pa.table({"k": pa.array([1, 2, 3], pa.int64())}))
    r = rd.from_arrow(pa.table({"k": pa.array([2, 3, 4], pa.int64())}))

    def boom(self):
        raise AssertionError("count() called by auto strategy")

    monkeypatch.setattr(Dataset, "count", boom)
    out = referential.orphans(l, r, "k", direction="both").to_pandas()
    assert sorted(out["k"]) == [1, 4]
    # with a sizes hint, broadcast is chosen -- still no count() call
    out2 = referential.orphans(l, r, "k", direction="both",
                               sizes=(3, 3)).to_pandas()
    assert sorted(out2["k"]) == [1, 4]


def test_validator_registry(ray_session):
    """SURVEY §2.10 extension surface: built-ins resolvable by name,
    custom validators registerable and invocable via config."""
    import pyarrow as pa
    import ray.data as rd
    from autoprepad_ray.validators import registry

    assert {"duplicate_keys", "hll_distinct", "orphans",
            "hamming_neardup_pairs", "decontaminate", "word_repetition",
            "quota_sample", "connected_components"} <= set(registry.names())

    ds = rd.from_arrow(pa.table({"k": pa.array([1, 1, 2], pa.int64())}))
    dup = registry.run("duplicate_keys", ds, cols=["k"])
    assert dup.to_pydict() == {"k": [1], "n": [2]}

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["a b a b c", "x y z w q"])}))
    rep = registry.run("word_repetition", docs).to_pandas()
    assert rep.loc[rep.doc_id == 0, "n_distinct"].iloc[0] == 3
    dec = registry.run("decontaminate", docs, n=2).to_pandas()
    assert (dec["contaminated"] == 1).all()   # self-eval: all grams hit

    @registry.register("all_rows", "count every row")
    def _all_rows(ds):
        return ds.count()

    assert registry.run("all_rows", ds) == 3
    assert "all_rows" in registry.names()
    try:
        registry.get("nope")
        assert False
    except KeyError as e:
        assert "nope" in str(e)


def test_hll_per_group_error_bound(ray_session):
    """Per-group HLL estimates stay within a tight bound of the exact
    per-day distinct counts (p=12, small-n linear-counting regime)."""
    import duckdb

    import __ray_entry__ as entry

    got = (entry.queries()["hll_distinct_users_per_day"](SF)
           .to_pandas().sort_values("day").reset_index(drop=True))
    con = _duck()
    exp = con.execute("""
        SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
               COUNT(DISTINCT user_id) AS n
        FROM events GROUP BY 1 ORDER BY 1""").df()
    con.close()
    assert list(got["day"]) == list(exp["day"])
    rel = np.abs(got["distinct_est"].to_numpy()
                 - exp["n"].to_numpy()) / exp["n"].to_numpy()
    assert rel.max() < 0.05, rel


def test_constant_columns_finding(ray_session):
    """SURVEY A6: constant / zero-variance columns surface as findings
    (the reference drops them silently, runs.py:333-335) — numeric
    min==max, exact string distinct<=1, all-null degenerate, and the
    overflow escape (huge-cardinality strings are never constant)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from autoprepad_ray.validators import registry
    from autoprepad_ray.validators.domain import constant_columns

    n = 500
    tbl = pa.table({
        "const_i": pa.array(np.full(n, 7), pa.int64()),
        "const_s": pa.array(["x"] * n),
        "all_null": pa.array([None] * n, pa.float64()),
        "varied_i": pa.array(np.arange(n), pa.int64()),
        "varied_s": pa.array([f"v{i}" for i in range(n)]),
    })
    ds = rd.from_arrow(tbl).repartition(4)
    out = constant_columns(ds).to_pydict()
    assert out["col_name"] == ["all_null", "const_i", "const_s"]
    assert out["is_constant"] == [1, 1, 1]
    assert out["n"] == [0, n, n]
    full = registry.run("constant_columns", ds,
                        columns=["varied_i", "const_i"],
                        include_all=True).to_pydict()
    assert full["col_name"] == ["varied_i", "const_i"]
    assert full["is_constant"] == [0, 1]


def test_constant_columns_other_kind_not_flagged(ray_session):
    """Binary / list ('other'-kind) columns carry no value sketch —
    constancy is undecidable from the profile and must NOT be
    false-flagged (r4 review finding: they previously all came back
    constant because distinct stayed 0)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from autoprepad_ray.validators.domain import constant_columns

    tbl = pa.table({
        "blob": pa.array([bytes([i]) for i in range(50)], pa.binary()),
        "vec": pa.array([[float(i), 1.0] for i in range(50)],
                        pa.list_(pa.float64())),
        "all_null_blob": pa.array([None] * 50, pa.binary()),
    })
    out = constant_columns(rd.from_arrow(tbl).repartition(2),
                           include_all=True).to_pydict()
    flags = dict(zip(out["col_name"], out["is_constant"]))
    assert flags == {"blob": 0, "vec": 0, "all_null_blob": 1}


def test_value_census_matches_pandas_groupby():
    """The shared (group, value, cnt) census fold == a plain pandas
    groupby count on any block layout."""
    import pyarrow as pa
    import ray.data as rd

    from autoprepad_ray.pipelines.queries import _value_census

    rng = np.random.default_rng(3)
    n = 5000
    df = pd.DataFrame({
        "g": rng.choice(["a", "b", "c", "d"], size=n),
        "v": np.round(rng.normal(100, 30, size=n), 2)})
    for parts in (1, 7):
        ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)
                           ).repartition(parts)
        got = (_value_census(ds, "g", "v")
               .sort_values(["g", "v"]).reset_index(drop=True))
        want = (df.groupby(["g", "v"], as_index=False).size()
                .rename(columns={"size": "cnt"})
                .sort_values(["g", "v"]).reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got, want.astype({"cnt": got["cnt"].dtype}))


def test_null_text_oracle_parity(ray_session, tmp_path):
    """The documents fixture is null-free, so null/empty-text parity
    between engine and oracle is exercised here on a planted corpus:
    2 NULL texts and 2 empty texts (canonicalized to one cluster on
    both sides per the COALESCE(text,'') convention), duplicate texts,
    and normal docs."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(11)
    texts = (["alpha beta gamma", "beta gamma", "alpha beta gamma",
              "delta", "epsilon zeta eta theta iota"]
             + [None, None, "", ""]
             + ["word%d word%d" % (i, i + 1) for i in range(7)]
             # long docs so the 257-word systematic stride actually
             # samples rows (a 0-row Dataset has no schema to compare)
             + [" ".join("t%d" % w for w in rng.integers(0, 40, 60))
                for _ in range(12)])
    t = pa.table({
        "doc_id": pa.array(np.arange(1, len(texts) + 1), pa.int64()),
        "text": pa.array(texts, pa.string())})
    pq.write_table(t, str(tmp_path / "documents.parquet"))

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path / 'documents.parquet'}')")
    for name in ("dup_cluster_size_histogram", "systematic_sample_docs",
                 "vocab_growth_docs"):
        got = _canon(_to_pandas(QUERIES[name](str(tmp_path))))
        exp = _canon(con.execute(ORACLES[name]).df())
        pd.testing.assert_frame_equal(got, exp, check_dtype=False), name
        for c in got.columns:
            assert got[c].dtype.kind == exp[c].dtype.kind, (name, c)


def test_duplicate_keys_shuffle_arm_matches_fast(ray_session, monkeypatch):
    """Force the dup-heavy groupby arm (MAX_COLLECT exceeded — the
    scale regime small sweeps never reach) and pin it value- AND
    dtype-equal to the broadcast fast arm, including the typed-empty
    schema both arms must share."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from autoprepad_ray.validators import uniqueness
    from autoprepad_ray.validators.uniqueness import (
        _duplicate_keys_shuffle, duplicate_keys)

    rng = np.random.default_rng(3)
    keys = np.repeat(np.arange(40, dtype=np.int64), 5)
    rng.shuffle(keys)
    ds = rd.from_arrow(pa.table({
        "k": pa.array(keys),
        "s": pa.array([str(k % 7) for k in keys])})).repartition(6)

    for cols in (["k"], ["k", "s"]):
        fast = duplicate_keys(ds, cols).to_pandas() \
            .sort_values(cols).reset_index(drop=True)
        with monkeypatch.context() as mp:
            mp.setattr(uniqueness, "MAX_COLLECT", 10)
            slow = duplicate_keys(ds, cols).to_pandas() \
                .sort_values(cols).reset_index(drop=True)
        assert len(fast) == 40
        pd.testing.assert_frame_equal(fast, slow)

    # 0-result schema parity: the shuffle arm's empty must carry SOURCE
    # types, not pa.null() (the fast arm's typed-empty is the contract)
    uniq = rd.from_arrow(pa.table({"k": pa.array(range(50), pa.int64())}))
    empty_fast = duplicate_keys(uniq, ["k"])
    empty_slow = _duplicate_keys_shuffle(uniq, ["k"])
    assert empty_slow.num_rows == 0
    assert empty_slow.schema == empty_fast.schema


def test_cc_orders_sharing_part_null_key_guard(ray_session, tmp_path):
    """A filtered lineitem batch whose orderkeys are all null must fail
    with the node-encoding ValueError, not a TypeError from comparing
    max() == None against 2^40."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(pa.table({
        "l_orderkey": pa.array([None, None], pa.int64()),
        "l_partkey": pa.array([7, 8], pa.int64()),
        "l_quantity": pa.array([1.0, 1.0])}),
        str(tmp_path / "lineitem.parquet"))
    # Ray wraps the task's ValueError; its message is what identifies it
    with pytest.raises(Exception, match="bipartite node encoding"):
        _to_pandas(QUERIES["cc_orders_sharing_part"](str(tmp_path)))


def test_full_outer_user_day_activity_uid_bound(ray_session, tmp_path):
    """The (user_id, day) key is two key columns, not a packed int64:
    user ids at and past 2^43 (where user_id << 20 overflowed) and
    negative ids come back exact, each with its own day."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    ids = [1 << 43, (1 << 62) + 1, -7, 5, 1 << 43]
    pq.write_table(pa.table({
        "user_id": pa.array(ids, pa.int64()),
        "ts": pa.array([1_600_000_000_000_000] * 4
                       + [1_600_086_400_000_000], pa.timestamp("us")),
        "event_type": pa.array(["purchase", "error", "purchase", "error",
                                "error"])}),
        str(tmp_path / "events.parquet"))
    got = _to_pandas(QUERIES["full_outer_user_day_activity"](
        str(tmp_path))).sort_values(["user_id", "day"])
    day = 1_600_000_000_000_000 // 86_400_000_000
    assert got.astype(object).where(got.notna(), None).values.tolist() == [
        [-7, day, 1, None], [5, day, None, 1], [1 << 43, day, 1, None],
        [1 << 43, day + 1, None, 1], [(1 << 62) + 1, day, None, 1]]


def test_entry_point_key_sets_follow_registry_order():
    """queries() / oracle_sql() expose the registry in registry order:
    all 145 queries, the 127 with a DuckDB oracle."""
    from autoprepad_ray.pipelines.queries import REGISTRY

    assert list(entrymod.queries()) == list(REGISTRY)
    assert len(REGISTRY) == 145
    oracles = entrymod.oracle_sql()
    assert list(oracles) == [n for n, q in REGISTRY.items()
                             if q.sql is not None]
    assert len(oracles) == 127
