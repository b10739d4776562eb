"""NTILE, DENSE_RANK and systematic sampling on the ordered scan vs
single-process oracles (DuckDB windows, a numpy cumsum) on multi-block
and random block layouts."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

import ray.data as rd

from autoprepad_ray.stages.rank import ntile, systematic_sample


def _oracle(df: pd.DataFrame, k: int) -> pd.DataFrame:
    con = duckdb.connect()
    con.register("t", df)
    return con.execute(
        f"SELECT id, CAST(NTILE({k}) OVER (ORDER BY v, id) AS BIGINT)"
        f" AS bucket FROM t ORDER BY id").df()


@pytest.mark.parametrize("n,k,blocks", [
    (100, 8, 5),     # k does not divide n (100 = 8*12 + 4)
    (96, 8, 3),      # exact division
    (5, 8, 2),       # n < k: buckets 1..n, one row each
    (1, 4, 1),
    (50, 7, 9),
])
def test_ntile_matches_duckdb(n, k, blocks):
    rng = np.random.default_rng(7)
    df = pd.DataFrame({"id": np.arange(n, dtype=np.int64),
                       "v": rng.integers(0, max(n // 3, 2), n)})
    ds = rd.from_arrow(pa.Table.from_pandas(df)).repartition(blocks)
    got = (ntile(ds, ["v", "id"], k, keep_cols=["id"]).to_pandas()
           .sort_values("id").reset_index(drop=True))
    exp = _oracle(df, k)
    pd.testing.assert_frame_equal(
        got.rename(columns={"id": "id"}), exp, check_dtype=False)


def test_ntile_empty():
    ds = rd.from_arrow(pa.table({"id": pa.array([], pa.int64()),
                                 "v": pa.array([], pa.int64())}))
    out = ntile(ds, ["v", "id"], 4, keep_cols=["id"])
    assert out.count() == 0
    assert out.schema().names == ["id", "bucket"]


def test_ntile_bucket_sizes_balanced():
    n, k = 103, 10                      # 3 buckets of 11, 7 of 10
    df = pd.DataFrame({"id": np.arange(n, dtype=np.int64),
                       "v": np.zeros(n, dtype=np.int64)})
    ds = rd.from_arrow(pa.Table.from_pandas(df)).repartition(4)
    got = ntile(ds, ["v", "id"], k, keep_cols=["id"]).to_pandas()
    sizes = got["bucket"].value_counts().sort_index()
    assert list(sizes) == [11, 11, 11] + [10] * 7


from autoprepad_ray.stages.rank import dense_rank


def _drank_oracle(df: pd.DataFrame) -> pd.DataFrame:
    con = duckdb.connect()
    con.register("t", df)
    return con.execute(
        "SELECT id, DENSE_RANK() OVER (PARTITION BY p ORDER BY v DESC)"
        " AS drank FROM t ORDER BY id").df()


@pytest.mark.parametrize("n,vals,parts,blocks", [
    (200, 5, 3, 7),     # heavy ties: many runs span block boundaries
    (200, 200, 3, 7),   # near-unique values
    (50, 1, 2, 9),      # ONE value per partition: a single run spans
                        # every block of the partition
    (1, 1, 1, 1),
    (64, 4, 1, 4),      # single partition
])
def test_dense_rank_matches_duckdb(n, vals, parts, blocks):
    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "p": rng.integers(0, parts, n).astype(str),
        "v": rng.integers(0, vals, n).astype(np.int64)})
    ds = rd.from_arrow(pa.Table.from_pandas(df)).repartition(blocks)
    got = (dense_rank(ds, ["p", "v"], partition_col="p",
                      keep_cols=["id"], descending=[False, True])
           .to_pandas().sort_values("id").reset_index(drop=True))
    exp = _drank_oracle(df)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_dense_rank_empty():
    ds = rd.from_arrow(pa.table({"id": pa.array([], pa.int64()),
                                 "p": pa.array([], pa.string()),
                                 "v": pa.array([], pa.int64())}))
    out = dense_rank(ds, ["p", "v"], partition_col="p", keep_cols=["id"])
    assert out.count() == 0
    assert out.schema().names == ["id", "drank"]


def test_shard_layout_matches_duckdb_multiblock():
    """shard_layout_docs' integer shard/pos formulas vs the NTILE +
    window oracle on a forced multi-block layout (n % k != 0)."""
    from autoprepad_ray.pipelines.queries import REGISTRY
    import tempfile, os
    n = 103
    df = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64)})
    with tempfile.TemporaryDirectory() as d:
        pa.parquet.write_table(
            pa.Table.from_pandas(df), os.path.join(d, "documents.parquet"),
            row_group_size=9)            # many tiny blocks
        got = REGISTRY["shard_layout_docs"].fn(d).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                    f"read_parquet('{os.path.join(d, 'documents.parquet')}')")
        exp = con.execute(REGISTRY["shard_layout_docs"].sql).df() \
            .sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_dense_rank_nan_key_raises():
    """NaN is unequal to itself, so NaN keys would each get their own
    rank where SQL groups them: the summary step refuses them."""
    rng = np.random.default_rng(5)
    v = rng.integers(0, 5, 120).astype(np.float64)
    v[rng.choice(120, 30, replace=False)] = np.nan
    ds = rd.from_arrow(pa.table({
        "id": np.arange(120, dtype=np.int64),
        "p": rng.integers(0, 2, 120).astype(np.int64), "v": v})) \
        .repartition(6)
    with pytest.raises(ValueError, match="rank key 'v'"):
        dense_rank(ds, ["p", "v"], partition_col="p",
                   keep_cols=["id"]).materialize()


_layouts = dict(n=st.integers(0, 60), blocks=st.integers(1, 9),
                seed=st.integers(0, 2**16))


@settings(max_examples=10, deadline=None)
@given(k=st.integers(1, 12), vals=st.integers(1, 8), **_layouts)
def test_ntile_random_layouts(n, k, vals, blocks, seed):
    rng = np.random.default_rng(seed)
    df = pd.DataFrame({"id": rng.permutation(n).astype(np.int64),
                       "v": rng.integers(0, vals, n).astype(np.int64)})
    ds = rd.from_arrow(pa.Table.from_pandas(df)).repartition(blocks)
    got = (ntile(ds, ["v", "id"], k, keep_cols=["id"]).to_pandas()
           .reindex(columns=["id", "bucket"])
           .sort_values("id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, _oracle(df, k), check_dtype=False,
                                  check_index_type=False)


@settings(max_examples=10, deadline=None)
@given(vals=st.integers(1, 8), parts=st.integers(1, 3), desc=st.booleans(),
       **_layouts)
def test_dense_rank_random_layouts(n, vals, parts, desc, blocks, seed):
    rng = np.random.default_rng(seed)
    df = pd.DataFrame({"id": np.arange(n, dtype=np.int64),
                       "p": rng.integers(0, parts, n).astype(np.int64),
                       "v": rng.integers(0, vals, n).astype(np.int64)})
    ds = rd.from_arrow(pa.Table.from_pandas(df)).repartition(blocks)
    got = (dense_rank(ds, ["p", "v"], partition_col="p", keep_cols=["id"],
                      descending=[False, desc])
           .to_pandas().reindex(columns=["id", "drank"])
           .sort_values("id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", df)
    exp = con.execute(
        "SELECT id, DENSE_RANK() OVER (PARTITION BY p ORDER BY v "
        f"{'DESC' if desc else 'ASC'}) AS drank FROM t ORDER BY id").df()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False,
                                  check_index_type=False)


@settings(max_examples=10, deadline=None)
@given(stride=st.integers(1, 30), **_layouts)
def test_systematic_sample_random_layouts(n, stride, blocks, seed):
    rng = np.random.default_rng(seed)
    ids = rng.permutation(n).astype(np.int64)
    w = rng.integers(0, 20, n).astype(np.int64)
    ds = rd.from_arrow(pa.table({"id": ids, "w": w})).repartition(blocks)
    got = (systematic_sample(ds, ["id"], weight_col="w", stride=stride,
                             keep_cols=["id"]).to_pandas()
           .reindex(columns=["id", "cum_weight"])
           .sort_values("id").reset_index(drop=True))
    ws = w[np.argsort(ids)]
    cum = np.cumsum(ws)
    keep = cum // stride > (cum - ws) // stride
    exp = pd.DataFrame({"id": np.arange(n)[keep], "cum_weight": cum[keep]})
    pd.testing.assert_frame_equal(got, exp, check_dtype=False,
                                  check_index_type=False)


_NULLABLE_STR = st.one_of(st.none(), st.sampled_from(["", "a", "ab", "b"]))


@settings(max_examples=10, deadline=None)
@given(k=st.integers(1, 12), data=st.data(), **_layouts)
def test_ntile_random_layouts_nullable_strings(n, k, blocks, seed, data):
    """Null string keys sort last (DuckDB's order), apart from ''."""
    rng = np.random.default_rng(seed)
    v = data.draw(st.lists(_NULLABLE_STR, min_size=n, max_size=n))
    ids = rng.permutation(n).astype(np.int64)
    ds = rd.from_arrow(pa.table({"id": ids, "v": pa.array(v, pa.string())})) \
        .repartition(blocks)
    got = (ntile(ds, ["v", "id"], k, keep_cols=["id"]).to_pandas()
           .reindex(columns=["id", "bucket"])
           .sort_values("id").reset_index(drop=True))
    df = pd.DataFrame({"id": ids, "v": pd.Series(v, dtype=object)})
    pd.testing.assert_frame_equal(got, _oracle(df, k), check_dtype=False,
                                  check_index_type=False)


@settings(max_examples=10, deadline=None)
@given(parts=st.integers(1, 3), desc=st.booleans(), data=st.data(),
       **_layouts)
def test_dense_rank_random_layouts_nullable_strings(n, parts, desc, data,
                                                    blocks, seed):
    """All null keys share one rank, after every string in either
    direction (DuckDB's order); '' is a value of its own."""
    rng = np.random.default_rng(seed)
    v = data.draw(st.lists(_NULLABLE_STR, min_size=n, max_size=n))
    p = rng.integers(0, parts, n).astype(np.int64)
    ds = rd.from_arrow(pa.table({"id": np.arange(n, dtype=np.int64),
                                 "p": p, "v": pa.array(v, pa.string())})) \
        .repartition(blocks)
    got = (dense_rank(ds, ["p", "v"], partition_col="p", keep_cols=["id"],
                      descending=[False, desc])
           .to_pandas().reindex(columns=["id", "drank"])
           .sort_values("id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", pd.DataFrame({"id": np.arange(n, dtype=np.int64),
                                    "p": p, "v": pd.Series(v, dtype=object)}))
    exp = con.execute(
        "SELECT id, DENSE_RANK() OVER (PARTITION BY p ORDER BY v "
        f"{'DESC' if desc else 'ASC'}) AS drank FROM t ORDER BY id").df()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False,
                                  check_index_type=False)
