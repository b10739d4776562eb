"""Declarative config facade (SURVEY §2.10; reference control.py:89-107
constructor surface): one dict drives profile -> evidence -> score/label
-> uniqueness -> verdicts -> registry passthrough."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data as rd

from autoprepad_ray import config, profile
from autoprepad_ray.config import _canon_and_parse, run_config
from autoprepad_ray.fixtures import generate_fmixed
from autoprepad_ray.validators.domain import learned_shape_domain
from autoprepad_ray.validators.uniqueness import duplicate_keys


@pytest.fixture(scope="module")
def fmixed_ds():
    table, exp = generate_fmixed(2000, seed=42)
    ds = rd.from_arrow(table).repartition(4).map_batches(
        lambda t: t.append_column(
            "pid", pc.cast(pc.bit_wise_and(t["row_id"], 3), pa.int64())),
        batch_format="pyarrow")
    return ds, exp


CFG = {
    "exclude_columns": ["y_true"],
    "numeric_columns": ["locationId"],
    "nominal_columns": ["platform", "availability"],
    "pattern_columns": ["evseid", "uuid"],
    "datetime_columns": ["timestamp"],
    "unique_keys": ["row_id"],
    "partition_column": "pid",
    "thresholds": {"domain_min_frac": 0.02},
    "validators": [
        {"name": "constant_columns",
         "kwargs": {"columns": ["platform", "locationId"]}},
    ],
}


def test_config_drives_all_declared_checks(fmixed_ds):
    ds, exp = fmixed_ds
    res = run_config(ds, CFG)
    df = res.enriched.to_pandas().set_index("row_id")
    # excluded column really dropped
    assert "y_true" not in df.columns
    # every injected recipe is caught by its declared check
    for i in exp["misspelled"]:
        assert df.loc[i, "availability_DOMAIN"] == 1, i
    for i in exp["rare_platform"]:
        assert df.loc[i, "platform_DOMAIN"] == 1, i
    for i in exp["bad_uuid"]:
        assert df.loc[i, "uuid_SHAPE"] == 1, i
    for i in exp["wrong_year"]:
        assert df.loc[i, "timestamp_epoch_TUKEY"] == 1, i
    for i in exp["sentinel_loc"]:
        assert df.loc[i, "locationId_TUKEY"] == 1, i
    # OR-merge total and score/label attached
    anomalies = sorted(set().union(*exp.values()))
    assert (df.loc[anomalies, "n_evidence"] > 0).all()
    assert {"AnomalyScore", "AnomalyLabel"} <= set(df.columns)
    assert df["AnomalyScore"].between(0, 1).all()
    # fitted state is exposed (the reference's fitted attributes)
    assert "locationId" in res.states
    assert "platform" in res.domains and "uuid" in res.shape_domains
    # uniqueness: row_id is unique -> empty listing, correct shape
    dup = res.duplicates.to_pandas() if hasattr(res.duplicates,
                                                "to_pandas") \
        else res.duplicates
    assert len(dup) == 0
    # per-partition verdicts cover the 4 declared partitions
    v = res.verdicts.to_pandas() if hasattr(res.verdicts, "to_pandas") \
        else res.verdicts
    assert sorted(v["pid" if "pid" in v.columns else v.columns[0]]
                  .astype(int)) == [0, 1, 2, 3]
    # registry passthrough ran
    assert "constant_columns" in res.extras


def test_config_ordinal_codes_and_domain():
    t = pa.table({
        "k": pa.array(list(range(12)), type=pa.int64()),
        "prio": pa.array(["LOW", "MED", "HIGH", "LOW", "MED", "HIGH",
                          "LOW", "MED", "HIGH", "LOW", "MED", "zzz"])})
    res = run_config(rd.from_arrow(t).repartition(2),
                     {"ordinal_columns": ["prio"],
                      "thresholds": {"domain_min_frac": 0.1}})
    df = res.enriched.to_pandas().sort_values("k")
    # sorted-order 0-based codes (encoders.ordinal_map), unknown/rare -> code
    # still assigned from the profile map (zzz IS in the profile) but its
    # rarity flags the domain check
    assert res.ordinal_maps["prio"] == {"HIGH": 0, "LOW": 1, "MED": 2,
                                        "zzz": 3}
    assert df["prio_CODE"].tolist() == [1, 2, 0] * 3 + [1, 2, 3]
    assert df["prio_DOMAIN"].tolist() == [0] * 11 + [1]


def test_config_unknown_keys_raise():
    ds = rd.from_arrow(pa.table({"a": pa.array([1, 2, 3])}))
    with pytest.raises(KeyError, match="unknown config keys"):
        run_config(ds, {"numeric_cols": ["a"]})
    with pytest.raises(KeyError, match="unknown thresholds"):
        run_config(ds, {"numeric_columns": ["a"],
                        "thresholds": {"tukey": 2.0}})


def test_config_native_timestamp_column():
    """datetime_columns accepts a NATIVE timestamp column (no strptime
    parse): epoch fences fire on an outlier year, UNPARSEABLE stays 0."""
    n = 40
    ts = ([np.datetime64("2024-01-01T00:00:00", "us")
           + np.timedelta64(i * 3600, "s") for i in range(n - 1)]
          + [np.datetime64("1970-01-05T00:00:00", "us")])
    t = pa.table({"k": pa.array(list(range(n)), type=pa.int64()),
                  "ts": pa.array(ts, type=pa.timestamp("us"))})
    res = run_config(rd.from_arrow(t).repartition(2),
                     {"datetime_columns": ["ts"]})
    df = res.enriched.to_pandas().set_index("k")
    assert (df["ts_UNPARSEABLE"] == 0).all()
    assert df.loc[n - 1, "ts_epoch_TUKEY"] == 1       # 1970 outlier
    assert df.loc[: n - 2, "ts_epoch_TUKEY"].sum() == 0
    assert df.loc[n - 1, "n_evidence"] >= 1


def test_config_verdicts_count_declared_evidence():
    """A partition's violation count is the OR-merge of every declared
    check, not just the Tukey/MAD totals: 50 rows outside the learned
    nominal domain fail their partition."""
    n = 400
    pid = np.arange(n) % 4
    c = np.array(["a"] * n, dtype=object)
    c[np.flatnonzero(pid == 3)[:50]] = "zz"
    t = pa.table({"v": pa.array(np.ones(n)), "c": pa.array(c),
                  "pid": pa.array(pid)})
    res = run_config(rd.from_arrow(t).repartition(3),
                     {"numeric_columns": ["v"], "nominal_columns": ["c"],
                      "partition_column": "pid",
                      "thresholds": {"domain_min_frac": 0.2}})
    v = res.verdicts.to_pandas().set_index("pid")
    assert v["n_rows"].tolist() == [100] * 4
    assert v["n_viol"].tolist() == [0, 0, 0, 50]
    assert v["fail"].tolist() == [0, 0, 0, 1]


def test_config_partition_run_is_two_executions(fmixed_ds, ray_executions):
    """With a partition column, the profile pass and ONE summary pass
    (score stats + verdicts) are the only executions; each verdict's
    n_viol is its partition's count of rows with any evidence."""
    ds, _ = fmixed_ds
    cfg = {k: v for k, v in CFG.items()
           if k not in ("unique_keys", "validators")}
    res = run_config(ds, cfg)
    assert len(ray_executions) == 2, ray_executions
    df = res.enriched.to_pandas()
    v = res.verdicts.to_pandas().set_index("pid")
    assert v["n_viol"].to_dict() == \
        (df["n_evidence"] > 0).groupby(df["pid"]).sum().to_dict()
    assert v["n_rows"].to_dict() == df.groupby("pid").size().to_dict()


def test_config_nan_token_datetime_is_null():
    """A NaN token in a string datetime column is canonicalized to a
    null (the reference's M1) before the parse: a null epoch, not an
    unparseable value."""
    t = pa.table({"k": pa.array(range(6), type=pa.int64()),
                  "ts": pa.array(["2024-01-01 00:00:00"] * 5 + ["NaN"])})
    res = run_config(rd.from_arrow(t), {"datetime_columns": ["ts"]})
    df = res.enriched.to_pandas().set_index("k")
    assert df["ts_UNPARSEABLE"].tolist() == [0] * 6
    assert df["ts_epoch"].isna().tolist() == [False] * 5 + [True]
    assert df.loc[5, "n_evidence"] == 0


def test_config_empty_reference_raises():
    ds = rd.from_arrow(pa.table({"v": pa.array([], pa.float64())}))
    with pytest.raises(ValueError, match="no rows"):
        run_config(ds, {"numeric_columns": ["v"]})


def test_full_config_rides_two_executions(fmixed_ds, ray_executions):
    """The full CFG's unique key (no repeat) and its constant_columns
    spec naming its columns are answered by the fit fold: the fit fold
    and the summary pass are the only executions."""
    ds, _ = fmixed_ds
    res = run_config(ds, CFG)
    assert len(ray_executions) == 2, ray_executions
    assert res.duplicates.schema.types == [pa.int64(), pa.int64()]
    assert res.extras["constant_columns"].num_rows == 0


def test_config_repeated_key_lists_once_from_the_fit_census(
        fmixed_ds, ray_executions):
    """A repeated key costs one listing execution over the prepared
    rows, and the listing equals a standalone ``duplicate_keys`` on
    the same prepared rows."""
    ds, _ = fmixed_ds
    res = run_config(ds, {**CFG, "unique_keys": ["platform"]})
    assert len(ray_executions) == 3, ray_executions
    prepped = _canon_and_parse(
        ds.drop_columns(["y_true"]),
        ["platform", "availability", "evseid", "uuid"], ["timestamp"])
    want = duplicate_keys(prepped, ["platform"])
    assert res.duplicates.num_rows > 0
    assert res.duplicates.sort_by("platform").equals(
        want.sort_by("platform"))


def test_config_constant_columns_without_columns_keeps_its_pass(
        fmixed_ds, ray_executions):
    """Without ``columns`` the fit fold cannot know the input's columns:
    the spec runs its own pass, over the input's columns only (no
    evidence column leaks in)."""
    ds, _ = fmixed_ds
    res = run_config(ds, {**CFG, "validators": [
        {"name": "constant_columns", "kwargs": {"include_all": True}}]})
    assert len(ray_executions) == 3, ray_executions
    assert sorted(res.extras["constant_columns"]["col_name"].to_pylist()) \
        == ["availability", "evseid", "locationId", "pid", "platform",
            "row_id", "timestamp", "uuid"]


def test_config_nan_tokens_are_null_for_every_check():
    """Every check reads the prepared columns, where a NaN token in a
    declared string column is a null: the key's token and null form one
    null group, a column constant but for a token is constant, and a
    passthrough validator counts no token."""
    t = pa.table({"k": pa.array(["a", "NaN", None, "b", "c", "d"]),
                  "c": pa.array(["x", "x", "NaN", "x", None, "x"])})
    res = run_config(rd.from_arrow(t).repartition(2), {
        "nominal_columns": ["k", "c"], "unique_keys": ["k"],
        "validators": [
            {"name": "constant_columns", "kwargs": {"columns": ["c"]}},
            {"name": "distinct_counts", "kwargs": {"cols": ["k", "c"]}}]})
    assert res.duplicates.to_pylist() == [{"k": None, "n": 2}]
    assert res.extras["constant_columns"].to_pylist() == [
        {"col_name": "c", "n": 4, "is_constant": 1}]
    assert res.extras["distinct_counts"] == {"k": 4, "c": 1}


@pytest.mark.parametrize("kind", ["nominal_columns", "ordinal_columns",
                                  "pattern_columns"])
def test_config_overflowed_domain_raises(kind, monkeypatch):
    """Past ``max_exact`` distinct values the exact counts drain: the
    learned domain would be empty and flag every row, so run_config
    raises naming the column."""
    uuids = [f"{i:08x}-0000-4000-8000-{i:012x}" for i in range(50)]
    sk = profile.ColumnSketch(name="u", kind="string")
    sk.values.max_items = 20
    sk.update_array(pa.array(uuids))
    assert sk.values.overflow
    assert learned_shape_domain(sk.values) == frozenset()
    monkeypatch.setattr(config, "bundle_partial", lambda cols:
                        profile.bundle_partial(cols, max_exact=20))
    with pytest.raises(ValueError, match="'u' has more than 20 distinct"):
        run_config(rd.from_arrow(pa.table({"u": uuids})), {kind: ["u"]})


@pytest.mark.parametrize("kind", ["categorical_cols", "pattern_cols"])
def test_preprocess_overflowed_category_raises(kind, monkeypatch):
    """preprocess_table shares run_config's guard: past ``max_exact``
    distinct values its ordinal or pattern map and mode would be learned
    from drained counts and every row coded -1, so it raises naming the
    column."""
    from autoprepad_ray.pipelines import preprocess

    monkeypatch.setattr(preprocess, "profile_dataset", lambda ds, columns:
                        profile.profile_dataset(ds, columns, max_exact=20))
    cats = [f"cat{i:02d}" for i in range(50)]
    with pytest.raises(ValueError, match="'c' has more than 20 distinct"):
        preprocess.preprocess_table(rd.from_arrow(pa.table({"c": cats})),
                                    **{kind: ("c",)})
