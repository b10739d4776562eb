"""Conformance of profile + row checks vs the numpy oracle on the
reference's own inline-example vectors (FIXTURES.md F-STAT)."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from autoprepad_ray.profile import TableProfile, profile_arrays, profile_dataset
from autoprepad_ray.validators import row_checks as rc
from tests import oracle


def _check_table(train_cols: dict, test_cols: dict):
    prof = profile_arrays(train_cols)
    states = rc.fence_states(prof, list(train_cols.keys()))
    ds = rd.from_arrow(pa.table({k: pa.array(np.asarray(v, dtype=float))
                                 for k, v in test_cols.items()}))
    out = rc.check_rows(ds, states)
    return out.to_pandas()


def test_tukey_basic_reference_example():
    # TukeyTransformer.py:70-76 — train [1..5], test [3,1000] -> flags [0,1]
    df = _check_table({"x": [1, 2, 3, 4, 5]}, {"x": [3, 1000]})
    assert df["x_TUKEY"].tolist() == [0, 1]


def test_mad_basic_reference_example():
    # MedianAbsolutDeviation.py:78-79 / testMAD.ipynb — [1,2,3,4,5,1000]
    x = [1, 2, 3, 4, 5, 1000]
    df = _check_table({"x": x}, {"x": x})
    med, mad = oracle.mad_fit(np.array(x, dtype=float))
    exp = oracle.mad_flags(np.array(x, dtype=float), med, mad)
    assert df["x_Z_MOD"].tolist() == exp.tolist()
    assert df["x_Z_MOD"].tolist() == [0, 0, 0, 0, 0, 1]


def test_totals_two_columns():
    # TukeyTransformerTotal.py:62-67 / MedianAbsolutDeviationTotal.py:64-66
    a = [1, 2, 3, 4, 5, 6, 1000]
    b = [1, 2, 3, 4, 50, 700, 1000]
    df = _check_table({"a": a, "b": b}, {"a": a, "b": b})
    fa = oracle.tukey_flags(np.array(a, float), *oracle.tukey_fit(np.array(a, float)))
    fb = oracle.tukey_flags(np.array(b, float), *oracle.tukey_fit(np.array(b, float)))
    assert df["Tukey_Total"].tolist() == (fa + fb).tolist()
    ma, Ma = oracle.mad_fit(np.array(a, float))
    mb, Mb = oracle.mad_fit(np.array(b, float))
    exp_mad = (oracle.mad_flags(np.array(a, float), ma, Ma)
               + oracle.mad_flags(np.array(b, float), mb, Mb))
    assert df["MAD_Total"].tolist() == exp_mad.tolist()


def test_pooled_mode_matches_flattened_reference():
    # reference computes np.quantile over the FLATTENED 2-D array (§1.1)
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    b = [2.0, 3.0, 4.0, 5.0, 6.0]
    c = np.array([1, 7, 40])         # an int column pools with the floats
    prof = profile_arrays({"a": a, "b": b, "c": c})
    flat = np.concatenate([a, b, c])
    lo, hi = oracle.tukey_fit(flat)
    states = rc.fence_states(prof, ["a", "b", "c"], mode="pooled")
    assert np.isclose(states["a"].lo, lo) and np.isclose(states["a"].hi, hi)
    # one global fence for all cols: bit for bit the fence (MAD too) of
    # one column holding every value
    assert states["a"] == states["b"] == states["c"] == \
        rc.fence_states(profile_arrays({"f": flat}), ["f"])["f"]
    # the columns' sketches merge as copies: the profile is untouched
    assert prof["a"].values.distinct == 5 and prof["a"].quantile(0.5) == 3.0


def test_mad_zero_guard():
    # constant column: mad == 0 -> all flags 0 (engine-defined, SURVEY F7)
    df = _check_table({"x": [5.0] * 10}, {"x": [5.0, 99.0]})
    assert df["x_Z_MOD"].tolist() == [0, 0]


def test_nulls_not_flagged():
    ds = rd.from_arrow(pa.table({"x": pa.array([1.0, None, 1000.0])}))
    prof = profile_arrays({"x": [1, 2, 3, 4, 5]})
    states = rc.fence_states(prof, ["x"])
    df = rc.check_rows(ds, states).to_pandas()
    assert df["x_TUKEY"].tolist() == [0, 0, 1]


def test_profile_dataset_matches_profile_arrays():
    rng = np.random.default_rng(3)
    x = rng.normal(10, 2, 5000)
    s = np.array([f"v{i % 17}" for i in range(5000)], dtype=object)
    ds = rd.from_arrow(pa.table({"x": pa.array(x), "s": pa.array(s)})) \
        .repartition(6)
    p_ds = profile_dataset(ds)
    assert p_ds.n_rows == 5000
    for q in (0.25, 0.5, 0.75):
        assert np.isclose(p_ds["x"].quantile(q), np.quantile(x, q))
    assert np.isclose(p_ds["x"].moments.mean, x.mean())
    assert p_ds["s"].distinct() == 17
    assert p_ds["s"].mode()[0] == "v0"
    # artifact round-trip
    p2 = TableProfile.from_json(p_ds.to_json())
    assert np.isclose(p2["x"].quantile(0.75), p_ds["x"].quantile(0.75))
    assert p2["s"].distinct() == 17


@pytest.mark.parametrize("fmt", [None, 1, 99])
def test_profile_json_other_format_raises(fmt):
    """An unstamped (pre-KLL) or unknown profile format is a named error,
    never a KeyError from a missing sketch."""
    import json

    from autoprepad_ray.profile import ProfileFormatError

    d = json.loads(profile_arrays({"x": [1.0, 2.0, 3.0]}).to_json())
    if fmt is None:
        del d["format"]
    else:
        d["format"] = fmt
    with pytest.raises(ProfileFormatError):
        TableProfile.from_json(json.dumps(d))


def test_scores_and_labels_match_oracle():
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(0, 1, 500), [50, 60, 70, 80, 90]])
    ds = rd.from_arrow(pa.table({"x": pa.array(x)})).repartition(4)
    prof = profile_dataset(ds)
    states = rc.fence_states(prof, ["x"])
    checked = rc.check_rows(ds, states)
    scored = rc.attach_scores(checked, pct=0.10).to_pandas()
    lo_, hi_ = oracle.tukey_fit(x)
    med, mad = oracle.mad_fit(x)
    raw = (oracle.tukey_flags(x, lo_, hi_)
           + oracle.mad_flags(x, med, mad)).astype(float)
    exp_score = oracle.minmax_scale(raw)
    exp_label = oracle.percentile_labels(raw, 0.10)
    got = scored.sort_values("x").reset_index(drop=True)
    exp_order = np.argsort(x, kind="mergesort")
    assert np.allclose(got["AnomalyScore"].to_numpy(),
                       exp_score[exp_order])
    assert got["AnomalyLabel"].tolist() == exp_label[exp_order].tolist()


def test_partition_verdicts():
    n = 1000
    pid = np.repeat(np.arange(4), n // 4)
    x = np.zeros(n)
    x[pid == 2] = np.where(np.arange(250) < 50, 1000.0, 0.0)  # 20% outliers in p2
    train = np.zeros(100)
    train[:50] = 1.0  # iqr>0 so fences are finite
    ds = rd.from_arrow(pa.table({"pid": pa.array(pid), "x": pa.array(x)})) \
        .repartition(5)
    prof = profile_arrays({"x": train})
    states = rc.fence_states(prof, ["x"])
    v = rc.partition_verdicts(rc.check_rows(ds, states), "pid", budget=0.05) \
        .to_pandas().sort_values("pid").reset_index(drop=True)
    assert v["fail"].tolist() == [0, 0, 1, 0]
    assert v["n_rows"].tolist() == [250] * 4
    assert v.loc[2, "n_viol"] == 50


def test_reference_bit_pattern_exact():
    """Pin the EXACT reference encoding on its own example vectors
    (CategoricalPatterns.py:99-104: 'Hund'/'K*atze'/'Hund123')."""
    import pandas as pd
    from autoprepad_ray.functions.strings import reference_bit_pattern

    s = pd.Series(["Hund", "Hund123", "K*atze", None])
    out = reference_bit_pattern(s).tolist()
    # H=00 u=01 n=01 d=01                     -> 0b0 00 01 01 01
    assert out[0] == "0b000010101"
    # + 1=10 2=10 3=10
    assert out[1] == "0b000010101101010"
    # K=00 *=11 a=01 t=01 z=01 e=01
    assert out[2] == "0b0001101010101"
    assert out[3] is None


def test_ordinal_binary_encoders():
    import numpy as np
    from autoprepad_ray.functions.encoders import (binary_bits,
                                                   ordinal_encode_array,
                                                   ordinal_map)

    m = ordinal_map(np.array(["b", "a", "c"], dtype=object))
    assert m == {"a": 0, "b": 1, "c": 2}
    codes = ordinal_encode_array(np.array(["a", "c", "zz"], dtype=object), m)
    assert codes.tolist() == [0, 2, -1]  # unseen -> -1 (domain violation)
    bits = binary_bits(codes, 3)
    assert bits["bit0"].tolist() == [0, 0, 1]
    assert bits["bit1"].tolist() == [0, 1, 1]


def test_profile_markdown_report():
    from autoprepad_ray.report import profile_to_markdown

    prof = profile_arrays({"x": [1.0, 2.0, 3.0, None] if False else
                           [1.0, 2.0, 3.0, 4.0],
                           "s": np.array(["a", "b", "a"], dtype=object)})
    md = profile_to_markdown(prof, title="t")
    assert "| x | numeric | 4 |" in md
    assert "| s | string | 3 |" in md


def test_duplicate_columns_heuristic():
    from autoprepad_ray.validators.correlation import duplicate_columns

    rng = np.random.default_rng(2)
    x = rng.normal(0, 1, 2000)
    tbl = pa.table({"a": pa.array(x), "b": pa.array(x * 3 + 1),
                    "c": pa.array(rng.normal(0, 1, 2000))})
    ds = rd.from_arrow(tbl).repartition(3)
    dups = duplicate_columns(ds, ["a", "b", "c"])
    assert [(p[0], p[1]) for p in dups] == [("a", "b")]
    assert dups[0][2] == 1.0  # monotone transform -> rho exactly 1


def test_partition_histograms_single_pass():
    from autoprepad_ray.validators.drift import partition_histograms

    pid = np.repeat([0, 1], 500)
    x = np.concatenate([np.full(500, 10.0), np.full(500, 30.0)])
    f = np.array(["a"] * 500 + ["b"] * 500, dtype=object)
    ds = rd.from_arrow(pa.table({"pid": pa.array(pid), "x": pa.array(x),
                                 "f": pa.array(f)})).repartition(4)
    num, cat = partition_histograms(ds, {"x": np.array([0., 20., 40.])},
                                    ["f"], "pid")
    assert num["x"][0].tolist() == [500, 0]
    assert num["x"][1].tolist() == [0, 500]
    assert cat["f"][0] == {"a": 500} and cat["f"][1] == {"b": 500}


def test_canonicalize_on_sliced_array_regression():
    """pyarrow 16.1 if_else corrupts values on offset-sliced string
    arrays (NUL garbage); canonicalize_nan_tokens must compact first.
    Zero-copy Ray batches sliced by batch_size produce exactly such
    arrays, so this is a silent-corruption landmine."""
    import pyarrow as pa
    from autoprepad_ray.functions.strings import canonicalize_nan_tokens

    vals = [f"caption number {i}" for i in range(50_000)] + ["NaN", "ok"]
    arr = pa.array(vals)
    sliced = arr.slice(40_000, 10_002)
    out = canonicalize_nan_tokens(sliced)
    assert out[0].as_py() == "caption number 40000"
    assert out[9_999].as_py() == "caption number 49999"
    assert out[10_000].as_py() is None   # the NaN token
    assert out[10_001].as_py() == "ok"


def test_score_stats_from_profile_matches_threshold_pass():
    """The profile-derived (min, max, threshold) must equal the
    score_threshold barrier pass exactly, including null and NaN rows
    (which RowChecker scores 0)."""
    rng = np.random.default_rng(9)
    x = np.concatenate([rng.normal(10, 2, 400), [500.0, -400.0, 900.0],
                        [np.nan] * 7])
    arr = pa.array(x, type=pa.float64())
    # add genuine arrow nulls on top of the NaNs
    arr = pa.concat_arrays([arr, pa.array([None] * 5, type=pa.float64())])
    ds = rd.from_arrow(pa.table({"x": arr})).repartition(4)
    prof = profile_dataset(ds)
    states = rc.fence_states(prof, ["x"])
    checked = rc.check_rows(ds, states)
    slow = rc.score_threshold(checked, pct=0.10)
    fast = rc.score_stats_from_profile(prof, states, pct=0.10)
    assert fast is not None
    assert fast == slow
    # fast path declines multi-column states (joint dist not derivable)
    assert rc.score_stats_from_profile(prof, {"a": states["x"],
                                              "b": states["x"]}) is None


def test_tukey_pooled_overflow_fallback(tmp_path, monkeypatch):
    """Force the census-overflow (scaled-column profile) arm of
    tukey_flags_pooled_lineitem — the scale branch the sf sweeps never
    hit — and pin its flags against the exact-census arm on a corpus
    whose fence margins dwarf any KLL quantile error (inliers sit
    at ~50% of fence width, planted outliers at ~1000x)."""
    import functools

    import pandas as pd
    import pyarrow.parquet as pq

    from autoprepad_ray import profile as prof_mod
    from autoprepad_ray.pipelines import queries as Q

    rng = np.random.default_rng(7)
    n = 4000
    qty = rng.integers(1, 65, n).astype(np.float64)
    price = rng.integers(1, 65, n).astype(np.float64) * 10.0
    out_idx = rng.choice(n, 20, replace=False)
    price[out_idx] *= 1000.0            # unmistakable Tukey outliers
    pq.write_table(pa.table({
        "l_orderkey": pa.array(np.arange(n, dtype=np.int64)),
        "l_linenumber": pa.array(np.ones(n, dtype=np.int64)),
        "l_quantity": pa.array(qty),
        "l_extendedprice": pa.array(price)}),
        str(tmp_path / "lineitem.parquet"))

    run = Q.REGISTRY["tukey_flags_pooled_lineitem"].fn
    exact = run(str(tmp_path)).to_pandas() \
        .sort_values("l_orderkey").reset_index(drop=True)
    assert exact["price_tukey_pooled"].sum() == 20    # planted rows flagged
    assert exact["quantity_tukey_pooled"].sum() == 0  # uniform: no outliers

    calls = []
    base = prof_mod.profile_dataset

    def overflowing(ds, **kw):
        kw["max_exact"] = 8             # 64 distinct values >> 8: overflow
        calls.append(kw["columns"])
        return base(ds, **kw)

    monkeypatch.setattr(Q, "profile_dataset", overflowing)
    fb = run(str(tmp_path)).to_pandas() \
        .sort_values("l_orderkey").reset_index(drop=True)
    # per-column pass + the scaled-column fallback that fence_states pools
    assert calls == [["l_quantity", "l_extendedprice"],
                     ["l_quantity_scaled", "l_extendedprice_scaled"]]
    pd.testing.assert_frame_equal(fb, exact)


@pytest.mark.parametrize("case", ["null_nan", "empty"])
def test_check_summary_matches_row_oracle(case):
    """The one summary pass gives the score stats and partition verdicts
    that a pandas oracle computes from the checked rows themselves, with
    null and NaN values (scored 0) and with no rows at all; the public
    score_threshold and partition_verdicts wrappers agree with it."""
    rng = np.random.default_rng(12)
    n = 0 if case == "empty" else 800
    x = rng.normal(0, 1, n)
    y = rng.normal(5, 2, n)
    x[::37] *= 40.0                      # Tukey and MAD outliers
    y[::53] += 90.0
    x[::11] = np.nan                                  # NaN: scored 0
    xa = pa.array(x, mask=np.arange(n) % 13 == 0)     # null: scored 0
    pid = rng.integers(0, 6, n)
    ds = rd.from_arrow(pa.table({"pid": pa.array(pid, type=pa.int64()),
                                 "x": xa, "y": pa.array(y)})).repartition(4)
    prof = profile_arrays({"x": rng.normal(0, 1, 300),
                           "y": rng.normal(5, 2, 300)})
    checked = rc.check_rows(ds, rc.fence_states(prof, ["x", "y"]))
    stats, verdicts = rc.check_summary(checked, "pid", pct=0.10,
                                       budget=0.05)
    v = verdicts.to_pandas()
    if n == 0:
        assert stats[:2] == (0.0, 0.0) and np.isnan(stats[2])
        assert len(v) == 0
    else:
        df = checked.to_pandas()
        raw = (df[rc.TUKEY_TOTAL] + df[rc.MAD_TOTAL]).to_numpy(float)
        assert stats[:2] == (raw.min(), raw.max())
        assert stats[2] == pytest.approx(np.percentile(raw, 90), rel=1e-12)
        df["viol"] = ((df[rc.TUKEY_TOTAL] > 0)
                      | (df[rc.MAD_TOTAL] > 0)).astype(int)
        want = df.groupby("pid").agg(n_rows=("viol", "size"),
                                     n_viol=("viol", "sum")).reset_index()
        assert v["pid"].tolist() == want["pid"].tolist()
        assert v["n_rows"].tolist() == want["n_rows"].tolist()
        assert v["n_viol"].tolist() == want["n_viol"].tolist()
        assert v["fail"].tolist() == (want["n_viol"] / want["n_rows"]
                                      > 0.05).astype(int).tolist()
        assert v["n_viol"].sum() > 0
    np.testing.assert_equal(rc.score_threshold(checked, pct=0.10), stats)
    assert rc.partition_verdicts(checked, "pid", budget=0.05) \
        .to_pandas().equals(v)
