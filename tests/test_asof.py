"""asof_join stage: tie-break, drop semantics, and a pandas merge_asof
oracle on seeded random data (int64 timestamp path, many buckets)."""

import numpy as np
import pandas as pd
import pyarrow as pa


def _ds(df):
    import ray.data as rd
    return rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))


def test_asof_basic_and_ties(ray_session):
    from autoprepad_ray.stages.join import asof_join

    left = pd.DataFrame({"k": [1, 1, 2, 3], "t": [10, 5, 7, 4],
                         "lid": [0, 1, 2, 3]})
    right = pd.DataFrame({"k": [1, 1, 1, 2, 2],
                          "rt": [5, 5, 9, 8, 7],
                          "tie": [10, 20, 5, 1, 2],
                          "val": [100.0, 200.0, 50.0, 7.0, 8.0]})
    out = asof_join(_ds(left), _ds(right), on="k", left_ts="t",
                    right_ts="rt", left_cols=["lid"],
                    right_cols=["val"], tie_col="tie").to_pandas() \
        .set_index("lid")
    # lid=0 (k=1,t=10): rt<=10 max rt=9 -> val 50
    assert out.loc[0, "val"] == 50.0
    # lid=1 (k=1,t=5): rt=5 twice -> tie-break max tie=20 -> val 200
    assert out.loc[1, "val"] == 200.0
    # lid=2 (k=2,t=7): rt<=7 -> rt=7 -> val 8
    assert out.loc[2, "val"] == 8.0
    # lid=3 (k=3): no right side -> dropped
    assert 3 not in out.index and len(out) == 3


def test_asof_matches_merge_asof_oracle(ray_session):
    from autoprepad_ray.stages.join import asof_join

    rng = np.random.default_rng(7)
    nl, nr, nk = 800, 400, 37
    left = pd.DataFrame({
        "k": rng.integers(0, nk, nl), "t": rng.integers(0, 1000, nl),
        "lid": np.arange(nl)})
    right = pd.DataFrame({
        "k": rng.integers(0, nk, nr), "rt": rng.integers(0, 1000, nr),
        "tie": rng.permutation(nr), "val": rng.normal(size=nr)})
    got = asof_join(_ds(left), _ds(right), on="k", left_ts="t",
                    right_ts="rt", left_cols=["lid"],
                    right_cols=["val", "tie"], tie_col="tie").to_pandas() \
        .sort_values("lid").reset_index(drop=True)
    # oracle: merge_asof over ts-sorted frames; right pre-sorted by
    # (rt, tie) so the last row <= t for a key is the max-tie winner
    exp = pd.merge_asof(
        left.sort_values(["t", "lid"], kind="mergesort"),
        right.sort_values(["rt", "tie"], kind="mergesort"),
        left_on="t", right_on="rt", by="k", direction="backward") \
        .dropna(subset=["val"]).sort_values("lid").reset_index(drop=True)
    assert len(got) == len(exp)
    np.testing.assert_array_equal(got["lid"].to_numpy(),
                                  exp["lid"].to_numpy())
    np.testing.assert_array_equal(got["tie"].to_numpy(),
                                  exp["tie"].to_numpy(np.int64))
    np.testing.assert_array_equal(got["val"].to_numpy(),
                                  exp["val"].to_numpy())


def test_asof_pack_limit_both_arms(ray_session, monkeypatch):
    """The signed (key_code << 32) | ts_rank composite needs a slice
    below join.PACK_LIMIT rows: one slice of exactly the limit raises,
    one row under it joins normally."""
    import pytest

    from autoprepad_ray.stages import join, transport

    monkeypatch.setattr(transport, "default_num_parts", lambda: 1)

    left = pd.DataFrame({"k": [1, 1, 2, 3], "t": [10, 5, 7, 4],
                         "lid": [0, 1, 2, 3]})
    right = pd.DataFrame({"k": [1, 1, 2], "rt": [5, 9, 7],
                          "val": [100.0, 50.0, 8.0]})

    def run():
        return join.asof_join(_ds(left), _ds(right), on="k", left_ts="t",
                              right_ts="rt", left_cols=["lid"],
                              right_cols=["val"]) \
            .to_pandas().set_index("lid")["val"].to_dict()

    monkeypatch.setattr(join, "PACK_LIMIT", 8)          # 7 rows: passes
    assert run() == {0: 50.0, 1: 100.0, 2: 8.0}
    monkeypatch.setattr(join, "PACK_LIMIT", 7)
    with pytest.raises(ValueError, match="asof_join slice holds 7 rows"):
        run()
