"""validate_numeric_table end to end against the numpy oracle, on both
arms of its layout rule (a many-small-block Dataset is bundled; an
``io.read_table`` input keeps its fused read plan), plus degenerate
inputs and the sizing rule itself."""

import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data as rd

from autoprepad_ray.io import read_table
from autoprepad_ray.pipelines.flagship import validate_numeric_table
from autoprepad_ray.stages.transport import Layout, default_num_parts, sized
from autoprepad_ray.validators import row_checks as rc
from tests import oracle

COLS = ["x", "y"]
ROWS = 10_000


def _table(seed: int = 3) -> pa.Table:
    """Two numeric columns, partition ``p = rid % 5``; a fifth of
    partition 3's ``x`` values are shifted far out."""
    rng = np.random.default_rng(seed)
    rid = np.arange(ROWS, dtype=np.int64)
    p = rid % 5
    x = rng.normal(0, 1, ROWS)
    x[(p == 3) & (rng.random(ROWS) < 0.2)] += 8
    y = np.round(rng.normal(50, 10, ROWS))
    return pa.table({"rid": rid, "x": x, "y": y, "p": p})


def _expected(t: pa.Table, cols: list[str], budget=0.05, pct=0.10) -> dict:
    """Flags, totals, labels and verdicts by the reference formulas
    (fences and MAD learned over each column's non-NaN values)."""
    flags, tk_tot, md_tot = {}, 0, 0
    for c in cols:
        x = t[c].to_numpy(zero_copy_only=False).astype(float)
        fit = x[~np.isnan(x)]
        if len(fit):
            tk = oracle.tukey_flags(x, *oracle.tukey_fit(fit))
            md = oracle.mad_flags(x, *oracle.mad_fit(fit))
        else:
            tk = md = np.zeros(len(x), dtype=int)
        flags[c + rc.TUKEY_SUFFIX], flags[c + rc.MADZ_SUFFIX] = tk, md
        tk_tot, md_tot = tk_tot + tk, md_tot + md
    raw = (tk_tot + md_tot).astype(float)
    viol = (tk_tot > 0) | (md_tot > 0)
    p = t["p"].to_numpy()
    parts = np.unique(p)
    n_rows = [int((p == q).sum()) for q in parts]
    n_viol = [int(viol[p == q].sum()) for q in parts]
    return {
        "flags": {**flags, rc.TUKEY_TOTAL: tk_tot, rc.MAD_TOTAL: md_tot},
        "score": oracle.minmax_scale(raw),
        "label": oracle.percentile_labels(raw, pct),
        "verdicts": {"p": parts.tolist(), "n_rows": n_rows,
                     "n_viol": n_viol,
                     "fail": [int(v / n > budget)
                              for v, n in zip(n_viol, n_rows)]}}


def _check(res, t: pa.Table, cols: list[str]) -> None:
    exp = _expected(t, cols)
    v = res.verdicts.to_pandas().sort_values("p")
    assert {k: v[k].astype(int).tolist() for k in exp["verdicts"]} \
        == exp["verdicts"]
    got = res.enriched.to_pandas().sort_values("rid")
    for c, want in exp["flags"].items():
        assert got[c].tolist() == want.tolist(), c
    assert np.allclose(got[rc.SCORE_COL], exp["score"])
    assert got[rc.LABEL_COL].tolist() == exp["label"].tolist()
    assert res.enriched.sum(rc.LABEL_COL) == exp["label"].sum()


def _summary_inputs(monkeypatch) -> list:
    """The checked Dataset of every summary pass
    ``validate_numeric_table`` runs."""
    seen, real = [], rc.check_summary

    def spy(checked, *a, **kw):
        seen.append(checked)
        return real(checked, *a, **kw)

    monkeypatch.setattr(rc, "check_summary", spy)
    return seen


def _operators(ds) -> list[tuple[str, int]]:
    """(operator name, tasks) of a materialization of ``ds``."""
    return [(m[1], int(m[2])) for m in re.finditer(
        r"^Operator \d+ (.+?): (\d+) tasks executed",
        ds.materialize().stats(), re.M)]


def _small_blocks(t: pa.Table, n: int = 40):
    return rd.from_arrow([t.slice(i * (t.num_rows // n), t.num_rows // n)
                          for i in range(n)])


def test_many_small_blocks_are_bundled(monkeypatch):
    """A Dataset of more blocks than ``default_num_parts()`` is validated
    behind one identity rebundling map: the summary pass and the
    enriched rows each run at most ``default_num_parts()`` tasks, and
    every output equals the oracle's."""
    t = _table()
    summaries = _summary_inputs(monkeypatch)
    res = validate_numeric_table(_small_blocks(t), COLS, partition_col="p")
    parts = default_num_parts()
    assert res.profile.layout == Layout(ROWS, 40, res.profile.layout.bytes)
    assert len(summaries) == 1
    for ds, op in ((summaries[0], "MapBatches(_rebundle)->MapBatches("
                                  "RowChecker.__call__)"),
                   (res.enriched, "MapBatches(_rebundle)->MapBatches("
                                  "RowChecker.__call__)->MapBatches(attach)")):
        ops = _operators(ds)
        bundled = [n for name, n in ops if name == op]
        assert len(bundled) == 1 and bundled[0] <= parts, ops
    _check(res, t, COLS)
    assert res.verdicts.to_pandas().sort_values("p")["fail"].tolist() \
        == [0, 0, 0, 1, 0]


def test_train_ds_leaves_ds_as_given():
    """Under a separate ``train_ds`` no pass over ``ds`` comes before
    the validate passes, so ``ds`` runs as given, one task per block."""
    t = _table()
    res = validate_numeric_table(_small_blocks(t), COLS, partition_col="p",
                                 train_ds=rd.from_arrow(t))
    assert res.profile.layout.blocks == 1
    ops = _operators(res.enriched)
    assert not any("_rebundle" in name for name, _ in ops), ops
    _check(res, t, COLS)


def test_read_table_input_keeps_its_fused_plan(tmp_path, monkeypatch):
    """An ``io.read_table`` input of one block per file is used as given:
    the summary pass and the enriched rows plan as one fused
    ``ReadParquet->MapBatches`` operator with no rebundling map, and the
    outputs equal the oracle's."""
    t = _table()
    for i in range(4):
        pq.write_table(t.slice(i * ROWS // 4, ROWS // 4),
                       tmp_path / f"part-{i}.parquet")
    summaries = _summary_inputs(monkeypatch)
    res = validate_numeric_table(read_table(str(tmp_path)), COLS,
                                 partition_col="p")
    assert res.profile.layout.blocks == 4
    assert [name for name, _ in _operators(summaries[0])] == [
        "ReadParquet->MapBatches(RowChecker.__call__)"]
    assert [name for name, _ in _operators(res.enriched)] == [
        "ReadParquet->MapBatches(RowChecker.__call__)->MapBatches(attach)"]
    _check(res, t, COLS)


def test_empty_reference_raises():
    empty = rd.from_arrow(pa.table({"x": pa.array([], pa.float64()),
                                    "p": pa.array([], pa.int64())}))
    with pytest.raises(ValueError, match=r"reference \(ds\) has no rows"):
        validate_numeric_table(empty, ["x"], partition_col="p")
    full = rd.from_arrow(pa.table({"x": [1.0, 2.0], "p": [0, 0]}))
    with pytest.raises(ValueError, match=r"\(train_ds\) has no rows"):
        validate_numeric_table(full, ["x"], partition_col="p",
                               train_ds=empty)


def test_empty_ds_under_a_reference_gives_empty_results():
    empty = rd.from_arrow(pa.table({"x": pa.array([], pa.float64()),
                                    "p": pa.array([], pa.int64())}))
    ref = rd.from_arrow(pa.table({"x": [1.0, 2.0, 3.0], "p": [0, 0, 1]}))
    res = validate_numeric_table(empty, ["x"], partition_col="p",
                                 train_ds=ref)
    assert res.verdicts.num_rows == 0
    assert res.verdicts.schema.names == ["p", "n_rows", "n_viol", "fail"]
    assert res.enriched.count() == 0


def test_empty_ds_verdicts_keep_their_columns_in_pandas():
    """The empty verdict table converts to a typed empty frame: a Ray
    Dataset of it converted to one without columns (KeyError on
    ``v["fail"]``)."""
    empty = rd.from_arrow(pa.table({"x": pa.array([], pa.float64()),
                                    "p": pa.array([], pa.int64())}))
    ref = rd.from_arrow(pa.table({"x": [1.0, 2.0, 3.0], "p": [0, 0, 1]}))
    v = validate_numeric_table(empty, ["x"], partition_col="p",
                               train_ds=ref).verdicts.to_pandas()
    assert v["fail"].tolist() == []
    assert list(v.columns) == ["p", "n_rows", "n_viol", "fail"]


def test_single_row():
    t = pa.table({"rid": [0], "x": [4.0], "y": [1.0], "p": [7]})
    res = validate_numeric_table(rd.from_arrow(t), COLS, partition_col="p")
    _check(res, t, COLS)
    assert res.verdicts.to_pandas().to_dict("list") == {
        "p": [7], "n_rows": [1], "n_viol": [0], "fail": [0]}


@pytest.mark.parametrize("blank", [
    pa.nulls(ROWS, pa.float64()),
    pa.array(np.full(ROWS, np.nan))], ids=["all_null", "nan_only"])
def test_blank_column_flags_nothing(blank):
    """An all-null or NaN-only column learns NaN fences and flags no row;
    the other column's evidence is unchanged."""
    t = _table()
    t = t.set_column(t.column_names.index("x"), "x", blank)
    res = validate_numeric_table(_small_blocks(t), COLS, partition_col="p")
    assert np.isnan(res.states["x"].lo) and np.isnan(res.states["x"].mad)
    _check(res, t, COLS)
    got = res.enriched.to_pandas()
    assert got["x_TUKEY"].sum() == got["x_Z_MOD"].sum() == 0


class _Plan:
    """Stands in for a Dataset: records the ``map_batches`` call."""

    def map_batches(self, fn, **kw):
        self.kw = kw
        return self


@pytest.mark.parametrize("layout,batch", [
    (Layout(rows=0, blocks=500, bytes=0), None),
    (Layout(rows=10**6, blocks=16, bytes=8 * 10**6), None),
    (Layout(rows=5, blocks=500, bytes=40), 1),
    (Layout(rows=1_600, blocks=500, bytes=12_800), 100),
    (Layout(rows=10**6, blocks=500, bytes=10**15), 1),
])
def test_sized_rule(layout, batch):
    """Unchanged at or under ``default_num_parts()`` blocks or with no
    rows; else ``ceil(rows / parts)`` rows a batch, capped by Ray's
    ``target_max_block_size`` (128 MiB: the last case's rows are 1 GB
    each) and never below 1."""
    assert default_num_parts() == 16      # the 4-CPU test session
    plan = _Plan()
    out = sized(plan, layout)
    if batch is None:
        assert out is plan and not hasattr(plan, "kw")
    else:
        assert plan.kw["batch_size"] == batch
