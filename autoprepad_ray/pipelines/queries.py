"""Query registry: one entry per implemented operator (SURVEY §2), each a
Ray Data pipeline over the driver's parquet tables plus (where the
semantics are SQL-expressible) an equivalent DuckDB oracle query.

Parity conventions shared by BOTH sides (engine + SQL):
- every computed float column is rounded r6 (r2 for large monetary sums).
  The grain is chosen so true values cannot sit exactly on a rounding
  half-boundary (decimal-valued inputs over row counts keep a factor of
  two in the scaled numerator at 1e-7), which keeps both engines'
  last-ulp noise strictly inside one rounding cell;
- means/averages over decimal data are computed as ROUND(SUM, 2)/COUNT on
  BOTH sides: the rounded sum snaps to the data's own decimal grid
  (bit-identical doubles), and IEEE division is deterministic, so the
  quotient matches exactly with no outer rounding — immune to the
  half-boundary problem that plain ROUND(AVG(x), d) hits;
- quantiles are continuous/linear-interpolation (numpy default ==
  DuckDB ``quantile_cont`` == the engine's exact ValueCounts path);
- integer outputs are int64; SQL casts SUM/flags to BIGINT accordingly;
- embeddings are cast to float64 on both sides before cosine math.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..functions import strings as sfn
from ..sketches import ValueCounts, np_object
from ..functions.dates import date_encode
from ..profile import profile_dataset
from ..stages.transport import (fold, keyed_fold, keyed_map, merge_counts,
                                merge_groups, merge_unique)
from ..validators import drift, referential, row_checks as rc, uniqueness
from ..validators.correlation import spearman

HALF_TS = np.datetime64("2024-01-16T00:00:00", "us")  # events mid-month split


@dataclass
class Query:
    fn: Callable[[str], Any]
    sql: str | None


REGISTRY: dict[str, Query] = {}


def query(name: str, sql: str | None = None):
    def deco(fn):
        REGISTRY[name] = Query(fn=fn, sql=sql)
        return fn
    return deco


def _t(sf_dir: str, name: str, cols: list[str] | None = None):
    return rd.read_parquet(f"{sf_dir}/{name}.parquet", columns=cols)


def _i64(arr) -> pa.Array:
    return pa.array(np.asarray(arr, dtype=np.int64))


def _fold_groups(ds, partial, keys: list[str], aggs: dict[str, str], *,
                 dropna: bool = True) -> pd.DataFrame:
    """Fold per-block Arrow ``group_by`` partials (``partial`` emits the
    ``keys`` columns plus one column per ``aggs`` entry) into a pandas
    frame sorted by ``keys``, with pandas ``groupby`` key semantics:
    null keys are dropped unless ``dropna=False``.  The grouped-
    aggregate shape for dozens-to-vocabulary-sized keyspaces, where a
    Ray sort-groupby exchange would cost seconds flat."""
    t = fold(ds, partial, merge_groups(keys, aggs))
    if t is None:
        return pd.DataFrame({c: [] for c in [*keys, *aggs]})
    df = t.to_pandas()
    if dropna:
        df = df.dropna(subset=keys)
    return df.sort_values(keys).reset_index(drop=True)


def _per_key(ds, key: str, order: list[str], body, *,
             ascending: list[bool] | None = None):
    """A per-key window: ``transport.keyed_map`` of ``ds`` on ``key``
    hands ``body`` each slice's rows as ONE pandas frame sorted by
    ``[key, *order]`` (nulls last); ``body`` works per key with
    ``groupby(key, sort=False, dropna=False)`` and returns a frame."""
    def fn(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(
            [key, *order], ascending=ascending or True, kind="stable",
            ignore_index=True)
        return pa.Table.from_pandas(body(df), preserve_index=False)
    return keyed_map(ds, [key], fn)


# ---------------------------------------------------------------------------
# column-statistics profile (SURVEY F1-F3, A1-A3, A6, M11)


@query("profile_lineitem_stats", sql=" UNION ALL ".join(
    f"SELECT '{c}' AS col_name, COUNT({c}) AS n, "
    f"COUNT(*) - COUNT({c}) AS null_count, "
    f"ROUND(MIN({c}), 6) AS min_v, ROUND(MAX({c}), 6) AS max_v, "
    f"ROUND(SUM({c}), 2) / COUNT({c}) AS mean_v, COUNT(DISTINCT {c}) AS distinct_v "
    f"FROM lineitem"
    for c in ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]))
def profile_lineitem_stats(sf_dir: str):
    """Per-column statistical profile — the engine's fit-phase artifact."""
    cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    prof = profile_dataset(_t(sf_dir, "lineitem", cols), columns=cols)
    rows = {"col_name": [], "n": [], "null_count": [], "min_v": [],
            "max_v": [], "mean_v": [], "distinct_v": []}
    for c in cols:
        p = prof[c]
        rows["col_name"].append(c)
        rows["n"].append(p.count)
        rows["null_count"].append(p.null_count)
        rows["min_v"].append(round(p.moments.vmin, 6))
        rows["max_v"].append(round(p.moments.vmax, 6))
        rows["mean_v"].append(round(p.moments.total, 2) / p.count)
        rows["distinct_v"].append(int(p.distinct()))
    return pa.table({"col_name": pa.array(rows["col_name"]),
                     "n": _i64(rows["n"]),
                     "null_count": _i64(rows["null_count"]),
                     "min_v": pa.array(rows["min_v"], type=pa.float64()),
                     "max_v": pa.array(rows["max_v"], type=pa.float64()),
                     "mean_v": pa.array(rows["mean_v"], type=pa.float64()),
                     "distinct_v": _i64(rows["distinct_v"])})


@query("constant_columns_events_clicks", sql=" UNION ALL ".join(
    f"SELECT '{c}' AS col_name, CAST(COUNT({c}) AS BIGINT) AS n, "
    f"CAST(COUNT(DISTINCT {c}) <= 1 AS BIGINT) AS is_constant "
    f"FROM events WHERE event_type = 'click'"
    for c in ["event_type", "user_id", "ts"]))
def constant_columns_events_clicks(sf_dir: str):
    """Constant / zero-variance column finding (SURVEY A6; reference
    drops such columns silently, runs.py:333-335, experiment.py:545-559
    — the engine reports them).  Filtering events to one event_type
    makes that column constant by construction while user_id/ts stay
    varied, so both branches of the check are exercised.  One profile
    pass; NaN-free columns only (see ``domain.constant_columns``) so
    sketch min==max equals SQL COUNT(DISTINCT)<=1 exactly."""
    from ..validators.domain import constant_columns

    ds = _t(sf_dir, "events", ["event_type", "user_id", "ts"])
    ds = ds.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "click")),
        batch_format="pyarrow", zero_copy_batch=True)
    return constant_columns(ds, ["event_type", "user_id", "ts"],
                            include_all=True)


# ---------------------------------------------------------------------------
# Tukey / MAD flags, scores, labels, verdicts (SURVEY F5-F8, M13, M14)

_EVENTS_FENCE_SQL = """
q AS (SELECT quantile_cont(value, 0.25) AS q1,
             quantile_cont(value, 0.75) AS q3 FROM events),
m AS (SELECT median(value) AS med FROM events),
d AS (SELECT median(abs(value - m.med)) AS mad FROM events, m)
"""


def _events_checked(sf_dir: str):
    ds = _t(sf_dir, "events", ["event_id", "user_id", "value"])
    prof = profile_dataset(ds, columns=["value"])
    states = rc.fence_states(prof, ["value"])
    return rc.check_rows(ds, states)


@query("tukey_flags_events", sql=f"""
WITH {_EVENTS_FENCE_SQL}
SELECT event_id,
       CAST(CASE WHEN value < q.q1 - 1.5*(q.q3-q.q1)
                   OR value > q.q3 + 1.5*(q.q3-q.q1)
            THEN 1 ELSE 0 END AS BIGINT) AS tukey_flag
FROM events, q, m, d""")
def tukey_flags_events(sf_dir: str):
    """Per-row Tukey fence flags (TukeyTransformer.py:36-54 semantics)."""
    out = _events_checked(sf_dir).map_batches(
        lambda t: pa.table({"event_id": t["event_id"],
                            "tukey_flag": t["value" + rc.TUKEY_SUFFIX]
                            .cast(pa.int64())}),
        batch_format="pyarrow")
    return out


@query("mad_flags_events", sql=f"""
WITH {_EVENTS_FENCE_SQL}
SELECT event_id,
       CAST(CASE WHEN d.mad > 0
                   AND abs(0.6745 * (value - m.med) / d.mad) > 3.5
            THEN 1 ELSE 0 END AS BIGINT) AS mad_flag
FROM events, q, m, d""")
def mad_flags_events(sf_dir: str):
    """Per-row MAD modified-Z flags (MedianAbsolutDeviation.py:40-61)."""
    return _events_checked(sf_dir).map_batches(
        lambda t: pa.table({"event_id": t["event_id"],
                            "mad_flag": t["value" + rc.MADZ_SUFFIX]
                            .cast(pa.int64())}),
        batch_format="pyarrow")


@query("anomaly_scores_events", sql=f"""
WITH {_EVENTS_FENCE_SQL},
f AS (SELECT event_id,
        CAST(CASE WHEN value < q.q1 - 1.5*(q.q3-q.q1)
                    OR value > q.q3 + 1.5*(q.q3-q.q1) THEN 1 ELSE 0 END
           + CASE WHEN d.mad > 0
                    AND abs(0.6745 * (value - m.med) / d.mad) > 3.5
             THEN 1 ELSE 0 END AS BIGINT) AS raw
      FROM events, q, m, d),
s AS (SELECT MIN(raw) AS mn, MAX(raw) AS mx,
             quantile_cont(raw, 0.9) AS thr FROM f)
SELECT event_id,
       ROUND(CASE WHEN s.mx > s.mn
             THEN (f.raw - s.mn) / CAST(s.mx - s.mn AS DOUBLE)
             ELSE 0.0 END, 6) AS anomaly_score,
       CAST(CASE WHEN f.raw > s.thr THEN 1 ELSE 0 END AS BIGINT)
           AS anomaly_label
FROM f, s""")
def anomaly_scores_events(sf_dir: str):
    """Min-max scaled anomaly score + percentile label
    (runs.py:200-201, runs.py:211-214)."""
    ds = _t(sf_dir, "events", ["event_id", "user_id", "value"])
    prof = profile_dataset(ds, columns=["value"])
    states = rc.fence_states(prof, ["value"])
    # single-column check: the raw-score distribution folds straight off
    # the profile's exact value counts — skips the score_threshold
    # barrier, so the whole chain executes ONCE (profile + final pass)
    stats = rc.score_stats_from_profile(prof, states, pct=0.10)
    scored = rc.attach_scores(rc.check_rows(ds, states), pct=0.10,
                              stats=stats)
    return scored.map_batches(
        lambda t: pa.table({
            "event_id": t["event_id"],
            "anomaly_score": pa.array(np.round(
                t[rc.SCORE_COL].to_numpy(zero_copy_only=False), 6)),
            "anomaly_label": t[rc.LABEL_COL].cast(pa.int64())}),
        batch_format="pyarrow")


@query("partition_verdicts_events", sql=f"""
WITH {_EVENTS_FENCE_SQL},
f AS (SELECT user_id % 8 AS pid,
        CASE WHEN value < q.q1 - 1.5*(q.q3-q.q1)
               OR value > q.q3 + 1.5*(q.q3-q.q1)
               OR (d.mad > 0 AND abs(0.6745*(value-m.med)/d.mad) > 3.5)
        THEN 1 ELSE 0 END AS v
      FROM events, q, m, d)
SELECT pid, COUNT(*) AS n_rows, CAST(SUM(v) AS BIGINT) AS n_viol,
       CAST(CASE WHEN SUM(v) / CAST(COUNT(*) AS DOUBLE) > 0.05
            THEN 1 ELSE 0 END AS BIGINT) AS fail
FROM f GROUP BY pid""")
def partition_verdicts_events(sf_dir: str):
    """Per-partition pass/fail verdicts (OR-merge, experiment.py:441-445)."""
    checked = _events_checked(sf_dir).map_batches(
        lambda t: t.append_column(
            "pid", pc.cast(pc.bit_wise_and(t["user_id"], 7), pa.int64())),
        batch_format="pyarrow")
    v = rc.partition_verdicts(checked, "pid", budget=0.05)
    return v.cast(pa.schema([(c, pa.int64()) for c in v.column_names]))


@query("robust_scale_quantity", sql="""
WITH s AS (SELECT quantile_cont(l_quantity, 0.5) AS med,
                  quantile_cont(l_quantity, 0.75)
                  - quantile_cont(l_quantity, 0.25) AS iqr FROM lineitem)
SELECT l_orderkey, l_linenumber,
       ROUND((l_quantity - s.med) / s.iqr, 6) AS scaled_quantity
FROM lineitem, s""")
def robust_scale_quantity(sf_dir: str):
    """RobustScaler semantics: (x - median)/IQR (configuration.py:193)."""
    ds = _t(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_quantity"])
    prof = profile_dataset(ds, columns=["l_quantity"])
    p = prof["l_quantity"]
    med = p.quantile(0.5)
    iqr = p.quantile(0.75) - p.quantile(0.25)

    def scale(t: pa.Table) -> pa.Table:
        x = t["l_quantity"].cast(pa.float64()).to_numpy(zero_copy_only=False)
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "l_linenumber": t["l_linenumber"],
                         "scaled_quantity": pa.array(np.round((x - med) / iqr, 6))})

    return ds.map_batches(scale, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# uniqueness / distinct / referential (SURVEY §2.7, §2.4)


@query("duplicate_partsupp_keys", sql="""
SELECT l_partkey, l_suppkey, COUNT(*) AS n
FROM lineitem GROUP BY l_partkey, l_suppkey HAVING COUNT(*) >= 2""")
def duplicate_partsupp_keys(sf_dir: str):
    """Uniqueness violation listing on a composite key (FIXTURES R3 shape)."""
    ds = _t(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
    return uniqueness.duplicate_keys(ds, ["l_partkey", "l_suppkey"])


@query("distinct_counts_lineitem", sql="""
SELECT COUNT(DISTINCT l_orderkey) AS n_orderkey,
       COUNT(DISTINCT l_partkey) AS n_partkey,
       COUNT(DISTINCT l_suppkey) AS n_suppkey,
       COUNT(DISTINCT l_returnflag) AS n_returnflag
FROM lineitem""")
def distinct_counts_lineitem(sf_dir: str):
    """Exact distinct counts (HLL approximate path tested in pytest)."""
    ds = _t(sf_dir, "lineitem",
            ["l_orderkey", "l_partkey", "l_suppkey", "l_returnflag"])
    d = uniqueness.distinct_counts(
        ds, ["l_orderkey", "l_partkey", "l_suppkey", "l_returnflag"])
    return pa.table({"n_orderkey": _i64([d["l_orderkey"]]),
                     "n_partkey": _i64([d["l_partkey"]]),
                     "n_suppkey": _i64([d["l_suppkey"]]),
                     "n_returnflag": _i64([d["l_returnflag"]])})


@query("orphan_suppkeys", sql="""
SELECT l_suppkey, COUNT(*) AS left_n
FROM lineitem
WHERE l_suppkey NOT IN
      (SELECT s_suppkey FROM supplier WHERE s_suppkey % 3 <> 0)
GROUP BY l_suppkey""")
def orphan_suppkeys(sf_dir: str):
    """Referential integrity anti-join: lineitem supplier keys with no
    matching row in a filtered supplier dimension (the tagged-union
    partials of ``referential.orphans``' shuffle strategy, folded per
    key by ``transport.keyed_fold`` with the orphan filter inside the
    per-slice tasks, so matched keys never leave them)."""
    def keep_non_mod3(t: pa.Table) -> pa.Table:
        keys = t["s_suppkey"].to_numpy(zero_copy_only=False)
        return (t.filter(pa.array(keys % 3 != 0))
                .rename_columns(["l_suppkey"]))

    left = _t(sf_dir, "lineitem", ["l_suppkey"])
    right = _t(sf_dir, "supplier", ["s_suppkey"]).map_batches(
        keep_non_mod3, batch_format="pyarrow")
    orp = referential.orphans(left, right, "l_suppkey", direction="left")
    return pa.table({"l_suppkey": orp["l_suppkey"],
                     "left_n": orp["left_n"].cast(pa.int64())})


# ---------------------------------------------------------------------------
# classic shuffle aggregates (exercise partial+final groupby, broadcast join)


@query("pricing_summary", sql="""
SELECT l_returnflag, l_linestatus,
       ROUND(SUM(l_quantity), 2) AS sum_qty,
       ROUND(SUM(l_extendedprice), 2) AS sum_base_price,
       ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       ROUND(SUM(l_quantity), 2) / COUNT(*) AS avg_qty,
       ROUND(SUM(l_extendedprice), 2) / COUNT(*) AS avg_price,
       COUNT(*) AS n
FROM lineitem GROUP BY l_returnflag, l_linestatus""")
def pricing_summary(sf_dir: str):
    """Grouped aggregate over a HANDFUL of groups: per-block Arrow
    ``group_by`` partials folded by ``_fold_groups`` — the
    repo's dozens-of-groups rule (a Ray sort-groupby exchange costs
    seconds flat for 4 output rows).  ROUND(SUM, 2) snaps the
    order-sensitive float sums to the data's decimal grid on both
    sides (file-header trick), so the fold order is free."""
    ds = _t(sf_dir, "lineitem",
            ["l_returnflag", "l_linestatus", "l_quantity",
             "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        disc = pc.multiply(t["l_extendedprice"],
                           pc.subtract(pa.scalar(1.0), t["l_discount"]))
        t2 = t.append_column("disc_price", disc)
        g = (t2.group_by(["l_returnflag", "l_linestatus"])
             .aggregate([("l_quantity", "sum"), ("l_extendedprice", "sum"),
                         ("disc_price", "sum"), ([], "count_all")]))
        return g.rename_columns(["l_returnflag", "l_linestatus",
                                 "s_qty", "s_price", "s_disc", "n"])

    df = _fold_groups(ds, partial, ["l_returnflag", "l_linestatus"],
                      {"s_qty": "sum", "s_price": "sum", "s_disc": "sum",
                       "n": "sum"}, dropna=False)
    n = df["n"].to_numpy(dtype=np.float64)
    sq = df["s_qty"].to_numpy(dtype=np.float64)
    sp = df["s_price"].to_numpy(dtype=np.float64)
    sd = df["s_disc"].to_numpy(dtype=np.float64)
    return pd.DataFrame({
        "l_returnflag": df["l_returnflag"],
        "l_linestatus": df["l_linestatus"],
        "sum_qty": np.round(sq, 2),
        "sum_base_price": np.round(sp, 2),
        "sum_disc_price": np.round(sd, 2),
        "avg_qty": np.round(sq, 2) / n,
        "avg_price": np.round(sp, 2) / n,
        "n": df["n"].astype(np.int64)})


@query("top_customers", sql="""
SELECT o.o_custkey, c.c_name,
       ROUND(SUM(o.o_totalprice), 2) AS total_price,
       COUNT(*) AS n_orders
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY o.o_custkey, c.c_name
ORDER BY SUM(o.o_totalprice) DESC, o.o_custkey LIMIT 10""")
def top_customers(sf_dir: str):
    """Top-k revenue customers: partial+final grouped sum, then a
    name lookup for the <= 10 winning keys only — no row-shuffle join
    and no customer broadcast.  The per-customer sums ride
    ``transport.keyed_fold`` with the top-10 cut applied INSIDE each
    slice task, so only slices x 10 candidate rows reach the driver,
    which cuts them once more; the customer read then keeps only the
    winners (a parquet filter on their keys, pushed into the read).
    ROUND(SUM, 2) on the 2-decimal o_totalprice keeps the fold order
    exactly on the oracle's decimal grid."""
    import pyarrow.dataset as pds

    from .. import io as aio

    orders = _t(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    merge = merge_groups(["o_custkey"],
                         {"s_price": "sum", "n_orders": "sum"})

    def partial(t: pa.Table) -> pa.Table:
        g = (t.group_by(["o_custkey"])
             .aggregate([("o_totalprice", "sum"), ([], "count_all")]))
        return g.rename_columns(["o_custkey", "s_price", "n_orders"])

    def cut10(t: pa.Table) -> pa.Table:
        return t.take(pc.sort_indices(
            t, sort_keys=[("s_price", "descending"),
                          ("o_custkey", "ascending")])[:10])

    top = cut10(keyed_fold(orders, partial, ["o_custkey"],
                           lambda parts: cut10(merge(parts)))).to_pandas()
    wanted = pds.field("c_custkey").isin(top["o_custkey"].tolist())
    cust = aio.read_table(f"{sf_dir}/customer.parquet",
                          ["c_custkey", "c_name"], filter=wanted).to_pandas()
    names = dict(zip(cust["c_custkey"], cust["c_name"]))
    return pd.DataFrame({
        "o_custkey": top["o_custkey"].astype(np.int64),
        "c_name": [names[k] for k in top["o_custkey"]],
        "total_price": top["s_price"].round(2),
        "n_orders": top["n_orders"].astype(np.int64)})


# ---------------------------------------------------------------------------
# datetime expansion (M8 DateEncoder)


@query("date_encode_events", sql="""
SELECT event_id,
       CAST(EXTRACT(year FROM ts) AS INTEGER) AS ts_year,
       CAST(EXTRACT(month FROM ts) AS INTEGER) AS ts_month,
       CAST(EXTRACT(isodow FROM ts) - 1 AS INTEGER) AS ts_wkday,
       CAST(EXTRACT(hour FROM ts) AS INTEGER) AS ts_hour,
       CAST(EXTRACT(minute FROM ts) AS INTEGER) AS ts_minute,
       CAST(EXTRACT(second FROM ts) AS INTEGER) AS ts_second
FROM events""")
def date_encode_events(sf_dir: str):
    """DateEncoder expansion (DateEncoder.py:30-48), Monday=0 weekday."""
    ds = _t(sf_dir, "events", ["event_id", "ts"])

    def enc(t: pa.Table) -> pa.Table:
        t = date_encode(t, "ts")
        return pa.table({
            "event_id": t["event_id"],
            "ts_year": t["ts_YEAR"], "ts_month": t["ts_MONTH"],
            "ts_wkday": t["ts_WKDAY"], "ts_hour": t["ts_HOUR"],
            "ts_minute": t["ts_MINUTE"], "ts_second": t["ts_SECOND"]})

    return ds.map_batches(enc, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# drift (PSI numeric + categorical)

_PSI_NUM_SQL = """
WITH a AS (SELECT LEAST(GREATEST(CAST(FLOOR(value / 50) AS INT), 0), 9) AS b,
                  COUNT(*) AS n
           FROM events WHERE ts < TIMESTAMP '2024-01-16' GROUP BY 1),
c AS (SELECT LEAST(GREATEST(CAST(FLOOR(value / 50) AS INT), 0), 9) AS b,
             COUNT(*) AS n
      FROM events WHERE ts >= TIMESTAMP '2024-01-16' GROUP BY 1),
bins AS (SELECT range AS b FROM range(0, 10)),
j AS (SELECT bins.b, COALESCE(a.n, 0) AS na, COALESCE(c.n, 0) AS nc
      FROM bins LEFT JOIN a ON bins.b = a.b LEFT JOIN c ON bins.b = c.b),
t AS (SELECT SUM(na) AS ta, SUM(nc) AS tc FROM j)
SELECT ROUND(SUM(((na + 0.5) / (ta + 5.0) - (nc + 0.5) / (tc + 5.0))
             * LN(((na + 0.5) / (ta + 5.0)) / ((nc + 0.5) / (tc + 5.0)))), 6)
       AS psi
FROM j, t"""


@query("psi_events_value", sql=_PSI_NUM_SQL)
def psi_events_value(sf_dir: str):
    """Numeric PSI drift between the two halves of the events month —
    the engine's replacement for the reference's learned outlier score."""
    ds = _t(sf_dir, "events", ["ts", "value"])
    ref = ds.map_batches(
        lambda t: t.filter(pc.less(t["ts"], pa.scalar(HALF_TS))),
        batch_format="pyarrow")
    cur = ds.map_batches(
        lambda t: t.filter(pc.greater_equal(t["ts"], pa.scalar(HALF_TS))),
        batch_format="pyarrow")
    edges = np.arange(0.0, 550.0, 50.0)
    val = drift.psi_numeric(ref, cur, "value", edges)
    return pa.table({"psi": pa.array([round(val, 6)], type=pa.float64())})


_PSI_CAT_SQL = """
WITH a AS (SELECT event_type, COUNT(*) AS n FROM events
           WHERE ts < TIMESTAMP '2024-01-16' GROUP BY 1),
c AS (SELECT event_type, COUNT(*) AS n FROM events
      WHERE ts >= TIMESTAMP '2024-01-16' GROUP BY 1),
cats AS (SELECT DISTINCT event_type FROM events),
j AS (SELECT cats.event_type, COALESCE(a.n, 0) AS na, COALESCE(c.n, 0) AS nc
      FROM cats LEFT JOIN a USING (event_type) LEFT JOIN c USING (event_type)),
t AS (SELECT SUM(na) AS ta, SUM(nc) AS tc, COUNT(*) AS nb FROM j)
SELECT ROUND(SUM(((na + 0.5) / (ta + 0.5 * nb) - (nc + 0.5) / (tc + 0.5 * nb))
             * LN(((na + 0.5) / (ta + 0.5 * nb))
                  / ((nc + 0.5) / (tc + 0.5 * nb)))), 6) AS psi
FROM j, t"""


@query("psi_event_type", sql=_PSI_CAT_SQL)
def psi_event_type(sf_dir: str):
    """Categorical PSI drift on event_type between the two halves."""
    ds = _t(sf_dir, "events", ["ts", "event_type"])
    ref = ds.map_batches(
        lambda t: t.filter(pc.less(t["ts"], pa.scalar(HALF_TS))),
        batch_format="pyarrow")
    cur = ds.map_batches(
        lambda t: t.filter(pc.greater_equal(t["ts"], pa.scalar(HALF_TS))),
        batch_format="pyarrow")
    val = drift.psi_categorical(ref, cur, "event_type")
    return pa.table({"psi": pa.array([round(val, 6)], type=pa.float64())})


# ---------------------------------------------------------------------------
# dedup / fingerprints / text analysis


@query("exact_dedup_lineitem", sql="""
SELECT l_quantity, l_discount, l_tax, l_returnflag, l_linestatus,
       COUNT(*) AS n,
       MIN(l_orderkey * 10 + l_linenumber) AS keep_rank
FROM lineitem
GROUP BY l_quantity, l_discount, l_tax, l_returnflag, l_linestatus""")
def exact_dedup_lineitem(sf_dir: str):
    """Exact dedup over projected content: one representative (min rank)
    per distinct value combination — per-block Arrow ``group_by``
    partials folded by ``transport.fold`` (the group cardinality,
    ~50 x 11 x 9 x 3 x 2, is small)."""
    cols = ["l_quantity", "l_discount", "l_tax", "l_returnflag",
            "l_linestatus"]
    ds = _t(sf_dir, "lineitem", cols + ["l_orderkey", "l_linenumber"])

    def partial(t: pa.Table) -> pa.Table:
        rank = pc.add(pc.multiply(t["l_orderkey"], 10),
                      pc.cast(t["l_linenumber"], pa.int64()))
        t2 = t.append_column("keep_rank", rank)
        g = (t2.group_by(cols)
             .aggregate([("keep_rank", "min"), ([], "count_all")]))
        return pa.table({**{c: g[c] for c in cols},
                         "keep_rank": g["keep_rank_min"],
                         "n": g["count_all"]})

    return fold(ds, partial,
                merge_groups(cols, {"keep_rank": "min", "n": "sum"}))


@query("doc_fingerprints", sql="SELECT doc_id, md5(text) AS fp FROM documents")
def doc_fingerprints(sf_dir: str):
    """Deterministic document fingerprints (md5) for dedup keying."""
    ds = _t(sf_dir, "documents", ["doc_id", "text"])

    def fp(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df["doc_id"],
                             "fp": sfn.md5_fingerprint(df["text"])})

    return ds.map_batches(fp, batch_format="pandas")


@query("text_quality_docs", sql="""
SELECT doc_id,
       CAST(CASE WHEN trim(text) = '' THEN 0
            ELSE len(regexp_split_to_array(trim(text), '\\s+')) END
            AS BIGINT) AS n_words,
       ROUND(CASE WHEN trim(text) = '' THEN 0.0
             ELSE len(list_filter(regexp_split_to_array(trim(text), '\\s+'),
                                  x -> x IN ('the', 'a', 'of', 'and', 'to')))
                  / CAST(len(regexp_split_to_array(trim(text), '\\s+'))
                         AS DOUBLE) END, 6) AS stop_ratio,
       ROUND(CASE WHEN len(text) = 0 THEN 0.0
             ELSE len(regexp_replace(text, '[A-Za-z0-9\\s]', '', 'g'))
                  / CAST(len(text) AS DOUBLE) END, 6) AS punct_ratio,
       CAST(len(text) AS BIGINT) AS n_chars_calc
FROM documents""")
def text_quality_docs(sf_dir: str):
    """Text quality scoring: token count, stopword ratio, punctuation
    ratio, length — vectorized pandas string kernels per batch."""
    ds = _t(sf_dir, "documents", ["doc_id", "text"])

    def q(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "n_words": sfn.word_counts(df["text"]),
            "stop_ratio": np.round(sfn.stopword_ratio(df["text"])
                                   .astype(float), 6),
            "punct_ratio": np.round(sfn.punct_ratio(df["text"])
                                    .astype(float), 6),
            "n_chars_calc": df["text"].str.len().astype("int64")})

    return ds.map_batches(q, batch_format="pandas")


@query("token_totals_by_lang", sql="""
SELECT lang,
       CAST(SUM(CASE WHEN trim(text) = '' THEN 0
            ELSE len(regexp_split_to_array(trim(text), '\\s+')) END)
            AS BIGINT) AS total_words,
       COUNT(*) AS n_docs
FROM documents GROUP BY lang""")
def token_totals_by_lang(sf_dir: str):
    """Token counting rolled up by language: per-block Arrow
    ``group_by`` partials folded by ``_fold_groups`` (a handful of
    languages)."""
    ds = _t(sf_dir, "documents", ["lang", "text"])

    def partial(t: pa.Table) -> pa.Table:
        words = sfn.word_counts(t["text"].to_pandas())
        g = (pa.table({"lang": t["lang"], "w": pa.array(words)})
             .group_by("lang").aggregate([("w", "sum"), ([], "count_all")]))
        return pa.table({"lang": g["lang"], "total_words": g["w_sum"],
                         "n_docs": g["count_all"]})

    return _fold_groups(ds, partial, ["lang"],
                        {"total_words": "sum", "n_docs": "sum"})


@query("pattern_shapes_customer", sql="""
SELECT regexp_replace(regexp_replace(regexp_replace(regexp_replace(
           c_name, '[A-Z]', 'A', 'g'), '[a-z]', 'a', 'g'),
           '[0-9]', '9', 'g'), '[^Aa9]', '#', 'g') AS shape,
       COUNT(*) AS n
FROM customer GROUP BY 1""")
def pattern_shapes_customer(sf_dir: str):
    """Char-class shape histogram (CategoricalPatterns.py:46-83
    re-expressed as a readable A/a/9/# alphabet), its per-block counts
    folded by ``_fold_groups`` (a few dozen shapes)."""
    ds = _t(sf_dir, "customer", ["c_name"])

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({"shape": pa.array(sfn.shape_pattern(
            t["c_name"].to_pandas()))}).group_by("shape") \
            .aggregate([([], "count_all")])
        return pa.table({"shape": g["shape"], "n": g["count_all"]})

    return _fold_groups(ds, partial, ["shape"], {"n": "sum"})


@query("nan_canonicalize_sources", sql="""
SELECT doc_id,
       CASE WHEN src IN ('NaN', 'nan', ' ', '') THEN NULL ELSE src END
           AS src_canon
FROM (SELECT doc_id, source AS src FROM documents
      UNION ALL
      SELECT * FROM (VALUES (-1, 'NaN'), (-2, 'nan'), (-3, ' '),
                            (-4, ''), (-5, 'ok')) v(doc_id, src))""")
def nan_canonicalize_sources(sf_dir: str):
    """NaN-token canonicalization (XCopySchemaTransformer.py:55-63) over
    the source column plus injected token rows."""
    ds = _t(sf_dir, "documents", ["doc_id", "source"])
    extra = rd.from_arrow(pa.table({
        "doc_id": pa.array([-1, -2, -3, -4, -5], type=pa.int64()),
        "source": pa.array(["NaN", "nan", " ", "", "ok"])}))

    def canon(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "src_canon": sfn.canonicalize_nan_tokens(t["source"])})

    return ds.union(extra).map_batches(canon, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# correlation + similarity search


@query("spearman_quantity_price", sql="""
WITH r AS (SELECT
    rank() OVER (ORDER BY l_quantity)
      + (COUNT(*) OVER (PARTITION BY l_quantity) - 1) / 2.0 AS rx,
    rank() OVER (ORDER BY l_extendedprice)
      + (COUNT(*) OVER (PARTITION BY l_extendedprice) - 1) / 2.0 AS ry
  FROM lineitem)
SELECT ROUND(corr(rx, ry), 6) AS rho FROM r""")
def spearman_quantity_price(sf_dir: str):
    """Distributed exact Spearman rank correlation
    (SpearmanCheck.py:23-41 duplicate-column heuristic)."""
    ds = _t(sf_dir, "lineitem", ["l_quantity", "l_extendedprice"])
    rho = spearman(ds, "l_quantity", "l_extendedprice")
    return pa.table({"rho": pa.array([round(rho, 6)], type=pa.float64())})


@query("ann_topk_embeddings", sql="""
SELECT q.vec_id AS query_id, e.vec_id AS vec_id,
       ROUND(list_cosine_similarity(e.embedding::DOUBLE[],
                                    q.embedding::DOUBLE[]), 6) AS cos
FROM embeddings q, embeddings e
WHERE q.vec_id < 3 AND e.vec_id >= 3
QUALIFY row_number() OVER (
    PARTITION BY q.vec_id
    ORDER BY ROUND(list_cosine_similarity(e.embedding::DOUBLE[],
                                          q.embedding::DOUBLE[]), 6) DESC,
             e.vec_id) <= 5""")
def ann_topk_embeddings(sf_dir: str):
    """Brute-force cosine top-k similarity search: query matrix broadcast
    once, per-batch numpy matmul partial top-k folded to each query's
    top k (``embed.top_per_query``; the IVF/LSH bucketed variant is the
    documented scale path)."""
    from ..stages.embed import _hits, top_per_query

    ds = _t(sf_dir, "embeddings", ["vec_id", "embedding"])
    qrows = (ds.map_batches(
        lambda t: t.filter(pc.less(t["vec_id"], 3)), batch_format="pyarrow")
        .take_all())
    qids = np.array([r["vec_id"] for r in qrows], dtype=np.int64)
    Q = np.stack([np.asarray(r["embedding"], dtype=np.float64)
                  for r in qrows])
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    q_ref = ray.put((qids, Qn))
    k = 5

    def partial(t: pa.Table) -> pa.Table:
        from ..stages.embed import _matrix

        ids_, Qn_ = ray.get(q_ref)
        t = t.filter(pc.greater_equal(t["vec_id"], 3))
        if t.num_rows == 0:
            return _hits([], [], [], "vec_id")
        vids = t["vec_id"].to_numpy(zero_copy_only=False)
        Mn = _matrix(t["embedding"])  # zero-copy flatten, no per-row pylist
        Mn = Mn / np.linalg.norm(Mn, axis=1, keepdims=True)
        S = Mn @ Qn_.T  # (rows, queries)
        out_q, out_v, out_c = [], [], []
        for j, qid in enumerate(ids_):
            scores = np.round(S[:, j], 6)
            order = np.lexsort((vids, -scores))[:k]
            out_q.extend([qid] * len(order))
            out_v.extend(vids[order].tolist())
            out_c.extend(scores[order].tolist())
        return _hits(out_q, out_v, out_c, "vec_id")

    return fold(ds, partial, top_per_query("vec_id", "cos", k))


@query("ngram_jaccard_docs", sql="""
WITH pos AS (
  SELECT doc_id, text,
         unnest(generate_series(1, length(text) - 7)) AS i
  FROM documents
  WHERE length(text) >= 8
),
sh AS (
  SELECT DISTINCT doc_id, substr(text, CAST(i AS INT), 8) AS g FROM pos
),
sz AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
co AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS c
  FROM sh a JOIN sh b ON a.g = b.g AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT co.id_a, co.id_b,
       CAST(co.c AS DOUBLE) / (sa.n + sb.n - co.c) AS jaccard
FROM co JOIN sz sa ON sa.doc_id = co.id_a
        JOIN sz sb ON sb.doc_id = co.id_b
WHERE CAST(co.c AS DOUBLE) / (sa.n + sb.n - co.c) >= 0.8
""")
def ngram_jaccard_docs(sf_dir: str):
    """EXACT char-8-gram Jaccard similarity join over documents
    (threshold 0.8): PPJoin prefix+positional filtering, bitmap-popcount
    verify (``stages.textjoin``).  Value-exact vs the brute-force SQL:
    jaccard = common/(|a|+|b|-common) is one int64->double division on
    both sides (see float-parity header), and gram identity is exact
    byte packing, no hashing."""
    from ..stages.textjoin import ngram_jaccard_pairs

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    return ngram_jaccard_pairs(ds, "text", "doc_id", n=8, threshold=0.8)


@query("cc_orders_sharing_part", sql="""
WITH RECURSIVE q AS (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p
  FROM lineitem WHERE l_quantity = 1),
e AS (SELECT a.o AS src, b.o AS dst FROM q a JOIN q b ON a.p = b.p),
reach(node, lbl) AS (
  SELECT o, o FROM (SELECT DISTINCT o FROM q)
  UNION
  SELECT e.dst, r.lbl FROM reach AS r JOIN e ON r.node = e.src)
SELECT node AS order_id, MIN(lbl) AS cluster_id FROM reach GROUP BY node""")
def cc_orders_sharing_part(sf_dir: str):
    """Connected components over a real transitive-match graph: orders
    linked (transitively) by sharing any quantity-1 part, each labeled
    with its component's minimum orderkey.  The Ray side never builds
    the per-part cliques the SQL oracle joins out — each filtered
    lineitem row IS a bipartite edge (order <-> part+2^40), and
    ``stages.graph.connected_components`` reduces blocks to star
    forests and tree-merges them, so no shuffle touches row-shaped
    data.  Part nodes sort above every orderkey, so the component
    minimum is always an order; dropping ``node >= 2^40`` leaves the
    exact (order, min-order-in-component) labeling the recursive CTE
    computes.  Pure int64 identity — exact parity."""
    from ..stages.graph import connected_components

    part_off = np.int64(1) << np.int64(40)
    li = _t(sf_dir, "lineitem", ["l_orderkey", "l_partkey", "l_quantity"])

    def mk_edges(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["l_quantity"], 1.0))
        # null_count first: an all-null column's max/min is None
        if t.num_rows and (t["l_orderkey"].null_count
                           or t["l_partkey"].null_count
                           or pc.max(t["l_orderkey"]).as_py() >= part_off
                           or pc.min(t["l_partkey"]).as_py() < 0):
            raise ValueError("null key, orderkey >= 2^40 or negative "
                             "partkey breaks the bipartite node "
                             "encoding; raise part_off")
        return pa.table({
            "src": t["l_orderkey"],
            "dst": pc.add(t["l_partkey"], pa.scalar(part_off, pa.int64()))})

    cc = connected_components(
        li.map_batches(mk_edges, batch_format="pyarrow",
                       zero_copy_batch=True), "src", "dst")
    cc = cc.filter(pc.less(cc["node"], pa.scalar(part_off, pa.int64())))
    return pd.DataFrame({"order_id": cc["node"].to_numpy(),
                         "cluster_id": cc["cluster"].to_numpy()})


# ---------------------------------------------------------------------------
# rows-only queries (not SQL-expressible: LSH, heuristics, image pipeline)


@query("minhash_neardup_docs")
def minhash_neardup_docs(sf_dir: str):
    """MinHash+LSH near-duplicate pairs over documents (word 3-shingles,
    128 perms, 32x4 bands), exact-Jaccard verified.  Rows-only: LSH is
    not SQL-expressible; pytest pins recall vs a brute-force oracle."""
    from ..stages.dedup import minhash_lsh_pairs

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    out = minhash_lsh_pairs(ds, "text", "doc_id", threshold=0.5)
    out["jaccard"] = np.round(out["jaccard"].astype(float), 6)
    return out


@query("minhash_dedup_clusters")
def minhash_dedup_clusters(sf_dir: str):
    """The full dedup, pairs -> clusters -> canonical flags: MinHash+LSH
    verified pairs feed ``stages.graph.connected_components`` (star
    forest of the match graph), and ``attach_clusters`` broadcasts the
    tiny (node, cluster) map over the corpus — every document labeled
    with its transitive cluster (singletons label themselves) and the
    minimum-id member flagged canonical; ``is_canonical`` rows are what
    a training-data dedup keeps.  Rows-only: LSH recall is pinned by
    the brute-force pytest oracle; clustering by a union-find oracle in
    test_graph.  Pairs stay a DISTRIBUTED Dataset end-to-end: the LSH
    verify tasks emit typed Arrow pair blocks that feed
    ``connected_components``'s Dataset-edge path directly — no pair
    list ever assembles on the driver (only the tiny star-forest CC
    result does)."""
    from ..stages.dedup import minhash_lsh_pairs
    from ..stages.graph import attach_clusters, connected_components

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    pairs = minhash_lsh_pairs(ds, "text", "doc_id", threshold=0.5,
                              output="dataset", id_type=pa.int64())
    cc = connected_components(pairs, "id_a", "id_b")
    out = attach_clusters(_t(sf_dir, "documents", ["doc_id"]),
                          "doc_id", cc)
    return out.map_batches(
        lambda df: df.sort_values("doc_id").reset_index(drop=True),
        batch_format="pandas")


@query("simhash_neardup_docs")
def simhash_neardup_docs(sf_dir: str):
    """SimHash fingerprint near-dups (Hamming<=6 via banded LSH)."""
    from ..stages.dedup import simhash_neardup_pairs

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    return simhash_neardup_pairs(ds, "text", "doc_id", max_dist=6)


@query("embed_neardup_planted")
def embed_neardup_planted(sf_dir: str):
    """Cosine near-dup via sign-LSH over embeddings plus 10 planted
    near-duplicates (deterministic perturbations of vec_id<10, new ids
    +100000).  Rows-only; pytest asserts exactly the planted pairs."""
    from ..stages.embed import cosine_neardup_pairs

    ds = _t(sf_dir, "embeddings", ["vec_id", "embedding"])
    base = ds.map_batches(
        lambda t: t.filter(pc.less(t["vec_id"], 10)),
        batch_format="pyarrow").take_all()
    rng = np.random.default_rng(123)
    ids, vecs = [], []
    for r in base:
        v = np.asarray(r["embedding"], dtype=np.float32)
        ids.append(int(r["vec_id"]) + 100000)
        vecs.append((v + 0.02 * np.linalg.norm(v) / np.sqrt(len(v))
                     * rng.standard_normal(len(v))).astype(np.float32))
    planted = rd.from_arrow(pa.table({
        "vec_id": pa.array(ids, type=pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              type=pa.list_(pa.float32()))}))
    both = ds.union(planted)
    out = cosine_neardup_pairs(both, "embedding", "vec_id", threshold=0.95)
    out["cos"] = np.round(out["cos"].astype(float), 6)
    return out


def _langid_sql() -> str:
    """SQL mirror of ``text._langid_frame``'s prediction: the same
    tokenization (regexp split semantics verified identical to pandas,
    incl. edge empties), per-language stopword hit RATES as exact IEEE
    quotients of identical ints, first-max tie-break in declared
    language order, 0.05 floor.  The float SCORE is deliberately not
    emitted — a rate like h/128 can sit exactly on a 1e-7 half-boundary
    where np.round (half-even) and SQL ROUND (half-away) disagree; the
    prediction only ever compares exact quotients."""
    from ..stages.text import STOPWORDS, _LANGS

    rates = ",\n       ".join(
        f"CAST(len(list_filter(w, x -> x IN "
        f"({', '.join(repr(t) for t in sorted(STOPWORDS[lang]))}))) "
        f"AS DOUBLE) / n AS s_{lang}"
        for lang in _LANGS)
    first_max = "\n            ".join(
        f"WHEN s_{lang} = best THEN '{lang}'" for lang in _LANGS[:-1])
    return f"""
WITH toks AS (
  SELECT doc_id,
         regexp_split_to_array(lower(COALESCE(text, '')), '\\s+') AS w
  FROM documents),
r AS (
  SELECT doc_id,
       {rates}
  FROM (SELECT doc_id, w,
               CAST(greatest(len(w), 1) AS DOUBLE) AS n FROM toks)),
b AS (SELECT r.*, greatest(s_{', s_'.join(_LANGS)}) AS best FROM r)
SELECT doc_id,
       CASE WHEN best < 0.05 THEN 'und'
            {first_max}
            ELSE '{_LANGS[-1]}' END AS lang_pred
FROM b"""


@query("langid_docs", sql=_langid_sql())
def langid_docs(sf_dir: str):
    """Heuristic stopword language-ID.  SQL-exact since r5 on the
    PREDICTION column (see ``_langid_sql`` for why the float score
    stays engine-side)."""
    from ..stages.text import lang_id

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    return lang_id(ds).select_columns(["doc_id", "lang_pred"])


@query("hll_distinct_lineitem")
def hll_distinct_lineitem(sf_dir: str):
    """HyperLogLog approximate distinct counts (mergeable registers) —
    the 100-TB path beside the exact distinct_counts_lineitem query.
    Rows-only (approximate); pytest bounds the error vs exact."""
    ds = _t(sf_dir, "lineitem", ["l_orderkey", "l_partkey", "l_suppkey"])
    d = uniqueness.hll_distinct(ds, ["l_orderkey", "l_partkey", "l_suppkey"])
    return pa.table({
        "n_orderkey_approx": pa.array([round(d["l_orderkey"])], type=pa.int64()),
        "n_partkey_approx": pa.array([round(d["l_partkey"])], type=pa.int64()),
        "n_suppkey_approx": pa.array([round(d["l_suppkey"])], type=pa.int64())})


def _fimg_for_sf(sf_dir: str) -> str:
    from ..fixtures import ensure_fimg
    try:
        sf = float(sf_dir.rstrip("/").rsplit("sf", 1)[-1])
    except ValueError:
        sf = 0.01
    rows = max(150, int(50000 * sf))
    d, _ = ensure_fimg(partitions=8, rows=rows, seed=42, inject=True)
    return d


@query("image_validation_verdicts")
def image_validation_verdicts(sf_dir: str):
    """Full image+caption validation pipeline (north rule) on the
    deterministic F-IMG table scaled with sf: per-partition verdict rows
    with stat/null/uniq/drift/decode fail bits.  Rows-only."""
    from ..pipelines.image_validation import validate_images

    d = _fimg_for_sf(sf_dir)
    rep = validate_images(f"{d}/images", f"{d}/captions.parquet")
    v = rep.verdicts.copy()
    for c in v.columns:
        v[c] = v[c].astype(np.int64)
    return v


@query("phash_neardup_pairs")
def phash_neardup_pairs(sf_dir: str):
    """Banded-Hamming phash near-dup pairs on the F-IMG table (salted
    exact buckets reported separately in the pipeline).  Rows-only."""
    from ..validators.near_dup import hamming_neardup_pairs

    d = _fimg_for_sf(sf_dir)
    ds = rd.read_parquet(f"{d}/images").select_columns(
        ["image_id", "phash"])
    return hamming_neardup_pairs(ds, max_dist=4)


@query("phash_dedup_clusters_images")
def phash_dedup_clusters_images(sf_dir: str):
    """Image near-dup CLUSTERS (pairs -> connected components ->
    canonical flags) on the F-IMG table — the image-side counterpart
    of minhash_dedup_clusters: exact phash collisions star to their
    representative, banded-Hamming pairs (<= 4 bits) connect
    representatives, and every image gets its transitive cluster id
    with the minimum-id member flagged canonical (what a dedup keeps).
    Rows-only; pytest pins clusters against a brute-force union-find
    over all O(n^2) Hamming pairs (test_near_dup)."""
    from ..validators.near_dup import phash_dedup_clusters

    d = _fimg_for_sf(sf_dir)
    ds = rd.read_parquet(f"{d}/images").select_columns(
        ["image_id", "phash"])
    # r5 fused shape: ONE pass emits census partials + id-carrying band
    # cells, ONE pass labels rows through the broadcast hash->cluster
    # map — two executions of the input total; materializing the tiny
    # (id, phash) stream makes the second an object-store re-read.
    out = phash_dedup_clusters(ds, max_dist=4, materialize_input=True)
    return out.map_batches(
        lambda df: df.assign(is_canonical=df["is_canonical"]
                             .astype(np.int64))
        .sort_values("image_id").reset_index(drop=True),
        batch_format="pandas")


# ---------------------------------------------------------------------------
# batch 2: mode / z-flags / missing bit patterns / KS / histogram


@query("mode_orderpriority", sql="""
SELECT o_orderpriority AS mode_value, COUNT(*) AS n
FROM orders GROUP BY o_orderpriority
ORDER BY n DESC, o_orderpriority LIMIT 1""")
def mode_orderpriority(sf_dir: str):
    """Most-frequent-value imputation statistic (SimpleImputer
    most_frequent, configuration.py:289); ties break to the smallest
    value on both sides."""
    ds = _t(sf_dir, "orders", ["o_orderpriority"])
    prof = profile_dataset(ds, columns=["o_orderpriority"])
    val, n = prof["o_orderpriority"].mode()
    return pa.table({"mode_value": pa.array([val]),
                     "n": _i64([n])})


@query("z_flags_events", sql="""
WITH s AS (SELECT AVG(value) AS mu, stddev_samp(value) AS sd FROM events)
SELECT event_id,
       CAST(CASE WHEN s.sd > 0 AND abs((value - s.mu) / s.sd) > 3.0
            THEN 1 ELSE 0 END AS BIGINT) AS z_flag
FROM events, s""")
def z_flags_events(sf_dir: str):
    """Classic z-score flags (ZTransformerMean.py:36-58 — the
    reference's disabled-by-default branch): mean/std(ddof=1) via the
    mergeable Welford moments, stateless flag pass."""
    ds = _t(sf_dir, "events", ["event_id", "value"])
    prof = profile_dataset(ds, columns=["value"])
    mu, sd = prof["value"].moments.mean, prof["value"].moments.std

    def flag(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        z = np.zeros(len(v), dtype=np.int64)
        if sd > 0:
            z = ((np.abs((v - mu) / sd) > 3.0) & ~np.isnan(v)) \
                .astype(np.int64)
        return pa.table({"event_id": t["event_id"],
                         "z_flag": pa.array(z)})

    return ds.map_batches(flag, batch_format="pyarrow",
                          zero_copy_batch=True)


@query("missing_bitpattern_lineitem", sql="""
SELECT l_orderkey, l_linenumber,
       CAST((CASE WHEN NULLIF(l_discount, 0) IS NULL THEN 1 ELSE 0 END)
          + (CASE WHEN NULLIF(l_tax, 0) IS NULL THEN 2 ELSE 0 END)
          + (CASE WHEN NULLIF(l_returnflag, 'N') IS NULL THEN 4 ELSE 0 END)
          AS BIGINT) AS nan_bits
FROM lineitem""")
def missing_bitpattern_lineitem(sf_dir: str):
    """Row-missingness bit pattern (NaNColumnCreatorTotal.py:33-54:
    per-row NaN mask folded to an integer).  Sentinel values are mapped
    to null first (NULLIF) so the pattern is non-trivial on this data."""
    ds = _t(sf_dir, "lineitem",
            ["l_orderkey", "l_linenumber", "l_discount", "l_tax",
             "l_returnflag"])

    def bits(t: pa.Table) -> pa.Table:
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        tax = t["l_tax"].to_numpy(zero_copy_only=False)
        rf = np.asarray(t["l_returnflag"].to_numpy(zero_copy_only=False),
                        dtype=object)
        b = ((disc == 0).astype(np.int64)
             + 2 * (tax == 0).astype(np.int64)
             + 4 * (rf == "N").astype(np.int64))
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "l_linenumber": t["l_linenumber"],
                         "nan_bits": pa.array(b)})

    return ds.map_batches(bits, batch_format="pyarrow",
                          zero_copy_batch=True)


@query("ks_events_value", sql="""
WITH x AS (SELECT value AS v, 1 AS sa, 0 AS sb FROM events
           WHERE ts < TIMESTAMP '2024-01-16'
           UNION ALL
           SELECT value, 0, 1 FROM events
           WHERE ts >= TIMESTAMP '2024-01-16'),
t AS (SELECT SUM(sa) AS na, SUM(sb) AS nb FROM x),
r AS (SELECT v,
        SUM(sa) OVER (ORDER BY v RANGE BETWEEN UNBOUNDED PRECEDING
                      AND CURRENT ROW) AS ca,
        SUM(sb) OVER (ORDER BY v RANGE BETWEEN UNBOUNDED PRECEDING
                      AND CURRENT ROW) AS cb
      FROM x)
SELECT ROUND(MAX(ABS(ca / CAST(t.na AS DOUBLE)
                     - cb / CAST(t.nb AS DOUBLE))), 6) AS ks
FROM r, t""")
def ks_events_value(sf_dir: str):
    """Exact two-sample Kolmogorov-Smirnov drift statistic between the
    month halves, from per-side exact value counts (histogram-KS is the
    documented overflow path)."""
    ds = _t(sf_dir, "events", ["ts", "value"])
    ref = ds.map_batches(
        lambda t: t.filter(pc.less(t["ts"], pa.scalar(HALF_TS))),
        batch_format="pyarrow")
    cur = ds.map_batches(
        lambda t: t.filter(pc.greater_equal(t["ts"], pa.scalar(HALF_TS))),
        batch_format="pyarrow")
    val = drift.ks_numeric(ref, cur, "value")
    return pa.table({"ks": pa.array([round(val, 6)], type=pa.float64())})


@query("histogram_events_value", sql="""
WITH bins AS (SELECT range AS bin FROM range(0, 10)),
c AS (SELECT LEAST(GREATEST(CAST(FLOOR(value / 50) AS INT), 0), 9) AS bin,
             COUNT(*) AS n
      FROM events GROUP BY 1)
SELECT CAST(bins.bin AS BIGINT) AS bin,
       CAST(COALESCE(c.n, 0) AS BIGINT) AS n
FROM bins LEFT JOIN c ON bins.bin = c.bin""")
def histogram_events_value(sf_dir: str):
    """Fixed-bin histogram of a numeric column (the drift-profile
    building block), streaming partial bincounts."""
    ds = _t(sf_dir, "events", ["value"])
    counts = drift.histogram_counts(ds, "value",
                                    np.arange(0.0, 550.0, 50.0))
    return pa.table({"bin": _i64(np.arange(10)),
                     "n": _i64(counts)})


# ---------------------------------------------------------------------------
# batch 3: encoders / ffill / reference bit patterns


@query("ordinal_encode_priority", sql="""
WITH m AS (SELECT v, CAST(ROW_NUMBER() OVER (ORDER BY v) - 1 AS BIGINT)
                  AS code
           FROM (SELECT DISTINCT o_orderpriority AS v FROM orders)),
k AS (SELECT COUNT(*) AS k FROM m)
SELECT o.o_orderkey, m.code AS priority_code,
       CAST(m.code % 2 AS BIGINT) AS bit0,
       CAST((m.code // 2) % 2 AS BIGINT) AS bit1,
       CAST((m.code // 4) % 2 AS BIGINT) AS bit2
FROM orders o JOIN m ON o.o_orderpriority = m.v""")
def ordinal_encode_priority(sf_dir: str):
    """Ordinal + binary encoding of a categorical column (BinaryEncoder
    configuration.py:293 / OrdinalEncoder configuration.py:538-541):
    the category map is learned from the profile (fit phase), broadcast,
    and applied as a vectorized lookup; codes expand to ceil(log2 k)
    bit columns."""
    from ..functions.encoders import binary_bits, ordinal_encode_array, ordinal_map

    ds = _t(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    prof = profile_dataset(ds, columns=["o_orderpriority"])
    vals, _ = prof["o_orderpriority"].values.sorted_arrays()
    mapping = ordinal_map(vals)
    k = len(mapping)

    def enc(t: pa.Table) -> pa.Table:
        codes = ordinal_encode_array(t["o_orderpriority"], mapping)
        bits = binary_bits(codes, k)
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "priority_code": pa.array(codes),
                         "bit0": pa.array(bits["bit0"]),
                         "bit1": pa.array(bits["bit1"]),
                         "bit2": pa.array(bits["bit2"])})

    return ds.map_batches(enc, batch_format="pyarrow", zero_copy_batch=True)


@query("ffill_events_by_user", sql="""
SELECT event_id,
       LAST_VALUE(CASE WHEN event_type <> 'error' THEN value END
                  IGNORE NULLS)
           OVER (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
           AS value_ffill
FROM events""")
def ffill_events_by_user(sf_dir: str):
    """Order-sensitive forward fill (TimeSeriesImputer.py:36-43) made
    well-defined at scale: 'error' rows are treated as missing and
    filled from the previous value WITHIN the user_id key, ordered by
    (ts, event_id) — the per-key window (``_per_key``) makes the fill
    deterministic under any block layout (SURVEY §7.6 ffill
    order-dependence)."""
    ds = _t(sf_dir, "events", ["event_id", "user_id", "ts", "event_type",
                               "value"])

    def fill(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].where(df["event_type"] != "error")
        return pd.DataFrame({"event_id": df["event_id"], "value_ffill":
                             v.groupby(df["user_id"], sort=False,
                                       dropna=False).ffill()})

    return _per_key(ds, "user_id", ["ts", "event_id"], fill)


@query("bit_patterns_partnames", sql="""
SELECT p_partkey,
       '0b0' || replace(replace(replace(replace(
           regexp_replace(regexp_replace(regexp_replace(regexp_replace(
               p_brand, '[A-Z]', 'A', 'g'), '[a-z]', 'a', 'g'),
               '[0-9]', '9', 'g'), '[^Aa9]', '#', 'g'),
           'A', '00'), 'a', '01'), '9', '10'), '#', '11')
           AS p_brand_pattern,
       CAST(len(p_brand) AS BIGINT) AS p_brand_len
FROM part""")
def bit_patterns_partnames(sf_dir: str):
    """EXACT reference CategoricalPatterns encoding
    (CategoricalPatterns.py:57-83): 2-bit char classes, '0'-prefixed,
    BitArray-rendered, plus the _len column.  SQL-exact since r5: the
    shape-alphabet regexp chain + literal 2-bit expansion reproduces
    the BitArray rendering byte for byte (each replace introduces only
    0/1 chars, which no later pattern matches); pytest additionally
    pins hand-computed reference vectors."""
    ds = _t(sf_dir, "part", ["p_partkey", "p_brand"])

    def enc(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "p_partkey": df["p_partkey"],
            "p_brand_pattern": sfn.reference_bit_pattern(df["p_brand"]),
            "p_brand_len": df["p_brand"].str.len().astype("int64")})

    return ds.map_batches(enc, batch_format="pandas")


@query("mixed_experiment_metrics")
def mixed_experiment_metrics(sf_dir: str):
    """Experiment harness (reference experiment.py:180-421 analogue):
    validate the deterministic F-MIXED table (seeded anomalies with
    y_true labels), OR-merge evidence into predictions, report
    precision/recall/F1 plus selected threshold-sweep points.
    Rows-only (model-free evaluation pipeline)."""
    from ..fixtures import generate_fmixed
    from ..pipelines.experiment import run_experiment

    table, _ = generate_fmixed(2000, seed=42)
    out = run_experiment(rd.from_arrow(table).repartition(4))
    rows = [dict(out["or_merge"], pct=0)]
    rows += [s for s in out["sweep"] if s["pct"] in (1, 5, 10, 25, 50, 100)]
    df = pd.DataFrame(rows)
    return df[["pct", "tp", "fp", "fn", "precision", "recall", "f1"]]


@query("preprocess_events_matrix", sql="""
WITH s AS (SELECT quantile_cont(value, 0.5) AS med,
                  quantile_cont(value, 0.75) - quantile_cont(value, 0.25)
                      AS iqr,
                  quantile_cont(value, 0.25) AS q1,
                  quantile_cont(value, 0.75) AS q3,
                  median(value) AS md FROM events),
d AS (SELECT median(abs(value - s.md)) AS mad FROM events, s),
m AS (SELECT v, CAST(ROW_NUMBER() OVER (ORDER BY v) - 1 AS BIGINT) AS code
      FROM (SELECT DISTINCT event_type AS v FROM events))
SELECT e.event_id,
       CAST(0 AS BIGINT) AS value_missing,
       ROUND((e.value - s.med) / s.iqr, 6) AS value_scaled,
       CAST(CASE WHEN e.value < s.q1 - 1.5*(s.q3-s.q1)
                   OR e.value > s.q3 + 1.5*(s.q3-s.q1)
            THEN 1 ELSE 0 END AS BIGINT) AS value_TUKEY,
       CAST(CASE WHEN d.mad > 0
                   AND abs(0.6745*(e.value - s.md)/d.mad) > 3.5
            THEN 1 ELSE 0 END AS BIGINT) AS value_Z_MOD,
       m.code AS event_type_code,
       CAST(m.code % 2 AS BIGINT) AS event_type_bit0,
       CAST((m.code // 2) % 2 AS BIGINT) AS event_type_bit1,
       CAST((m.code // 4) % 2 AS BIGINT) AS event_type_bit2,
       CAST(EXTRACT(year FROM e.ts) AS INTEGER) AS ts_YEAR,
       CAST(EXTRACT(month FROM e.ts) AS INTEGER) AS ts_MONTH,
       CAST(EXTRACT(isodow FROM e.ts) - 1 AS INTEGER) AS ts_WKDAY,
       CAST(EXTRACT(hour FROM e.ts) AS INTEGER) AS ts_HOUR,
       CAST(EXTRACT(minute FROM e.ts) AS INTEGER) AS ts_MINUTE,
       CAST(EXTRACT(second FROM e.ts) AS INTEGER) AS ts_SECOND
FROM events e, s, d, m
WHERE e.event_type = m.v""")
def preprocess_events_matrix(sf_dir: str):
    """The preprocess one-shot (AutoPrepAD.preprocess, control.py:206-230):
    ONE fitted profile -> wide numeric feature matrix (imputed + robust-
    scaled numerics with evidence flags and missing indicators, ordinal
    + binary-encoded categoricals, expanded datetimes)."""
    from ..pipelines.preprocess import preprocess_table

    ds = _t(sf_dir, "events", ["event_id", "value", "event_type", "ts"])
    out, _ = preprocess_table(ds, numeric_cols=("value",),
                              categorical_cols=("event_type",),
                              datetime_cols=("ts",),
                              passthrough_cols=("event_id",))
    return out


@query("top_anomalies_events", sql=f"""
WITH {_EVENTS_FENCE_SQL},
f AS (SELECT event_id, value,
        CAST(CASE WHEN value < q.q1 - 1.5*(q.q3-q.q1)
                    OR value > q.q3 + 1.5*(q.q3-q.q1) THEN 1 ELSE 0 END
             AS BIGINT) AS tukey_total,
        CAST(CASE WHEN d.mad > 0
                    AND abs(0.6745 * (value - m.med) / d.mad) > 3.5
             THEN 1 ELSE 0 END AS BIGINT) AS mad_total
      FROM events, q, m, d)
SELECT event_id, ROUND(value, 6) AS value,
       tukey_total + mad_total AS score_raw
FROM f
ORDER BY tukey_total + mad_total DESC, mad_total DESC, tukey_total DESC,
         value DESC, event_id
LIMIT 20""")
def top_anomalies_events(sf_dir: str):
    """Worst-first presentation sort (runs.py:429-435: descending by
    AnomalyScore with MAD_Total/Tukey_Total tiebreaks) + top-k —
    map-side per-block cut + one fold of the per-block top-ks
    (stages/topk.top_k) instead of a range-partitioned full sort: at
    100 TB a global sort exchanges every row to keep 20.  The
    event_id final tiebreak makes the cut deterministic on any block
    layout."""
    from ..stages.topk import top_k

    checked = _events_checked(sf_dir)

    def prep(t: pa.Table) -> pa.Table:
        tuk = t["value" + rc.TUKEY_SUFFIX].cast(pa.int64())
        mad = t["value" + rc.MADZ_SUFFIX].cast(pa.int64())
        return pa.table({
            "event_id": t["event_id"],
            "value": pa.array(np.round(
                t["value"].to_numpy(zero_copy_only=False), 6)),
            "score_raw": pc.add(tuk, mad),
            "mad_total": mad, "tukey_total": tuk})

    top = top_k(checked.map_batches(prep, batch_format="pyarrow"),
                ["score_raw", "mad_total", "tukey_total", "value",
                 "event_id"],
                descending=[True, True, True, True, False], k=20)
    return top[["event_id", "value", "score_raw"]]


@query("join_order_revenue_by_status", sql="""
SELECT o.o_orderstatus,
       ROUND(SUM(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue,
       COUNT(*) AS n_items
FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
GROUP BY o.o_orderstatus""")
def join_order_revenue_by_status(sf_dir: str):
    """Large-large equi-join (explicit key-routed join, ONE
    ``transport.keyed_map`` of both sides on l_orderkey) followed by a
    partial+final grouped aggregate — the engine's big-side join
    pattern (the broadcast path for small sides is semi_join).  The
    final fold is over THREE status groups, so it rides the
    dozens-of-groups rule (pricing_summary's shape): per-block partials
    folded by ``_fold_groups``, never a keyed exchange for 3 output
    rows.  ROUND(SUM, 2) snaps the order-sensitive revenue sum
    to the decimal grid on both engines, so fold order is free."""
    from ..stages.join import bucketed_join

    left = _t(sf_dir, "lineitem",
              ["l_orderkey", "l_extendedprice", "l_discount"])
    right_raw = _t(sf_dir, "orders", ["o_orderkey", "o_orderstatus"])
    rsch = pa.schema([("l_orderkey", t) if n == "o_orderkey" else (n, t)
                      for n, t in zip(right_raw.schema().names,
                                      right_raw.schema().types)])
    right = right_raw.map_batches(lambda t: t.rename_columns(
        ["l_orderkey", "o_orderstatus"]), batch_format="pyarrow")
    joined = bucketed_join(left, right, "l_orderkey",
                           schema_hint=(left.schema(), rsch))

    def partial(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        g = pa.table({"o_orderstatus": t["o_orderstatus"], "rev": rev}) \
            .group_by("o_orderstatus").aggregate([("rev", "sum"),
                                                  ([], "count_all")])
        return pa.table({"o_orderstatus": g["o_orderstatus"],
                         "rev": g["rev_sum"], "n": g["count_all"]})

    df = _fold_groups(joined, partial, ["o_orderstatus"],
                      {"rev": "sum", "n": "sum"})
    return pd.DataFrame({
        "o_orderstatus": df["o_orderstatus"],
        "revenue": np.round(df["rev"].to_numpy(dtype=np.float64), 2),
        "n_items": df["n"].astype(np.int64)})


@query("tukey_flags_pooled_lineitem", sql="""
WITH r AS (SELECT quantile_cont(l_quantity, 0.5) AS med_q,
                  quantile_cont(l_quantity, 0.75)
                  - quantile_cont(l_quantity, 0.25) AS iqr_q,
                  quantile_cont(l_extendedprice, 0.5) AS med_p,
                  quantile_cont(l_extendedprice, 0.75)
                  - quantile_cont(l_extendedprice, 0.25) AS iqr_p
           FROM lineitem),
s AS (SELECT l_orderkey, l_linenumber,
             (l_quantity - r.med_q) / r.iqr_q AS sq,
             (l_extendedprice - r.med_p) / r.iqr_p AS sp
      FROM lineitem, r),
pool AS (SELECT v FROM (SELECT sq AS v FROM s
                        UNION ALL SELECT sp FROM s)),
f AS (SELECT quantile_cont(v, 0.25) AS q1, quantile_cont(v, 0.75) AS q3
      FROM pool)
SELECT l_orderkey, l_linenumber,
       CAST(CASE WHEN sq < f.q1 - 1.5*(f.q3-f.q1)
                   OR sq > f.q3 + 1.5*(f.q3-f.q1)
            THEN 1 ELSE 0 END AS BIGINT) AS quantity_tukey_pooled,
       CAST(CASE WHEN sp < f.q1 - 1.5*(f.q3-f.q1)
                   OR sp > f.q3 + 1.5*(f.q3-f.q1)
            THEN 1 ELSE 0 END AS BIGINT) AS price_tukey_pooled
FROM s, f""")
def tukey_flags_pooled_lineitem(sf_dir: str):
    """The reference's GLOBAL-FLATTENED statistics semantic (SURVEY §1.1:
    np.quantile with no axis over the whole matrix,
    TukeyTransformer.py:37-38) — sane only after per-column robust
    scaling (configuration.py:193), reproduced exactly: scale each
    column by its own median/IQR, then ONE pooled fence pair shared by
    every column.

    The pooled quantiles REPLAY from the per-column profiles instead
    of a second profiling pass over the scaled stream: scaling is a
    monotonic elementwise float64 transform, so applying it to each
    column's exact (value, count) census yields bit-identical doubles
    in already-sorted order, and the merged census feeds the same
    ValueCounts.quantile replay ``fence_states(mode="pooled")`` runs
    — ONE profile pass + ONE flag pass (was three executions; past the
    exact-census scale contract, the fallback below profiles the scaled
    columns and pools their sketches with ``fence_states``)."""
    cols = ["l_quantity", "l_extendedprice"]
    ds = _t(sf_dir, "lineitem", ["l_orderkey", "l_linenumber"] + cols)
    prof = profile_dataset(ds, columns=cols)
    scale = {c: (prof[c].quantile(0.5),
                 prof[c].quantile(0.75) - prof[c].quantile(0.25))
             for c in cols}

    if all(prof[c].exact_quantiles for c in cols):
        parts = []
        for c in cols:
            vals, cnts = prof[c].values.sorted_arrays()
            med, iqr = scale[c]
            parts.append(((vals.astype(np.float64) - med) / iqr,
                          cnts.astype(np.int64)))
        pool_vals, pool_cnts = merge_counts(parts)
        vc = ValueCounts.from_items(pool_vals, pool_cnts,
                                    max_items=len(pool_vals) + 1)
        q1, q3 = vc.quantile(0.25), vc.quantile(0.75)
        lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
    else:
        def rescale(t: pa.Table) -> pa.Table:
            out = {}
            for c in cols:
                v = t[c].cast(pa.float64()).to_numpy(zero_copy_only=False)
                med, iqr = scale[c]
                out[f"{c}_scaled"] = pa.array((v - med) / iqr)
            return pa.table(out)

        scaled_prof = profile_dataset(
            ds.map_batches(rescale, batch_format="pyarrow",
                           zero_copy_batch=True),
            columns=[f"{c}_scaled" for c in cols])
        states = rc.fence_states(scaled_prof,
                                 [f"{c}_scaled" for c in cols],
                                 mode="pooled")
        st = states[f"{cols[0]}_scaled"]
        lo, hi = st.lo, st.hi

    def flag(t: pa.Table) -> pa.Table:
        med_q, iqr_q = scale["l_quantity"]
        med_p, iqr_p = scale["l_extendedprice"]
        sq = (t["l_quantity"].cast(pa.float64())
              .to_numpy(zero_copy_only=False) - med_q) / iqr_q
        sp = (t["l_extendedprice"].cast(pa.float64())
              .to_numpy(zero_copy_only=False) - med_p) / iqr_p
        return pa.table({
            "l_orderkey": t["l_orderkey"],
            "l_linenumber": t["l_linenumber"],
            "quantity_tukey_pooled": pa.array(
                ((sq < lo) | (sq > hi)).astype(np.int64)),
            "price_tukey_pooled": pa.array(
                ((sp < lo) | (sp > hi)).astype(np.int64))})

    return ds.map_batches(flag, batch_format="pyarrow",
                          zero_copy_batch=True)


@query("ivf_topk_embeddings")
def ivf_topk_embeddings(sf_dir: str):
    """IVF (inverted-file) approximate top-k similarity search — the
    clustered scale path beside brute force (ann_topk_embeddings) and
    sign-LSH (embed_neardup_planted).  Rows-only: centroid training is
    seeded but k-means assignment is not SQL-expressible; pytest pins
    recall vs the exact baseline and exactness at nprobe == nlist."""
    from ..stages.embed import ivf_topk

    ds = _t(sf_dir, "embeddings", ["vec_id", "embedding"])
    qrows = (ds.map_batches(
        lambda t: t.filter(pc.less(t["vec_id"], 3)), batch_format="pyarrow")
        .take_all())
    qids = np.array([r["vec_id"] for r in qrows], dtype=np.int64)
    Q = np.stack([np.asarray(r["embedding"], dtype=np.float64)
                  for r in qrows])
    out = ivf_topk(ds, "embedding", "vec_id", Q, qids, k=5,
                   nlist=16, nprobe=8).to_pandas()
    out["cos"] = np.round(out["cos"].astype(float), 6)
    return out


@query("pca_scores_events")
def pca_scores_events(sf_dir: str):
    """F14 model-scorer parity (reference runs.py:162 clf.fit on the
    wide matrix + runs.py:198 decision_function; pyod-PCA semantics =
    squared reconstruction error after standardize+project): sample-fit
    PCA over the preprocess feature matrix, scores min-max scaled with
    the top-10% percentile label (runs.py:200-214).  Rows-only (SVD is
    not SQL-expressible); pytest pins parity vs a numpy oracle."""
    from ..pipelines.preprocess import preprocess_table
    from ..profile import profile_dataset
    from ..stages.scorer import fit_pca_scorer, pca_scores

    ds = _t(sf_dir, "events", ["event_id", "value", "event_type", "ts"])
    out, _ = preprocess_table(ds, numeric_cols=("value",),
                              categorical_cols=("event_type",),
                              datetime_cols=("ts",),
                              passthrough_cols=("event_id",))
    # consumed three times (fit sample, threshold profile, scoring) --
    # materialize the feature matrix once
    out = out.materialize()
    cols = ["value_scaled", "value_TUKEY", "value_Z_MOD",
            "event_type_code", "ts_HOUR", "ts_WKDAY"]
    state = fit_pca_scorer(out, cols, n_components=3)
    scored = pca_scores(out, state).materialize()
    prof = profile_dataset(scored, columns=["pca_score"])
    p = prof["pca_score"]
    mn, mx, thr = p.moments.vmin, p.moments.vmax, p.quantile(0.9)

    def finalize(t: pa.Table) -> pa.Table:
        raw = t["pca_score"].to_numpy(zero_copy_only=False)
        sc = (np.round((raw - mn) / (mx - mn), 6) if mx > mn
              else np.zeros(len(raw)))
        return pa.table({
            "event_id": t["event_id"],
            "anomaly_score": pa.array(sc),
            "anomaly_label": pa.array((raw > thr).astype(np.int64))})

    return scored.map_batches(finalize, batch_format="pyarrow")


@query("csv_roundtrip_region", sql="""
SELECT r_regionkey, r_name FROM region""")
def csv_roundtrip_region(sf_dir: str):
    """CSV source (reference main.py:16 reads the input table with
    pd.read_csv): the region table is exported to CSV once per sf
    (cached under /tmp) and read back through io.read_table's CSV path;
    values must match the parquet-backed oracle exactly."""
    import os

    from .. import io as aio

    tag = sf_dir.rstrip("/").replace("/", "_")
    cache_dir = "/tmp/autoprepad_csv"
    os.makedirs(cache_dir, exist_ok=True)
    path = f"{cache_dir}/region_{tag}.csv"
    if not os.path.exists(path):
        import pyarrow.parquet as pq
        df = pq.read_table(f"{sf_dir}/region.parquet",
                           columns=["r_regionkey", "r_name"]).to_pandas()
        tmp = path + ".tmp"
        df.to_csv(tmp, index=False)
        os.replace(tmp, path)
    ds = aio.read_table(path, columns=["r_regionkey", "r_name"])
    return ds.map_batches(
        lambda t: pa.table({
            "r_regionkey": t["r_regionkey"].cast(pa.int64()),
            "r_name": t["r_name"]}),
        batch_format="pyarrow")


@query("bfill_events_by_user", sql="""
SELECT event_id,
       FIRST_VALUE(CASE WHEN event_type <> 'error' THEN value END
                   IGNORE NULLS)
           OVER (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING)
           AS value_bfill
FROM events""")
def bfill_events_by_user(sf_dir: str):
    """Backward fill, the TimeSeriesImputer's other mode
    (TimeSeriesImputer.py:36-43 supports bfill): 'error' rows are
    treated as missing and filled from the NEXT value within the
    user_id key ordered by (ts, event_id) — the per-key window keeps
    the fill deterministic under any block layout (mirror of
    ffill_events_by_user)."""
    ds = _t(sf_dir, "events", ["event_id", "user_id", "ts", "event_type",
                               "value"])

    def fill(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].where(df["event_type"] != "error")
        return pd.DataFrame({"event_id": df["event_id"], "value_bfill":
                             v.groupby(df["user_id"], sort=False,
                                       dropna=False).bfill()})

    return _per_key(ds, "user_id", ["ts", "event_id"], fill)


@query("iterative_impute_lineitem")
def iterative_impute_lineitem(sf_dir: str):
    """F4 IterativeImputer slot (reference configuration.py:218,244
    wires sklearn's IterativeImputer over the numeric block; sklearn
    fits round-robin per-column regressors and transform replays the
    fitted sequence): l_quantity is deterministically masked on ~9% of
    rows ((l_orderkey*10 + l_linenumber) % 11 == 0), the MICE-style
    ridge imputer sample-fits over the correlated numeric block, and
    the replay streams over the table.  Returns the imputed values for
    exactly the masked rows.  Rows-only (iterative regression is not
    SQL-expressible); pytest pins the stage against mean-fill and
    layout invariance (tests/test_imputer.py)."""
    from ..stages.imputer import fit_iterative_imputer, iterative_impute

    num_cols = ["l_quantity", "l_extendedprice", "l_discount"]
    ds = _t(sf_dir, "lineitem",
            ["l_orderkey", "l_linenumber"] + num_cols)

    def mask(t: pa.Table) -> pa.Table:
        rank = (t["l_orderkey"].to_numpy(zero_copy_only=False) * 10
                + t["l_linenumber"].to_numpy(zero_copy_only=False)
                .astype(np.int64))
        q = t["l_quantity"].cast(pa.float64()).to_numpy(
            zero_copy_only=False).copy()
        q[rank % 11 == 0] = np.nan
        t = t.set_column(t.column_names.index("l_quantity"),
                         "l_quantity", pa.array(q))
        return t.append_column("rank", pa.array(rank))

    # consumed twice (fit sample + replay) — materialize the masked view
    masked = ds.map_batches(mask, batch_format="pyarrow",
                            zero_copy_batch=True).materialize()
    state = fit_iterative_imputer(masked, num_cols, sample_rows=100_000)
    out = iterative_impute(masked, state)
    return out.map_batches(
        lambda t: pa.table({
            "rank": t["rank"],
            "l_quantity_imputed": pa.array(np.round(
                t["l_quantity"].to_numpy(zero_copy_only=False), 6))})
        .filter(pc.equal(t["l_quantity_was_missing"], 1)),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# batch 8: multimodal media (audio/video) — beyond-reference surface
# (reference is tabular-only; see functions/mediacodec.py docstring)


def _fmedia_for_sf(sf_dir: str) -> str:
    from ..fixtures import ensure_fmedia
    try:
        sf = float(sf_dir.rstrip("/").rsplit("sf", 1)[-1])
    except ValueError:
        sf = 0.01
    d, _ = ensure_fmedia(audio_rows=max(24, int(2400 * sf)),
                         video_rows=max(16, int(1600 * sf)),
                         seed=42, inject=True)
    return d


@query("audio_features_clips")
def audio_features_clips(sf_dir: str):
    """Audio decode + per-clip features (duration/RMS/peak/
    ZCR/spectral centroid) on the deterministic F-MEDIA table scaled
    with sf, including the injected truncated/garbage/stub-format rows.
    Rows-only (FFT feature extraction is not SQL-expressible); pytest
    pins every feature against direct numpy and every injection flag
    (tests/test_media.py)."""
    from ..stages.media import audio_features

    d = _fmedia_for_sf(sf_dir)
    return audio_features(rd.read_parquet(f"{d}/audio.parquet"))


@query("video_frame_neardup_pairs")
def video_frame_neardup_pairs(sf_dir: str):
    """Video near-dup pairs: offset-computed frame sampling (only
    sampled frames are ever decoded) -> phash -> exact-collision groupby
    + banded-Hamming pairing -> per-video-pair frame vote.  Rows-only;
    pytest pins the planted pairs and rejects false ones
    (tests/test_media.py)."""
    from ..stages.media import video_frame_neardup

    d = _fmedia_for_sf(sf_dir)
    return video_frame_neardup(rd.read_parquet(f"{d}/videos.parquet"),
                               every_k=4, max_dist=4)


# ---------------------------------------------------------------------------
# batch 9: as-of join + windowed aggregates (custom operators the Dataset
# API lacks; SURVEY §2.4/§2.6 extensions, exact SQL parity)


@query("asof_join_events_orders", sql="""
SELECT event_id, asof_orderkey, asof_totalprice
FROM (
  SELECT e.event_id,
         o.o_orderkey   AS asof_orderkey,
         o.o_totalprice AS asof_totalprice,
         ROW_NUMBER() OVER (PARTITION BY e.event_id
                            ORDER BY o.o_orderdate DESC,
                                     o.o_orderkey DESC) AS rn
  FROM events e
  JOIN orders o
    ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts)
WHERE rn = 1""")
def asof_join_events_orders(sf_dir: str):
    """As-of join: each event picks the customer's latest order at or
    before the event timestamp (date ties broken by max orderkey).
    One hash-bucket co-partition shuffle + a per-bucket composite-rank
    searchsorted merge (stages/join.asof_join) — timestamps compare as
    int64, picked columns are raw values, so parity with the SQL
    window-rank oracle is exact.  Inner semantics: events from users
    with no prior order drop on both sides."""
    from ..stages.join import asof_join

    ev = _t(sf_dir, "events", ["event_id", "user_id", "ts"])
    od_raw = _t(sf_dir, "orders", ["o_orderkey", "o_custkey",
                                   "o_orderdate", "o_totalprice"])
    # schema hint: parquet footers give both sides' types for free;
    # without it the join would execute the rename chain just to
    # learn the schema
    rsch = pa.schema([({"o_custkey": "user_id"}.get(n, n), t)
                      for n, t in zip(od_raw.schema().names,
                                      od_raw.schema().types)])
    od = od_raw.map_batches(
        lambda t: t.rename_columns(
            [{"o_custkey": "user_id"}.get(c, c) for c in t.column_names]),
        batch_format="pyarrow", zero_copy_batch=True)
    out = asof_join(ev, od, on="user_id", left_ts="ts",
                    right_ts="o_orderdate",
                    left_cols=["event_id"],
                    right_cols=["o_orderkey", "o_totalprice"],
                    tie_col="o_orderkey",
                    schema_hint=(ev.schema(), rsch))
    return out.map_batches(
        lambda df: pd.DataFrame({
            "event_id": df["event_id"],
            "asof_orderkey": df["o_orderkey"].astype("int64"),
            "asof_totalprice": df["o_totalprice"]}),
        batch_format="pandas")


@query("range_join_purchase_window", sql="""
SELECT l.event_id, l.event_type, r.event_id AS window_id
FROM events l JOIN events r
  ON l.user_id = r.user_id
 AND r.event_type = 'purchase'
 AND l.ts >= r.ts
 AND l.ts < r.ts + INTERVAL 1 HOUR""")
def range_join_purchase_window(sf_dir: str):
    """Interval (range) join: every event that falls inside the 1-hour
    window opened by any same-user purchase event — one output row per
    (event, window) pair.  Time-tiled co-partition
    (``stages/join.range_join`` with ``tile_width`` = window width):
    each window replicates to the <= 2 tiles it covers, the shuffle
    keys on (user, tile), and the per-bucket merge is a composite-rank
    searchsorted expansion — candidate scans stay bounded by per-tile
    window counts at any history length.  All comparisons are raw
    int64 microseconds and output columns are carried values, so
    parity with the SQL non-equi-join oracle is exact."""
    from ..stages.join import range_join

    hour_us = 3_600_000_000
    ev = _t(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def mk_windows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "purchase"))
        end = pc.add(t["ts"], pa.scalar(hour_us, pa.duration("us")))
        return pa.table({"user_id": t["user_id"],
                         "window_id": t["event_id"],
                         "w_start": t["ts"], "w_end": end})

    win = ev.map_batches(mk_windows, batch_format="pyarrow",
                         zero_copy_batch=True)
    out = range_join(ev, win, on="user_id", left_ts="ts",
                     right_start="w_start", right_end="w_end",
                     left_cols=["event_id", "event_type"],
                     right_cols=["window_id"], tile_width=hour_us)
    return out.map_batches(
        lambda df: pd.DataFrame({
            "event_id": df["event_id"].astype("int64"),
            "event_type": df["event_type"],
            "window_id": df["window_id"].astype("int64")}),
        batch_format="pandas")


@query("pack_documents_bins", sql="""
WITH RECURSIVE s AS (
  SELECT source, doc_id, n_chars,
         SUM(n_chars) OVER (PARTITION BY source ORDER BY doc_id) AS cum,
         ROW_NUMBER() OVER (PARTITION BY source ORDER BY doc_id) AS rn
  FROM documents),
cnt AS (SELECT source, COUNT(*) AS n FROM s GROUP BY source),
b(source, bin, start_rn, end_rn, base) AS (
  SELECT source, CAST(-1 AS BIGINT), CAST(0 AS BIGINT), CAST(0 AS BIGINT),
         CAST(0 AS BIGINT) FROM cnt
  UNION ALL
  SELECT b.source, b.bin + 1, b.end_rn + 1,
         COALESCE((SELECT MAX(rn) FROM s
                   WHERE s.source = b.source AND s.rn > b.end_rn
                     AND s.cum - b.base <= 4096), b.end_rn + 1),
         (SELECT cum FROM s WHERE s.source = b.source AND s.rn =
            COALESCE((SELECT MAX(rn) FROM s
                      WHERE s.source = b.source AND s.rn > b.end_rn
                        AND s.cum - b.base <= 4096), b.end_rn + 1))
  FROM b JOIN cnt ON cnt.source = b.source
  WHERE b.end_rn < cnt.n)
SELECT s.doc_id, s.source, b.bin
FROM s JOIN b ON b.source = s.source
             AND s.rn BETWEEN b.start_rn AND b.end_rn""")
def pack_documents_bins(sf_dir: str):
    """Context-window packing: greedy 4096-char bins per source shard
    in doc_id order (``stages.pack``) — the corpus-layout step between
    dedup and an LLM training run.  The Ray side packs every shard in
    parallel with an O(bins) searchsorted loop; the oracle replays the
    identical greedy recurrence as a recursive CTE.  Pure integer
    arithmetic — exact parity."""
    from ..stages.pack import pack_documents

    docs = _t(sf_dir, "documents", ["doc_id", "source", "n_chars"])
    out = pack_documents(docs, group_col="source", order_col="doc_id",
                         size_col="n_chars", capacity=4096)
    return out.map_batches(
        lambda df: df[["doc_id", "source", "bin"]],
        batch_format="pandas")


@query("deterministic_split_events", sql="""
SELECT event_id,
       CASE WHEN b < 800 THEN 'train'
            WHEN b < 900 THEN 'val'
            ELSE 'test' END AS split
FROM (SELECT event_id,
             ((event_id % 1000003) * 2654435761) % 1000 AS b
      FROM events)""")
def deterministic_split_events(sf_dir: str):
    """Deterministic 80/10/10 train/val/test assignment
    (``functions.sampling.assign_splits``): pure int64 arithmetic on
    the row id — stateless, partition-independent, identical on every
    rerun/retry/cluster size, which is what makes sampling resumable
    at 100 TB.  The fold-then-multiply rule stays inside BIGINT, so
    the oracle reproduces it exactly in SQL."""
    from ..functions.sampling import assign_splits

    ev = _t(sf_dir, "events", ["event_id"])
    out = assign_splits(ev, "event_id",
                        splits={"train": 0.8, "val": 0.1, "test": 0.1})
    return out.map_batches(
        lambda df: pd.DataFrame({"event_id": df["event_id"],
                                 "split": df["split"]}),
        batch_format="pandas")


@query("tumbling_window_counts", sql="""
SELECT date_trunc('hour', ts) AS window_start, event_type,
       CAST(COUNT(*) AS BIGINT) AS n,
       MIN(value) AS value_min, MAX(value) AS value_max
FROM events GROUP BY 1, 2""")
def tumbling_window_counts(sf_dir: str):
    """Tumbling (fixed, non-overlapping) 1-hour windowed aggregate per
    event_type: count + min/max.  The streaming-window shape done the
    partial-combiner way — each block reduces to at most one row per
    (window, type) via a pyarrow ``group_by`` (windows are an int64
    floor-division of the raw us timestamps, exact), and
    ``_fold_groups`` re-reduces dozens-to-thousands of verdict-sized
    rows (the ``partition_verdicts`` flat
    pattern — a Ray sort-groupby would pay a full exchange for a
    keyspace of ~hours x types).  min/max are selection-only, so float
    parity is free; no rounding rules needed."""
    hour_us = np.int64(3_600_000_000)

    def partial(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view(np.int64)
        w = (ts // hour_us) * hour_us
        g = pa.table({"window_start": pa.array(w),
                      "event_type": t["event_type"],
                      "value": t["value"]}) \
            .group_by(["window_start", "event_type"]).aggregate(
                [("value", "count"), ("value", "min"), ("value", "max")])
        return pa.table({"window_start": g["window_start"],
                         "event_type": g["event_type"],
                         "n": pc.cast(g["value_count"], pa.int64()),
                         "value_min": g["value_min"],
                         "value_max": g["value_max"]})

    df = _fold_groups(_t(sf_dir, "events", ["ts", "event_type", "value"]),
                      partial, ["window_start", "event_type"],
                      {"n": "sum", "value_min": "min", "value_max": "max"})
    df["window_start"] = pd.to_datetime(df["window_start"], unit="us") \
        .astype("datetime64[us]")      # match the source's us resolution
    return df.sort_values(["window_start", "event_type"]) \
        .reset_index(drop=True)


def _value_census(ds, group_col: str, value_col: str) -> pd.DataFrame:
    """(group, value, cnt) exact census — per-block Arrow group_by
    partials (bounded by the data's decimal grain, not row count)
    folded by ``_fold_groups``.  The shared fold under
    group_quantiles_events and winsorize_events_value."""

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({group_col: t[group_col],
                      value_col: t[value_col],
                      "cnt": pa.array(np.ones(t.num_rows, np.int64))}) \
            .group_by([group_col, value_col]).aggregate([("cnt", "sum")])
        return pa.table({group_col: g[group_col],
                         value_col: g[value_col], "cnt": g["cnt_sum"]})

    return _fold_groups(ds, partial, [group_col, value_col],
                        {"cnt": "sum"})


def _packed_pair_census(ds, pack_fn) -> np.ndarray:
    """Globally deduped int64 composite census: per-block ``np.unique``
    over ``pack_fn``'s packed pairs folded by
    ``stages.transport.fold``.  The result is bounded by distinct-PAIR
    cardinality, never row count — the shared scaffold under
    sliding_distinct_users_7d and cohort_retention_events.
    ``pack_fn(t: pa.Table) -> np.ndarray[int64]`` owns the packing and
    its loud range guards."""
    return fold(ds, lambda t: np.unique(pack_fn(t)), merge_unique)


@query("group_quantiles_events", sql="""
SELECT event_type,
       ROUND(quantile_cont(value, 0.5), 6) AS p50,
       ROUND(quantile_cont(value, 0.95), 6) AS p95
FROM events GROUP BY event_type""")
def group_quantiles_events(sf_dir: str):
    """Exact per-group quantiles (median + p95 of value per event_type):
    per-block partials reduce to one (group, value, cnt) row per
    distinct value — bounded by the data's decimal grain, not row count
    — ``_fold_groups`` re-sums them, and the driver folds the
    counts into per-group :class:`ValueCounts` (its linear-interpolation
    quantile == DuckDB ``quantile_cont``, the profile query's proven
    parity path).  r6 rounding on both sides per the float header."""
    from ..sketches import ValueCounts

    df = _value_census(_t(sf_dir, "events", ["event_type", "value"]),
                       "event_type", "value")
    out = []
    for et, grp in df.groupby("event_type"):
        vc = ValueCounts.from_items(grp["value"].to_numpy(),
                                    grp["cnt"].to_numpy())
        out.append({"event_type": et,
                    "p50": round(vc.quantile(0.5), 6),
                    "p95": round(vc.quantile(0.95), 6)})
    return pd.DataFrame(out)


@query("rolling_window_events", sql="""
SELECT event_id,
       MIN(value) OVER w3 AS value_min3,
       MAX(value) OVER w3 AS value_max3,
       value - LAG(value) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS value_delta
FROM events
WINDOW w3 AS (PARTITION BY user_id ORDER BY ts, event_id
              ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)""")
def rolling_window_events(sf_dir: str):
    """Per-key ordered windowed aggregate (the streaming-window slot
    from SURVEY §2.9 made batch-exact): 3-row rolling min/max plus the
    lag-1 delta per user_id ordered by (ts, event_id), via the same
    per-key window as ffill (order is deterministic under any block
    layout).  min/max/lag are comparison/single-op kernels — no
    accumulation — so float parity with the SQL window oracle is exact
    with no rounding."""
    ds = _t(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def win(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("user_id", sort=False, dropna=False)["value"]
        r = g.rolling(3, min_periods=1)
        return pd.DataFrame({
            "event_id": df["event_id"],
            "value_min3": r.min().droplevel(0),
            "value_max3": r.max().droplevel(0),
            "value_delta": g.diff()})

    return _per_key(ds, "user_id", ["ts", "event_id"], win)


def _session_ids(df: pd.DataFrame, gap) -> pd.Series:
    """Gap-session ids of a frame sorted by (user_id, ts, event_id): per
    user, the running count of breaks longer than ``gap`` (the first
    event opens session 1)."""
    prev = df.groupby("user_id", sort=False, dropna=False)["ts"].shift()
    new = (((df["ts"] - prev) > gap) | prev.isna()).astype("int64")
    return new.groupby(df["user_id"], sort=False, dropna=False).cumsum()


@query("sessionize_events", sql="""
SELECT event_id,
       CAST(SUM(new_sess) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                ROWS BETWEEN UNBOUNDED PRECEDING
                                         AND CURRENT ROW)
            AS BIGINT) AS session_id
FROM (
  SELECT event_id, user_id, ts,
         CASE WHEN ts - LAG(ts) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id)
                   <= INTERVAL 1 HOUR
              THEN 0 ELSE 1 END AS new_sess
  FROM events)""")
def sessionize_events(sf_dir: str):
    """Gap-based sessionization (the classic streaming session window,
    SURVEY §2.9, made batch-exact): events within 1 h of the previous
    event of the same user share a session; session_id is the running
    count of gap-breaks per user ordered by (ts, event_id).  Integer
    comparisons + int cumsum — exact SQL parity."""
    ds = _t(sf_dir, "events", ["event_id", "user_id", "ts"])
    gap = np.timedelta64(1, "h")

    def sess(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_id": df["event_id"],
                             "session_id": _session_ids(df, gap)})

    return _per_key(ds, "user_id", ["ts", "event_id"], sess)


@query("top_events_per_user", sql="""
SELECT event_id, user_id, value
FROM (
  SELECT event_id, user_id, value,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY value DESC, event_id) AS rn
  FROM events)
WHERE rn <= 3""")
def top_events_per_user(sf_dir: str):
    """Top-k per group (worst-first listing per key — O1's sort/top-k
    generalized to grouped data): the 3 highest-value events per user,
    ties broken by event_id.  Per-key window head — row selection
    only, exact parity.  At scale a pre-filter partial (per-block top-k
    per key inside map_batches) would bound group sizes; group = user
    here, already bounded."""
    ds = _t(sf_dir, "events", ["event_id", "user_id", "value"])

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("user_id", sort=False, dropna=False).head(3)

    return _per_key(ds, "user_id", ["value", "event_id"], topk,
                    ascending=[True, False, True])


@query("json_roundtrip_nation", sql="""
SELECT n_nationkey, n_name, n_regionkey FROM nation""")
def json_roundtrip_nation(sf_dir: str):
    """JSONL source (§2.1 widening beside CSV: the reference ingests
    whatever pandas reads, main.py:16): the nation table is exported to
    JSON-lines once per sf (cached under /tmp) and read back through
    io.read_table's JSON path; values must match the parquet-backed
    oracle exactly."""
    import os

    from .. import io as aio

    tag = sf_dir.rstrip("/").replace("/", "_")
    cache_dir = "/tmp/autoprepad_json"
    os.makedirs(cache_dir, exist_ok=True)
    path = f"{cache_dir}/nation_{tag}.jsonl"
    if not os.path.exists(path):
        import pyarrow.parquet as pq
        df = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name",
                                    "n_regionkey"]).to_pandas()
        tmp = path + ".tmp"
        df.to_json(tmp, orient="records", lines=True)
        os.replace(tmp, path)
    ds = aio.read_table(path, columns=["n_nationkey", "n_name",
                                       "n_regionkey"])
    return ds.map_batches(
        lambda t: pa.table({
            "n_nationkey": t["n_nationkey"].cast(pa.int64()),
            "n_name": t["n_name"],
            "n_regionkey": t["n_regionkey"].cast(pa.int64())}),
        batch_format="pyarrow")


@query("heavy_hitters_quantity", sql="""
SELECT l_quantity, CAST(COUNT(*) AS BIGINT) AS cnt
FROM lineitem
GROUP BY l_quantity
HAVING COUNT(*) > 0.02 * (SELECT COUNT(*) FROM lineitem)""")
def heavy_hitters_quantity(sf_dir: str):
    """Heavy hitters (>2% of rows) on l_quantity via the mergeable
    Misra-Gries sketch + exact candidate verification
    (validators/heavy.py): the sketch pass never holds more than
    ``capacity`` counters per task yet the candidate set provably
    contains every true heavy hitter, and the verify pass makes the
    output exact — hence SQL-checkable despite the approximate
    sketch."""
    from ..validators.heavy import heavy_hitters

    ds = _t(sf_dir, "lineitem", ["l_quantity"])
    return heavy_hitters(ds, "l_quantity", frac=0.02)


@query("vocab_top_terms_docs", sql="""
SELECT term, CAST(COUNT(*) AS BIGINT) AS n
FROM (SELECT unnest(string_split(text, ' ')) AS term FROM documents)
WHERE term <> ''
GROUP BY term
ORDER BY n DESC, term
LIMIT 20""")
def vocab_top_terms_docs(sf_dir: str):
    """Corpus vocabulary top-k (term frequency): the word-count side of
    text analysis (§2.8/LLM-pipeline) done the partial-combiner way —
    each block tokenizes (single-space split, both engines identical)
    and reduces to one (term, n) row per distinct term via pyarrow
    ``group_by``, and ``_fold_groups`` re-reduces a vocabulary-sized
    table.  The exchange is bounded by |vocabulary|
    per block, never by token count; ties at the top-k boundary break
    on the term string so the cut is deterministic on both engines."""

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern(t["text"], " "))
        toks = toks.filter(pc.not_equal(toks, ""))
        g = pa.table({"term": toks}).group_by("term").aggregate(
            [("term", "count")])
        return pa.table({"term": g["term"],
                         "n": pc.cast(g["term_count"], pa.int64())})

    df = _fold_groups(_t(sf_dir, "documents", ["text"]), partial,
                      ["term"], {"n": "sum"})
    df = df.sort_values(["n", "term"], ascending=[False, True]).head(20)
    return df.reset_index(drop=True)


@query("percent_rank_events", sql="""
SELECT event_id, PERCENT_RANK() OVER (ORDER BY value) AS pr
FROM events WHERE value IS NOT NULL""")
def percent_rank_events(sf_dir: str):
    """Global percent-rank (CDF) transform of a column — the rank
    normalization step of feature pipelines, and the global-window
    cousin of the per-key window queries.  Pass 1 reduces each block
    to its distinct (value, count) rows (partials bounded by the value
    grain, the group_quantiles pattern) and folds them; the driver
    builds the sorted cumulative count-less table and broadcasts it
    once (``ray.put``).  Pass 2 attaches pr = count_less/(n-1) with
    one ``searchsorted`` per batch.  count_less and n are exact int64
    on both engines and a single IEEE division is deterministic, so
    the doubles match DuckDB's PERCENT_RANK bit-for-bit (standard tie
    semantics: all peers take the first peer's rank)."""

    def partial(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        v = v[~np.isnan(v)]
        vals, cnts = np.unique(v, return_counts=True)
        return pa.table({"value": vals, "n": cnts.astype(np.int64)})

    vc = _fold_groups(_t(sf_dir, "events", ["value"]), partial, ["value"],
                      {"n": "sum"})
    vals = vc["value"].to_numpy()
    cnts = vc["n"].to_numpy(dtype=np.int64)
    less = np.concatenate([[np.int64(0)], np.cumsum(cnts)[:-1]])
    n_total = int(cnts.sum())
    state = ray.put((vals, less, n_total))

    def attach(t: pa.Table) -> pa.Table:
        sv, sless, n = ray.get(state)
        v = t["value"].to_numpy(zero_copy_only=False)
        keep = ~np.isnan(v)
        v = v[keep]
        idx = np.searchsorted(sv, v, side="left")
        pr = sless[idx] / np.float64(n - 1) if n > 1 \
            else np.zeros(len(v))
        return pa.table({
            "event_id": pa.array(t["event_id"].to_numpy(
                zero_copy_only=False)[keep]),
            "pr": pa.array(pr)})

    return (_t(sf_dir, "events", ["event_id", "value"])
            .map_batches(attach, batch_format="pyarrow",
                         zero_copy_batch=True))


_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


@query("pivot_event_type_counts", sql="""
SELECT user_id, """ + ", ".join(
    f"CAST(COUNT(*) FILTER (event_type = '{t}') AS BIGINT) AS n_{t}"
    for t in _EVENT_TYPES) + """
FROM events GROUP BY user_id""")
def pivot_event_type_counts(sf_dir: str):
    """Pivot (long -> wide counts): per-user event-type count matrix,
    the feature-table shape a training pipeline feeds downstream.
    Each block pre-aggregates to at most one wide row per distinct
    user (pyarrow ``group_by`` over boolean-mask count columns), then
    ``transport.keyed_fold`` sums the already-collapsed partials per
    user slice — the exchange moves O(distinct users x blocks) wide
    rows, never raw events, which is the right bound when users number
    in the millions and an unkeyed fold would not fit one task.  The
    type domain is this table's five event types (a discovery pass
    over a dynamic domain would reuse the distinct-census)."""
    def partial(t: pa.Table) -> pa.Table:
        cols = {"user_id": t["user_id"]}
        for ty in _EVENT_TYPES:
            cols[f"n_{ty}"] = pc.cast(
                pc.equal(t["event_type"], ty), pa.int64())
        g = (pa.table(cols).group_by("user_id")
             .aggregate([(f"n_{ty}", "sum") for ty in _EVENT_TYPES]))
        out = {"user_id": g["user_id"]}
        for ty in _EVENT_TYPES:       # address by name, not position
            out[f"n_{ty}"] = g[f"n_{ty}_sum"]
        return pa.table(out)

    merge = merge_groups(["user_id"],
                         {f"n_{ty}": "sum" for ty in _EVENT_TYPES})
    return keyed_fold(_t(sf_dir, "events", ["user_id", "event_type"]),
                      partial, ["user_id"], merge)


@query("semi_join_urgent_customers", sql="""
SELECT c_custkey, c_name, c_mktsegment
FROM customer c
WHERE EXISTS (SELECT 1 FROM orders o
              WHERE o.o_custkey = c.c_custkey
                AND o.o_orderpriority = '1-URGENT')""")
def semi_join_urgent_customers(sf_dir: str):
    """Semi-join (EXISTS filter): customers holding at least one
    urgent order.  The orders side never joins — it reduces to its
    distinct matching custkeys (per-block np.unique partials,
    tree-merged) which broadcast once; the customer table filters
    with a vectorized isin.  No shuffle of either table; the
    broadcast is bounded by distinct matching keys with an explicit
    bail-out to the bucketed shuffle join past 5M keys
    (stages/join.semi_join)."""
    from ..stages.join import semi_join

    urgent = (_t(sf_dir, "orders", ["o_custkey", "o_orderpriority"])
              .map_batches(
        lambda t: t.filter(pc.equal(t["o_orderpriority"], "1-URGENT"))
                   .select(["o_custkey"]),
        batch_format="pyarrow", zero_copy_batch=True))
    cust = _t(sf_dir, "customer",
              ["c_custkey", "c_name", "c_mktsegment"])
    return semi_join(cust, urgent, "c_custkey", right_on="o_custkey")


@query("rollup_pricing_levels", sql="""
SELECT CASE WHEN GROUPING(l_returnflag) = 1 THEN 'ALL'
            ELSE l_returnflag END AS l_returnflag,
       CASE WHEN GROUPING(l_linestatus) = 1 THEN 'ALL'
            ELSE l_linestatus END AS l_linestatus,
       CAST(COUNT(*) AS BIGINT) AS n,
       ROUND(SUM(l_quantity), 2) AS sum_qty,
       ROUND(SUM(l_extendedprice), 2) AS sum_price
FROM lineitem GROUP BY ROLLUP(l_returnflag, l_linestatus)""")
def rollup_pricing_levels(sf_dir: str):
    """Multi-level (ROLLUP) aggregate from ONE pass: (flag, status),
    (flag, ALL) and (ALL, ALL) levels all fold from the same
    finest-level partials — the data is read and reduced once, and
    the coarser levels are a driver fold over the handful of finest
    groups (the grouping-sets trick every warehouse engine plays,
    here as partial-combiner reuse).  Raw double sums fold unrounded
    and round r2 once at emission: the 2-dec inputs make each level's
    true sum an exact decimal, so both engines' last-ulp noise snaps
    to the same cell (file-header parity rules)."""

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "count"), ("l_quantity", "sum"),
             ("l_extendedprice", "sum")])
        return pa.table({
            "l_returnflag": g["l_returnflag"],
            "l_linestatus": g["l_linestatus"],
            "n": pc.cast(g["l_quantity_count"], pa.int64()),
            "sq": g["l_quantity_sum"], "sp": g["l_extendedprice_sum"]})

    fine = _fold_groups(
        _t(sf_dir, "lineitem", ["l_returnflag", "l_linestatus",
                                "l_quantity", "l_extendedprice"]),
        partial, ["l_returnflag", "l_linestatus"],
        {"n": "sum", "sq": "sum", "sp": "sum"})
    mid = fine.groupby("l_returnflag", as_index=False).agg(
        n=("n", "sum"), sq=("sq", "sum"), sp=("sp", "sum"))
    mid["l_linestatus"] = "ALL"
    top = pd.DataFrame({"l_returnflag": ["ALL"], "l_linestatus": ["ALL"],
                        "n": [fine["n"].sum()], "sq": [fine["sq"].sum()],
                        "sp": [fine["sp"].sum()]})
    out = pd.concat([fine, mid, top], ignore_index=True)
    out["sum_qty"] = out.pop("sq").round(2)
    out["sum_price"] = out.pop("sp").round(2)
    return out[["l_returnflag", "l_linestatus", "n",
                "sum_qty", "sum_price"]]


@query("stratified_sample_events", sql="""
SELECT event_id, event_type
FROM events
WHERE ((event_id % 1000003) * 2654435761) % 1000 <
      CASE event_type WHEN 'view' THEN 50 WHEN 'click' THEN 50
           ELSE 1000 END""")
def stratified_sample_events(sf_dir: str):
    """Stratified (per-class) deterministic sampling — keep 5% of the
    dominant view/click traffic and every rare event, the
    class-rebalancing step of a training-data pipeline.  Same int64
    hash rule as deterministic_split (no RNG state: retries, partial
    re-runs and any cluster size agree on the kept set), applied with
    a per-group cut (functions/sampling.stratified_sample).  Pure
    map_batches, no shuffle; the rule stays inside BIGINT so the SQL
    oracle replays it bit-for-bit."""
    from ..functions.sampling import stratified_sample

    ev = _t(sf_dir, "events", ["event_id", "event_type"])
    return stratified_sample(ev, "event_id", "event_type",
                             rates={"view": 0.05, "click": 0.05})


@query("hopping_window_counts", sql="""
WITH h AS (SELECT (epoch_us(ts) // 3600000000) AS hb, event_type
           FROM events),
     w AS (SELECT hb AS wb, event_type FROM h
           UNION ALL SELECT hb - 1, event_type FROM h)
SELECT make_timestamp(wb * 3600000000) AS window_start, event_type,
       CAST(COUNT(*) AS BIGINT) AS n
FROM w GROUP BY 1, 2""")
def hopping_window_counts(sf_dir: str):
    """Hopping (sliding, overlapping) windowed aggregate: 2-hour
    windows every 1 hour, counts per event_type — completing the
    window family beside tumbling/session/rolling.  Each event
    replicates to its size/hop = 2 windows INSIDE the partial (the
    fan-out never leaves the block), then the tumbling machinery
    applies unchanged: pyarrow group_by partials folded by
    ``_fold_groups`` over ~hours x types rows.  Windows are int64 floor
    division of raw us timestamps — exact on both engines."""
    hour_us = np.int64(3_600_000_000)

    def partial(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view(np.int64)
        h = ts // hour_us
        w = np.concatenate([h, h - 1]) * hour_us
        ty = pa.concat_arrays([t["event_type"].combine_chunks()] * 2)
        g = pa.table({"window_start": pa.array(w), "event_type": ty}) \
            .group_by(["window_start", "event_type"]).aggregate(
                [("event_type", "count")])
        return pa.table({"window_start": g["window_start"],
                         "event_type": g["event_type"],
                         "n": pc.cast(g["event_type_count"], pa.int64())})

    df = _fold_groups(_t(sf_dir, "events", ["ts", "event_type"]), partial,
                      ["window_start", "event_type"], {"n": "sum"})
    df["window_start"] = pd.to_datetime(df["window_start"], unit="us") \
        .astype("datetime64[us]")
    return df.sort_values(["window_start", "event_type"]) \
        .reset_index(drop=True)


@query("top_term_per_doc", sql="""
WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS term
             FROM documents),
tf AS (SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
       FROM tok WHERE term <> '' GROUP BY 1, 2),
df AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
       FROM tok WHERE term <> '' GROUP BY 1),
r AS (SELECT tf.doc_id, tf.term, tf.tf, df.df,
             ROW_NUMBER() OVER (PARTITION BY tf.doc_id
                 ORDER BY tf.tf DESC, df.df ASC, tf.term ASC) AS rn
      FROM tf JOIN df USING (term))
SELECT doc_id, term, tf, df FROM r WHERE rn = 1""")
def top_term_per_doc(sf_dir: str):
    """TF-IDF representative term per document, float-free: the most
    characteristic term is the argmax of (tf desc, df asc, term asc)
    — the same ordering tf x log(N/df) induces at equal tf, with the
    log never materialized, so parity is pure ints and strings.
    Pass 1 builds the document-frequency census: per-block distinct
    (doc, term) pairs (docs never span blocks) reduce to (term, df)
    partials, folded; the vocabulary-sized census broadcasts
    once.  Pass 2 computes per-doc term counts inside each block
    (pyarrow group_by), attaches df by searchsorted against the
    broadcast census, and selects each doc's first row under the
    ordering — no shuffle at any point."""

    def _tok(t: pa.Table):
        lc = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(lc)
        par = pc.list_parent_indices(lc)
        d = t["doc_id"].take(par)
        keep = pc.not_equal(flat, "")
        return pa.table({"d": d.combine_chunks() if hasattr(d, "chunks")
                         else d, "term": flat}).filter(keep)

    def df_partial(t: pa.Table) -> pa.Table:
        distinct = _tok(t).group_by(["term", "d"]).aggregate([])
        g = distinct.group_by("term").aggregate([("d", "count")])
        return pa.table({"term": g["term"],
                         "df": pc.cast(g["d_count"], pa.int64())})

    census = _fold_groups(_t(sf_dir, "documents", ["doc_id", "text"]),
                          df_partial, ["term"], {"df": "sum"})
    state = ray.put((census["term"].to_numpy(),
                     census["df"].to_numpy(dtype=np.int64)))

    def pick(t: pa.Table) -> pd.DataFrame:
        terms_sorted, dfs = ray.get(state)
        g = _tok(t).group_by(["d", "term"]).aggregate([("term", "count")])
        tf = pd.DataFrame({"doc_id": g["d"].to_numpy(),
                           "term": g["term"].to_numpy(
                               zero_copy_only=False),
                           "tf": g["term_count"].to_numpy()
                           .astype(np.int64)})
        tf["df"] = dfs[np.searchsorted(terms_sorted, tf["term"])]
        tf = tf.sort_values(["doc_id", "tf", "df", "term"],
                            ascending=[True, False, True, True])
        return tf.drop_duplicates("doc_id", keep="first") \
            .reset_index(drop=True)

    return (_t(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(pick, batch_format="pyarrow",
                         zero_copy_batch=True))

@query("group_distinct_users_events", sql="""
SELECT event_type,
       CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users,
       CAST(COUNT(*) AS BIGINT) AS n_events
FROM events GROUP BY event_type""")
def group_distinct_users_events(sf_dir: str):
    """Per-group exact COUNT(DISTINCT) — the cardinality profile a
    training pipeline reads before deciding how to partition (§2.5
    extension beside the global distinct census).  One pass: each
    block reduces to its distinct (type, user) composites (type code
    packed into the high bits of an int64 — the type domain is tiny,
    user ids fit 48 bits) plus a per-type row bincount; partials
    fold via np.unique (``stages.transport.fold``) into a census
    bounded by distinct pairs, never rows.  All-integer — exact SQL
    parity with no rounding rules."""
    types = np.array(_EVENT_TYPES)          # sorted domain

    def partial(t: pa.Table) -> pa.Table:
        ty = np_object(t["event_type"].to_numpy(zero_copy_only=False))
        codes = np.searchsorted(types, ty).astype(np.int64)
        # searchsorted maps out-of-domain values to a NEIGHBOR code —
        # verify membership so unseen types error instead of miscounting
        if not (types[np.minimum(codes, len(types) - 1)] == ty).all():
            bad = np.setdiff1d(np.unique(ty.astype(object)), types)
            raise ValueError(
                f"event_type values outside the known domain: {bad[:5]}")
        users = t["user_id"].to_numpy(zero_copy_only=False)
        comp = np.unique((codes << 48) | users.astype(np.int64))
        cnts = np.bincount(codes, minlength=len(types)).astype(np.int64)
        return comp, cnts

    comp, cnts = fold(
        _t(sf_dir, "events", ["event_type", "user_id"]), partial,
        lambda parts: (merge_unique([p[0] for p in parts]),
                       sum((p[1] for p in parts),
                           np.zeros(len(types), np.int64))))
    n_users = np.bincount((comp >> 48).astype(np.int64),
                          minlength=len(types))
    return pa.table({"event_type": pa.array(list(types)),
                     "n_users": _i64(n_users), "n_events": _i64(cnts)})


@query("running_total_docs", sql="""
SELECT doc_id, source,
       CAST(SUM(n_chars) OVER (PARTITION BY source ORDER BY doc_id)
            AS BIGINT) AS chars_cum,
       CAST(ROW_NUMBER() OVER (PARTITION BY source ORDER BY doc_id)
            AS BIGINT) AS rn
FROM documents""")
def running_total_docs(sf_dir: str):
    """Per-key running (prefix) aggregate — the cursor a corpus-layout
    step keeps while streaming a shard (how many chars/docs have gone
    into the current output file).  Reuses ffill's per-key window;
    int64 cumsum means exact SQL window parity with no float rules."""
    ds = _t(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def run(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("source", sort=False, dropna=False)
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "source": df["source"],
            "chars_cum": g["n_chars"].cumsum().astype(np.int64),
            "rn": (g.cumcount() + 1).astype(np.int64)})

    return _per_key(ds, "source", ["doc_id"], run)


@query("text_roundtrip_nation", sql="""
SELECT n_name AS text FROM nation""")
def text_roundtrip_nation(sf_dir: str):
    """Line-per-row text source (§2.1 widening: the rawest LLM-corpus
    input shape — one document per line in a .txt shard) read through
    io.read_table's read_text path; values must match the
    parquet-backed oracle exactly."""
    import os

    from .. import io as aio

    tag = sf_dir.rstrip("/").replace("/", "_")
    cache_dir = "/tmp/autoprepad_text"
    os.makedirs(cache_dir, exist_ok=True)
    path = f"{cache_dir}/nation_{tag}.txt"
    if not os.path.exists(path):
        import pyarrow.parquet as pq
        names = pq.read_table(f"{sf_dir}/nation.parquet",
                              columns=["n_name"])["n_name"].to_pylist()
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            f.write("\n".join(names) + "\n")
        os.replace(tmp, path)
    return aio.read_table(path)


@query("decontaminate_docs", sql="""
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents),
grams AS (SELECT doc_id, array_to_string(w[i:i+7], ' ') AS g
          FROM toks, UNNEST(generate_series(1, len(w)-7)) AS t(i)),
ev AS (SELECT DISTINCT g FROM grams WHERE doc_id % 97 = 0)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_grams,
       CAST(SUM(CASE WHEN g IN (SELECT g FROM ev) THEN 1 ELSE 0 END)
            AS BIGINT) AS n_hits,
       CAST(MAX(CASE WHEN g IN (SELECT g FROM ev) THEN 1 ELSE 0 END)
            AS BIGINT) AS contaminated
FROM grams GROUP BY doc_id""")
def decontaminate_docs(sf_dir: str):
    """Benchmark decontamination — the test-set-leakage gate every LLM
    training pipeline runs before a corpus ships: flag documents whose
    word-8-grams overlap a small eval set (here the deterministic
    doc_id % 97 == 0 slice standing in for a benchmark suite).  The
    eval grams broadcast ONCE as a sorted uint64 hash array
    (stages/text.eval_gram_set); the corpus scan is a pure
    map_batches with searchsorted membership — zero shuffle, which is
    the only acceptable shape when the corpus is 100 TB and the eval
    side is MBs."""
    from ..stages.text import decontaminate, eval_gram_set

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    def eval_slice(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 97 == 0))

    eval_ds = docs.map_batches(eval_slice, batch_format="pyarrow",
                               zero_copy_batch=True)
    ref = eval_gram_set(eval_ds, n=8)
    return decontaminate(docs, ref, n=8)


@query("word_repetition_docs", sql="""
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents)
SELECT doc_id, CAST(len(w) AS BIGINT) AS n_words,
       CAST(len(list_distinct(w)) AS BIGINT) AS n_distinct,
       CAST(len(w) - len(list_distinct(w)) AS DOUBLE) / len(w) AS dup_ratio
FROM toks""")
def word_repetition_docs(sf_dir: str):
    """Gopher-style repetition quality filter signal: duplicate-word
    fraction per document (the high-dup tail is boilerplate/spam in a
    web corpus).  Exact string-level distinct via two in-block Arrow
    group_bys (stages/text.word_repetition) — a pure map stage, no
    exchange; dup_ratio is one IEEE division of exact ints so SQL
    parity needs no rounding rule."""
    from ..stages.text import word_repetition

    return word_repetition(_t(sf_dir, "documents", ["doc_id", "text"]))


@query("user_event_sequences", sql="""
SELECT user_id, string_agg(event_type, ',' ORDER BY ts, event_id) AS seq,
       CAST(COUNT(*) AS BIGINT) AS n
FROM events GROUP BY user_id""")
def user_event_sequences(sf_dir: str):
    """Ordered per-key sequence assembly — the step that turns an event
    log into training examples (conversation threads, session action
    strings).  Reuses ffill's per-key window: each user's rows meet in
    one slice task, sorted by (ts, event_id), and concatenate — string
    output, so SQL parity is byte-exact with no float rules."""
    ds = _t(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def seq(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("user_id", sort=False, dropna=False)["event_type"] \
            .agg(seq=",".join, n="size").reset_index()
        return g.astype({"n": np.int64})

    return _per_key(ds, "user_id", ["ts", "event_id"], seq)


@query("cube_pricing_levels", sql="""
SELECT CASE WHEN GROUPING(l_returnflag) = 1 THEN 'ALL'
            ELSE l_returnflag END AS l_returnflag,
       CASE WHEN GROUPING(l_linestatus) = 1 THEN 'ALL'
            ELSE l_linestatus END AS l_linestatus,
       CAST(COUNT(*) AS BIGINT) AS n,
       ROUND(SUM(l_quantity), 2) AS sum_qty,
       ROUND(SUM(l_extendedprice), 2) AS sum_price
FROM lineitem GROUP BY CUBE(l_returnflag, l_linestatus)""")
def cube_pricing_levels(sf_dir: str):
    """Full CUBE grouping sets from the SAME single finest-level pass
    as rollup_pricing_levels — the fourth margin (ALL, status) is one
    more driver fold over the handful of finest groups, proving the
    partial-combiner machinery generalizes to any grouping-set
    lattice without re-reading the data.  Float rule as in rollup:
    raw sums fold unrounded, round r2 once at emission."""

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "count"), ("l_quantity", "sum"),
             ("l_extendedprice", "sum")])
        return pa.table({
            "l_returnflag": g["l_returnflag"],
            "l_linestatus": g["l_linestatus"],
            "n": pc.cast(g["l_quantity_count"], pa.int64()),
            "sq": g["l_quantity_sum"], "sp": g["l_extendedprice_sum"]})

    fine = _fold_groups(
        _t(sf_dir, "lineitem", ["l_returnflag", "l_linestatus",
                                "l_quantity", "l_extendedprice"]),
        partial, ["l_returnflag", "l_linestatus"],
        {"n": "sum", "sq": "sum", "sp": "sum"})
    by_flag = fine.groupby("l_returnflag", as_index=False).agg(
        n=("n", "sum"), sq=("sq", "sum"), sp=("sp", "sum"))
    by_flag["l_linestatus"] = "ALL"
    by_status = fine.groupby("l_linestatus", as_index=False).agg(
        n=("n", "sum"), sq=("sq", "sum"), sp=("sp", "sum"))
    by_status["l_returnflag"] = "ALL"
    top = pd.DataFrame({"l_returnflag": ["ALL"], "l_linestatus": ["ALL"],
                        "n": [fine["n"].sum()], "sq": [fine["sq"].sum()],
                        "sp": [fine["sp"].sum()]})
    out = pd.concat([fine, by_flag, by_status, top], ignore_index=True)
    out["sum_qty"] = out.pop("sq").round(2)
    out["sum_price"] = out.pop("sp").round(2)
    return out[["l_returnflag", "l_linestatus", "n",
                "sum_qty", "sum_price"]]


@query("ntile_events_value", sql="""
SELECT event_id,
       CAST(NTILE(8) OVER (ORDER BY value, event_id) AS BIGINT) AS bucket
FROM events WHERE value IS NOT NULL""")
def ntile_events_value(sf_dir: str):
    """NTILE(8) equal-frequency bucketing over a global order — the
    sharding step that balances a training corpus into k equal output
    shards by a sort key.  A total order is inherently ONE
    range-partition sort; everything after is metadata: per-block row
    counts fold on the driver (O(blocks) ints) and bucket assignment
    is an embarrassingly parallel integer formula per block
    (stages/rank.ntile).  Unique (value, event_id) composite makes
    the order — and therefore the buckets — deterministic on any
    block layout; all outputs are ints, so no float rules."""
    from ..stages.rank import ntile

    ds = _t(sf_dir, "events", ["event_id", "value"]).map_batches(
        lambda t: t.drop_null(), batch_format="pyarrow",
        zero_copy_batch=True)
    return ntile(ds, ["value", "event_id"], 8,
                 keep_cols=["event_id"], out_col="bucket")


@query("left_join_customer_orders", sql="""
SELECT c_custkey, c_mktsegment, o_orderkey, o_totalprice
FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey""")
def left_join_customer_orders(sf_dir: str):
    """Left-outer large-large join: every customer row survives,
    null-extended when no order matches — the enrichment join shape
    where dropping unmatched rows would silently shrink the corpus.
    Same ONE-shuffle bucketed co-partition as the inner join
    (stages/join.bucketed_join how='left'); outer semantics cost
    nothing extra because key-hash co-partitioning is complete (a
    left row's matches can only live in its own bucket).  Values are
    copied, never computed, so parity is exact; unmatched int/float
    columns surface as nulls on both engines."""
    from ..stages.join import bucketed_join

    cust = _t(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders_raw = _t(sf_dir, "orders",
                    ["o_custkey", "o_orderkey", "o_totalprice"])
    rsch = pa.schema([("c_custkey", t) if n == "o_custkey" else (n, t)
                      for n, t in zip(orders_raw.schema().names,
                                      orders_raw.schema().types)])
    orders = orders_raw.map_batches(lambda t: t.rename_columns(
        ["c_custkey", "o_orderkey", "o_totalprice"]),
        batch_format="pyarrow")
    return bucketed_join(cust, orders, "c_custkey", how="left",
                         schema_hint=(cust.schema(), rsch))


@query("quota_sample_docs", sql="""
SELECT doc_id, source FROM (
  SELECT doc_id, source,
         ROW_NUMBER() OVER (
             PARTITION BY source
             ORDER BY ((doc_id % 1000003) * 2654435761) % 1048576,
                      doc_id) AS rn
  FROM documents) WHERE rn <= 5""")
def quota_sample_docs(sf_dir: str):
    """Per-domain quota cap (at most 5 docs per source, hash-ordered)
    — the anti-domination step of a web-corpus layout.  Deterministic
    winners via the shared int64 hash rule; every block pre-cuts to
    its own per-key 5 before the shuffle (functions/sampling.
    quota_sample), so the exchange is bounded by blocks x keys x k
    rows.  Pure row selection — exact SQL parity with no float
    rules."""
    from ..functions.sampling import quota_sample

    docs = _t(sf_dir, "documents", ["doc_id", "source"])
    return quota_sample(docs, "doc_id", "source", 5)


@query("label_centroids_embeddings", sql="""
SELECT CAST(label AS BIGINT) AS label,
       CAST(COUNT(*) AS BIGINT) AS n,
       dim,
       ROUND(SUM(CAST(e AS DOUBLE)), 2) / COUNT(*) AS value
FROM (SELECT label, unnest(embedding) AS e,
             CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS dim
      FROM embeddings)
GROUP BY label, dim""")
def label_centroids_embeddings(sf_dir: str):
    """Per-class mean embedding (prototype vectors for
    nearest-centroid labeling / corpus diagnostics).  SQL-exact (r5):
    the stage's raw per-dim SUMS ride along with the centroids, and
    the emitted mean is ROUND(SUM, 2)/COUNT on both sides — the
    file-header float-parity trick (the rounded sum snaps both
    engines' order-sensitive float sums to the same value; the IEEE
    division is then deterministic).  Emitted in long (label, n, dim,
    value) form — scalar columns sort/hash cleanly in any comparison
    harness; the unrounded means stay pinned by the numpy pytest
    oracle (test_dedup_embed)."""
    from ..stages.embed import label_centroids

    wide = label_centroids(_t(sf_dir, "embeddings",
                              ["embedding", "label"]))
    labs = wide["label"].to_numpy()
    ns = wide["n"].to_numpy()
    sums = [np.asarray(c, dtype=np.float64)
            for c in wide["vec_sum"].to_pylist()]
    d = len(sums[0]) if sums else 0
    return pa.table({
        "label": _i64(np.repeat(labs, d)),
        "n": _i64(np.repeat(ns, d)),
        "dim": _i64(np.tile(np.arange(d, dtype=np.int64), len(labs))),
        "value": pa.array(np.round(np.concatenate(sums), 2)
                          / np.repeat(ns, d).astype(np.float64)
                          if sums else np.array([], dtype=np.float64))})


@query("full_outer_user_day_activity", sql="""
WITH a AS (SELECT user_id, CAST(epoch_us(ts) // 86400000000 AS BIGINT)
                  AS day, CAST(COUNT(*) AS BIGINT) AS n_purchase
           FROM events WHERE event_type = 'purchase' GROUP BY 1, 2),
     b AS (SELECT user_id, CAST(epoch_us(ts) // 86400000000 AS BIGINT)
                  AS day, CAST(COUNT(*) AS BIGINT) AS n_error
           FROM events WHERE event_type = 'error' GROUP BY 1, 2)
SELECT COALESCE(a.user_id, b.user_id) AS user_id,
       COALESCE(a.day, b.day) AS day, n_purchase, n_error
FROM a FULL OUTER JOIN b ON a.user_id = b.user_id AND a.day = b.day""")
def full_outer_user_day_activity(sf_dir: str):
    """Full-outer join on a composite key: per-(user, day) purchase
    activity vs error activity — the churn/cohort comparison where
    BOTH one-sided cases carry signal (days with purchases but no
    errors and vice versa must survive null-extended).

    Both join inputs derive from the SAME fact table grouped by the
    same composite key (user_id, epoch_day), so the outer join fuses
    away entirely: one read computes per-block (user_id, day,
    n_purchase, n_error) partials and ONE ``transport.keyed_map`` on
    the two key columns sums them — where the oracle runs two grouped
    scans plus a full-outer exchange, the engine runs one scan and one
    exchange.  The null-extension semantics survive the fusion because
    a group only exists when it has >= 1 purchase-or-error row, so a
    zero count is exactly the oracle's "no row on that side" — the
    slice task maps 0 back to NULL.  Counts are int64; exact parity."""
    day_us = np.int64(86_400_000_000)
    keys = ["user_id", "day"]

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["event_type"],
                              value_set=pa.array(["purchase", "error"])))
        ts = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view(np.int64)
        is_p = pc.equal(t["event_type"], "purchase") \
            .to_numpy(zero_copy_only=False)
        return pa.table({"user_id": t["user_id"],
                         "day": pa.array(ts // day_us),
                         "n_purchase": pa.array(is_p.astype(np.int64)),
                         "n_error": pa.array((~is_p).astype(np.int64))}) \
            .group_by(keys).aggregate([("n_purchase", "sum"),
                                       ("n_error", "sum")])

    def outer(t: pa.Table) -> pa.Table:
        g = t.group_by(keys).aggregate([("n_purchase_sum", "sum"),
                                        ("n_error_sum", "sum")])
        null = pa.scalar(None, pa.int64())
        out = {k: g[k] for k in keys}
        for c in ("n_purchase", "n_error"):
            n = g[f"{c}_sum_sum"]
            out[c] = pc.if_else(pc.equal(n, 0), null, n)
        return pa.table(out)

    return keyed_map(_t(sf_dir, "events", ["user_id", "ts", "event_type"])
                     .map_batches(partial, batch_format="pyarrow",
                                  zero_copy_batch=True), keys, outer)


@query("cross_join_region_nation", sql="""
SELECT r.r_name, n.n_name, n.n_regionkey = r.r_regionkey AS is_home
FROM region r CROSS JOIN nation n""")
def cross_join_region_nation(sf_dir: str):
    """Cross join (small x streaming): the grid-expansion shape (every
    region paired with every nation, e.g. building evaluation grids or
    parameter sweeps).  The small side broadcasts once via ``ray.put``
    and each batch of the streaming side expands in-block with numpy
    repeat/tile — a cross join is only ever sane when one side is
    broadcastable, and then it needs NO shuffle at all.  Pure value
    copies + one integer equality — exact parity."""
    regions = _t(sf_dir, "region", ["r_regionkey", "r_name"]).take_all()
    r_keys = np.array([r["r_regionkey"] for r in regions],
                      dtype=np.int64)
    r_names = np.array([r["r_name"] for r in regions], dtype=object)
    small = ray.put((r_keys, r_names))

    def expand(t: pa.Table) -> pa.Table:
        rk, rn = ray.get(small)
        nk = t["n_regionkey"].to_numpy(zero_copy_only=False)
        nn = np_object(t["n_name"].to_numpy(zero_copy_only=False))
        m, s = len(nk), len(rk)
        return pa.table({
            "r_name": pa.array(np.repeat(rn, m)),
            "n_name": pa.array(np.tile(nn, s)),
            "is_home": pa.array(np.repeat(rk, m) == np.tile(nk, s))})

    return (_t(sf_dir, "nation", ["n_regionkey", "n_name"])
            .map_batches(expand, batch_format="pyarrow",
                         zero_copy_batch=True))


@query("setops_orderkeys_by_flag", sql="""
SELECT l_orderkey,
       CAST(MAX(CASE WHEN l_returnflag = 'A' THEN 1 ELSE 0 END)
            AS BIGINT) AS in_a,
       CAST(MAX(CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END)
            AS BIGINT) AS in_r
FROM lineitem WHERE l_returnflag IN ('A', 'R')
GROUP BY l_orderkey""")
def setops_orderkeys_by_flag(sf_dir: str):
    """Distinct set operations (INTERSECT / EXCEPT in one listing):
    which order keys appear under returnflag A, under R, or both —
    in_a AND in_r is the intersection, in_a AND NOT in_r the
    difference.  Shaped as ONE grouped max over membership flags:
    per-block pyarrow group_by collapses each block to one row per
    key, then ``transport.keyed_fold`` routes the distinct (key, 2
    bits) partials by key hash and folds each slice with one Arrow
    grouped max — the flat-task shuffle moves every partial byte once
    and skips the Ray sort-groupby's flat multi-second exchange; raw
    lineitems never move, which beats materializing two DISTINCT sets
    and joining them (two shuffles) at any scale."""

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["l_returnflag"],
                              value_set=pa.array(["A", "R"])))
        g = pa.table({
            "l_orderkey": t["l_orderkey"],
            "in_a": pc.cast(pc.equal(t["l_returnflag"], "A"), pa.int64()),
            "in_r": pc.cast(pc.equal(t["l_returnflag"], "R"), pa.int64()),
        }).group_by("l_orderkey").aggregate([("in_a", "max"),
                                             ("in_r", "max")])
        return pa.table({"l_orderkey": g["l_orderkey"],
                         "in_a": g["in_a_max"], "in_r": g["in_r_max"]})

    return keyed_fold(
        _t(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"]), partial,
        ["l_orderkey"],
        merge_groups(["l_orderkey"], {"in_a": "max", "in_r": "max"}))


@query("json_extract_events_props", sql="""
SELECT event_id, CAST(json_extract(props, '$.k') AS BIGINT) AS k
FROM events""")
def json_extract_events_props(sf_dir: str):
    """Semi-structured field extraction: pull the integer ``k`` out of
    the JSON ``props`` column — the schema'd-extraction step every
    event-log pipeline runs before analytics.  One vectorized
    ``pc.extract_regex`` kernel per batch (no per-row json.loads;
    full-fidelity JSON belongs in the source reader), null props and
    non-matching rows surface as null k on both engines.  Pure map,
    no shuffle; int64 output, exact parity.

    Parity constraint vs the SQL oracle's top-level-only
    ``json_extract('$.k')``: the regex anchors the key to an object
    boundary (``[{,]``), which matches the fixture's flat
    integer-valued props schema exactly; a NESTED object containing
    "k" or a string value embedding the literal ``"k": 1`` would
    still diverge — regex cannot track JSON depth, so deep extraction
    belongs in a json.loads reader, not this kernel."""

    def ext(t: pa.Table) -> pa.Table:
        s = pc.extract_regex(t["props"].combine_chunks()
                             if isinstance(t["props"], pa.ChunkedArray)
                             else t["props"],
                             pattern='[{,]\\s*"k":\\s*(?P<k>-?\\d+)')
        return pa.table({"event_id": t["event_id"],
                         "k": pc.cast(pc.struct_field(s, "k"),
                                      pa.int64())})

    return _t(sf_dir, "events", ["event_id", "props"]).map_batches(
        ext, batch_format="pyarrow", zero_copy_batch=True)


@query("pii_mask_events_props", sql="""
SELECT event_id,
       regexp_replace(props, '[0-9]+', '<NUM>', 'g') AS masked_props,
       CAST(length(regexp_extract_all(props, '[0-9]+')) AS BIGINT)
           AS n_matches
FROM events""")
def pii_mask_events_props(sf_dir: str):
    """PII-style redaction kernel: mask every occurrence of a
    sensitive pattern in a string column and count the hits — the
    scrubbing pass every training-corpus pipeline runs (emails,
    phones, ids) before release.  Pattern here is digit runs (the only
    PII-shaped content in the fixture; the kernel takes any RE2 —
    pyarrow and DuckDB both compile RE2, which is what makes the
    masked STRINGS exactly SQL-checkable).  Two vectorized Arrow C
    kernels per batch (replace_substring_regex + count_substring_regex),
    pure map, no shuffle; nulls stay null on both sides."""

    def mask(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t["event_id"],
            "masked_props": pc.replace_substring_regex(
                t["props"], pattern="[0-9]+", replacement="<NUM>"),
            "n_matches": pc.cast(pc.count_substring_regex(
                t["props"], pattern="[0-9]+"), pa.int64())})

    return _t(sf_dir, "events", ["event_id", "props"]).map_batches(
        mask, batch_format="pyarrow", zero_copy_batch=True)


@query("bm25_docs", sql="""
WITH d AS (
  SELECT doc_id, string_split(text, ' ') AS w FROM documents),
t AS (
  SELECT doc_id, CAST(len(w) AS BIGINT) AS dl,
         CAST(len(list_filter(w, x -> x = 'merge')) AS DOUBLE) AS tf1,
         CAST(len(list_filter(w, x -> x = 'join')) AS DOUBLE) AS tf2,
         CAST(len(list_filter(w, x -> x = 'sort')) AS DOUBLE) AS tf3
  FROM d),
c AS (
  SELECT COUNT(*) AS n, SUM(dl) AS total,
         SUM(CASE WHEN tf1 > 0 THEN 1 ELSE 0 END) AS df1,
         SUM(CASE WHEN tf2 > 0 THEN 1 ELSE 0 END) AS df2,
         SUM(CASE WHEN tf3 > 0 THEN 1 ELSE 0 END) AS df3
  FROM t),
s AS (
  SELECT total / n AS avgdl,
         ln(1.0 + (n - df1 + 0.5) / (df1 + 0.5)) AS idf1,
         ln(1.0 + (n - df2 + 0.5) / (df2 + 0.5)) AS idf2,
         ln(1.0 + (n - df3 + 0.5) / (df3 + 0.5)) AS idf3
  FROM c)
SELECT t.doc_id,
  ROUND(idf1 * tf1 * (1.2 + 1.0)
            / (tf1 + 1.2 * (1.0 - 0.75 + 0.75 * t.dl / avgdl))
      + idf2 * tf2 * (1.2 + 1.0)
            / (tf2 + 1.2 * (1.0 - 0.75 + 0.75 * t.dl / avgdl))
      + idf3 * tf3 * (1.2 + 1.0)
            / (tf3 + 1.2 * (1.0 - 0.75 + 0.75 * t.dl / avgdl)), 6)
      AS bm25
FROM t, s""")
def bm25_docs(sf_dir: str):
    """BM25 relevance of every document against a fixed query — the
    retrieval ranker beside the TF-IDF and cosine families.  Corpus
    stats (N, avgdl, per-term df) fold from per-block int payloads;
    scoring is a broadcast-state map.  SQL-exact (r5): the oracle
    mirrors the engine's arithmetic ORDER term by term (same
    left-associativity, (1.2 + 1.0) spelled as the same float
    expression, per-value DOUBLE casts), so every op is deterministic
    IEEE except ln() — numpy's and DuckDB's ln agree to the last ulp
    on these inputs and the r6 round absorbs any residue (verified
    value-exact at sf 0.001/0.01/0.1); the pure-numpy pytest oracle
    (test_textops) still pins the unrounded math at 1e-9."""
    from ..stages.text import bm25_scores

    return bm25_scores(_t(sf_dir, "documents", ["doc_id", "text"]),
                       ["merge", "join", "sort"])


@query("session_stats_events", sql="""
WITH s AS (
  SELECT user_id, ts, event_id,
         CAST(SUM(new_sess) OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id
                                  ROWS BETWEEN UNBOUNDED PRECEDING
                                           AND CURRENT ROW)
              AS BIGINT) AS session_id
  FROM (SELECT event_id, user_id, ts,
               CASE WHEN ts - LAG(ts) OVER (PARTITION BY user_id
                                            ORDER BY ts, event_id)
                         <= INTERVAL 1 HOUR THEN 0 ELSE 1 END AS new_sess
        FROM events))
SELECT user_id, session_id, CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(epoch_us(MAX(ts)) - epoch_us(MIN(ts)) AS BIGINT)
           AS duration_us
FROM s GROUP BY user_id, session_id""")
def session_stats_events(sf_dir: str):
    """Per-session aggregates (event count + duration) on top of the
    gap-based sessionization — the session-level rollup every
    engagement/behavior pipeline derives from a raw event log.  One
    per-key window does sessionize AND aggregate in the same slice
    visit (no second exchange: session boundaries are a per-user
    fact).  All int64 (us subtraction) — exact parity."""
    ds = _t(sf_dir, "events", ["event_id", "user_id", "ts"])
    gap = np.timedelta64(1, "h")

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        agg = pd.DataFrame({
            "user_id": df["user_id"],
            "session_id": _session_ids(df, gap),
            "ts_us": df["ts"].to_numpy().astype("datetime64[us]")
            .view(np.int64)}) \
            .groupby(["user_id", "session_id"], sort=False, dropna=False,
                     as_index=False) \
            .agg(n_events=("ts_us", "size"), lo=("ts_us", "min"),
                 hi=("ts_us", "max"))
        return pd.DataFrame({
            "user_id": agg["user_id"].astype(np.int64),
            "session_id": agg["session_id"].astype(np.int64),
            "n_events": agg["n_events"].astype(np.int64),
            "duration_us": (agg["hi"] - agg["lo"]).astype(np.int64)})

    return _per_key(ds, "user_id", ["ts", "event_id"], stats)


@query("cohort_retention_events", sql="""
WITH f AS (SELECT user_id, CAST(epoch_us(ts) // 86400000000 AS BIGINT)
                  AS day FROM events),
     c AS (SELECT user_id, MIN(day) AS cohort FROM f GROUP BY user_id)
SELECT c.cohort, f.day, CAST(COUNT(DISTINCT f.user_id) AS BIGINT)
           AS n_users
FROM f JOIN c USING (user_id) GROUP BY 1, 2""")
def cohort_retention_events(sf_dir: str):
    """Cohort retention matrix: users grouped by their first-active
    day, counted on every later active day — the engagement table
    behind every retention curve.  Rides the deduped-pair census
    shape (sliding_distinct_users_7d): per-block np.unique over
    packed (user << 20 | day) composites + the census fold dedupe
    the (user, day) pairs WITHOUT a row shuffle; the sorted packed
    array then yields every user's cohort (first day of its run) and
    the (cohort, day) counts in four vectorized ops.  The pair set is
    bounded by |user base| x horizon days — independent of event row
    count — so the driver fold is scale-safe (no groupby(user)
    exchange, no per-user Python).  Day arithmetic is int64 floor
    division — exact."""
    ds = _t(sf_dir, "events", ["user_id", "ts"])
    day_us = np.int64(86_400_000_000)
    shift = np.int64(1 << 20)                   # epoch day < 2^20

    def pack(t: pa.Table) -> np.ndarray:
        ts = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view(np.int64)
        day = ts // day_us
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(uid) and (uid.min() < 0 or uid.max() >= 1 << 43
                         or day.min() < 0 or day.max() >= shift):
            raise ValueError("user_id/day outside the (user << 20 | "
                             "day) packing range")
        return uid * shift + day

    packed = _packed_pair_census(ds, pack)
    if not len(packed):
        return pd.DataFrame({"cohort": pd.Series([], dtype=np.int64),
                             "day": pd.Series([], dtype=np.int64),
                             "n_users": pd.Series([], dtype=np.int64)})
    uid = packed // shift
    day = packed % shift
    first = np.r_[True, uid[1:] != uid[:-1]]
    # broadcast each user-run's first (= minimum) day across the run
    idx = np.arange(len(uid))
    cohort = day[np.maximum.accumulate(np.where(first, idx, 0))]
    key, n = np.unique(cohort * shift + day, return_counts=True)
    return pd.DataFrame({"cohort": (key // shift).astype(np.int64),
                         "day": (key % shift).astype(np.int64),
                         "n_users": n.astype(np.int64)})


@query("funnel_stages_events", sql="""
WITH v AS (SELECT user_id, MIN(ts) AS t1 FROM events
           WHERE event_type = 'view' GROUP BY user_id),
     c AS (SELECT e.user_id, MIN(e.ts) AS t2 FROM events e
           JOIN v ON v.user_id = e.user_id
           WHERE e.event_type = 'click' AND e.ts > v.t1
           GROUP BY e.user_id),
     p AS (SELECT e.user_id, MIN(e.ts) AS t3 FROM events e
           JOIN c ON c.user_id = e.user_id
           WHERE e.event_type = 'purchase' AND e.ts > c.t2
           GROUP BY e.user_id)
SELECT u.user_id,
       CAST(CASE WHEN p.user_id IS NOT NULL THEN 3
                 WHEN c.user_id IS NOT NULL THEN 2
                 WHEN v.user_id IS NOT NULL THEN 1
                 ELSE 0 END AS BIGINT) AS stage
FROM (SELECT DISTINCT user_id FROM events) u
LEFT JOIN v ON v.user_id = u.user_id
LEFT JOIN c ON c.user_id = u.user_id
LEFT JOIN p ON p.user_id = u.user_id""")
def funnel_stages_events(sf_dir: str):
    """Ordered funnel analysis: the furthest view -> click -> purchase
    stage each user reaches, each step strictly AFTER the previous
    one.  The funnel is a per-user sequential fact, so ONE per-key
    window computes the whole chain: per step, each user still in the
    funnel takes the earliest matching event after its previous step
    (one ``np.minimum.at`` over the slice's users) — where the SQL
    oracle needs three self-joins, the engine needs zero extra
    exchanges.  Int output, exact parity."""
    ds = _t(sf_dir, "events", ["event_id", "user_id", "ts",
                               "event_type"])
    never = np.iinfo(np.int64).max

    def stage(df: pd.DataFrame) -> pd.DataFrame:
        code, users = pd.factorize(df["user_id"], use_na_sentinel=False)
        ts = df["ts"].to_numpy().astype("datetime64[us]").view(np.int64)
        ty = df["event_type"].to_numpy()
        cur = np.full(len(users), -np.int64(2**62))
        alive = np.ones(len(users), dtype=bool)
        st = np.zeros(len(users), dtype=np.int64)
        for step, name in enumerate(["view", "click", "purchase"]):
            m = (ty == name) & (ts > cur[code]) & alive[code]
            first = np.full(len(users), never)
            np.minimum.at(first, code[m], ts[m])
            alive &= first < never
            st[alive] = step + 1
            cur = np.where(alive, first, cur)
        return pd.DataFrame({"user_id": np.asarray(users, dtype=np.int64),
                             "stage": st})

    return _per_key(ds, "user_id", [], stage)


@query("event_transition_counts", sql="""
WITH o AS (SELECT user_id, event_type,
                  LAG(event_type) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) AS prev
           FROM events)
SELECT prev, event_type AS next, CAST(COUNT(*) AS BIGINT) AS n
FROM o WHERE prev IS NOT NULL GROUP BY prev, next""")
def event_transition_counts(sf_dir: str):
    """Markov transition counts over per-user event sequences (the
    behavior-model / sequence-prior table).  Rides the ordered scan
    (stages/transport.scan) with a summary step only: ONE global sort
    by (user, ts, event_id) is the only exchange; each sorted block
    counts its in-block bigrams vectorized (a same-user mask over
    adjacent rows, never per-user Python) and reports its first/last
    (user, type) scalars; the driver folds the <= types^2-key censuses
    and adds one boundary bigram per adjacent block pair whose runs
    share a user.  Int counts — exact parity."""
    from ..stages.transport import scan

    def census(t: pa.Table):
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ty = np_object(t["event_type"].to_numpy(zero_copy_only=False))
        mask = uid[1:] == uid[:-1]
        counts = (pd.DataFrame({"prev": ty[:-1][mask], "next": ty[1:][mask]})
                  .groupby(["prev", "next"], as_index=False).size())
        ends = (int(uid[0]), ty[0], int(uid[-1]), ty[-1]) if len(uid) \
            else (None,) * 4
        return counts, *ends

    def fold(parts: list) -> pd.DataFrame:
        frames = [p[0] for p in parts]
        # one boundary bigram per adjacent block pair within a user run
        bounds = [(p[4], q[2]) for p, q in zip(parts[:-1], parts[1:])
                  if p[3] == q[1]]
        if bounds:
            frames.append(pd.DataFrame(bounds, columns=["prev", "next"])
                          .assign(size=np.int64(1)))
        df = (pd.concat(frames, ignore_index=True)
              .groupby(["prev", "next"], as_index=False)
              .agg(n=("size", "sum")))
        return pd.DataFrame({"prev": df["prev"], "next": df["next"],
                             "n": df["n"].astype(np.int64)})

    return scan(_t(sf_dir, "events", ["event_id", "user_id", "ts",
                                      "event_type"]),
                ["user_id", "ts", "event_id"], census, fold, None)


@query("hll_distinct_users_per_day")
def hll_distinct_users_per_day(sf_dir: str):
    """Approximate distinct users per day (HyperLogLog per group) —
    the sketch-per-key shape for cardinality dashboards over 10^12
    rows, where the exact per-group census
    (group_distinct_users_events) stops fitting.  Sparse (group, idx,
    rho) triples per block, one keyed fold.  Rows-only: approximate
    by construction; pytest bounds each day's estimate against the
    exact count (test_hll_per_group)."""
    from ..validators.uniqueness import hll_distinct_per_group

    ds = _t(sf_dir, "events", ["user_id", "ts"])
    day_us = np.int64(86_400_000_000)

    def add_day(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view(np.int64)
        return pa.table({"day": pa.array(ts // day_us),
                         "user_id": t["user_id"]})

    days = ds.map_batches(add_day, batch_format="pyarrow",
                          zero_copy_batch=True)
    return hll_distinct_per_group(days, "day", "user_id")


@query("config_validate_events", sql=f"""
WITH {_EVENTS_FENCE_SQL},
tot AS (SELECT COUNT(event_type) AS n FROM events),
dom AS (SELECT event_type FROM events, tot GROUP BY event_type, tot.n
        HAVING COUNT(*) / CAST(tot.n AS DOUBLE) >= 0.2),
f AS (SELECT event_id, event_type,
        CAST(CASE WHEN value < q.q1 - 1.5*(q.q3-q.q1)
                    OR value > q.q3 + 1.5*(q.q3-q.q1) THEN 1 ELSE 0 END
             AS BIGINT) AS value_tukey,
        CAST(CASE WHEN d.mad > 0
                    AND abs(0.6745 * (value - m.med) / d.mad) > 3.5
             THEN 1 ELSE 0 END AS BIGINT) AS value_z_mod
      FROM events, q, m, d),
g AS (SELECT f.*,
        CAST(CASE WHEN event_type IN (SELECT event_type FROM dom)
             THEN 0 ELSE 1 END AS BIGINT) AS event_type_domain
      FROM f),
s AS (SELECT quantile_cont(value_tukey + value_z_mod, 0.9) AS thr FROM g)
SELECT event_id, value_tukey, value_z_mod, event_type_domain,
       value_tukey + value_z_mod + event_type_domain AS n_evidence,
       CAST(CASE WHEN value_tukey + value_z_mod > s.thr THEN 1 ELSE 0 END
            AS BIGINT) AS anomaly_label
FROM g, s""")
def config_validate_events(sf_dir: str):
    """The declarative config facade (SURVEY §2.10; reference
    constructor surface control.py:89-107) driven end-to-end from ONE
    dict: numeric Tukey/MAD evidence + nominal domain check + OR-merge
    total + percentile anomaly label, all assembled by
    ``config.run_config``.  domain_min_frac=0.2 sits inside the
    event_type frequency spread (~0.188-0.21) so the domain branch
    genuinely fires; every output is int64 -> exact SQL parity (the
    percentile threshold is the quantile_cont == ValueCounts.quantile
    rule)."""
    from ..config import run_config

    ds = _t(sf_dir, "events", ["event_id", "value", "event_type"])
    res = run_config(ds, {"numeric_columns": ["value"],
                          "nominal_columns": ["event_type"],
                          "thresholds": {"domain_min_frac": 0.2}})

    def emit(t: pa.Table) -> pa.Table:
        tuk = t["value" + rc.TUKEY_SUFFIX].cast(pa.int64())
        mad = t["value" + rc.MADZ_SUFFIX].cast(pa.int64())
        return pa.table({
            "event_id": t["event_id"],
            "value_tukey": tuk,
            "value_z_mod": mad,
            "event_type_domain": t["event_type_DOMAIN"].cast(pa.int64()),
            "n_evidence": t["n_evidence"].cast(pa.int64()),
            "anomaly_label": t[rc.LABEL_COL].cast(pa.int64())})

    return res.enriched.map_batches(emit, batch_format="pyarrow",
                                    zero_copy_batch=True)


@query("pattern_branch_orders", sql="""
WITH pat AS (
  SELECT o_orderkey,
         '0b0' || replace(replace(replace(replace(
             regexp_replace(regexp_replace(regexp_replace(regexp_replace(
                 o_orderpriority, '[A-Z]', 'A', 'g'), '[a-z]', 'a', 'g'),
                 '[0-9]', '9', 'g'), '[^Aa9]', '#', 'g'),
             'A', '00'), 'a', '01'), '9', '10'), '#', '11') AS pattern,
         CAST(len(o_orderpriority) AS BIGINT) AS plen
  FROM orders),
m AS (SELECT v, CAST(ROW_NUMBER() OVER (ORDER BY v) - 1 AS BIGINT) AS code
      FROM (SELECT DISTINCT pattern AS v FROM pat))
SELECT p.o_orderkey, p.pattern, p.plen, m.code AS pattern_code,
       CAST(m.code % 2 AS BIGINT) AS bit0,
       CAST((m.code // 2) % 2 AS BIGINT) AS bit1
FROM pat p JOIN m ON p.pattern = m.v""")
def pattern_branch_orders(sf_dir: str):
    """The reference's composed pattern-recognition branch
    (configuration.py:378-462, opt-in via
    deactivate_pattern_recognition=False): schema-copy M4 -> mode-impute
    F2 -> CategoricalPatterns 2-bit encoding M9 -> BinaryEncoder F11,
    run as ONE preprocess_table pattern column over o_orderpriority.
    The SQL mirrors the exact '0b0' + 2-bit rendering with a
    shape-alphabet regexp chain followed by literal 2-bit expansion
    (each replace only introduces 0/1 chars, which no later pattern
    matches); the 5 priority values collapse to 4 distinct patterns ->
    k=4 -> 2 stable bit columns at every sf.  All columns are
    strings/ints — exact parity."""
    from ..pipelines.preprocess import preprocess_table

    ds = _t(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    out, state = preprocess_table(ds, pattern_cols=("o_orderpriority",),
                                  passthrough_cols=("o_orderkey",))
    assert state["pattern_k"]["o_orderpriority"] == 4

    def emit(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "pattern": t["o_orderpriority_PATTERN"],
            "plen": t["o_orderpriority_len"],
            "pattern_code": t["o_orderpriority_pattern_code"],
            "bit0": t["o_orderpriority_pattern_bit0"],
            "bit1": t["o_orderpriority_pattern_bit1"]})

    return out.map_batches(emit, batch_format="pyarrow",
                           zero_copy_batch=True)


@query("bpe_token_counts_docs", sql=r"""
SELECT doc_id,
       CAST(len(regexp_extract_all(COALESCE(text, ''),
           '''(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+|\s+'))
           AS BIGINT) AS n_tokens,
       CAST(len(COALESCE(text, '')) AS BIGINT) AS n_chars
FROM documents""")
def bpe_token_counts_docs(sf_dir: str):
    """Token counting under a BPE-ish pretokenizer regex (the SURVEY
    beyond-reference text-analysis item): both sides compile the SAME
    RE2 pattern (pyarrow count_substring_regex vs DuckDB
    regexp_extract_all), so non-overlapping match counts agree by
    construction — exact int parity."""
    from ..stages.text import bpe_token_counts

    return bpe_token_counts(_t(sf_dir, "documents", ["doc_id", "text"]))


@query("chunk_documents_overlap", sql="""
WITH g AS (
  SELECT doc_id, COALESCE(text, '') AS t,
         unnest(generate_series(
             0, (greatest(len(COALESCE(text, '')) - 50, 1) - 1) // 150))
             AS gs
  FROM documents)
SELECT doc_id, CAST(gs AS BIGINT) AS chunk_id,
       substr(t, CAST(gs AS BIGINT) * 150 + 1, 200) AS chunk
FROM g""")
def chunk_documents_overlap(sf_dir: str):
    """Fixed-size overlapping context chunking (size 200, step 150 ->
    50-char overlap) — the flat_map-shaped RAG/packing precursor.
    Chunk k = chars [k*150, k*150+200); a doc emits
    ceil(max(len-50, 1)/150) chunks.  ASCII corpus => Arrow codeunit
    slices == SQL substr chars; exact string parity."""
    from ..stages.text import chunk_documents

    return chunk_documents(_t(sf_dir, "documents", ["doc_id", "text"]),
                           size=200, step=150)


@query("embed_dedup_clusters")
def embed_dedup_clusters(sf_dir: str):
    """Embedding-cosine dedup CLUSTERS — the pairs->components->
    canonical composition for the THIRD near-dup modality (minhash and
    phash already have it): sign-LSH cosine pairs over the planted
    near-duplicate corpus (embed_neardup_planted's fixture) feed
    ``connected_components`` + ``attach_clusters``, labeling every
    vector with its transitive cluster and flagging the minimum id
    canonical.  Rows-only; pytest pins the planted components
    (test_dedup_embed)."""
    from ..stages.embed import cosine_neardup_pairs
    from ..stages.graph import attach_clusters, connected_components

    ds = _t(sf_dir, "embeddings", ["vec_id", "embedding"])
    base = ds.map_batches(
        lambda t: t.filter(pc.less(t["vec_id"], 10)),
        batch_format="pyarrow").take_all()
    rng = np.random.default_rng(123)
    ids, vecs = [], []
    for r in base:
        v = np.asarray(r["embedding"], dtype=np.float32)
        ids.append(int(r["vec_id"]) + 100000)
        vecs.append((v + 0.02 * np.linalg.norm(v) / np.sqrt(len(v))
                     * rng.standard_normal(len(v))).astype(np.float32))
    planted = rd.from_arrow(pa.table({
        "vec_id": pa.array(ids, type=pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              type=pa.list_(pa.float32()))}))
    both = ds.union(planted).materialize()   # consumed by pairs + attach
    pairs = cosine_neardup_pairs(both, "embedding", "vec_id",
                                 threshold=0.95)
    cc = connected_components(
        pa.table({"src": pa.array(pairs["id_a"].to_numpy(np.int64)),
                  "dst": pa.array(pairs["id_b"].to_numpy(np.int64))}),
        "src", "dst")
    out = attach_clusters(both.select_columns(["vec_id"]), "vec_id", cc)
    return out.map_batches(
        lambda df: df.assign(is_canonical=df["is_canonical"]
                             .astype(np.int64))
        .sort_values("vec_id").reset_index(drop=True),
        batch_format="pandas")


@query("kmedoid_pattern_similarity_parts")
def kmedoid_pattern_similarity_parts(sf_dir: str):
    """F15 KMedianEstimator (reference estimator/KMedian.py:20-66):
    k-medoids over per-column pattern features, scoring each row with
    its distance to the nearest medoid (the "ClusterSimilarity" measure
    the reference's unfinished ``transform`` intended, KMedian.py:50).
    Features are the M9-style char-class census of ``p_name`` (length /
    word count / vowel count via RE2 ``count_substring_regex`` — fully
    vectorized).  CLARA fit: deterministic hash-ordered samples, PAM
    per chunk, ONE distributed pass scores all candidate medoid sets.
    The feature stream is narrow (id + 3 float64) so materializing it
    for the fit's 3 executions is cheap relative to re-reading text.
    Rows-only (PAM is not SQL-expressible); pytest pins the distributed
    fit against a pure-numpy replica (tests/test_cluster.py)."""
    from ..stages.cluster import assign_medoids, kmedoids_fit

    ds = _t(sf_dir, "part", ["p_partkey", "p_name"])

    def feats(t: pa.Table) -> pa.Table:
        s = t["p_name"]
        if isinstance(s, pa.ChunkedArray):
            s = s.combine_chunks()
        return pa.table({
            "p_partkey": t["p_partkey"],
            "f_len": pc.cast(pc.utf8_length(s), pa.float64()),
            "f_words": pc.cast(pc.count_substring_regex(s, " "),
                               pa.float64()),
            "f_vowel": pc.cast(pc.count_substring_regex(s, "[aeiou]"),
                               pa.float64())})

    fds = ds.map_batches(feats, batch_format="pyarrow").materialize()
    cols = ["f_len", "f_words", "f_vowel"]
    state = kmedoids_fit(fds, cols, "p_partkey", k=3,
                         sample_size=128, n_samples=3)

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "p_partkey": t["p_partkey"],
            "cluster": t["cluster"],
            "sim_dist": pa.array(np.round(
                t["medoid_dist"].to_numpy(zero_copy_only=False), 6))})

    return assign_medoids(fds, state).map_batches(
        finalize, batch_format="pyarrow")


@query("gopher_quality_docs", sql="""
WITH d AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents),
t AS (SELECT doc_id,
        CAST(len(w) AS BIGINT) AS n_words,
        CAST(list_sum(list_transform(w, x -> len(x))) AS BIGINT)
            AS sum_word_len,
        CAST(len(list_filter(w, x -> regexp_matches(x, '[A-Za-z]')))
            AS BIGINT) AS alpha_words,
        CAST(len(list_filter(w, x -> x IN ('the','a','of','and','to')))
            AS BIGINT) AS stop_hits
      FROM d)
SELECT doc_id, n_words, sum_word_len, alpha_words, stop_hits,
       CAST(CASE WHEN n_words BETWEEN 10 AND 100000
                  AND sum_word_len BETWEEN 3 * n_words AND 10 * n_words
                  AND 10 * alpha_words >= 8 * n_words
                  AND stop_hits >= 2 THEN 1 ELSE 0 END AS BIGINT)
           AS keep_flag
FROM t""")
def gopher_quality_docs(sf_dir: str):
    """Gopher-rules composite keep/drop gate (word-count window,
    mean-word-length window as cross-multiplied integer bounds,
    alphabetic-word fraction >= 0.8, >= 2 stopword hits) — all-integer
    components, so the flag is SQL-exact with no float rules.  See
    stages/text.gopher_quality."""
    from ..stages.text import gopher_quality

    return gopher_quality(_t(sf_dir, "documents", ["doc_id", "text"]))


@query("unigram_logprob_docs", sql="""
WITH d AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents),
v AS (SELECT unnest(w) AS term FROM d),
cf AS (SELECT term, COUNT(*) AS c FROM v GROUP BY term),
tot AS (SELECT SUM(c) AS total FROM cf),
m AS (SELECT MAP(list(term ORDER BY term),
                 list(ln(CAST(c AS DOUBLE) / CAST(total AS DOUBLE))
                      ORDER BY term)) AS lp FROM cf, tot)
SELECT d.doc_id,
       ROUND(list_sum(list_transform(d.w, x -> m.lp[x][1])) / len(d.w), 6)
           AS logprob
FROM d, m""")
def unigram_logprob_docs(sf_dir: str):
    """Per-document mean unigram-LM log-probability (perplexity-filter
    score).  ORDER-exact float parity: the engine's sequential
    ``np.add.reduceat`` in document word order mirrors DuckDB's
    ``list_sum`` fold over the same per-term doubles (one IEEE divide
    + ln), r6 absorbs the ln ulp — verified bit-exact at
    sf 0.001/0.01/0.1 before wiring.  See stages/text.unigram_logprob."""
    from ..stages.text import unigram_logprob

    return unigram_logprob(_t(sf_dir, "documents", ["doc_id", "text"]))


@query("bigram_repetition_docs", sql="""
WITH d AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents),
g AS (SELECT doc_id,
             CASE WHEN len(w) >= 2 THEN
               list_transform(range(1, len(w)), i -> w[i] || ' ' || w[i+1])
             ELSE [] END AS grams
      FROM d)
SELECT doc_id,
       CAST(len(grams) AS BIGINT) AS n_grams,
       CAST(len(list_distinct(grams)) AS BIGINT) AS n_distinct,
       CAST(len(grams) - len(list_distinct(grams)) AS DOUBLE)
           / CASE WHEN len(grams) = 0 THEN 1 ELSE len(grams) END AS dup_ratio
FROM g""")
def bigram_repetition_docs(sf_dir: str):
    """Gopher duplicate-bigram fraction (the n=2 member of the
    duplicate-n-gram rule family; word_repetition_docs is n=1) —
    exact-string in-block distinct, one int division.  See
    stages/text.ngram_repetition."""
    from ..stages.text import ngram_repetition

    return ngram_repetition(_t(sf_dir, "documents", ["doc_id", "text"]),
                            n=2)


@query("source_mixture_weights", sql="""
WITH s AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
                  CAST(SUM(len(string_split(text, ' '))) AS BIGINT)
                      AS n_words
           FROM documents GROUP BY source),
tot AS (SELECT list_sum(list_transform(list(n_words ORDER BY source),
                        x -> sqrt(CAST(x AS DOUBLE)))) AS z FROM s)
SELECT source, n_docs, n_words,
       ROUND(sqrt(CAST(n_words AS DOUBLE)) / z, 6) AS weight
FROM s, tot""")
def source_mixture_weights_q(sf_dir: str):
    """Sqrt-temperature source sampling weights for corpus mixing —
    integer partials folded by transport.fold, sqrt (correctly-rounded
    IEEE) + sorted-order sequential normalizer mirrors the oracle's list_sum
    fold; bit-exact at sf 0.001/0.01/0.1.  See
    stages/text.source_mixture_weights."""
    from ..stages.text import source_mixture_weights

    return source_mixture_weights(
        _t(sf_dir, "documents", ["text", "source"]))


@query("token_drift_sources", sql="""
WITH d AS (SELECT source, unnest(string_split(text, ' ')) AS term
           FROM documents),
sc AS (SELECT source, term, CAST(COUNT(*) AS BIGINT) AS c FROM d
       GROUP BY source, term),
st AS (SELECT source, CAST(SUM(c) AS BIGINT) AS tot FROM sc
       GROUP BY source),
gc AS (SELECT term, CAST(SUM(c) AS BIGINT) AS c FROM sc GROUP BY term),
gt AS (SELECT CAST(SUM(c) AS BIGINT) AS tot FROM gc),
grid AS (SELECT st.source, gc.term, COALESCE(sc.c, 0) AS sc_c,
                st.tot AS s_tot, gc.c AS g_c, gt.tot AS g_tot
         FROM st CROSS JOIN gc CROSS JOIN gt
         LEFT JOIN sc ON sc.source = st.source AND sc.term = gc.term),
lists AS (SELECT source,
                 list(abs(CAST(sc_c AS DOUBLE) / CAST(s_tot AS DOUBLE)
                          - CAST(g_c AS DOUBLE) / CAST(g_tot AS DOUBLE))
                      ORDER BY term) AS al
          FROM grid GROUP BY source)
SELECT source, ROUND(0.5 * list_sum(al), 6) AS tvd FROM lists""")
def token_drift_sources(sf_dir: str):
    """Per-source unigram-distribution drift (total-variation distance
    vs the corpus) — the text-side drift check beside PSI/KS.  Integer
    partials + transport.fold; per-term doubles are exact divisions and
    the term-sorted sequential sum mirrors the oracle's list_sum fold
    (bit-exact at sf 0.001/0.01/0.1).  See
    stages/text.token_drift_by_source."""
    from ..stages.text import token_drift_by_source

    return token_drift_by_source(
        _t(sf_dir, "documents", ["text", "source"]))


@query("dup_doc_ratio_by_source", sql="""
WITH f AS (SELECT source, md5(text) AS fp FROM documents),
c AS (SELECT fp, COUNT(*) AS n FROM f GROUP BY fp)
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(CASE WHEN c.n > 1 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_dup_docs,
       CAST(SUM(CASE WHEN c.n > 1 THEN 1 ELSE 0 END) AS DOUBLE)
           / COUNT(*) AS dup_ratio
FROM f JOIN c USING (fp) GROUP BY source""")
def dup_doc_ratio_by_source_q(sf_dir: str):
    """Exact-duplicate document share per source (dedup-audit rollup) —
    census-pruned candidate collection + exact md5 verification, int
    counts + one division.  See stages/text.dup_doc_ratio_by_source."""
    from ..stages.text import dup_doc_ratio_by_source

    return dup_doc_ratio_by_source(
        _t(sf_dir, "documents", ["text", "source"]))


@query("vocab_jaccard_source_pairs", sql="""
WITH d AS (SELECT DISTINCT source, unnest(string_split(text, ' ')) AS term
           FROM documents),
sizes AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS v FROM d
          GROUP BY source),
inter AS (SELECT da.source AS sa, db.source AS sb,
                 CAST(COUNT(*) AS BIGINT) AS i
          FROM d da JOIN d db
            ON da.term = db.term AND da.source < db.source
          GROUP BY sa, sb),
pairs AS (SELECT a.source AS source_a, b.source AS source_b
          FROM sizes a, sizes b WHERE a.source < b.source)
SELECT p.source_a, p.source_b,
       CAST(COALESCE(i.i, 0) AS BIGINT) AS n_inter,
       CAST(za.v + zb.v - COALESCE(i.i, 0) AS BIGINT) AS n_union,
       CAST(COALESCE(i.i, 0) AS DOUBLE)
           / (za.v + zb.v - COALESCE(i.i, 0)) AS jaccard
FROM pairs p
LEFT JOIN inter i ON i.sa = p.source_a AND i.sb = p.source_b
JOIN sizes za ON za.source = p.source_a
JOIN sizes zb ON zb.source = p.source_b""")
def vocab_jaccard_source_pairs_q(sf_dir: str):
    """Pairwise source vocabulary Jaccard (corpus-composition
    diagnostic) — distinct (source, term) partials + driver boolean
    matmul; exact ints, one division.  See
    stages/text.vocab_jaccard_source_pairs."""
    from ..stages.text import vocab_jaccard_source_pairs

    return vocab_jaccard_source_pairs(
        _t(sf_dir, "documents", ["text", "source"]))


@query("token_budget_resample_sources", sql="""
WITH s AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
                  CAST(SUM(len(string_split(text, ' '))) AS BIGINT)
                      AS n_words
           FROM documents GROUP BY source),
t AS (SELECT CAST(SUM(n_words) AS BIGINT) AS tw,
             CAST(COUNT(*) AS BIGINT) AS ns FROM s),
r AS (SELECT source, n_docs, n_words,
             LEAST(1000, (t.tw * 1000) // (2 * t.ns * n_words)) AS cut
      FROM s, t),
k AS (SELECT d.source, CAST(COUNT(*) AS BIGINT) AS n_kept,
             CAST(SUM(len(string_split(d.text, ' '))) AS BIGINT)
                 AS words_kept
      FROM documents d JOIN r USING (source)
      WHERE ((d.doc_id % 1000003) * 2654435761) % 1000 < r.cut
      GROUP BY d.source)
SELECT r.source, r.n_docs, r.n_words, CAST(r.cut AS BIGINT) AS cut,
       CAST(COALESCE(k.n_kept, 0) AS BIGINT) AS n_kept,
       CAST(COALESCE(k.words_kept, 0) AS BIGINT) AS words_kept
FROM r LEFT JOIN k USING (source)""")
def token_budget_resample_sources(sf_dir: str):
    """Token-budgeted corpus resampling rollup (thin each source toward
    half the mean source's tokens): integer floor-division bucket cuts
    + the stateless split hash — all-integer, SQL-exact.  See
    stages/text.token_budget_resample."""
    from ..stages.text import token_budget_resample

    return token_budget_resample(
        _t(sf_dir, "documents", ["doc_id", "text", "source"]))


@query("corpus_assembly_funnel", sql="""
WITH d AS (SELECT doc_id, source, string_split(text, ' ') AS w,
                  md5(text) AS fp FROM documents),
q AS (SELECT doc_id, source, fp, CAST(len(w) AS BIGINT) AS nw,
        CASE WHEN len(w) BETWEEN 10 AND 100000
              AND list_sum(list_transform(w, x -> len(x)))
                  BETWEEN 3 * len(w) AND 10 * len(w)
              AND 10 * len(list_filter(w,
                      x -> regexp_matches(x, '[A-Za-z]'))) >= 8 * len(w)
              AND len(list_filter(w,
                      x -> x IN ('the','a','of','and','to'))) >= 2
        THEN 1 ELSE 0 END AS keep
      FROM d),
raw AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n_raw FROM q
        GROUP BY source),
qs AS (SELECT * FROM q WHERE keep = 1),
qq AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n_quality FROM qs
       GROUP BY source),
ds2 AS (SELECT * FROM (SELECT *, MIN(doc_id) OVER (PARTITION BY fp)
                              AS mid FROM qs)
        WHERE doc_id = mid),
dd AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n_dedup,
              CAST(SUM(nw) AS BIGINT) AS w_dedup FROM ds2
       GROUP BY source),
t AS (SELECT CAST(SUM(w_dedup) AS BIGINT) AS tw,
             CAST(COUNT(*) AS BIGINT) AS ns FROM dd),
r AS (SELECT dd.source,
             LEAST(1000, (t.tw * 1000) // (2 * t.ns * dd.w_dedup)) AS cut
      FROM dd, t),
fin AS (SELECT d2.source, CAST(COUNT(*) AS BIGINT) AS n_final
        FROM ds2 d2 JOIN r USING (source)
        WHERE ((d2.doc_id % 1000003) * 2654435761) % 1000 < r.cut
        GROUP BY d2.source)
SELECT raw.source, raw.n_raw,
       CAST(COALESCE(qq.n_quality, 0) AS BIGINT) AS n_quality,
       CAST(COALESCE(dd.n_dedup, 0) AS BIGINT) AS n_dedup,
       CAST(COALESCE(r.cut, 0) AS BIGINT) AS cut,
       CAST(COALESCE(fin.n_final, 0) AS BIGINT) AS n_final
FROM raw LEFT JOIN qq USING (source) LEFT JOIN dd USING (source)
LEFT JOIN r USING (source) LEFT JOIN fin USING (source)""")
def corpus_assembly_funnel_q(sf_dir: str):
    """Corpus-assembly funnel (quality gate -> exact dedup -> token
    budget) with per-source survivor counts at every stage — all
    integers, SQL-exact.  See stages/text.corpus_assembly_funnel."""
    from ..stages.text import corpus_assembly_funnel

    return corpus_assembly_funnel(
        _t(sf_dir, "documents", ["doc_id", "text", "source"]))


@query("normalize_text_docs", sql="""
WITH n AS (SELECT doc_id,
                  trim(regexp_replace(regexp_replace(lower(text),
                       '[^a-z0-9 ]', '', 'g'), ' +', ' ', 'g'))
                      AS norm_text
           FROM documents)
SELECT doc_id, norm_text,
       CAST(len(norm_text) AS BIGINT) AS n_norm_chars
FROM n""")
def normalize_text_docs(sf_dir: str):
    """Dedup-canonicalization normalization (lowercase, strip
    non-alphanumerics, collapse spaces, trim): normalized STRINGS are
    exactly SQL-checkable because pyarrow and DuckDB regexp_replace
    both compile RE2 (the pii_mask parity trick).  See
    stages/text.normalize_text."""
    from ..stages.text import normalize_text

    return normalize_text(_t(sf_dir, "documents", ["doc_id", "text"]))


@query("length_quantile_filter_docs", sql="""
WITH d AS (SELECT doc_id, source,
                  CAST(len(string_split(text, ' ')) AS BIGINT) AS n_words
           FROM documents),
q AS (SELECT source, ROUND(quantile_cont(n_words, 0.9), 6) AS cutoff
      FROM d GROUP BY source)
SELECT d.doc_id, d.source, d.n_words, q.cutoff,
       CAST(CASE WHEN CAST(d.n_words AS DOUBLE) <= q.cutoff
                 THEN 1 ELSE 0 END AS BIGINT) AS keep_flag
FROM d JOIN q USING (source)""")
def length_quantile_filter_docs(sf_dir: str):
    """Per-source adaptive length gate (keep iff word count <= that
    source's p90): bounded (source, n_words) count partials tree-merge
    into per-source ValueCounts, whose linear-interpolation quantile ==
    DuckDB quantile_cont (the profile query's proven parity path); the
    flag compares against the r6-ROUNDED cutoff on BOTH sides so
    last-ulp quantile noise can never flip it.  See
    stages/text.length_quantile_filter."""
    from ..stages.text import length_quantile_filter

    return length_quantile_filter(
        _t(sf_dir, "documents", ["doc_id", "text", "source"]), q=0.9)


@query("dense_rank_orders_price", sql="""
SELECT o_orderkey, o_orderpriority, o_totalprice,
       DENSE_RANK() OVER (PARTITION BY o_orderpriority
                          ORDER BY o_totalprice DESC) AS drank
FROM orders""")
def dense_rank_orders_price(sf_dir: str):
    """Per-priority DENSE_RANK over price (the remaining SQL window
    rank after ntile/percent_rank/top-k): one global sort + a
    metadata-only per-block summary prefix-fold — rank is a pure
    function of the values, so no tie-break column is needed and the
    result is layout-independent.  o_totalprice passes through
    unmodified (no float math => no parity rules).  See
    stages/rank.dense_rank."""
    from ..stages.rank import dense_rank

    return dense_rank(
        _t(sf_dir, "orders",
           ["o_orderkey", "o_orderpriority", "o_totalprice"]),
        ["o_orderpriority", "o_totalprice"],
        partition_col="o_orderpriority",
        keep_cols=["o_orderkey", "o_orderpriority", "o_totalprice"],
        descending=[False, True])


@query("sliding_distinct_users_7d", sql="""
WITH du AS (SELECT DISTINCT
                CAST(epoch(CAST(CAST(ts AS DATE) AS TIMESTAMP))
                     AS BIGINT) // 86400 AS day_num,
                user_id
            FROM events),
days AS (SELECT DISTINCT day_num FROM du)
SELECT d.day_num,
       CAST(COUNT(DISTINCT e.user_id) AS BIGINT) AS users_7d
FROM days d JOIN du e
  ON e.day_num BETWEEN d.day_num - 6 AND d.day_num
GROUP BY d.day_num""")
def sliding_distinct_users_7d(sf_dir: str):
    """Trailing-7-day distinct active users per day — the sliding
    COUNT(DISTINCT) window SQL cannot express as a window function
    (no DISTINCT over frames), via the window-expansion technique:
    dedupe (day, user) pairs FIRST (per-block np.unique over packed
    day<<32|user composites folded — the near-dup census
    shape), then expand each surviving pair to its <= 7 target days
    and count.  The deduped pair set is bounded by |user base| x
    horizon days — KBs per million users — independent of event row
    count, so the driver fold is scale-safe; the expansion factor is
    the window length, never the data size."""
    ds = _t(sf_dir, "events", ["ts", "user_id"])

    def pack(t: pa.Table) -> np.ndarray:
        ts = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        day = ts // 86_400_000_000
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # pack (day, user) into one int64: user must fit 32 unsigned
        # bits and day must be non-negative (a pre-epoch ts would
        # corrupt the packing) — fail loudly instead
        if len(uid) and (uid.min() < 0 or uid.max() >= 1 << 32
                         or day.min() < 0 or day.max() >= 1 << 31):
            raise ValueError("user_id/day outside the (day << 32 | "
                             "user) pair packing range")
        return (day << 32) | uid

    # the deduped pair stream reaches the driver as a few pickled
    # arrays (shared _packed_pair_census scaffold), never per-pair rows
    packed = _packed_pair_census(ds, pack)
    day = packed >> 32
    uid = packed & 0xFFFFFFFF
    obs_days = np.unique(day)
    # expand each (day, user) to target days day..day+6, re-dedupe
    tgt = (day[:, None] + np.arange(7, dtype=np.int64)[None, :]).ravel()
    tu = np.repeat(uid, 7)
    keep = np.isin(tgt, obs_days)
    expanded = np.unique((tgt[keep] << 32) | tu[keep])
    tday, cnt = np.unique(expanded >> 32, return_counts=True)
    return pd.DataFrame({"day_num": tday.astype(np.int64),
                         "users_7d": cnt.astype(np.int64)})


@query("prefix_dup_docs", sql="""
WITH d AS (SELECT DISTINCT COALESCE(text, '') AS t FROM documents),
s AS (SELECT t, LEAD(t) OVER (ORDER BY t) AS nxt FROM d),
p AS (SELECT t,
             CAST(CASE WHEN nxt IS NOT NULL AND len(nxt) > len(t)
                        AND left(nxt, len(t)) = t
                   THEN 1 ELSE 0 END AS BIGINT) AS prefix_dup
      FROM s)
SELECT doc_id, prefix_dup
FROM documents JOIN p ON COALESCE(documents.text, '') = p.t""")
def prefix_dup_docs(sf_dir: str):
    """Truncation-duplicate flags (doc text is a strict prefix of
    another doc) via the sorted-successor property — one sort plus
    metadata-only boundary probes; the SQL oracle is the same property
    as a LEAD window over distinct texts.  See
    stages/dedup.prefix_dup_flags."""
    from ..stages.dedup import prefix_dup_flags

    return prefix_dup_flags(_t(sf_dir, "documents", ["doc_id", "text"]))


@query("label_centroid_cosine_pairs", sql="""
WITH c AS (SELECT CAST(label AS BIGINT) AS label, dim,
                  ROUND(SUM(CAST(e AS DOUBLE)), 2) / COUNT(*) AS v
           FROM (SELECT label, unnest(embedding) AS e,
                        CAST(generate_subscripts(embedding, 1) - 1
                             AS BIGINT) AS dim
                 FROM embeddings)
           GROUP BY label, dim),
a AS (SELECT label, list(v ORDER BY dim) AS vec FROM c GROUP BY label)
SELECT a1.label AS label_a, a2.label AS label_b,
       ROUND(list_sum(list_transform(range(1, len(a1.vec) + 1),
                                     i -> a1.vec[i] * a2.vec[i]))
             / (sqrt(list_sum(list_transform(a1.vec, x -> x * x)))
                * sqrt(list_sum(list_transform(a2.vec, x -> x * x)))),
             6) AS cos_sim
FROM a a1 JOIN a a2 ON a1.label < a2.label""")
def label_centroid_cosine_pairs(sf_dir: str):
    """Inter-class centroid cosine similarity matrix (the class-overlap
    diagnostic run after centroid fitting: near-1 pairs flag label
    noise / mergeable classes).  Distributed work is the SAME one-pass
    centroid partial fold as label_centroids_embeddings; the pairwise
    cosine is labels^2 driver math over EXACT centroid values
    (ROUND(SUM,2)/COUNT per dim).  ORDER-exact float parity: dot and
    norm fold sequentially in dim order via ``np.add.reduceat``,
    mirroring DuckDB's ``list_sum`` fold over list(v ORDER BY dim);
    sqrt is correctly rounded and the final divide is one IEEE op, r6
    absorbs the residue.  Verified bit-exact at sf 0.001/0.01/0.1."""
    from ..stages.embed import label_centroids

    wide = label_centroids(_t(sf_dir, "embeddings",
                              ["embedding", "label"]))
    labs = wide["label"].to_numpy()
    ns = wide["n"].to_numpy().astype(np.float64)
    order = np.argsort(labs, kind="stable")
    labs = labs[order].astype(np.int64)
    sums = np.asarray(wide["vec_sum"].to_pylist(),
                      dtype=np.float64)[order]
    if len(labs) == 0:
        return pd.DataFrame({"label_a": pd.Series([], dtype=np.int64),
                             "label_b": pd.Series([], dtype=np.int64),
                             "cos_sim": pd.Series([], dtype=np.float64)})
    V = np.round(sums, 2) / ns[order][:, None]
    k, d = V.shape
    seg = np.arange(k, dtype=np.int64) * d
    nrm = np.sqrt(np.add.reduceat((V * V).ravel(), seg))
    ia, ib = np.triu_indices(k, 1)
    prods = (V[ia] * V[ib]).ravel()
    dots = (np.add.reduceat(prods, np.arange(len(ia), dtype=np.int64) * d)
            if len(ia) else np.array([], dtype=np.float64))
    return pd.DataFrame({
        "label_a": labs[ia], "label_b": labs[ib],
        "cos_sim": np.round(dots / (nrm[ia] * nrm[ib]), 6)})


@query("oov_rate_docs", sql="""
WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS term
             FROM documents),
v AS (SELECT term FROM tok WHERE term <> ''
      GROUP BY term ORDER BY COUNT(*) DESC, term LIMIT 10)
SELECT t.doc_id, CAST(COUNT(*) AS BIGINT) AS n_words,
       CAST(SUM(CASE WHEN v.term IS NULL THEN 1 ELSE 0 END)
            AS BIGINT) AS n_oov,
       CAST(SUM(CASE WHEN v.term IS NULL THEN 1 ELSE 0 END) AS DOUBLE)
           / COUNT(*) AS oov_rate
FROM tok t LEFT JOIN v ON t.term = v.term
GROUP BY t.doc_id""")
def oov_rate_docs(sf_dir: str):
    """Out-of-vocabulary rate per document against the corpus's own
    top-K vocabulary (the rare-word filter a quality pipeline pairs
    with the unigram-LM score; ties broken count desc, term asc so the
    vocab is deterministic).  Pass 1 folds the bounded term census on
    the driver (Heaps' law) and broadcasts the K-term sorted array;
    pass 2 is one is_in + bincount per block.  n_oov/n_words is ONE
    exact int division — no float rules needed."""
    from ..stages.text import _flat_words, term_census

    ds = _t(sf_dir, "documents", ["doc_id", "text"])

    terms, cnts = term_census(ds, text_col="text")
    keep = terms != ""
    terms, cnts = terms[keep], cnts[keep]
    # top-10 by (count desc, term asc): lexsort on (term asc, -count)
    order = np.lexsort((terms, -cnts))[:10]
    vocab_np = np.sort(terms[order])

    def score(t: pa.Table) -> pa.Table:
        words, counts = _flat_words(t["text"])
        n = len(counts)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
        inv = np.isin(words, vocab_np)
        n_in = np.bincount(doc_idx, weights=inv, minlength=n) \
            .astype(np.int64)
        n_oov = counts - n_in
        return pa.table({
            "doc_id": t["doc_id"],
            "n_words": pa.array(counts),
            "n_oov": pa.array(n_oov),
            "oov_rate": pa.array(n_oov.astype(np.float64)
                                 / np.maximum(counts, 1))})

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


@query("entropy_docs", sql="""
WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS term
             FROM documents),
n AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n FROM tok
      GROUP BY doc_id),
c AS (SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS c FROM tok
      GROUP BY doc_id, term)
SELECT c.doc_id,
       ROUND(-list_sum(list_transform(
                 list(CAST(c.c AS DOUBLE) / n.n ORDER BY c.term),
                 p -> p * ln(p))), 6) AS entropy
FROM c JOIN n USING (doc_id)
GROUP BY c.doc_id""")
def entropy_docs(sf_dir: str):
    """Per-document Shannon entropy of the word distribution (low
    entropy = keyword-stuffed / repetitive boilerplate; the
    information-theoretic cousin of the duplicate-n-gram rules).
    Each ROW is a doc, so the whole computation is one block-local
    map: per-block (doc, term) counts sorted by (doc, term), p = c/n
    (exact int division), and a SEQUENTIAL per-doc reduceat fold of
    p*ln(p) in term order — mirroring DuckDB's list_sum over
    list(... ORDER BY term), with ln ulp-identical on these inputs
    and r6 absorbing the residue (the unigram_logprob parity family;
    verified bit-exact at sf 0.001/0.01/0.1)."""
    ds = _t(sf_dir, "documents", ["doc_id", "text"])

    from ..stages.text import _flat_words

    def ent(t: pa.Table) -> pa.Table:
        words, counts = _flat_words(t["text"])
        n = len(counts)
        if n == 0:          # dynamic block splits can emit empties
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "entropy": pa.array([], pa.float64())})
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
        # (doc, term) counts in (doc, term-sorted) order
        order = np.lexsort((words, doc_idx))
        dw, ww = doc_idx[order], words[order]
        new = np.ones(len(dw), dtype=bool)
        if len(dw) > 1:
            new[1:] = (dw[1:] != dw[:-1]) | (ww[1:] != ww[:-1])
        starts = np.flatnonzero(new)
        c = np.diff(np.concatenate([starts, [len(dw)]]))
        gd = dw[starts]                       # doc index per group
        p = c.astype(np.float64) / counts[gd].astype(np.float64)
        terms_pl = p * np.log(p)
        doc_starts = np.flatnonzero(
            np.concatenate([[True], gd[1:] != gd[:-1]]))
        s = np.add.reduceat(terms_pl, doc_starts)
        return pa.table({"doc_id": t["doc_id"],
                         "entropy": pa.array(np.round(-s, 6))})

    return ds.map_batches(ent, batch_format="pyarrow",
                          zero_copy_batch=True)


@query("asof_forward_next_purchase", sql="""
SELECT event_id, next_purchase_id, gap_us
FROM (
  SELECT e.event_id,
         p.event_id AS next_purchase_id,
         CAST(epoch_us(p.ts) - epoch_us(e.ts) AS BIGINT) AS gap_us,
         ROW_NUMBER() OVER (PARTITION BY e.event_id
                            ORDER BY p.ts ASC, p.event_id ASC) AS rn
  FROM events e
  JOIN events p
    ON p.user_id = e.user_id AND p.event_type = 'purchase'
   AND p.ts >= e.ts)
WHERE rn = 1""")
def asof_forward_next_purchase(sf_dir: str):
    """FORWARD as-of join (time-to-next-conversion): each event picks
    the same user's EARLIEST purchase at or after it (ties by min
    event id) plus the exact integer-microsecond gap.  Runs on the
    UNCHANGED backward as-of machinery via order reversal — negate the
    int64 timestamps and the tie column, and largest(-ts') <= -ts with
    max(-tie) becomes smallest ts' >= ts with min(tie).  Same
    one-shuffle co-partition + composite-rank searchsorted merge;
    every comparison and the gap are exact ints."""
    from ..stages.join import asof_join

    # both join sides derive from the same scan — materialize once so
    # the union's two branches don't each re-execute the parquet read
    ev_raw = _t(sf_dir, "events", ["event_id", "user_id", "ts",
                                   "event_type"]).materialize()

    def neg_left(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view(np.int64)
        return pa.table({"event_id": t["event_id"],
                         "user_id": t["user_id"],
                         "neg_ts": pa.array(-ts)})

    def neg_right(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "purchase"))
        ts = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view(np.int64)
        pid = t["event_id"].to_numpy(zero_copy_only=False)
        return pa.table({"user_id": t["user_id"],
                         "event_id": t["event_id"],
                         "neg_pid": pa.array(-pid),
                         "neg_ts_r": pa.array(-ts)})

    left = ev_raw.map_batches(neg_left, batch_format="pyarrow",
                              zero_copy_batch=True)
    right = ev_raw.map_batches(neg_right, batch_format="pyarrow",
                               zero_copy_batch=True)
    lsch = pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                      ("neg_ts", pa.int64())])
    rsch = pa.schema([("user_id", pa.int64()), ("event_id", pa.int64()),
                      ("neg_pid", pa.int64()), ("neg_ts_r", pa.int64())])
    out = asof_join(left, right, on="user_id", left_ts="neg_ts",
                    right_ts="neg_ts_r",
                    left_cols=["event_id", "neg_ts"],
                    right_cols=["event_id"],
                    tie_col="neg_pid",
                    schema_hint=(lsch, rsch))
    return out.map_batches(
        lambda df: pd.DataFrame({
            "event_id": df["event_id"],
            "next_purchase_id": df["event_id_asof"].astype("int64"),
            "gap_us": (df["neg_ts"] - df["neg_ts_r"]).astype("int64")}),
        batch_format="pandas")


@query("shard_layout_docs", sql="""
WITH h AS (SELECT doc_id,
                  ((doc_id % 1000003) * 2654435761) % 4294967296 AS hv
           FROM documents),
r AS (SELECT doc_id, hv,
             ROW_NUMBER() OVER (ORDER BY hv, doc_id) AS rn,
             CAST(NTILE(8) OVER (ORDER BY hv, doc_id) AS BIGINT)
                 AS shard
      FROM h)
SELECT doc_id, shard,
       CAST(rn - MIN(rn) OVER (PARTITION BY shard) + 1 AS BIGINT)
           AS pos
FROM r""")
def shard_layout_docs(sf_dir: str):
    """Deterministic training-data shard layout: pseudo-shuffle every
    doc by a stateless integer hash, cut the shuffled order into 8
    equal-frequency shards (NTILE semantics) and assign each doc its
    1-based position WITHIN its shard — the reproducible
    global-shuffle + shard + order step a training job consumes
    (identical on retry, no RNG state).  One sort by (hash, id) — the
    unavoidable exchange — then everything else is metadata: per-block
    row counts give global row numbers, and shard boundaries/positions
    are the shared NTILE formula (stages/rank.ntile_positions) on the
    ordered scan, computed independently per block (row data never
    reaches the driver)."""
    from ..stages.rank import ntile_positions, offsets
    from ..stages.transport import scan

    def hashed(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        hv = ((ids % 1000003) * 2654435761) % (1 << 32)
        return pa.table({"doc_id": t["doc_id"], "hv": pa.array(hv)})

    def emit(t: pa.Table, at: tuple) -> pa.Table:
        off, n = at
        shard, pos = ntile_positions(
            off + np.arange(1, t.num_rows + 1, dtype=np.int64), n, 8)
        return pa.table({"doc_id": t["doc_id"], "shard": shard,
                         "pos": pos})

    return scan(_t(sf_dir, "documents", ["doc_id"])
                .map_batches(hashed, batch_format="pyarrow",
                             zero_copy_batch=True),
                ["hv", "doc_id"], None, offsets, emit)


@query("trimmed_mean_events", sql="""
WITH q AS (SELECT event_type,
                  ROUND(quantile_cont(value, 0.05), 6) AS lo,
                  ROUND(quantile_cont(value, 0.95), 6) AS hi
           FROM events GROUP BY event_type),
k AS (SELECT e.event_type, e.value
      FROM events e JOIN q USING (event_type)
      WHERE e.value >= q.lo AND e.value <= q.hi)
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_kept,
       ROUND(SUM(value), 2) / COUNT(*) AS trimmed_mean
FROM k GROUP BY event_type""")
def trimmed_mean_events(sf_dir: str):
    """Per-group 5/95 trimmed mean (the robust location estimate next
    to the reference's median/MAD family — outliers drop instead of
    winsorizing, so every kept value stays on the data's 2-decimal
    grid and the ROUND(SUM,2)/COUNT mean trick applies).  Pass 1 is
    the bounded (group, value) count-partial census -> per-group
    ValueCounts quantiles (proven quantile_cont parity), r6-rounded
    cutoffs broadcast; pass 2 filters and folds per-group (sum, count)
    partials — the rounded sum snaps both engines to the same grid
    point, then one IEEE division."""
    from ..sketches import ValueCounts

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({"event_type": t["event_type"], "value": t["value"],
                      "cnt": pa.array(np.ones(t.num_rows, np.int64))}) \
            .group_by(["event_type", "value"]).aggregate([("cnt", "sum")])
        return pa.table({"event_type": g["event_type"],
                         "value": g["value"], "cnt": g["cnt_sum"]})

    df = _fold_groups(_t(sf_dir, "events", ["event_type", "value"]),
                      partial, ["event_type", "value"], {"cnt": "sum"},
                      dropna=False)
    out = []
    for et, grp in df.groupby("event_type", dropna=False):
        vc = ValueCounts.from_items(grp["value"].to_numpy(),
                                    grp["cnt"].to_numpy())
        lo = round(vc.quantile(0.05), 6)
        hi = round(vc.quantile(0.95), 6)
        vals = grp["value"].to_numpy(dtype=np.float64)
        cnts = grp["cnt"].to_numpy(dtype=np.int64)
        keep = (vals >= lo) & (vals <= hi)
        n_kept = int(cnts[keep].sum())
        if n_kept == 0:      # SQL's inner join simply omits the group
            continue
        total = float((vals[keep] * cnts[keep]).sum())
        out.append({"event_type": et,
                    "n_kept": np.int64(n_kept),
                    "trimmed_mean": round(total, 2) / n_kept})
    return pd.DataFrame(out)


@query("top_bigrams_per_source", sql="""
WITH d AS (SELECT source, string_split(text, ' ') AS w FROM documents),
g AS (SELECT source, unnest(list_transform(range(1, len(w)),
                            i -> w[i] || ' ' || w[i + 1])) AS gram
      FROM d WHERE len(w) >= 2),
c AS (SELECT source, gram, CAST(COUNT(*) AS BIGINT) AS n
      FROM g GROUP BY source, gram),
r AS (SELECT source, gram, n,
             ROW_NUMBER() OVER (PARTITION BY source
                                ORDER BY n DESC, gram ASC) AS rn
      FROM c)
SELECT source, gram, n, CAST(rn AS BIGINT) AS rn FROM r
WHERE rn <= 5""")
def top_bigrams_per_source(sf_dir: str):
    """Top-5 word bigrams per source (corpus reporting: the phrase
    census a mixture dashboard publishes per ingest source; ties
    broken count desc, gram asc so the listing is deterministic).
    Bigram STRINGS come from the shared shifted-zero-copy-slice +
    binary_join_element_wise kernel; per-block (source, gram) count
    partials fold into a vocabulary-bounded
    table (Heaps' law) and heads 5 per source — no shuffle."""
    from ..stages.text import _ngram_strings

    def partial(t: pa.Table) -> pa.Table:
        grams, doc_idx, _ = _ngram_strings(t["text"], 2)
        src_col = t["source"]
        if isinstance(src_col, pa.ChunkedArray):
            src_col = src_col.combine_chunks()
        src = src_col.take(pa.array(doc_idx))     # Arrow gather, no objects
        g = pa.table({"source": src, "gram": grams,
                      "n": pa.array(np.ones(len(doc_idx), np.int64))}) \
            .group_by(["source", "gram"]).aggregate([("n", "sum")])
        return pa.table({"source": g["source"], "gram": g["gram"],
                         "n": g["n_sum"]})

    df = _fold_groups(_t(sf_dir, "documents", ["source", "text"]), partial,
                      ["source", "gram"], {"n": "sum"}, dropna=False)
    df = df.sort_values(["source", "n", "gram"],
                        ascending=[True, False, True])
    df["rn"] = df.groupby("source", dropna=False).cumcount() + 1
    return df[df["rn"] <= 5].reset_index(drop=True) \
        .astype({"n": np.int64, "rn": np.int64})


@query("interarrival_quantiles_users", sql="""
WITH e AS (SELECT user_id, epoch_us(ts) AS tus, event_id FROM events),
d AS (SELECT user_id,
             tus - LAG(tus) OVER (PARTITION BY user_id
                                  ORDER BY tus, event_id) AS gap_us
      FROM e)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_gaps,
       CAST(quantile_disc(gap_us, 0.5) AS BIGINT) AS p50_us,
       CAST(quantile_disc(gap_us, 0.9) AS BIGINT) AS p90_us
FROM d WHERE gap_us IS NOT NULL GROUP BY user_id""")
def interarrival_quantiles_users(sf_dir: str):
    """Per-user inter-arrival-time quantiles (session-cadence profile:
    median and p90 gap between consecutive events) — the window + lag
    machinery composed with exact group quantiles in ONE slice visit
    (the ffill per-key window).  Gaps are exact int64 microsecond
    diffs of the (ts, event_id)-ordered sequence; quantiles are
    DISCRETE (DuckDB quantile_disc = the order statistic at 1-based
    rank ceil(q*n), mirrored with the same IEEE product) — actual
    int64 gap values, so parity needs no float rules at all.
    Continuous interpolation at 1e11-microsecond magnitudes leaves
    sub-ulp residue that r6 rounding cannot absorb — discrete
    quantiles are the right emission for big-integer metrics."""
    ds = _t(sf_dir, "events", ["event_id", "user_id", "ts"])

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        code, users = pd.factorize(df["user_id"], use_na_sentinel=False)
        tus = df["ts"].to_numpy().astype("datetime64[us]").view(np.int64)
        same = code[1:] == code[:-1]
        gc, gaps = code[1:][same], np.diff(tus)[same]
        o = np.lexsort((gaps, gc))          # each user's gaps, sorted
        gc, gaps = gc[o], gaps[o]
        n = np.bincount(gc, minlength=len(users))
        start, has = (np.cumsum(n) - n)[n > 0], n > 0

        def disc(q: float) -> np.ndarray:
            return gaps[start + np.ceil(q * n[has]).astype(np.int64) - 1]

        return pd.DataFrame({
            "user_id": np.asarray(users, dtype=np.int64)[has],
            "n_gaps": n[has].astype(np.int64),
            "p50_us": disc(0.5), "p90_us": disc(0.9)})

    return _per_key(ds, "user_id", ["ts", "event_id"], per_user)


@query("bloom_semi_join_lineitem", sql="""
SELECT l_orderkey, CAST(COUNT(*) AS BIGINT) AS n_items
FROM lineitem
WHERE l_orderkey IN (SELECT o_orderkey FROM orders
                     WHERE o_orderpriority = '1-URGENT')
GROUP BY l_orderkey""")
def bloom_semi_join_lineitem(sf_dir: str):
    """Bloom-prefiltered semi-join: line items belonging to urgent
    orders, with per-order item counts.  The 100-TB shape this
    exercises (stages/bloom.py): the build side folds into a ~12
    bits/key Bloom bitmap (40x smaller than the raw key broadcast of
    stages/join.semi_join) in the SAME single pass that collects the
    exact key array; the probe side drops non-members vectorized
    BEFORE the exact searchsorted verify, so at scale — where the
    exact half is replaced by a bucketed join — only the Bloom
    survivors (true matches + ~1% FPs) ever reach an exchange.
    Per-key counts fold through the near-unique-key census pattern
    (np.unique partials + tree merge), never a sort-groupby."""
    import ray

    from ..stages.bloom import build_bloom_with_keys, probe_bloom
    orders = _t(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    n_hint = int(orders.count())          # parquet-metadata row count
    urgent = orders.map_batches(
        lambda t: t.filter(pc.equal(t["o_orderpriority"], "1-URGENT"))
                   .select(["o_orderkey"]),
        batch_format="pyarrow", zero_copy_batch=True)
    bloom, keys = build_bloom_with_keys(
        urgent, "o_orderkey", m_bits=max(1 << 12, 12 * n_hint))
    bloom_ref = ray.put(bloom)
    keys_ref = ray.put(keys)

    def probe(t: pa.Table) -> tuple:
        bl = ray.get(bloom_ref)
        ks = ray.get(keys_ref)
        vals = t["l_orderkey"].to_numpy(zero_copy_only=False)
        cand = probe_bloom(vals, bl)      # no false negatives
        sub = vals[cand]
        if len(ks) and len(sub):
            pos = np.searchsorted(ks, sub)
            pos[pos == len(ks)] = 0
            sub = sub[ks[pos] == sub]     # exact verify of survivors
        else:
            sub = sub[:0]
        return np.unique(sub, return_counts=True)

    u, c = fold(_t(sf_dir, "lineitem", ["l_orderkey"]), probe, merge_counts)
    return pa.table({"l_orderkey": _i64(u), "n_items": _i64(c)})


@query("winsorize_events_value", sql="""
WITH q AS (SELECT event_type,
                  quantile_disc(value, 0.05) AS lo,
                  quantile_disc(value, 0.95) AS hi,
                  CAST(COUNT(*) AS BIGINT) AS n
           FROM events GROUP BY event_type)
SELECT e.event_type, q.n, q.lo, q.hi,
       CAST(SUM(CASE WHEN e.value < q.lo THEN 1 ELSE 0 END)
            AS BIGINT) AS n_lo,
       CAST(SUM(CASE WHEN e.value > q.hi THEN 1 ELSE 0 END)
            AS BIGINT) AS n_hi,
       ROUND(SUM(CASE WHEN e.value < q.lo THEN q.lo
                      WHEN e.value > q.hi THEN q.hi
                      ELSE e.value END), 2) AS sum_winsorized
FROM events e JOIN q USING (event_type)
GROUP BY e.event_type, q.n, q.lo, q.hi""")
def winsorize_events_value(sf_dir: str):
    """Per-group winsorization audit (clip value at the group's
    p05/p95, report clip counts and the winsorized sum) — the outlier
    taming step between profiling and scaling.  EVERYTHING folds off
    ONE (event_type, value, cnt) census (the group_quantiles shape —
    bounded by decimal grain, never row count): cutoffs are DISCRETE
    order statistics replayed with DuckDB's 1-based ceil(q*n) rank
    (the interarrival_quantiles parity rule — actual member values,
    no interpolation residue), clip counts are census-count sums over
    the sorted value axis, and the winsorized sum is sum(clip(v)*cnt)
    with ROUND(,2) absorbing the product-vs-sequential fold residue
    on 2-decimal data (the pricing_summary rule).  NO second pass
    over events."""
    df = _value_census(_t(sf_dir, "events", ["event_type", "value"]),
                       "event_type", "value")
    out = []
    for et, grp in df.groupby("event_type"):
        grp = grp.sort_values("value")
        v = grp["value"].to_numpy()
        c = grp["cnt"].to_numpy()
        cum = np.cumsum(c)
        n = int(cum[-1])

        def disc(q: float) -> float:
            rank = int(np.ceil(q * n))       # DuckDB 1-based rank
            return float(v[np.searchsorted(cum, rank, side="left")])

        lo, hi = disc(0.05), disc(0.95)
        clipped = np.clip(v, lo, hi)
        out.append({"event_type": et, "n": np.int64(n),
                    "lo": lo, "hi": hi,
                    "n_lo": np.int64(c[v < lo].sum()),
                    "n_hi": np.int64(c[v > hi].sum()),
                    "sum_winsorized": round(float((clipped * c).sum()), 2)})
    return pd.DataFrame(out)


@query("crossdoc_gram_coverage_docs", sql="""
WITH d AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents),
g AS (SELECT doc_id, unnest(list_distinct(
         CASE WHEN len(w) >= 3 THEN
           list_transform(range(1, len(w) - 1),
                          i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
         ELSE [] END)) AS gram
      FROM d),
gc AS (SELECT gram, CAST(COUNT(*) AS BIGINT) AS nd FROM g GROUP BY gram)
SELECT g.doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_distinct,
       CAST(SUM(CASE WHEN gc.nd >= 2 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_shared
FROM g JOIN gc USING (gram)
GROUP BY g.doc_id""")
def crossdoc_gram_coverage_docs(sf_dir: str):
    """Span-level dup telemetry: per document, its distinct word
    trigrams and how many are shared with at least one other document
    (stages/text.crossdoc_gram_coverage — census pass + broadcast
    shared-gram set + score pass, zero shuffle).  All-integer output,
    no float rules."""
    from ..stages.text import crossdoc_gram_coverage

    return crossdoc_gram_coverage(
        _t(sf_dir, "documents", ["doc_id", "text"]), n=3)


@query("editdist_blocked_pairs_partnames", sql="""
WITH n AS (SELECT DISTINCT p_name FROM part),
b AS (SELECT p_name, string_split(p_name, ' ')[-1] AS blk FROM n)
SELECT a.p_name AS name_a, c.p_name AS name_b,
       CAST(levenshtein(a.p_name, c.p_name) AS BIGINT) AS dist
FROM b a JOIN b c ON a.blk = c.blk AND a.p_name < c.p_name
WHERE levenshtein(a.p_name, c.p_name) <= 3""")
def editdist_blocked_pairs_partnames(sf_dir: str):
    """Entity-resolution fuzzy matching: near-identical part names via
    last-token blocking + Levenshtein <= 3 verify
    (stages/fuzzy.blocked_editdist_pairs — distinct-name census, one
    flat task per block-hash slice, class-batched SIMD edit-distance
    DP).  All-integer distances, exact SQL parity with DuckDB's
    levenshtein."""
    from ..stages.fuzzy import blocked_editdist_pairs

    return blocked_editdist_pairs(_t(sf_dir, "part", ["p_name"]),
                                  "p_name", max_dist=3)


@query("above_avg_order_customers", sql="""
WITH c AS (SELECT o_custkey, CAST(COUNT(*) AS BIGINT) AS n_orders
           FROM orders GROUP BY o_custkey),
t AS (SELECT CAST(SUM(n_orders) AS BIGINT) AS tot,
             CAST(COUNT(*) AS BIGINT) AS k FROM c)
SELECT c.o_custkey, c.n_orders
FROM c, t WHERE c.n_orders * t.k > t.tot""")
def above_avg_order_customers(sf_dir: str):
    """HAVING-vs-global-aggregate idiom: customers whose order count
    exceeds the mean order count per ordering customer.  The mean
    never materializes as a float — the filter cross-multiplies
    (n * k > tot, the gopher_quality integer-rule shape), so parity
    needs no rounding.  Per-customer counts fold through the
    near-unique-key census (np.unique partials + tree merge, the
    duplicate_keys pattern); the global (tot, k) is a driver scalar
    off the same fold — ONE pass, no shuffle."""
    keys, counts = fold(
        _t(sf_dir, "orders", ["o_custkey"]),
        lambda t: np.unique(t["o_custkey"].to_numpy(zero_copy_only=False),
                            return_counts=True), merge_counts)
    tot, k = int(counts.sum()), len(keys)
    m = counts * k > tot
    return pa.table({"o_custkey": _i64(keys[m]),
                     "n_orders": _i64(counts[m])})


@query("sq8_topk_embeddings")
def sq8_topk_embeddings(sf_dir: str):
    """Scalar-quantized (int8) cosine top-k — the memory-bandwidth
    scale path for similarity search (uint8 codes are 4-8x smaller
    than floats; see stages/embed.sq8_topk): min/max census -> approx
    scores on dequantized codes -> exact float64 rerank of surviving
    candidates only.  Rows-only (quantization grids are not
    SQL-expressible); pytest pins recall vs the exact brute-force
    baseline and exactness when rerank covers the corpus."""
    from ..stages.embed import sq8_topk

    ds = _t(sf_dir, "embeddings", ["vec_id", "embedding"])
    qrows = (ds.map_batches(
        lambda t: t.filter(pc.less(t["vec_id"], 3)), batch_format="pyarrow")
        .take_all())
    qids = np.array([r["vec_id"] for r in qrows], dtype=np.int64)
    Q = np.stack([np.asarray(r["embedding"], dtype=np.float64)
                  for r in qrows])
    base = ds.map_batches(
        lambda t: t.filter(pc.greater_equal(t["vec_id"], 3)),
        batch_format="pyarrow", zero_copy_batch=True)
    out = sq8_topk(base, "embedding", "vec_id", Q, qids, k=5,
                   rerank_factor=4).to_pandas()
    out["cos"] = np.round(out["cos"].astype(float), 6)
    return out


@query("feather_roundtrip_supplier", sql="""
SELECT s_suppkey, s_name, s_nationkey FROM supplier""")
def feather_roundtrip_supplier(sf_dir: str):
    """Arrow IPC (feather) source: the supplier table is exported once
    per sf (cached under /tmp) and read back through io.read_table's
    IPC path — one task per shard file, zero-parse columnar mmap with
    column pruning.  Types survive IPC exactly, so parity needs no
    casts (unlike the CSV path's int re-cast)."""
    import os

    from .. import io as aio

    tag = sf_dir.rstrip("/").replace("/", "_")
    cache_dir = "/tmp/autoprepad_feather"
    os.makedirs(cache_dir, exist_ok=True)
    path = f"{cache_dir}/supplier_{tag}.feather"
    if not os.path.exists(path):
        import pyarrow.feather as feather
        import pyarrow.parquet as pq
        t = pq.read_table(f"{sf_dir}/supplier.parquet",
                          columns=["s_suppkey", "s_name", "s_nationkey"])
        tmp = path + ".tmp"
        feather.write_feather(t, tmp)
        os.replace(tmp, path)
    return aio.read_table(path,
                          columns=["s_suppkey", "s_name", "s_nationkey"])


@query("psi_daily_event_type", sql="""
WITH e AS (SELECT CAST(ts AS DATE) AS day, event_type FROM events),
dc AS (SELECT day, event_type, CAST(COUNT(*) AS BIGINT) AS n
       FROM e GROUP BY 1, 2),
cats AS (SELECT DISTINCT event_type FROM events),
days AS (SELECT DISTINCT day FROM e),
grid AS (SELECT d.day, c.event_type, COALESCE(dc.n, 0) AS nd
         FROM days d CROSS JOIN cats c
         LEFT JOIN dc ON dc.day = d.day AND dc.event_type = c.event_type),
g AS (SELECT event_type, CAST(SUM(nd) AS BIGINT) AS ng
      FROM grid GROUP BY 1),
tot AS (SELECT SUM(ng) AS tg, COUNT(*) AS nb FROM g),
dt AS (SELECT day, SUM(nd) AS td FROM grid GROUP BY 1)
SELECT grid.day,
       ROUND(SUM(((nd + 0.5) / (td + 0.5 * nb)
                  - (ng + 0.5) / (tg + 0.5 * nb))
             * LN(((nd + 0.5) / (td + 0.5 * nb))
                  / ((ng + 0.5) / (tg + 0.5 * nb)))), 6) AS psi
FROM grid JOIN g USING (event_type) JOIN dt USING (day), tot
GROUP BY grid.day""")
def psi_daily_event_type(sf_dir: str):
    """Daily drift monitor: PSI of each day's event_type mix against
    the whole-horizon distribution — the per-window drift series a
    streaming pipeline alerts on (the two-half psi_event_type
    generalized to a time series).  ONE (day, event_type) census (the
    shared _value_census fold) feeds every day's PSI; the same
    +0.5-smoothed kernel as validators/drift.psi_from_counts, r6
    rounding on both sides absorbing SUM-order residue (the
    psi_event_type precedent)."""
    from ..validators.drift import psi_from_counts

    ds = _t(sf_dir, "events", ["ts", "event_type"]).map_batches(
        lambda t: pa.table({"day": t["ts"].cast(pa.date32()),
                            "event_type": t["event_type"]}),
        batch_format="pyarrow", zero_copy_batch=True)
    df = _value_census(ds, "day", "event_type")
    cats = np.sort(df["event_type"].unique())
    wide = (df.pivot_table(index="day", columns="event_type",
                           values="cnt", aggfunc="sum", fill_value=0)
            .reindex(columns=cats, fill_value=0))
    glob = wide.sum(axis=0).to_numpy(dtype=np.int64)
    out = pd.DataFrame(
        [{"day": day, "psi": round(psi_from_counts(
            row.to_numpy(dtype=np.int64), glob), 6)}
         for day, row in wide.iterrows()])
    # DuckDB DATE -> pandas datetime64[us] (the tumbling_window lesson)
    out["day"] = pd.to_datetime(out["day"]).astype("datetime64[us]")
    return out


# ---------------------------------------------------------------------------
# batch: round-5 session-7 — cross-table / distributional validation widening


@query("fd_violations_part_supp", sql="""
SELECT l_partkey,
       CAST(COUNT(DISTINCT l_suppkey) AS BIGINT) AS n_dep,
       CAST(COUNT(*) AS BIGINT) AS n_rows
FROM lineitem GROUP BY 1
HAVING COUNT(DISTINCT l_suppkey) > 1
ORDER BY 1""")
def fd_violations_part_supp(sf_dir: str):
    """Functional-dependency violation scan (does l_partkey determine
    l_suppkey?): every determinant value mapping to >1 distinct
    dependent value, with its distinct-dependent and row counts — the
    cross-column constraint check AutoPrepAD's single-column flags
    cannot express (reference scope: pipelines/control.py:89-107).
    ONE (determinant, dependent) exact census (the shared _value_census
    fold — bounded by distinct PAIR cardinality, not rows; columns with
    unbounded pair spaces belong on the HLL profile path instead) and a
    driver re-group.  Both columns are non-null in this fixture, so
    census counts == SQL COUNT semantics."""
    df = _value_census(
        _t(sf_dir, "lineitem", ["l_partkey", "l_suppkey"]),
        "l_partkey", "l_suppkey")
    g = (df.groupby("l_partkey")
         .agg(n_dep=("l_suppkey", "size"), n_rows=("cnt", "sum"))
         .reset_index())
    g = g[g["n_dep"] > 1].sort_values("l_partkey").reset_index(drop=True)
    return pa.table({"l_partkey": _i64(g["l_partkey"]),
                     "n_dep": _i64(g["n_dep"]),
                     "n_rows": _i64(g["n_rows"])})


@query("benford_totalprice", sql="""
WITH tot AS (SELECT COUNT(*) AS n FROM orders),
dig AS (SELECT CAST(SUBSTR(CAST(CAST(ROUND(o_totalprice * 100, 0)
                                 AS BIGINT) AS VARCHAR), 1, 1)
                    AS BIGINT) AS digit,
               COUNT(*) AS n
        FROM orders GROUP BY 1)
SELECT dig.digit, CAST(dig.n AS BIGINT) AS n,
       ROUND(tot.n * (LN(dig.digit + 1) - LN(dig.digit)) / LN(10),
             6) AS expected
FROM dig, tot WHERE dig.digit BETWEEN 1 AND 9 ORDER BY 1""")
def benford_totalprice(sf_dir: str):
    """Benford first-digit audit of o_totalprice: observed count per
    leading digit next to the Benford-law expectation n*log10(1+1/d).
    Digit extraction is the exact integer-cents string path on both
    sides (drift.first_digit_counts); the expectation mirrors the SQL
    arithmetic term by term — (ln(d+1)-ln(d))/ln(10) on tiny integers,
    where numpy and DuckDB ln agree to the ulp (the BM25 precedent) —
    with r6 rounding absorbing residue.  Verified value-exact at sf
    0.001 / 0.01 / 0.1 before the oracle was wired."""
    counts = drift.first_digit_counts(
        _t(sf_dir, "orders", ["o_totalprice"]), "o_totalprice")
    n_tot = int(counts.sum())
    digs = np.flatnonzero(counts)
    # Benford's law is defined on leading digits 1-9: amounts whose
    # cents round to 0 produce digit 0, where LN(0) has no value on
    # either side — excluded from the report (the total n keeps them)
    digs = digs[digs >= 1]
    exp = np.round(
        n_tot * (np.log(digs + 1.0) - np.log(digs.astype(np.float64)))
        / np.log(10.0), 6)
    return pa.table({"digit": _i64(digs), "n": _i64(counts[digs]),
                     "expected": pa.array(exp, type=pa.float64())})


@query("reconcile_order_totals", sql="""
WITH lo AS (SELECT l_orderkey,
                   list_sum(list(l_extendedprice * (1 - l_discount)
                                 * (1 + l_tax)
                                 ORDER BY l_linenumber)) AS recomputed
            FROM lineitem GROUP BY 1)
SELECT o.o_orderpriority,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       ROUND(SUM(o.o_totalprice - lo.recomputed), 2) AS total_diff
FROM orders o JOIN lo ON o.o_orderkey = lo.l_orderkey
GROUP BY 1 ORDER BY 1""")
def reconcile_order_totals_q(sf_dir: str):
    """Cross-table totals reconciliation: o_totalprice vs the
    recomputed lineitem charge roll-up, per priority class — see
    validators/reconcile for the one-pass-per-table packed-slice fold
    (per-order rows never materialize; the per-order recompute is the
    ORDER-exact reduceat family == list_sum ORDER BY l_linenumber).
    Verified value-exact at sf 0.001 / 0.01 / 0.1 before the oracle
    was wired."""
    from ..validators.reconcile import reconcile_order_totals

    return reconcile_order_totals(
        _t(sf_dir, "orders",
           ["o_orderkey", "o_totalprice", "o_orderpriority"]),
        _t(sf_dir, "lineitem",
           ["l_orderkey", "l_linenumber", "l_extendedprice",
            "l_discount", "l_tax"]))


# ---------------------------------------------------------------------------
# reshaping + corpus-vocabulary telemetry (round-5 session-7)


_MELT_MEASURES = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]


@query("unpivot_lineitem_measures", sql=" UNION ALL ".join(
    f"SELECT l_orderkey, l_linenumber, '{c}' AS measure, "
    f"CAST({c} AS DOUBLE) AS value FROM lineitem"
    for c in _MELT_MEASURES))
def unpivot_lineitem_measures(sf_dir: str):
    """Unpivot/melt (wide -> long), the inverse of the pivot operator:
    each lineitem row emits one (keys, measure, value) row per measure
    column.  Pure per-block reshaping — zero arithmetic, so float
    parity is trivially exact — and the measure-name column is ONE
    Arrow take-broadcast per measure, never a per-row Python list.
    Streams block-local at any scale (no exchange at all)."""

    def melt(t: pa.Table) -> pa.Table:
        n = t.num_rows
        parts = []
        for c in _MELT_MEASURES:
            name = pa.array([c], type=pa.string()).take(
                np.zeros(n, dtype=np.int32))
            parts.append(pa.table({
                "l_orderkey": t["l_orderkey"],
                "l_linenumber": t["l_linenumber"],
                "measure": name,
                "value": pc.cast(t[c], pa.float64())}))
        return pa.concat_tables(parts)

    return (_t(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber"] + _MELT_MEASURES)
            .map_batches(melt, batch_format="pyarrow",
                         zero_copy_batch=True))


@query("suffix_dup_docs", sql="""
WITH d AS (SELECT DISTINCT reverse(COALESCE(text, '')) AS t
           FROM documents),
s AS (SELECT t, LEAD(t) OVER (ORDER BY t) AS nxt FROM d),
p AS (SELECT t,
             CAST(CASE WHEN nxt IS NOT NULL AND len(nxt) > len(t)
                        AND left(nxt, len(t)) = t
                   THEN 1 ELSE 0 END AS BIGINT) AS suffix_dup
      FROM s)
SELECT doc_id, suffix_dup
FROM documents JOIN p ON reverse(COALESCE(documents.text, '')) = p.t""")
def suffix_dup_docs(sf_dir: str):
    """Head-truncation duplicates (doc text is a strict SUFFIX of some
    other doc — the dropped-header / mid-page-crawl twin of prefix
    dedup): reverse the text and the suffix test IS the prefix test,
    so the whole sorted-successor machinery is reused verbatim with
    zero new kernel code.  Arrow ``utf8_reverse`` (codepoint order)
    and DuckDB ``reverse`` agree on this corpus (ASCII; they can
    differ only on combining-character clusters)."""
    from ..stages.dedup import prefix_dup_flags

    ds = _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda t: pa.table({
            "doc_id": t["doc_id"],
            "text": pc.utf8_reverse(pc.fill_null(t["text"], ""))}),
        batch_format="pyarrow", zero_copy_batch=True)
    return prefix_dup_flags(ds, flag_col="suffix_dup")


@query("vocab_growth_docs", sql="""
WITH fw AS (SELECT w, MIN(doc_id) AS first_doc FROM (
        SELECT doc_id, unnest(string_split(text, ' ')) AS w
        FROM documents) WHERE w <> '' GROUP BY 1),
mx AS (SELECT MAX(doc_id) AS m FROM documents),
th AS (SELECT (CAST(1 AS BIGINT) << g) AS threshold
       FROM (SELECT unnest(generate_series(0, 62)) AS g), mx
       WHERE (CAST(1 AS BIGINT) << g) <= mx.m)
SELECT th.threshold,
       CAST(COUNT(*) FILTER (WHERE fw.first_doc <= th.threshold)
            AS BIGINT) AS vocab_size
FROM th, fw GROUP BY 1 ORDER BY 1""")
def vocab_growth_docs(sf_dir: str):
    """Heaps-law vocabulary-growth curve: distinct-word count among
    docs with id <= each power-of-two threshold (is the corpus still
    discovering vocabulary, or saturated?).  Distributed side is a
    word -> MIN(doc_id) census (per-block Arrow group_by min +
    tree merge — vocabulary-bounded, token-count-free); the driver
    bucketizes first-seen ids against the thresholds with one
    searchsorted.  All-integer, SQL-exact."""

    def partial(t: pa.Table) -> pa.Table:
        from ..stages.text import _flat_words
        words, counts = _flat_words(t["text"])
        ids = np.repeat(t["doc_id"].to_numpy(zero_copy_only=False),
                        counts)
        keep = words != ""
        g = pa.table({"w": pa.array(words[keep]),
                      "first_doc": pa.array(ids[keep])}
                     ).group_by("w").aggregate([("first_doc", "min")])
        base = pa.table({"w": g["w"], "first_doc": g["first_doc_min"],
                         "max_doc": pa.array(
                             np.full(g.num_rows, ids.max() if len(ids)
                                     else -1, dtype=np.int64))})
        if not len(ids):
            return base
        # sentinel row carries the block's doc-id max even when every
        # doc in the block tokenizes to zero kept words ("" never
        # survives the keep filter, so it cannot collide with a word)
        sent = pa.table({
            "w": pa.array([""], type=pa.string()),
            "first_doc": pa.array([np.iinfo(np.int64).max]),
            "max_doc": pa.array([np.int64(ids.max())])})
        return pa.concat_tables([base, sent]) if g.num_rows else sent

    df = _fold_groups(_t(sf_dir, "documents", ["doc_id", "text"]), partial,
                      ["w"], {"first_doc": "min", "max_doc": "max"})
    if df.empty:
        return pa.table({"threshold": _i64([]), "vocab_size": _i64([])})
    max_doc = int(df["max_doc"].max())
    df = df[df["w"] != ""]              # drop max-doc sentinel rows
    first = df["first_doc"].to_numpy()
    ks = np.arange(0, 63, dtype=np.int64)
    th = (np.int64(1) << ks)
    th = th[th <= max_doc]
    first.sort()
    vocab = np.searchsorted(first, th, side="right")
    return pa.table({"threshold": _i64(th),
                     "vocab_size": _i64(vocab)})


# ---------------------------------------------------------------------------
# co-occurrence graph construction + triangle counting (round-5 session-7)


_COPART_KNN_SQL = """
WITH e AS (SELECT DISTINCT l_partkey AS p, l_suppkey AS s FROM lineitem),
w AS (SELECT a.s AS u, b.s AS v, COUNT(*) AS shared
      FROM e a JOIN e b ON a.p = b.p AND a.s <> b.s GROUP BY 1, 2),
r AS (SELECT u, v, shared,
             ROW_NUMBER() OVER (PARTITION BY u
                                ORDER BY shared DESC, v) AS rk FROM w),
kn AS (SELECT u, v, shared FROM r WHERE rk <= 10),
m AS (SELECT a.u, a.v, a.shared FROM kn a
      JOIN kn b ON a.u = b.v AND a.v = b.u WHERE a.u < a.v)
"""


@query("copart_mutual_knn_suppliers", sql=_COPART_KNN_SQL + """
SELECT u AS supp_a, v AS supp_b, CAST(shared AS BIGINT) AS shared
FROM m ORDER BY 1, 2""")
def copart_mutual_knn_suppliers(sf_dir: str):
    """Mutual k-NN co-occurrence graph over suppliers: weight = number
    of distinct parts two suppliers both ship; keep (u, v) iff each is
    among the other's 10 strongest partners (ties by partner id — the
    same ROW_NUMBER ORDER BY shared DESC, v on both sides).  A fixed
    absolute weight threshold degenerates across scale factors (the
    sf0.1 graph is complete at >= 1 shared part); the per-node top-k
    rule is scale-free.  All-integer, SQL-exact."""
    from ..stages.cooccur import cooccur_weights, mutual_knn

    u, v, w = cooccur_weights(
        _t(sf_dir, "lineitem", ["l_partkey", "l_suppkey"]),
        part_col="l_partkey", node_col="l_suppkey")
    mu, mv, mw = mutual_knn(u, v, w, k=10)
    return pa.table({"supp_a": _i64(mu), "supp_b": _i64(mv),
                     "shared": _i64(mw)})


@query("copart_triangles_suppliers", sql=_COPART_KNN_SQL + """,
t AS (SELECT a.u AS x, a.v AS y, b.v AS z
      FROM m a JOIN m b ON a.v = b.u
      JOIN m c ON c.u = a.u AND c.v = b.v)
SELECT node AS s_suppkey, CAST(COUNT(*) AS BIGINT) AS n_tri FROM (
    SELECT x AS node FROM t
    UNION ALL SELECT y FROM t
    UNION ALL SELECT z FROM t)
GROUP BY 1 ORDER BY 1""")
def copart_triangles_suppliers(sf_dir: str):
    """Per-supplier triangle participation on the mutual k-NN co-part
    graph (local clustering signal; nodes in >= 1 triangle).  Wedge
    probes are searchsorted membership tests against the broadcast
    sorted edge keys, fanned out over edge slices — bounded by
    k^2 * |nodes| on a mutual k-NN graph, never by |lineitem|."""
    from ..stages.cooccur import (cooccur_weights, mutual_knn,
                                  triangle_counts)

    u, v, w = cooccur_weights(
        _t(sf_dir, "lineitem", ["l_partkey", "l_suppkey"]),
        part_col="l_partkey", node_col="l_suppkey")
    mu, mv, _ = mutual_knn(u, v, w, k=10)
    nodes, ntri = triangle_counts(mu, mv)
    return pa.table({"s_suppkey": _i64(nodes), "n_tri": _i64(ntri)})


@query("training_shuffle_positions", sql="""
SELECT doc_id,
       ROW_NUMBER() OVER (
           ORDER BY ((doc_id % 1000003) * 2654435761) % 4294967296,
                    doc_id) AS shuffle_pos
FROM documents""")
def training_shuffle_positions(sf_dir: str):
    """Deterministic global training shuffle: every doc gets a stable
    pseudo-random position (ORDER BY a stateless integer hash, ties by
    id) — the reproducible, resumable alternative to random_shuffle()
    for ordering a corpus before training.  The hash is the repo's
    split-hash arithmetic (functions/sampling.split_code family: pure
    int64 products, no overflow below 2^63, ids >= 0 for SQL %
    parity); positions come from the sorted-block metadata-prefix rank
    pass (stages/rank.dense_rank with a constant partition and the
    unique (hash, id) composite, so DENSE_RANK == ROW_NUMBER) — one
    sort exchange, then O(blocks) driver ints, rows never leave the
    object store."""
    from ..stages.rank import dense_rank

    def key(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = ((ids % 1000003) * 2654435761) % 4294967296
        return pa.table({"g": np.zeros(len(ids), dtype=np.int64),
                         "h": h, "doc_id": ids})

    keyed = _t(sf_dir, "documents", ["doc_id"]).map_batches(
        key, batch_format="pyarrow", zero_copy_batch=True)
    return dense_rank(keyed, ["g", "h", "doc_id"], partition_col="g",
                      keep_cols=["doc_id"], out_col="shuffle_pos")


@query("systematic_sample_docs", sql="""
WITH d AS (SELECT doc_id,
                  CAST(len(string_split(COALESCE(text, ''), ' '))
                       AS BIGINT) AS n_words
           FROM documents),
c AS (SELECT doc_id, n_words,
             CAST(SUM(n_words) OVER (ORDER BY doc_id
                  ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                  AS BIGINT) AS cum_words
      FROM d)
SELECT doc_id, n_words, cum_words
FROM c WHERE cum_words // 257 > (cum_words - n_words) // 257""")
def systematic_sample_docs(sf_dir: str):
    """Weighted systematic sampling by token count: walk the corpus in
    doc_id order and keep every document whose running word total
    crosses a multiple of the 257-word stride — deterministic
    weight-proportional thinning with zero RNG state (reference's
    fixed-fraction sample, dataframes.py:259-266, made reproducible at
    scale).  One sort exchange + the metadata-prefix pattern
    (stages/rank.systematic_sample); all-integer, so the SQL window-SUM
    oracle (CAST to BIGINT per the HUGEINT rule) is exact."""
    from ..stages.rank import systematic_sample

    def wc(t: pa.Table) -> pa.Table:
        from ..stages.text import _word_counts
        return pa.table({"doc_id": t["doc_id"],
                         "n_words": pa.array(_word_counts(t["text"]))})

    ds = _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        wc, batch_format="pyarrow", zero_copy_batch=True)
    return systematic_sample(ds, ["doc_id"], weight_col="n_words",
                             stride=257,
                             keep_cols=["doc_id", "n_words"],
                             out_col="cum_words")


@query("snapshot_diff_user_counts", sql=f"""
WITH a AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n FROM events
           WHERE ts < TIMESTAMP '2024-01-16' GROUP BY user_id),
b AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n FROM events
      WHERE ts >= TIMESTAMP '2024-01-16' GROUP BY user_id)
SELECT COALESCE(a.user_id, b.user_id) AS user_id,
       CAST(COALESCE(a.n, 0) AS BIGINT) AS n_old,
       CAST(COALESCE(b.n, 0) AS BIGINT) AS n_new,
       CASE WHEN a.user_id IS NULL THEN 'added'
            WHEN b.user_id IS NULL THEN 'removed'
            WHEN a.n = b.n THEN 'unchanged' ELSE 'changed' END AS status
FROM a FULL OUTER JOIN b ON a.user_id = b.user_id""")
def snapshot_diff_user_counts(sf_dir: str):
    """CDC-style snapshot diff: classify every user as added / removed
    / changed / unchanged between the first and second half-month of
    events (split at the repo's HALF_TS) by per-user row count — the
    incremental-load reconciliation check.  One streaming pass: packed
    (2*user + half) count partials through the census tree merge,
    driver pivots O(users) ints (validators/reconcile.
    snapshot_diff_counts)."""
    from ..validators.reconcile import snapshot_diff_counts

    return snapshot_diff_counts(
        _t(sf_dir, "events", ["user_id", "ts"]),
        key_col="user_id", ts_col="ts", cut="2024-01-16")


@query("dup_cluster_size_histogram", sql="""
WITH g AS (SELECT md5(COALESCE(text, '')) AS fp,
                  CAST(COUNT(*) AS BIGINT) AS sz
           FROM documents GROUP BY fp)
SELECT sz AS cluster_size, CAST(COUNT(*) AS BIGINT) AS n_clusters,
       CAST(SUM(sz) AS BIGINT) AS n_docs
FROM g GROUP BY sz""")
def dup_cluster_size_histogram_q(sf_dir: str):
    """Exact-dup cluster-size distribution over documents (dedup-stage
    sizing telemetry): census-pruned 64-bit hash counts, exact md5
    resolution only for candidate rows, singletons counted from the
    census — all-integer.  See stages/text.dup_cluster_size_histogram."""
    from ..stages.text import dup_cluster_size_histogram

    return dup_cluster_size_histogram(_t(sf_dir, "documents", ["text"]))


@query("resample_daily_locf_events", sql="""
WITH nv AS (SELECT user_id, ts, event_id, value FROM events
            WHERE value IS NOT NULL),
v AS (SELECT user_id, CAST(CAST(ts AS DATE) AS TIMESTAMP) AS day, value,
             ROW_NUMBER() OVER (PARTITION BY user_id, CAST(ts AS DATE)
                                ORDER BY ts DESC, event_id DESC) AS rn
      FROM nv),
vd AS (SELECT user_id, day, value FROM v WHERE rn = 1),
b AS (SELECT user_id, MIN(day) AS d0, MAX(day) AS d1 FROM vd
      GROUP BY user_id),
g AS (SELECT user_id, unnest(generate_series(d0, d1, INTERVAL 1 DAY))
             AS day
      FROM b)
SELECT g.user_id, g.day,
       LAST_VALUE(vd.value IGNORE NULLS) OVER (
           PARTITION BY g.user_id ORDER BY g.day
           ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS value_locf
FROM g LEFT JOIN vd ON g.user_id = vd.user_id AND g.day = vd.day""")
def resample_daily_locf_events(sf_dir: str):
    """Calendar resampling to a regular daily grid with
    last-observation-carried-forward — the classic time-series
    preprocessing step behind the reference's TimeSeriesImputer
    (TimeSeriesImputer.py:36-43), made key-deterministic: per user,
    take the last non-null value of each active day (ordered by ts,
    event_id), build the user's own min..max daily grid, forward-fill.
    The ffill per-key window; LOCF is selection-only, so float parity
    is free (file-header rules).  Grid volume is bounded by users x
    horizon days, never by event count."""
    ds = _t(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    ds = ds.map_batches(
        lambda t: t.filter(pc.is_valid(t["value"])),
        batch_format="pyarrow", zero_copy_batch=True)

    day_us = np.int64(86_400_000_000)

    def locf(df: pd.DataFrame) -> pd.DataFrame:
        tus = df["ts"].to_numpy().astype("datetime64[us]").view(np.int64)
        last = df.assign(day=tus // day_us * day_us).groupby(
            ["user_id", "day"], sort=False, as_index=False)["value"].last()
        span = last.groupby("user_id", sort=False)["day"].agg(["min", "max"])
        n = ((span["max"] - span["min"]) // day_us + 1).to_numpy()
        step = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        grid = pd.DataFrame({
            "user_id": np.repeat(span.index.to_numpy(), n),
            "day": np.repeat(span["min"].to_numpy(), n) + step * day_us}) \
            .merge(last, how="left")
        grid["value"] = grid.groupby("user_id", sort=False)["value"].ffill()
        return grid.astype({"day": "datetime64[us]"}) \
            .rename(columns={"value": "value_locf"})

    return _per_key(ds, "user_id", ["ts", "event_id"], locf)


@query("pareto_frontier_orders", sql="""
WITH g AS (SELECT o_totalprice AS p, MAX(o_orderdate) AS dmax
           FROM orders GROUP BY p),
r AS (SELECT p, dmax,
             MAX(dmax) OVER (ORDER BY p DESC
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                 AS mprev
      FROM g)
SELECT o.o_orderkey, o.o_totalprice, o.o_orderdate
FROM orders o JOIN r ON o.o_totalprice = r.p
WHERE o.o_orderdate = r.dmax
  AND (r.mprev IS NULL OR o.o_orderdate > r.mprev)""")
def pareto_frontier_orders(sf_dir: str):
    """Exact 2-D skyline (Pareto frontier) of orders maximizing
    (o_totalprice, o_orderdate) — "no other order is both at least as
    expensive and at least as recent, strictly better on one" — the
    multi-objective worst-first cut (reference presentation sort,
    runs.py:429-435, generalized).  Map-side per-block frontiers + one
    fold of them (stages/topk.skyline_2d): no exchange, frontier
    of a union == frontier of the per-block frontiers.  Comparisons
    only, so float parity is free; the SQL oracle is the O(n log n)
    window form (per-price max date vs the exclusive running max over
    strictly higher prices), not a quadratic NOT EXISTS."""
    from ..stages.topk import skyline_2d

    return skyline_2d(
        _t(sf_dir, "orders", ["o_orderkey", "o_totalprice",
                              "o_orderdate"]),
        x_col="o_totalprice", y_col="o_orderdate",
        keep_cols=["o_orderkey", "o_totalprice", "o_orderdate"])
