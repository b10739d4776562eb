"""Per-row anomaly-evidence checks: Tukey fences, MAD modified-Z, totals,
scores, labels, per-partition verdicts.

Reference semantics reproduced (see /root/reference):
- Tukey: fences ``q1 - f*IQR`` / ``q3 + f*IQR`` learned at fit, flag
  ``(x < lo) | (x > hi)`` as int — TukeyTransformer.py:36-54 (factor 1.5).
- MAD modified-Z: ``0.6745*(x - med)/MAD``, flag ``|z| > 3.5`` —
  MedianAbsolutDeviation.py:40-61; ``mad == 0 -> flags 0`` is engine-defined
  (the reference's guard return is discarded by sklearn fit — SURVEY F7).
- Totals: row-wise flag sums -> ``Tukey_Total`` / ``MAD_Total`` —
  TukeyTransformerTotal.py:25-36, MedianAbsolutDeviationTotal.py:25-37.
- Score: min-max scaled to [0,1] (runs.py:200-201), label = score >
  ``np.percentile(scores, 100*(1-pct))`` (runs.py:211-214).
- Verdict OR-merge: a row is a violation if ANY validator flags it
  (experiment.py:441-445); a partition FAILs if its violation share
  exceeds the budget.

Execution shape: profile (already computed) is a few-KB broadcast; the
check itself is a stateless vectorized ``map_batches``; ONE pass over the
checked rows (:func:`check_summary`) emits per-block raw-score counts and
per-partition ``(n_rows, n_viol)`` partials together, merged by
``stages.transport.fold`` into the score scaling/threshold and the
partition verdicts.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..profile import TableProfile, _merge_columns
from ..sketches import ValueCounts
from ..stages.transport import fold, merge_groups

TUKEY_SUFFIX = "_TUKEY"      # reference TukeyTransformer.py:56-57
MADZ_SUFFIX = "_Z_MOD"       # reference MedianAbsolutDeviation.py:64-65
TUKEY_TOTAL = "Tukey_Total"
MAD_TOTAL = "MAD_Total"
SCORE_COL = "AnomalyScore"
LABEL_COL = "AnomalyLabel"


@dataclass
class FenceState:
    """Per-column fitted scalars — the engine's analogue of the
    reference's fitted transformer attributes (TukeyTransformer.py:37-42)."""

    lo: float
    hi: float
    med: float
    mad: float

    def flags(self, v: np.ndarray, mad_threshold: float = 3.5
              ) -> tuple[np.ndarray, np.ndarray]:
        """The Tukey and MAD flag masks of float64 ``v``.  NaN (a null
        cast to float64) compares false, so it never flags; a MAD of 0
        or NaN gives no MAD flags."""
        tukey = (v < self.lo) | (v > self.hi)
        if self.mad > 0:
            return tukey, np.abs(0.6745 * (v - self.med) / self.mad) \
                > mad_threshold
        return tukey, np.zeros(len(v), dtype=bool)


def _weighted_median_abs_dev(values: np.ndarray, counts: np.ndarray,
                             med: float) -> float:
    """MAD = median of |x - med|, computed exactly from value counts."""
    dev = np.abs(values.astype(np.float64) - med)
    vc = ValueCounts.from_items(dev, counts, max_items=len(dev) + 1)
    return vc.quantile(0.5)


def fence_states(profile: TableProfile, cols: list[str], *,
                 tukey_factor: float = 1.5,
                 mode: str = "per_column") -> dict[str, FenceState]:
    """Build check state from a profile.

    ``mode='per_column'`` is the principled engine default;
    ``mode='pooled'`` reproduces the reference's global-flattened
    statistics (np.quantile with no axis — TukeyTransformer.py:37-38):
    one fence for every column, fitted on a merge of copies of the
    columns' sketches (exact value counts merge exactly, KLL and HLL
    merge).
    """
    def fit(src) -> FenceState:
        q1, q3 = src.quantile(0.25), src.quantile(0.75)
        iqr = q3 - q1
        med = src.quantile(0.5)
        if src.exact_quantiles and src.values.distinct:
            vals, cnts = src.values.sorted_arrays()
            mad = _weighted_median_abs_dev(vals, cnts, med)
        else:
            # sketch path: the MAD would need a second pass over
            # |x - med|; without one, MAD flags stay off (NaN)
            mad = float("nan")
        return FenceState(lo=q1 - tukey_factor * iqr,
                          hi=q3 + tukey_factor * iqr, med=med, mad=mad)

    if mode == "pooled" and cols:
        return dict.fromkeys(cols, fit(_merge_columns(
            [copy.deepcopy(profile[c]) for c in cols])))
    return {c: fit(profile[c]) for c in cols}


class RowChecker:
    """Task callable: append per-row evidence columns.

    State (the fitted fences) is deserialized ONCE in ``__init__``; the
    instance rides in the task closure.
    """

    def __init__(self, state_blob: bytes, *, mad_threshold: float = 3.5):
        self.states: dict[str, FenceState] = pickle.loads(state_blob)
        self.mad_threshold = mad_threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        tukey_flags = []
        mad_flags = []
        out = batch
        for col, st in self.states.items():
            v = out[col].cast(pa.float64()).combine_chunks().to_numpy(
                zero_copy_only=False)
            tk, md = st.flags(v, self.mad_threshold)
            tk8 = tk.astype(np.int8)
            md8 = md.astype(np.int8)
            tukey_flags.append(tk8)
            mad_flags.append(md8)
            out = out.append_column(col + TUKEY_SUFFIX, pa.array(tk8))
            out = out.append_column(col + MADZ_SUFFIX, pa.array(md8))
        n = out.num_rows
        tk_tot = (np.sum(tukey_flags, axis=0, dtype=np.int64)
                  if tukey_flags else np.zeros(n, dtype=np.int64))
        md_tot = (np.sum(mad_flags, axis=0, dtype=np.int64)
                  if mad_flags else np.zeros(n, dtype=np.int64))
        out = out.append_column(TUKEY_TOTAL, pa.array(tk_tot))
        out = out.append_column(MAD_TOTAL, pa.array(md_tot))
        return out


def check_rows(ds, states: dict[str, FenceState], *,
               mad_threshold: float = 3.5):
    """Apply :class:`RowChecker` over a Dataset as stateless tasks, the
    few-KB fence state captured in the closure (exactly how the
    reference shares fitted scalars)."""
    checker = RowChecker(pickle.dumps(states), mad_threshold=mad_threshold)
    return ds.map_batches(checker.__call__, batch_format="pyarrow",
                          zero_copy_batch=True)


# ---------------------------------------------------------------------------
# score counts + verdicts: one pass over the checked rows


def _score_stats(raw: np.ndarray, cnts: np.ndarray, pct: float
                 ) -> tuple[float, float, float]:
    """(min, max, percentile-threshold) of raw scores given as value
    counts; threshold = ``np.percentile(scores, 100*(1-pct))``
    (runs.py:211), NaN when there are no scores."""
    vc = ValueCounts.from_items(raw, cnts, max_items=len(raw) + 1)
    vals, _ = vc.sorted_arrays()
    if not len(vals):
        return 0.0, 0.0, float("nan")
    return float(vals[0]), float(vals[-1]), vc.quantile(1.0 - pct)


def check_summary(checked_ds, partition_col: str | None = None, *,
                  pct: float = 0.10, budget: float = 0.05,
                  evidence_cols: tuple[str, ...] = (TUKEY_TOTAL, MAD_TOTAL)):
    """Score stats and per-partition verdicts from ONE pass.

    Each block groups its rows by (raw score, violation[, partition]) and
    emits the counts: O(distinct scores x partitions) rows per block,
    never O(rows), merged by ``stages.transport.fold`` with
    ``merge_groups``.  From the merged counts come

    - ``(min, max, percentile-threshold)`` of the raw flag-sum score;
    - when ``partition_col`` is given, a ``pa.Table`` of per-partition
      ``(partition_col, n_rows, n_viol, fail)``, sorted by partition
      (typed even when it has no rows, so its ``to_pandas()`` keeps
      the columns).  A
      row is a violation if ANY evidence column is > 0 (the reference's
      OR-merge, experiment.py:441-445); a partition fails when its
      violation share exceeds ``budget``.  Otherwise ``None``.
    """
    pcols = [partition_col] if partition_col is not None else []
    keys = ["score_raw", "viol"] + pcols

    def partial(batch: pa.Table) -> pa.Table:
        viol = np.zeros(batch.num_rows, dtype=bool)
        for c in evidence_cols:
            viol |= batch[c].to_numpy(zero_copy_only=False) > 0
        return pa.table({
            "score_raw": pc.add(batch[TUKEY_TOTAL], batch[MAD_TOTAL]),
            "viol": viol, **{c: batch[c] for c in pcols}}) \
            .group_by(keys).aggregate([([], "count_all")])

    g = fold(checked_ds, partial, merge_groups(keys, {"count_all": "sum"}))
    if g is None:
        g = pa.table({"score_raw": pa.array([], pa.int64()),
                      "viol": pa.array([], pa.bool_()),
                      "count_all": pa.array([], pa.int64()),
                      **{c: pa.array([], pa.int64()) for c in pcols}})
    by_score = g.group_by(["score_raw"]).aggregate([("count_all", "sum")])
    stats = _score_stats(by_score["score_raw"].to_numpy().astype(np.int64),
                         by_score["count_all_sum"].to_numpy(), pct)
    if partition_col is None:
        return stats, None
    v = g.append_column("n_viol", pc.if_else(g["viol"], g["count_all"], 0)) \
        .group_by([partition_col]) \
        .aggregate([("count_all", "sum"), ("n_viol", "sum")]) \
        .sort_by(partition_col)
    n_rows = v["count_all_sum"].to_numpy()
    n_viol = v["n_viol_sum"].to_numpy()
    return stats, pa.table({
        partition_col: v[partition_col], "n_rows": n_rows,
        "n_viol": n_viol,
        "fail": (n_viol / n_rows > budget).astype(np.int8)})


def score_threshold(checked_ds, *, pct: float = 0.10
                    ) -> tuple[float, float, float]:
    """Return (min, max, percentile-threshold) of the raw score
    (:func:`check_summary` without partitions)."""
    return check_summary(checked_ds, pct=pct)[0]


def partition_verdicts(checked_ds, partition_col: str, *,
                       budget: float = 0.05,
                       evidence_cols: tuple[str, ...] = (TUKEY_TOTAL, MAD_TOTAL)):
    """Per-partition pass/fail: violation share vs budget.  Returns a
    ``pa.Table`` of (partition_col, n_rows, n_viol, fail); see
    :func:`check_summary`, whose pass this is."""
    return check_summary(checked_ds, partition_col, budget=budget,
                         evidence_cols=evidence_cols)[1]


def score_stats_from_profile(profile: TableProfile,
                             states: dict[str, FenceState], *,
                             pct: float = 0.10,
                             mad_threshold: float = 3.5
                             ) -> tuple[float, float, float] | None:
    """Derive (min, max, percentile-threshold) of the raw flag-sum score
    straight from the profile's EXACT value counts — zero extra dataset
    executions when the check covers a SINGLE column.

    The raw score is a deterministic function of that column's value,
    so its multiset folds directly off the value counts; null/NaN rows
    score 0 exactly as :class:`RowChecker` emits (flags are masked to
    valid values).  Returns None when the states span several columns
    (the joint flag-sum distribution is not derivable from marginals)
    or the profile lost exactness — callers fall back to the
    :func:`score_threshold` pass.
    """
    if len(states) != 1:
        return None
    (col, st), = states.items()
    src = profile[col]
    if not src.exact_quantiles:
        return None
    vals, cnts = src.values.sorted_arrays()
    v = np.asarray(vals, dtype=np.float64)
    cnts = np.asarray(cnts, dtype=np.int64)
    # NaN entries live in the value counts AND in moments.nans;
    # null_count covers both, so drop them here and score them 0 below
    m = ~np.isnan(v)
    v, cnts = v[m], cnts[m]
    tuk, md = st.flags(v, mad_threshold)
    raw = tuk.astype(np.int64) + md
    zeros_extra = int(src.null_count)
    if zeros_extra:
        raw = np.concatenate([raw, [0]])
        cnts = np.concatenate([cnts, [zeros_extra]])
    return _score_stats(raw, cnts, pct)


def attach_scores(checked_ds, *, pct: float = 0.10,
                  stats: tuple[float, float, float] | None = None):
    """Append ``AnomalyScore`` (min-max scaled raw flag sum, runs.py:200-201)
    and ``AnomalyLabel`` (score_raw > percentile threshold, runs.py:211-214).

    Pass ``stats`` (from :func:`score_stats_from_profile`) to skip the
    :func:`score_threshold` barrier pass entirely — the whole chain then
    executes once, at the final consumer."""
    lo, hi, thr = stats if stats is not None \
        else score_threshold(checked_ds, pct=pct)
    span = hi - lo

    def attach(batch: pa.Table) -> pa.Table:
        raw = pc.add(batch[TUKEY_TOTAL], batch[MAD_TOTAL]).to_numpy(
            zero_copy_only=False).astype(np.float64)
        score = (raw - lo) / span if span > 0 else np.zeros_like(raw)
        label = (raw > thr).astype(np.int8)
        batch = batch.append_column(SCORE_COL, pa.array(score))
        batch = batch.append_column(LABEL_COL, pa.array(label))
        return batch

    return checked_ds.map_batches(attach, batch_format="pyarrow",
                                  zero_copy_batch=True)
