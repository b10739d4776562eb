"""Experiment harness — the engine's analogue of the reference's
Experiment (experiment.py:180-421): run the declared validation against
a table with labeled injected anomalies (y_true), OR-merge the evidence
into a predicted label (experiment.py:441-445), report
precision/recall/F1, and sweep the score-percentile threshold 1..100%
(experiment.py:394-405).

The table is the mixed (EVSE-style) F-MIXED table, validated by
:data:`FMIXED_CONFIG` through ``config._declared_evidence`` — the same
evidence step ``run_config`` runs: NaN-token canonicalization (M1),
numeric Tukey/MAD evidence (sentinel values like -9999), enum-domain
checks (rare/unseen category — F11/F12), format-pattern checks on
id-like columns (M9 as a format profile) and datetime parse +
epoch-range evidence (wrong-year rows).

The "model score" is the deterministic evidence total (flag sum) — the
north rule replaces the pyod scorer with deterministic checks; the
harness shape (inject -> fit -> score -> threshold sweep -> metrics) is
preserved.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import _declared_evidence, _thresholds
from ..stages.transport import fold, merge_groups

FMIXED_CONFIG = {
    "numeric_columns": ["locationId"],
    "nominal_columns": ["platform", "availability"],
    "pattern_columns": ["evseid", "uuid"],
    "datetime_columns": ["timestamp"],
}


def _metrics_from_counts(tp: int, fp: int, fn: int) -> dict:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return {"tp": tp, "fp": fp, "fn": fn,
            "precision": round(precision, 6),
            "recall": round(recall, 6), "f1": round(f1, 6)}


def _percentile_from_counts(vals_f: np.ndarray, cum: np.ndarray,
                            q_pct: float) -> float:
    """``np.percentile(expanded, q_pct)`` (linear method) replayed from
    sorted distinct values + cumulative counts — bit-identical to numpy
    including its >= 0.5 lerp branch, without expanding the multiset."""
    n = int(cum[-1])
    vi = (n - 1) * (q_pct / 100.0)
    lo = int(np.floor(vi))
    hi = int(np.ceil(vi))
    t = vi - lo
    a = vals_f[np.searchsorted(cum, lo, side="right")]
    b = vals_f[np.searchsorted(cum, hi, side="right")]
    diff = b - a
    return float(b - diff * (1 - t)) if t >= 0.5 else float(a + diff * t)


def run_experiment(ds, *, y_true_col: str = "y_true") -> dict:
    """Inject-evaluate harness: validate ``ds`` with
    :data:`FMIXED_CONFIG` (one profile pass), OR-merge to y_pred, report
    metrics + a PR sweep over score-percentile thresholds 1..100%
    (reference experiment.py:394-405, save_metrics_pr_curve...).

    Scale shape (r5): evidence scores are small ints, so the whole
    sweep folds from ONE (n_evidence, y_true) value-count aggregate —
    per-block Arrow ``group_by`` partials merged by
    ``stages.transport.fold`` with ``merge_groups``, bounded by distinct
    (score, label) pairs.  The validated table itself never
    materializes on the driver (the r4 shape ran ``to_pandas()`` plus a
    100-iteration percentile loop over the raw score array); every
    threshold, percentile and P/R/F1 value is computed from counts and
    matches the expanded-array math bit-exactly
    (:func:`_percentile_from_counts`)."""
    checked = _declared_evidence(
        ds, FMIXED_CONFIG, _thresholds(FMIXED_CONFIG)).enriched

    def partial(t: pa.Table) -> pa.Table:
        return (pa.table({"s": t["n_evidence"], "y": t[y_true_col]})
                .group_by(["s", "y"]).aggregate([([], "count_all")]))

    g = fold(checked, partial, merge_groups(["s", "y"],
                                            {"count_all": "sum"}))
    s, y, c = (g[k].to_numpy().astype(np.int64)
               for k in ("s", "y", "count_all"))

    def metrics(pred: np.ndarray) -> dict:
        return _metrics_from_counts(
            int(c[pred & (y == 1)].sum()),
            int(c[pred & (y == 0)].sum()),
            int(c[~pred & (y == 1)].sum()))

    # OR-merge rule: any evidence -> anomaly (experiment.py:441-445)
    out = {"or_merge": metrics(s > 0), "sweep": []}
    vals, inv = np.unique(s, return_inverse=True)
    vc = np.zeros(len(vals), dtype=np.int64)
    np.add.at(vc, inv.reshape(-1), c)
    cum = np.cumsum(vc)
    vals_f = vals.astype(np.float64)
    s_f = s.astype(np.float64)
    for pct in range(1, 101):
        thr = _percentile_from_counts(vals_f, cum, 100 - pct)
        m = metrics(s_f > thr)
        m["pct"] = pct
        out["sweep"].append(m)
    return out
