"""Spearman rank correlation, distributed and exact.

The reference's duplicate-COLUMN heuristic (SpearmanCheck.py:23-41) runs
scipy.stats.spearmanr on the whole in-memory frame.  The engine computes
the identical statistic distributively without materializing rows:

1. one pass builds exact per-column value counts (the profile job);
2. the driver derives the value -> average-rank map (ties get the mean
   of their rank range — scipy/SQL ``rank() + (ties-1)/2`` semantics);
3. the maps are broadcast and a second pass accumulates centered
   Pearson partial sums over the mapped ranks.

Centered sums keep magnitudes ~n^3/4 < 2^53 for n up to ~50M rows
(documented bound); ranks are exact halves so the sums are exact.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..profile import profile_dataset
from ..stages.transport import fold


def _rank_map(values: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sorted values -> average 1-based rank per value."""
    cum = np.cumsum(counts)
    start = cum - counts + 1          # first rank of each tie-group
    avg = start + (counts - 1) / 2.0  # average rank
    return values.astype(np.float64), avg


def duplicate_columns(ds, cols: list[str], *, threshold: float = 0.98
                      ) -> list[tuple[str, str, float]]:
    """Duplicate-COLUMN heuristic (reference SpearmanCheck.py:23-41:
    warn when |Spearman rho| >= 0.98 between any column pair).  O(k^2)
    in columns, each pair one distributed exact Spearman."""
    out = []
    for i in range(len(cols) - 1):
        for j in range(i + 1, len(cols)):
            rho = spearman(ds, cols[i], cols[j])
            if abs(rho) >= threshold:
                out.append((cols[i], cols[j], round(rho, 6)))
    return out


def _rank_average(a: np.ndarray) -> np.ndarray:
    """scipy.stats.rankdata(method='average') without scipy."""
    uniq, inv, cnts = np.unique(a, return_inverse=True,
                                return_counts=True)
    cum = np.cumsum(cnts)
    start = cum - cnts + 1
    return (start + (cnts - 1) / 2.0)[inv]


def spearman_sampled(ds, col_x: str, col_y: str, *,
                     sample_rows: int = 1_000_000,
                     seed: int = 17) -> float:
    """Sampled Spearman — the path past the exact-rank bound.

    The reference's SpearmanCheck (SpearmanCheck.py:23-41) runs
    scipy.spearmanr on whatever frame fits memory, i.e. it is itself a
    sample at scale; with rho-threshold 0.98 the duplicate-column
    heuristic tolerates sampling noise (SE(rho) ~ 1/sqrt(n) ~ 0.001 at
    n=1M).  A uniform ``random_sample`` bounds the collected rows; rank
    + Pearson run driver-side on the bounded sample."""
    n = ds.count()
    frac = min(1.0, sample_rows / max(1, n))
    sub = ds.select_columns([col_x, col_y])
    if frac < 1.0:
        sub = sub.random_sample(frac, seed=seed)
    xs, ys = [], []
    for b in sub.iter_batches(batch_size=65536, batch_format="pyarrow"):
        xs.append(b[col_x].cast(pa.float64()).to_numpy(
            zero_copy_only=False))
        ys.append(b[col_y].cast(pa.float64()).to_numpy(
            zero_copy_only=False))
    x = np.concatenate(xs) if xs else np.empty(0)
    y = np.concatenate(ys) if ys else np.empty(0)
    m = ~(np.isnan(x) | np.isnan(y))
    x, y = x[m][:sample_rows], y[m][:sample_rows]
    if len(x) < 2:
        return float("nan")
    rx = _rank_average(x)
    ry = _rank_average(y)
    rx -= rx.mean()
    ry -= ry.mean()
    sxx, syy, sxy = rx @ rx, ry @ ry, rx @ ry
    if sxx == 0 or syy == 0:
        return float("nan")
    return float(sxy / np.sqrt(sxx * syy))


def spearman(ds, col_x: str, col_y: str, *, max_exact: int = 2_000_000,
             sample_rows: int = 1_000_000) -> float:
    prof = profile_dataset(ds, columns=[col_x, col_y], max_exact=max_exact)
    if prof.n_rows < 2:
        return float("nan")
    n = prof[col_x].count
    maps = {}
    for c in (col_x, col_y):
        if prof[c].values.overflow:
            # distinct count exceeded the exact-rank bound: fall back to
            # the bounded-sample estimate (documented approximation —
            # the reference itself never sees more rows than fit memory)
            return spearman_sampled(ds, col_x, col_y,
                                    sample_rows=sample_rows)
        vals, cnts = prof[c].values.sorted_arrays()
        maps[c] = _rank_map(vals, cnts)
    mean_rank = (n + 1) / 2.0
    maps_ref = ray.put(maps)

    def partial(batch: pa.Table) -> np.ndarray:
        m = ray.get(maps_ref)
        vx, rx_map = m[col_x]
        vy, ry_map = m[col_y]
        x = batch[col_x].cast(pa.float64()).to_numpy(zero_copy_only=False)
        y = batch[col_y].cast(pa.float64()).to_numpy(zero_copy_only=False)
        rx = rx_map[np.searchsorted(vx, x)] - mean_rank
        ry = ry_map[np.searchsorted(vy, y)] - mean_rank
        return np.array([rx @ rx, ry @ ry, rx @ ry])

    sxx, syy, sxy = fold(ds, partial, lambda parts: sum(parts, np.zeros(3)))
    if sxx == 0 or syy == 0:
        return float("nan")
    return float(sxy / np.sqrt(sxx * syy))
