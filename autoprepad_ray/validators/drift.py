"""Distribution-drift validators: PSI and KS between a reference profile
and a current partition (FIXTURES.md R6).

These replace the reference's learned outlier-model score (pyod fit at
runs.py:162 / score at runs.py:198) with deterministic distribution
distances — the north rule's drift checks on w/h/fmt histograms and
caption-length distributions.

PSI uses +0.5 Laplace smoothing per bin (so empty bins are defined);
the same formula is mirrored in the DuckDB oracle SQL, keeping the
correctness gate exact.  Histogram counts are per-block partials
summed by ``stages.transport.fold`` — no shuffle.  The per-partition
partial and merge (:func:`histogram_partial`, :func:`merge_histograms`)
are the ones the image pipeline folds in its passes; its per-partition
PSI verdicts (``validate_images`` and the runner alike) come from
``pipelines.image_validation.partition_verdicts``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sketches import ValueCounts, np_object
from ..stages.transport import fold, merge_groups


def psi_from_counts(ref_counts, cur_counts) -> float:
    """PSI with +0.5/bin smoothing: p=(c+0.5)/(N+0.5B);
    sum((p-q)*ln(p/q))."""
    ref_counts = np.asarray(ref_counts, dtype=float)
    cur_counts = np.asarray(cur_counts, dtype=float)
    b = len(ref_counts)
    p = (ref_counts + 0.5) / (ref_counts.sum() + 0.5 * b)
    q = (cur_counts + 0.5) / (cur_counts.sum() + 0.5 * b)
    return float(np.sum((p - q) * np.log(p / q)))


def histogram_counts(ds, col: str, edges: np.ndarray) -> np.ndarray:
    """Fixed-edge histogram of one column, streaming (values outside the
    edge range are clamped into the first/last bin)."""
    edges = np.asarray(edges, dtype=float)

    def partial(batch: pa.Table) -> np.ndarray:
        v = batch[col].cast(pa.float64()).combine_chunks().to_numpy(
            zero_copy_only=False)
        v = v[~np.isnan(v)]
        idx = np.clip(np.searchsorted(edges, v, side="right") - 1,
                      0, len(edges) - 2)
        return np.bincount(idx, minlength=len(edges) - 1)

    return fold(ds, partial, lambda parts: sum(
        parts, np.zeros(len(edges) - 1, dtype=np.int64)))


def categorical_counts(ds, col: str) -> dict:
    """Value counts of a (modest-cardinality) categorical column: each
    block's Arrow ``group_by`` count is one ``stages.transport.fold``
    partial, merged by ``merge_groups``.  For hot-value skew, the
    per-block partial IS the salt: each block contributes at most one
    row per category."""
    def partial(batch: pa.Table) -> pa.Table:
        return batch.select([col]).group_by([col]) \
            .aggregate([([], "count_all")]).rename_columns([col, "n"])

    g = fold(ds, partial, merge_groups([col], {"n": "sum"}))
    return {} if g is None else dict(zip(g[col].to_pylist(),
                                         g["n"].to_pylist()))


def histogram_partial(batch: pa.Table, num_specs: dict[str, np.ndarray],
                      cat_cols: list[str], partition_col: str
                      ) -> tuple[dict, dict]:
    """One block's per-partition drift inputs: fixed-edge histograms for
    every numeric spec (NaN and null skipped, values outside the edge
    range clamped into the first/last bin) plus category counts for
    every categorical column.  Merged by :func:`merge_histograms`.

    Returns (num: {col: {pid: counts}}, cat: {col: {pid: {val: n}}})."""
    pid = batch[partition_col].to_numpy(zero_copy_only=False)
    uniq, inv = np.unique(pid, return_inverse=True)
    num: dict = {}
    for col, edges in num_specs.items():
        edges = np.asarray(edges, dtype=float)
        nb = len(edges) - 1
        v = batch[col].cast(pa.float64()).combine_chunks().to_numpy(
            zero_copy_only=False)
        keep = ~np.isnan(v)
        idx = np.clip(np.searchsorted(edges, v[keep], side="right") - 1,
                      0, nb - 1)
        counts = np.zeros((len(uniq), nb), dtype=np.int64)
        np.add.at(counts, (inv[keep], idx), 1)
        num[col] = {int(u): counts[k] for k, u in enumerate(uniq)}
    cat: dict = {}
    for col in cat_cols:
        vals = np_object(batch[col])
        d: dict = {}
        for k, u in enumerate(uniq):
            vv, cc = np.unique(vals[inv == k], return_counts=True)
            d[int(u)] = dict(zip(vv.tolist(), cc.tolist()))
        cat[col] = d
    return num, cat


def merge_histograms(parts: list[tuple[dict, dict]], num_cols=(),
                     cat_cols=()) -> tuple[dict, dict]:
    """Fold :func:`histogram_partial` outputs (associative; every
    ``num_cols`` / ``cat_cols`` key is present even for ``[]``)."""
    num: dict = {c: {} for c in num_cols}
    cat: dict = {c: {} for c in cat_cols}
    for num_out, cat_out in parts:
        for col, d in num_out.items():
            tgt = num.setdefault(col, {})
            for u, counts in d.items():
                tgt[u] = tgt[u] + counts if u in tgt else counts
        for col, d in cat_out.items():
            by_pid = cat.setdefault(col, {})
            for u, vc in d.items():
                tgt = by_pid.setdefault(u, {})
                for v, n in vc.items():
                    tgt[v] = tgt.get(v, 0) + n
    return num, cat


def partition_histograms(ds, num_specs: dict[str, np.ndarray],
                         cat_cols: list[str], partition_col: str
                         ) -> tuple[dict, dict]:
    """ALL drift inputs in ONE streaming pass: :func:`histogram_partial`
    per block, folded by ``stages.transport.fold`` with
    :func:`merge_histograms` — no shuffle at all.

    Returns (num: {col: {pid: counts}}, cat: {col: {pid: {val: n}}}).
    """
    return fold(ds,
                lambda t: histogram_partial(t, num_specs, cat_cols,
                                            partition_col),
                lambda parts: merge_histograms(parts, num_specs, cat_cols))


def psi_numeric(ds_ref, ds_cur, col: str, edges) -> float:
    return psi_from_counts(histogram_counts(ds_ref, col, edges),
                           histogram_counts(ds_cur, col, edges))


def psi_categorical(ds_ref, ds_cur, col: str) -> float:
    a = categorical_counts(ds_ref, col)
    b = categorical_counts(ds_cur, col)
    cats = sorted(set(a) | set(b), key=lambda x: (x is None, x))
    return psi_from_counts([a.get(c, 0) for c in cats],
                           [b.get(c, 0) for c in cats])


def ks_from_valuecounts(a: ValueCounts, b: ValueCounts) -> float:
    """Exact two-sample KS statistic from exact value counts."""
    va, ca = a.sorted_arrays()
    vb, cb = b.sorted_arrays()
    if len(va) == 0 or len(vb) == 0:
        # one empty side: KS is 0 when both are empty, else the full CDF
        # gap (np.where below would index an empty array otherwise)
        return 0.0 if len(va) == len(vb) else 1.0
    allv = np.unique(np.concatenate([va, vb]))
    cum_a = np.cumsum(ca) / max(1, ca.sum())
    cum_b = np.cumsum(cb) / max(1, cb.sum())
    cdf_a = np.where(np.searchsorted(va, allv, side="right") > 0,
                     cum_a[np.clip(np.searchsorted(va, allv, side="right") - 1,
                                   0, len(va) - 1)], 0.0)
    cdf_b = np.where(np.searchsorted(vb, allv, side="right") > 0,
                     cum_b[np.clip(np.searchsorted(vb, allv, side="right") - 1,
                                   0, len(vb) - 1)], 0.0)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_numeric(ds_ref, ds_cur, col: str, *, max_exact: int = 2_000_000) -> float:
    """Exact KS via per-side exact value counts (documented bound:
    flips to histogram-approximated KS past ``max_exact`` distinct)."""
    from ..profile import profile_dataset
    pa_ = profile_dataset(ds_ref, columns=[col], max_exact=max_exact)
    pb_ = profile_dataset(ds_cur, columns=[col], max_exact=max_exact)
    va, vb = pa_[col].values, pb_[col].values
    if va.overflow or vb.overflow:
        edges = np.linspace(
            min(pa_[col].moments.vmin, pb_[col].moments.vmin),
            max(pa_[col].moments.vmax, pb_[col].moments.vmax), 257)
        ca = histogram_counts(ds_ref, col, edges).astype(float)
        cb = histogram_counts(ds_cur, col, edges).astype(float)
        return float(np.max(np.abs(np.cumsum(ca) / ca.sum()
                                   - np.cumsum(cb) / cb.sum())))
    return ks_from_valuecounts(va, vb)


def first_digit_counts(ds, col: str, *, scale: float = 100.0
                       ) -> np.ndarray:
    """Benford first-significant-digit census of a positive decimal
    column: counts[d] for d in 0..9 (0 stays empty for positive data).

    The digit is extracted EXACTLY the way the SQL oracle does —
    round(|x| * scale) to int64 (snapping 2-decimal money to integer
    cents; the product sits ~1e-9 off an integer so round-half modes
    cannot disagree), cast to string, first code unit — all Arrow
    kernels, no Python per row.  Per-block bincount partials summed by
    ``stages.transport.fold`` (nulls carry no digit).  The digit-law
    audit the reference's single-column outlier flags never see
    (novel-fraud screening; Benford 1938 is public knowledge)."""

    def partial(t: pa.Table) -> np.ndarray:
        cents = pc.cast(pc.round(pc.multiply(
            pc.abs(pc.cast(t[col], pa.float64())), scale)), pa.int64())
        digit = pc.cast(pc.utf8_slice_codeunits(
            pc.cast(cents, pa.string()), 0, 1), pa.int64())
        return np.bincount(pc.drop_null(digit).to_numpy(), minlength=10)

    return fold(ds, partial, lambda parts: sum(
        parts, np.zeros(10, dtype=np.int64)))
