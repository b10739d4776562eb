"""K-medoids cluster-similarity scoring — reference F15
(``estimator/KMedian.py:20-66`` ``KMedianEstimator``: a KMedoids fit over
pattern-feature columns whose ``transform`` was left an unfinished
passthrough; the documented intent at ``KMedian.py:50`` is "distance of
each value to the medoids" as a categorical-pattern similarity measure).

The engine implements the intended semantics, Ray-Data-first, with the
CLARA decomposition (Kaufman & Rousseeuw 1990 — a public algorithm):

- **Sample** (1 pass): each block emits its ``sample_size * n_samples``
  smallest-``splitmix64(id)`` rows, and ``stages.transport.fold`` merges
  them with the same cut.  Hash-ordered sampling is stateless and
  retry-identical (the ``functions/sampling.py`` rule), so the fit is
  deterministic — no RNG,
  which also satisfies the reference's ``random_state`` reproducibility
  knob by construction.
- **PAM per sample chunk** (driver, vectorized numpy): greedy BUILD +
  best-improvement SWAP on the s x s distance matrix.  s is bounded
  (default 256), so the O(s^2) matrix is KBs regardless of input size.
- **Candidate-set cost** (1 pass): all ``n_samples`` medoid sets are
  broadcast together (``ray.put`` once) and one fold sums per-block
  partial costs for every set; the argmin set wins
  (ties -> lowest sample index).
- **Assign** (1 pass): broadcast the winning medoid matrix; per batch
  one vectorized distance computation adds ``cluster`` (nearest medoid,
  medoid rows pre-sorted lexicographically so labels are canonical) and
  ``medoid_dist`` (the reference's ClusterSimilarity score).

Three dataset executions total, each a streaming ``map_batches`` over
pruned columns; nothing larger than one ``sample_size * n_samples``-row
sample and n_samples costs per fold survivor (``ceil(blocks / FAN_IN)``
of them) ever reaches the driver, so the stage holds at 100 TB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

import ray

from ..sketches import hash64, splitmix64
from .transport import fold


def _feature_matrix(t: pa.Table, cols: list[str]) -> np.ndarray:
    """Stack feature columns into an (n, d) float64 matrix."""
    return np.column_stack(
        [t[c].to_numpy(zero_copy_only=False).astype(np.float64)
         for c in cols]) if t.num_rows else np.empty((0, len(cols)))


def _pairwise(X: np.ndarray, Y: np.ndarray, metric: str) -> np.ndarray:
    """(n, m) distance matrix; euclidean (reference default,
    KMedian.py:31) or manhattan (k-median proper)."""
    if metric == "euclidean":
        sq = (np.sum(X * X, axis=1)[:, None] + np.sum(Y * Y, axis=1)[None]
              - 2.0 * (X @ Y.T))
        return np.sqrt(np.maximum(sq, 0.0))
    if metric == "manhattan":
        return np.abs(X[:, None, :] - Y[None, :, :]).sum(axis=2)
    raise ValueError(f"unknown metric {metric!r}")


def pam(X: np.ndarray, k: int, metric: str = "euclidean",
        max_swaps: int = 100) -> np.ndarray:
    """Deterministic PAM on an in-memory sample: greedy BUILD then
    best-improvement SWAP (first-index tie-breaks).  Returns sorted
    medoid row indices.  O(s^2) — callers bound s."""
    n = len(X)
    if k >= n:
        return np.arange(n)
    D = _pairwise(X, X, metric)
    med = [int(np.argmin(D.sum(axis=1)))]
    while len(med) < k:
        dmin = D[:, med].min(axis=1)
        gains = np.maximum(dmin[:, None] - D, 0.0).sum(axis=0)
        gains[med] = -1.0
        med.append(int(np.argmax(gains)))
    med = np.array(sorted(med))
    rows = np.arange(n)
    for _ in range(max_swaps):
        Dm = D[:, med]
        order = np.argsort(Dm, axis=1, kind="stable")
        d1 = Dm[rows, order[:, 0]]
        d2 = Dm[rows, order[:, 1]] if k > 1 else np.full(n, np.inf)
        cur = d1.sum()
        best_delta, best = -1e-9, None
        for mi in range(k):
            base = np.where(order[:, 0] == mi, d2, d1)
            deltas = np.minimum(base[:, None], D).sum(axis=0) - cur
            deltas[med] = np.inf
            h = int(np.argmin(deltas))
            if deltas[h] < best_delta:
                best_delta, best = float(deltas[h]), (mi, h)
        if best is None:
            break
        med[best[0]] = best[1]
        med = np.sort(med)
    return med


@dataclass(frozen=True)
class KMedoidState:
    """Fit result: medoid feature rows (lexicographically sorted — the
    canonical cluster labels) + their source ids and the winning cost."""
    medoids: np.ndarray
    medoid_ids: np.ndarray
    cost: float
    cols: tuple[str, ...]
    metric: str


def _id_hash(ids: np.ndarray) -> np.ndarray:
    """Stateless uint64 sample ranks from an id column (int or str)."""
    if ids.dtype.kind in "iu":
        return splitmix64(ids.astype(np.int64).view(np.uint64))
    return splitmix64(hash64(ids.astype(object)).view(np.uint64))


def kmedoids_fit(ds, cols: list[str], id_col: str, k: int = 3,
                 sample_size: int = 256, n_samples: int = 3,
                 metric: str = "euclidean") -> KMedoidState:
    """CLARA fit: PAM over ``n_samples`` disjoint hash-ordered sample
    chunks; the set with the lowest FULL-data cost (one distributed
    pass scoring all candidates) wins."""
    want = sample_size * n_samples
    fcols = list(cols)

    def lowest(t: pa.Table) -> pa.Table:
        """``t``'s ``want`` rows of lowest id hash, ties in row order —
        the same cut per block and per merge, so the sample does not
        depend on block boundaries."""
        return t.take(np.argsort(t["_h"].to_numpy(), kind="stable")[:want])

    def partial(t: pa.Table) -> pa.Table:
        h = _id_hash(t[id_col].to_numpy(zero_copy_only=False))
        return lowest(t.select(list(dict.fromkeys([id_col, *fcols])))
                      .append_column("_h", pa.array(h)))

    samp = fold(ds, partial, lambda parts: lowest(pa.concat_tables(parts))
                if parts else None)
    if samp is None or not samp.num_rows:
        raise ValueError("kmedoids_fit: empty input dataset")
    S = _feature_matrix(samp, fcols)
    sids = samp[id_col].to_numpy(zero_copy_only=False)

    cand_feats, cand_ids = [], []
    chunk = max(len(S) // n_samples, 1) if len(S) else 1
    for i in range(n_samples):
        part = S[i * chunk:(i + 1) * chunk]
        if len(part) < k:
            continue
        med = pam(part, k, metric=metric)
        cand_feats.append(part[med])
        cand_ids.append(sids[i * chunk:(i + 1) * chunk][med])
    if not cand_feats:
        raise ValueError("sample smaller than k; raise sample_size")

    ref = ray.put(np.stack(cand_feats))

    def costs(t: pa.Table) -> np.ndarray:
        C = ray.get(ref)
        M = _feature_matrix(t, fcols)
        return np.array([_pairwise(M, C[i], metric).min(axis=1).sum()
                         for i in range(len(C))])

    total = fold(ds, costs, lambda parts: sum(
        parts, np.zeros(len(cand_feats))))
    win = int(np.argmin(total))  # argmin tie-breaks to lowest index
    M, ids = cand_feats[win], cand_ids[win]
    canon = np.lexsort(tuple(M[:, j] for j in range(M.shape[1] - 1, -1, -1)))
    return KMedoidState(medoids=M[canon], medoid_ids=ids[canon],
                        cost=float(total[win]), cols=tuple(fcols),
                        metric=metric)


def assign_medoids(ds, state: KMedoidState, *, cluster_col: str = "cluster",
                   dist_col: str = "medoid_dist"):
    """Broadcast the medoid matrix once; per batch one vectorized
    distance computation labels rows and attaches the ClusterSimilarity
    distance (KMedian.py:50,64-66)."""
    ref = ray.put(state.medoids)
    fcols, metric = list(state.cols), state.metric

    def add(t: pa.Table) -> pa.Table:
        M = ray.get(ref)
        X = _feature_matrix(t, fcols)
        D = _pairwise(X, M, metric)
        cl = D.argmin(axis=1) if len(X) else np.empty(0, dtype=np.int64)
        dist = D[np.arange(len(X)), cl] if len(X) else np.empty(0)
        return t.append_column(cluster_col, pa.array(cl.astype(np.int64))) \
                .append_column(dist_col, pa.array(dist.astype(np.float64)))

    return ds.map_batches(add, batch_format="pyarrow")


def cluster_similarity(ds, cols: list[str], id_col: str, k: int = 3,
                       sample_size: int = 256, n_samples: int = 3,
                       metric: str = "euclidean"):
    """One-call F15 surface: fit + assign.  The input is consumed by
    three executions (sample, cost, assign) — pass a materialized or
    cheap-to-recompute dataset."""
    state = kmedoids_fit(ds, cols, id_col, k=k, sample_size=sample_size,
                         n_samples=n_samples, metric=metric)
    return assign_medoids(ds, state)
