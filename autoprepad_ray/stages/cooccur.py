"""Co-occurrence graph construction + triangle counting.

A staple of catalog/entity analytics over transaction logs: project a
bipartite (group, node) incidence — e.g. (part, supplier) from lineitem
— onto the node side, weight node pairs by how many groups they share,
keep each node's top-k strongest partners, symmetrize to the MUTUAL
k-NN graph, and count triangles (the local-clustering signal).

No reference analogue (the reference has no graph ops); engine-defined,
folding per-block partials with `stages/transport.fold` (the
uniqueness-census architecture) for the distributed passes.

Scale notes (the partitioning contract):
- pass 1 reduces the DATA-sized stream to the DISTINCT bipartite
  incidence — catalog-bounded (|groups| x avg-degree), never row-count-
  bounded.  The fold assumes the distinct incidence fits driver memory;
  at a larger catalog, shard the fold by group hash (the pair-expansion
  tasks already take group-aligned slices, so the shard boundary is
  free).
- pair expansion runs in flat Ray tasks over group-aligned slices of
  the plasma-shared incidence array; each task emits a (pair, count)
  census partial, so the exchange is bounded by REALIZED co-occurring
  pairs, not by emissions.
- the mutual k-NN graph is k*|nodes| edges by construction — broadcast-
  able at any scale for small k; triangle tasks fetch it once from the
  object store and fold per-node count partials.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from .transport import (cell_refs, cells_return, fold, merge_counts,
                        merge_unique)

_MASK32 = np.int64((1 << 32) - 1)


def _check_range(a: np.ndarray, what: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    if len(a) and (a.min() < 0 or a.max() >= (1 << 31)):
        raise ValueError(
            f"cooccur packs {what} into 32 bits; got values outside "
            f"[0, 2^31) — remap keys first")
    return a


def _distinct_partial(t: pa.Table, part_col: str, node_col: str
                      ) -> np.ndarray:
    p = _check_range(t[part_col].to_numpy(zero_copy_only=False), part_col)
    s = _check_range(t[node_col].to_numpy(zero_copy_only=False), node_col)
    return np.unique((p << 32) | s)


@ray.remote
def _pair_census(inc_ref, lo: int, hi: int, splits: np.ndarray):
    """Expand node pairs for the group-aligned incidence slice
    [lo, hi) and return the (pairkey, count) census partial RANGE-
    PARTITIONED by ``splits`` (len(splits)+1 cells, num_returns).
    Size-class batching over group degrees (the `_segment_pairs`
    trick) keeps the expansion one numpy op per distinct degree, no
    per-group loop.  Partitioned returns let the merge fold run as
    parallel tasks instead of one driver-side unique over the whole
    census (2.3 s -> ~0.3 s at sf0.1)."""
    inc = inc_ref[lo:hi]
    nodes = inc & _MASK32
    grp = inc >> np.int64(32)
    bounds = np.flatnonzero(np.r_[True, grp[1:] != grp[:-1], True])
    sizes = np.diff(bounds)
    starts = bounds[:-1]
    keys: list[np.ndarray] = []
    for m in np.unique(sizes):
        if m < 2:
            continue
        st = starts[sizes == m]
        idx = st[:, None] + np.arange(int(m))[None, :]
        iu, ju = np.triu_indices(int(m), 1)
        # chunk BOTH axes so the pair transient stays ~32 MB even when
        # a single hub group's m(m-1)/2 alone exceeds the budget
        budget = 4_000_000
        pair_step = min(len(iu), budget)
        grp_step = max(1, budget // pair_step)
        for c in range(0, len(st), grp_step):
            ic = idx[c:c + grp_step]
            for p0 in range(0, len(iu), pair_step):
                isel = iu[p0:p0 + pair_step]
                jsel = ju[p0:p0 + pair_step]
                a = nodes[ic[:, isel].ravel()]
                b = nodes[ic[:, jsel].ravel()]
                lo_n, hi_n = np.minimum(a, b), np.maximum(a, b)
                keys.append((lo_n << 32) | hi_n)
    if not keys:
        e = np.empty(0, dtype=np.int64)
        return cells_return([(e, e)] * (len(splits) + 1))
    vals, cnts = np.unique(np.concatenate(keys), return_counts=True)
    cuts = np.r_[0, np.searchsorted(vals, splits), len(vals)]
    return cells_return([(vals[a:b], cnts[a:b])
                         for a, b in zip(cuts[:-1], cuts[1:])])


@ray.remote
def _fold_cells(*cells):
    """Merge one partition's census cells (already dereferenced —
    Ray hands top-level ObjectRef args as values)."""
    return merge_counts([c for c in cells if len(c[0])])


def cooccur_weights(ds, *, part_col: str, node_col: str,
                    expand_tasks: int = 32, merge_tasks: int = 8
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, shared) co-occurrence weights, u < v: the number of
    distinct ``part_col`` groups each node pair shares."""
    inc = fold(ds, lambda t: _distinct_partial(t, part_col, node_col),
               merge_unique)                 # sorted by (group, node)
    if not len(inc):                 # every block was empty
        e = np.empty(0, dtype=np.int64)
        return e, e, e
    grp = inc >> np.int64(32)
    # group-aligned slice boundaries for the expansion tasks
    cuts = np.linspace(0, len(inc), expand_tasks + 1).astype(np.int64)
    cuts = np.searchsorted(grp, grp[np.minimum(cuts, len(inc) - 1)],
                           side="left")
    cuts[0], cuts[-1] = 0, len(inc)
    cuts = np.unique(cuts)
    inc_ref = ray.put(inc)
    # range-partition the pair-key space on low-node-id quantiles so
    # the census fold runs as merge_tasks parallel tasks; partitions
    # concatenate back in sorted order for free
    nodes_u = np.unique(inc & _MASK32)
    n_parts = int(min(merge_tasks, max(1, len(nodes_u) // 4)))
    if n_parts > 1:
        bq = nodes_u[np.linspace(0, len(nodes_u) - 1,
                                 n_parts + 1).astype(np.int64)][1:-1]
        bounds = np.unique(bq.astype(np.int64) << np.int64(32))
        n_parts = len(bounds) + 1
    else:
        bounds = np.empty(0, dtype=np.int64)
    grid = [cell_refs(_pair_census, n_parts, inc_ref, int(a), int(b),
                      bounds) for a, b in zip(cuts[:-1], cuts[1:])]
    merged = ray.get([_fold_cells.remote(*[row[p] for row in grid])
                      for p in range(n_parts)])
    vals = np.concatenate([m[0] for m in merged])
    cnts = np.concatenate([m[1] for m in merged])
    return (vals >> np.int64(32)), (vals & _MASK32), cnts


def mutual_knn(u: np.ndarray, v: np.ndarray, shared: np.ndarray, *,
               k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mutual top-k filter: keep (u, v) iff v is among u's k strongest
    partners AND u is among v's (ties broken by partner id ascending —
    ROW_NUMBER() OVER (ORDER BY shared DESC, v)).  Returns (u, v,
    shared) with u < v, k*|nodes|-bounded."""
    u = _check_range(u, "node ids")
    v = _check_range(v, "node ids")
    shared = np.asarray(shared)
    if not len(u):
        return u, v, shared
    # symmetrize, then rank within each source node
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    w = np.concatenate([shared, shared])
    order = np.lexsort((dst, -w, src))
    src, dst, w = src[order], dst[order], w[order]
    starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
    pos = np.arange(len(src)) - np.repeat(starts, np.diff(
        np.r_[starts, len(src)]))
    keep = pos < k
    src, dst, w = src[keep], dst[keep], w[keep]
    # mutual = canonical pair key appears in both directions
    key = (np.minimum(src, dst) << 32) | np.maximum(src, dst)
    ks, cnt = np.unique(key, return_counts=True)
    both = ks[cnt == 2]
    sel = (src < dst) & np.isin(key, both, assume_unique=False)
    return src[sel], dst[sel], w[sel]


@ray.remote
def _triangle_partial(edges_ref, csr_starts_ref, csr_nodes_ref,
                      csr_nbrs_ref, lo: int, hi: int):
    """Per-node triangle-count partial for edge slice [lo, hi): for each
    edge (x, y) the candidates are y's greater-neighbors w, and (x, w)
    membership is one searchsorted against the sorted edge keys."""
    edges = edges_ref
    x = edges[lo:hi] >> np.int64(32)
    y = edges[lo:hi] & _MASK32
    # greater-neighbor CSR lookup for each y (y always has an entry
    # only when some edge starts at y; absent -> degree 0)
    yi = np.minimum(np.searchsorted(csr_nodes_ref, y),
                    len(csr_nodes_ref) - 1)
    has = csr_nodes_ref[yi] == y
    deg = np.where(has, csr_starts_ref[yi + 1] - csr_starts_ref[yi], 0)
    reps = np.repeat(np.arange(len(x)), deg)
    if not len(reps):
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    # flat candidate index: csr_start[y] + within-run offset
    base = np.repeat(csr_starts_ref[yi], deg)
    within = np.arange(len(reps)) - np.repeat(np.cumsum(deg) - deg, deg)
    wv = csr_nbrs_ref[base + within]
    probe = (x[reps] << 32) | wv
    pos = np.searchsorted(edges, probe)
    hit = (pos < len(edges)) & (edges[np.minimum(pos, len(edges) - 1)]
                                == probe)
    tri_x, tri_y, tri_w = x[reps[hit]], y[reps[hit]], wv[hit]
    nodes, counts = np.unique(np.concatenate([tri_x, tri_y, tri_w]),
                              return_counts=True)
    return nodes, counts


def triangle_counts(u: np.ndarray, v: np.ndarray, *,
                    tasks: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """(node, n_triangles) over the undirected edge set (u < v),
    restricted to nodes in >= 1 triangle.  Wedge work is bounded by
    sum(deg_greater^2) <= k^2 * |nodes| on a mutual k-NN graph."""
    u = _check_range(u, "node ids")
    v = _check_range(v, "node ids")
    if not len(u):
        e = np.empty(0, dtype=np.int64)
        return e, e
    edges = np.sort((u << np.int64(32)) | v)
    # greater-neighbor CSR: for each node a, sorted list of b > a
    src, dst = edges >> np.int64(32), edges & _MASK32
    csr_nodes, counts = np.unique(src, return_counts=True)
    csr_starts = np.r_[0, np.cumsum(counts)]
    edges_ref = ray.put(edges)
    nodes_ref = ray.put(csr_nodes)
    starts_ref = ray.put(csr_starts)
    nbrs_ref = ray.put(dst)
    cuts = np.linspace(0, len(edges), tasks + 1).astype(np.int64)
    cuts = np.unique(cuts)
    futs = [_triangle_partial.remote(edges_ref, starts_ref, nodes_ref,
                                     nbrs_ref, int(a), int(b))
            for a, b in zip(cuts[:-1], cuts[1:])]
    return merge_counts(ray.get(futs))
