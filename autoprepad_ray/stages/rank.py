"""Global-order ranking stages: NTILE, DENSE_RANK and systematic
sampling, each one (summarize, prefix, emit) triple on
:func:`transport.scan`.

A total order over the dataset is the one operation that genuinely
needs a global sort (range-partition exchange) — but ONLY the sort.
Everything these stages add on top is metadata-cheap: the sorted blocks
already arrive in global order, so a few scalars per block (row counts
read from block metadata, distinct-run counts and boundary keys, weight
sums) prefix-fold on the driver into each block's global offset, and
the per-row step is an embarrassingly parallel integer formula inside
each block.  No second exchange, no driver-side row data.

This is the grouped analogue of the reference's presentation sort
(/root/reference/pipelines/runs.py:429-435) extended to the
equal-shard layout step of a training-data pipeline (balancing k
output shards by a sort key).

Tie-safety: NTILE's output depends on the total order, so callers must
make its sort key unique (append a row id); DENSE_RANK is a function of
the key values alone and needs no tie-break.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .transport import scan


def run_starts(cols: list[np.ndarray]) -> np.ndarray:
    """True where a sorted block's row starts a new run of equal
    composite keys ``cols`` (the first row always does)."""
    new = np.zeros(len(cols[0]), dtype=bool)
    new[:1] = True
    for a in cols:
        new[1:] |= a[1:] != a[:-1]
    return new


def ntile_positions(rn: np.ndarray, n: int, k: int) -> tuple:
    """SQL NTILE(k) bucket of every 1-based global row number ``rn``
    among ``n`` rows, and its 1-based position within that bucket (both
    int64): the first ``n % k`` buckets hold ``ceil(n/k)`` rows — pure
    integer math, exact parity."""
    q, r = divmod(n, k)
    big = r * (q + 1)                 # rows living in the larger buckets
    small = rn > big                  # never true when q == 0
    b, p = np.divmod(rn - 1 - np.where(small, big, 0),
                     np.where(small, max(q, 1), q + 1))
    return (b + 1 + np.where(small, r, 0)).astype(np.int64), \
        (p + 1).astype(np.int64)


def offsets(sizes: list[int]) -> list[tuple[int, int]]:
    """``(sum of the sizes before it, total)`` of every block's size
    (its row count, or its weight)."""
    n = int(sum(sizes))
    return [(int(o), n) for o in np.cumsum([0] + sizes[:-1])]


def ntile(ds, keys: list[str], k: int, *, keep_cols: list[str],
          out_col: str = "bucket"):
    """Assign each row its NTILE(k) bucket under the total order given
    by ``keys`` (which must be unique as a composite).

    One ``Dataset.sort`` (the unavoidable exchange); the blocks' row
    counts come from their metadata, and one independent task per
    block numbers its rows from its offset and buckets them."""
    def emit(t: pa.Table, at: tuple) -> pa.Table:
        off, n = at
        rn = off + np.arange(1, t.num_rows + 1, dtype=np.int64)
        return pa.table({**{c: t[c] for c in keep_cols},
                         out_col: ntile_positions(rn, n, k)[0]})

    return scan(ds, keys, None, offsets, emit)


def dense_rank(ds, keys: list[str], *, partition_col: str,
               keep_cols: list[str], descending: list[bool] | None = None,
               out_col: str = "drank"):
    """SQL ``DENSE_RANK() OVER (PARTITION BY partition_col ORDER BY
    ...)`` where ``partition_col`` is ``keys[0]``: one global sort (the
    unavoidable exchange, same as :func:`ntile`), then each block
    summarizes its distinct composite-key count, boundary keys and
    per-partition first local rank, and the driver prefix-folds
    O(blocks x partitions) integers: a run spanning a block boundary
    collapses via the boundary-equality adjustment, and each
    partition's global first rank rebases its ranks to 1.  One task per
    block then emits the final int64 ranks; row data never leaves the
    object store.

    Rank is a pure function of the VALUES (ties share a rank), so the
    result is deterministic under any block layout with no tie-break
    column needed — unlike ntile, which requires a unique composite.

    A float rank key holding NaN (or a numeric key holding null, which
    reads as NaN) raises ``ValueError`` naming the column: NaN is
    unequal to itself, so each such row would get its own rank where
    SQL DENSE_RANK groups them.  Fill or drop such keys first."""
    assert keys[0] == partition_col

    def local_ranks(t: pa.Table) -> tuple:
        arrs = [t[k].to_numpy(zero_copy_only=False) for k in keys]
        return arrs, np.cumsum(run_starts(arrs))

    def summarize(t: pa.Table) -> tuple:
        arrs, lr = local_ranks(t)
        for k, a in zip(keys, arrs):
            if a.dtype.kind == "f" and np.isnan(a).any():
                raise ValueError(
                    f"dense_rank: rank key {k!r} holds NaN or null; fill "
                    "or drop those rows first")
        if not t.num_rows:
            return 0, None, None, {}
        uq, idx = np.unique(t[partition_col].to_numpy(zero_copy_only=False),
                            return_index=True)
        return (int(lr[-1]), tuple(a[0] for a in arrs),
                tuple(a[-1] for a in arrs),
                {u: int(lr[i]) for u, i in zip(uq, idx)})

    def prefix(sums: list) -> list:
        d_off, prev_last, bases, run = [], None, {}, 0
        for nd, first, last, bmap in sums:
            if prev_last is not None and first == prev_last:
                run -= 1
            d_off.append(run)
            for p, b in bmap.items():
                bases[p] = min(bases.get(p, run + b), run + b)
            run += nd
            prev_last = last
        part_keys = np.array(sorted(bases), dtype=object)
        part_bases = np.array([bases[p] for p in part_keys], dtype=np.int64)
        return [(d, part_keys, part_bases) for d in d_off]

    def emit(t: pa.Table, at: tuple) -> pa.Table:
        d_off, part_keys, part_bases = at
        pv = t[partition_col].to_numpy(zero_copy_only=False).astype(object)
        rank = d_off + local_ranks(t)[1] + 1 \
            - part_bases[np.searchsorted(part_keys, pv)]
        return pa.table({**{c: t[c] for c in keep_cols},
                         out_col: pa.array(rank, pa.int64())})

    return scan(ds, keys, summarize, prefix, emit, descending=descending)


def systematic_sample(ds, keys: list[str], *, weight_col: str,
                      stride: int, keep_cols: list[str],
                      out_col: str = "cum_weight"):
    """Weighted SYSTEMATIC sampling: walk the corpus in ``keys`` order
    accumulating integer ``weight_col`` (token counts), keep every row
    in which the running total crosses a multiple of ``stride`` — the
    deterministic, single-pass alternative to weighted random sampling
    for thinning a corpus to a token budget (every kept row "owns" the
    stride boundary it crossed, so expected inclusion probability is
    proportional to weight, with zero RNG state to reproduce).

    The grouped analogue of the reference's fixed-fraction row
    sampling (/root/reference/pipelines/dataframes.py:259-266), made
    scale-deterministic.  Shape: one sort exchange (the total order),
    then per-block weight sums fold to O(blocks) driver ints, and one
    independent task per block emits its crossings — pure integer floor
    division, exact on any block layout because each block's offset
    rebases its local cumsum globally.  All-integer, so SQL window-SUM
    parity is exact with no float rules."""
    def weights(t: pa.Table) -> np.ndarray:
        return t[weight_col].to_numpy(zero_copy_only=False).astype(np.int64)

    def emit(t: pa.Table, at: tuple) -> pa.Table:
        w = weights(t)
        cum = at[0] + np.cumsum(w)
        keep = np.flatnonzero((cum // stride) > ((cum - w) // stride))
        return pa.table({**{c: t[c].take(keep) for c in keep_cols},
                         out_col: pa.array(cum[keep], pa.int64())})

    return scan(ds, keys, lambda t: int(weights(t).sum()), offsets, emit)
