"""Packed payload streams and sorted blocks: the one partial->merge
fold, the one slice exchange and the one ordered scan.

Every packed stream is ``payload`` rows of pickled objects, optionally
tagged with ``slice`` and ``kind`` columns, and only this module builds
and reads them (:func:`_pickled` for a fold; :func:`pack_slices`,
:func:`kind_rows` and :func:`unpack_cells` for the exchange).

:func:`fold` is the one unkeyed partial->merge reduction: one Dataset
execution maps each block to one payload row, flat ray tasks merge the
materialized blocks ``FAN_IN`` at a time, and the driver merges the
survivors.  A ``map_batches(merge, batch_size=...)`` merge level would
fuse into its partial's task (one read task per file) and merge
nothing, so the reduce runs over ``to_arrow_refs()`` instead.
:func:`fold_with_layout` also returns the :class:`Layout` (rows, blocks,
bytes) its partials saw, and :func:`sized` turns that layout into the
plan of a later pass over the same Dataset: many small blocks are
bundled into about :func:`default_num_parts` tasks.

:func:`keyed_fold` is the one keyed partial->merge reduction: each
block's partial table routes its rows by the ``sketches.key_hash`` of
the key columns through the slice exchange below, and one flat task per
slice merges them.  Any Arrow key type works and all null keys form one
group.

Every total-order step (NTILE, DENSE_RANK, systematic sampling, prefix
dedup, LAG-style transitions, shard layout) runs on :func:`scan`: one
sort, one ``summarize`` task per sorted block (or just the row counts
its metadata holds), a driver ``prefix`` over those O(blocks)
summaries, and one ``emit`` task per block fed its prefix value.  Row
data never reaches the driver and no second exchange runs.

The slice exchange carries every key-routed step (censuses, band
pairing, keyed folds, reconciliation, similarity joins) in four parts:

1. :func:`slice_of` is the routing rule, ``splitmix64(key) % n``.  A
   co-partitioned step is right only when every side routes by the same
   function, so no caller restates it.
2. :func:`pack_slices` is the packer: given a slice id per row and
   row-aligned fields, it emits one ``(slice[, kind], payload)`` row per
   live slice, the payload pickling that slice's rows of every field.
   Numpy fields are fancy-indexed; Arrow arrays and tables are
   ``take``n, because a pickled ``Table.slice`` carries its parent's
   whole buffers.  :func:`kind_rows` adds a mixed stream's unsliced
   rows (``agg``, ``viol``), which only :func:`fold_payloads` reads.
3. :func:`scatter_slices` moves every payload byte once: a few scatter
   tasks split a materialized packed stream into one return object PER
   SLICE (``num_returns=num_slices``; the caller owns those objects), so
   the task for slice ``s`` is handed only slice-``s`` refs.
4. :func:`unpack_cells` turns a per-slice task's cell lists back into
   the payload tuples, in order.

Sizing: Ray stores task returns under ~100 KB inline in the OWNER's
process, so pathologically small cells would pile the whole stream into
the driver heap.  Scatter tasks therefore group enough input blocks that
the expected per-slice cell clears ``TARGET_CELL_BYTES``; when the whole
stream is small the single-task case is trivially fine.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from ray.data import DataContext
from ray.data.block import BlockAccessor

from ..sketches import key_hash, splitmix64

# keep per-(task, slice) cells comfortably above Ray's ~100 KB
# inline-return bound so large streams live in plasma, not the driver
TARGET_CELL_BYTES = 128 * 1024

# blocks merged by one flat fold task; the driver merges
# ceil(blocks / FAN_IN) survivors
FAN_IN = 32


def default_num_parts(mult: int = 4, floor: int = 16) -> int:
    """Slice count of a scatter: ``mult`` per cluster CPU, at least
    ``floor``."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 4)) \
            if ray.is_initialized() else 4
    except Exception:
        cpus = 4
    return max(floor, cpus * mult)


def _pickled(obj) -> pa.Table:
    """One payload row holding ``obj``."""
    return pa.table({"payload": pa.array([pickle.dumps(obj)],
                                         type=pa.large_binary())})


def merge_counts(parts: list[tuple[np.ndarray, np.ndarray]]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``(values, counts)`` partials fully vectorized; returns sorted
    unique values and their int64 counts (both empty int64 for none)."""
    if not parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    vals = np.concatenate([p[0] for p in parts])
    cnts = np.concatenate([p[1] for p in parts])
    uniq, inv = np.unique(vals, return_inverse=True)
    out = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(out, inv, cnts)
    return uniq, out


def merge_unique(parts: list[np.ndarray]) -> np.ndarray:
    """Sorted distinct values of array partials (empty int64 for none)."""
    return np.unique(np.concatenate(parts)) if parts else \
        np.empty(0, dtype=np.int64)


def merge_concat(parts: list[tuple]) -> tuple:
    """Field-wise concatenation of equal-arity array-tuple partials
    (``()`` for none)."""
    return tuple(np.concatenate(f) for f in zip(*parts))


def merge_groups(keys: list[str], aggs: dict[str, str]):
    """A fold ``merge`` for Arrow ``group_by`` partials: concatenate them
    and re-aggregate each ``aggs`` column ("sum", "min", "max") per
    ``keys`` group, keeping the column names (``None`` for none)."""
    def merge(parts: list[pa.Table]) -> pa.Table | None:
        if not parts:
            return None
        g = pa.concat_tables(parts, promote_options="default") \
            .group_by(keys).aggregate(list(aggs.items()))
        return pa.table({**{k: g[k] for k in keys},
                         **{c: g[f"{c}_{f}"] for c, f in aggs.items()}})
    return merge


def _payloads(blocks, kind: str | None) -> list:
    """Unpickled payloads of packed ``blocks`` (rows of ``kind`` only
    when given)."""
    out = []
    for t in blocks:
        if t.num_rows == 0:
            # 0-row blocks of splits whose map UDF never ran have an
            # EMPTY schema (see _scatter_task)
            continue
        if kind is not None:
            t = t.filter(pc.equal(t["kind"], kind))
        out.extend(pickle.loads(p) for p in t["payload"].to_pylist())
    return out


@ray.remote
def _fold_task(merge, kind: str | None, *blocks) -> bytes | None:
    # pickled, not a plain return: Ray hands large numpy returns to the
    # driver as READ-ONLY plasma views, and merges update in place
    parts = _payloads(blocks, kind)
    return pickle.dumps(merge(parts)) if parts else None


def fold_payloads(packed, merge, kind: str | None = None):
    """Fold a MATERIALIZED packed stream: flat tasks ``merge`` its blocks'
    payloads ``FAN_IN`` blocks at a time, in block order, and the driver
    ``merge``s the survivors.  ``merge(list) -> object`` must be
    associative.  Groups without a payload are dropped, so when no
    payload exists at all the result is ``merge([])``.  ``kind`` filters
    rows as in :func:`scatter_slices`."""
    refs = packed.to_arrow_refs()
    futs = [_fold_task.remote(merge, kind, *refs[i:i + FAN_IN])
            for i in range(0, len(refs), FAN_IN)]
    return merge([pickle.loads(r) for r in ray.get(futs) if r is not None])


def fold(ds, partial, merge):
    """Reduce ``ds`` to one object: ``partial(block: pa.Table)`` maps
    every block to any picklable object and :func:`fold_payloads` merges
    them.  One Dataset execution; a Dataset whose blocks never ran the
    partial (empty, or filtered to nothing) folds to ``merge([])``."""
    packed = ds.map_batches(lambda t: _pickled(partial(t)),
                            batch_format="pyarrow",
                            zero_copy_batch=True).materialize()
    return fold_payloads(packed, merge)


@dataclass(frozen=True)
class Layout:
    """The blocks a fold's partial ran on: their rows, count and Arrow
    bytes.  Layouts add."""

    rows: int = 0
    blocks: int = 0
    bytes: int = 0

    def __add__(self, o: "Layout") -> "Layout":
        return Layout(self.rows + o.rows, self.blocks + o.blocks,
                      self.bytes + o.bytes)


def fold_with_layout(ds, partial, merge) -> tuple:
    """:func:`fold` that also returns the :class:`Layout` of ``ds``: each
    partial counts its own block, so the layout costs no extra pass.
    Returns ``(merge result, layout)``."""
    def counted(t: pa.Table) -> tuple:
        return Layout(t.num_rows, 1, t.nbytes), partial(t)

    def merge_counted(parts: list[tuple]) -> tuple:
        return (sum((lay for lay, _ in parts), Layout()),
                merge([p for _, p in parts]))

    layout, out = fold(ds, counted, merge_counted)
    return out, layout


def _rebundle(t: pa.Table) -> pa.Table:
    return t


def sized(ds, layout: Layout):
    """``ds`` for a pass after one that recorded its ``layout``.

    When that pass saw more than :func:`default_num_parts` blocks, each
    a separate task and object, ``ds`` runs behind one identity
    ``map_batches(batch_size=T)``, ``T = ceil(rows /
    default_num_parts())`` capped at the rows of Ray's
    ``target_max_block_size``: Ray bundles the small blocks, so the
    pass runs about ``default_num_parts()`` tasks.  Otherwise (few
    blocks, no rows, or an unknown layout) ``ds`` is returned as is,
    keeping any read->map fusion it plans."""
    parts = default_num_parts()
    if layout.blocks <= parts or layout.rows == 0:
        return ds
    rows = -(-layout.rows // parts)
    cap = DataContext.get_current().target_max_block_size
    if cap and layout.bytes:
        rows = min(rows, max(1, cap * layout.rows // layout.bytes))
    return ds.map_batches(_rebundle, batch_size=rows, batch_format="pyarrow",
                          zero_copy_batch=True)


@ray.remote
def _scan_task(fn, block, *args):
    return fn(BlockAccessor.for_block(block).to_arrow(), *args)


def scan(ds, keys: list[str], summarize, prefix, emit, *,
         descending: list[bool] | None = None):
    """The ordered scan: sort ``ds`` by ``keys`` once, then walk its
    sorted blocks in global order.

    ``summarize(block)`` runs in one task per non-empty block and
    returns a few picklable scalars; with ``summarize=None`` the
    summaries are the blocks' row counts, read from their metadata
    without a task.  On the driver, ``prefix(summaries)`` turns the
    list of summaries into one value per block.  ``emit(block, value)
    -> pa.Table`` then runs in one task per block, and the result is
    the Dataset of those tables, in order.  With ``emit=None`` the
    result is ``prefix(summaries)`` itself.

    An input without rows runs as ONE empty block of its schema on the
    driver, so every callback must accept a 0-row block; the result
    then keeps the emitted column types.  Like any 0-row Dataset, that
    typed empty result promises ``schema()``: its ``to_pandas()`` has no
    columns.  When Ray reports no schema for the input (an empty
    Dataset after a repartition, or after a map that never ran), the
    result is ``prefix([])``, or a Dataset with no columns."""
    s = ds.sort(keys, descending=descending or [False] * len(keys)) \
        .materialize()
    refs, counts = [], []
    for bundle in s.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows:
                refs.append(ref)
                counts.append(meta.num_rows)
    if not refs:
        sch = ds.schema()             # a sorted 0-row Dataset has none
        if sch is None:               # nor may a mapped empty input
            return prefix([]) if emit is None else rd.from_arrow(pa.table({}))
        empty = pa.schema(list(zip(sch.names, sch.types))).empty_table()
        out = prefix([summarize(empty) if summarize else 0])
        return out if emit is None else rd.from_arrow(emit(empty, out[0]))
    out = prefix(ray.get([_scan_task.remote(summarize, r) for r in refs])
                 if summarize else counts)
    if emit is None:
        return out
    return rd.from_arrow_refs([_scan_task.remote(emit, r, v)
                               for r, v in zip(refs, out)])


def slice_of(keys: np.ndarray, n: int) -> np.ndarray:
    """The routing rule: the slice (int64, in ``[0, n)``) of every
    integer key, ``splitmix64(key) % n``."""
    return (splitmix64(keys) % np.uint64(n)).astype(np.int64)


def pack_slices(sl: np.ndarray, *fields, kind: str | None = None
                ) -> pa.Table:
    """One ``(slice[, kind], payload)`` row per live slice of ``sl``, the
    payload pickling the tuple of that slice's rows of every row-aligned
    field, in row order.  Numpy fields are fancy-indexed; Arrow arrays
    and tables are ``take``n, never pickled as a ``Table.slice`` (which
    carries its parent's whole buffers).  No row gives a typed empty
    table."""
    order = np.argsort(sl, kind="stable")
    s = sl[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])[:len(s)]
    groups = np.split(order, starts[1:]) if len(s) else []
    cols = {"slice": pa.array(s[starts], pa.int32())}
    if kind is not None:
        cols["kind"] = pa.array([kind] * len(groups), pa.string())
    cols["payload"] = pa.array(
        [pickle.dumps(tuple(f[g] if isinstance(f, np.ndarray) else f.take(g)
                            for f in fields)) for g in groups],
        pa.large_binary())
    return pa.table(cols)


def kind_rows(rows: dict) -> pa.Table:
    """The unsliced rows of a mixed packed stream: one ``(slice -1,
    kind, payload)`` row per ``{kind: object}`` item, concatenable with
    the stream's :func:`pack_slices` cells.  :func:`fold_payloads` reads
    them by ``kind``; no scatter ships them."""
    return pa.table({
        "slice": pa.array([-1] * len(rows), pa.int32()),
        "kind": pa.array(list(rows), pa.string()),
        "payload": pa.array([pickle.dumps(o) for o in rows.values()],
                            pa.large_binary())})


def unpack_cells(cell_lists) -> list[tuple]:
    """The payload tuples of a per-slice task's cell lists (each a list
    of payload bytes, as :func:`scatter_slices` hands them), in order."""
    return [pickle.loads(p) for cells in cell_lists for p in cells]


def cells_return(cells: list):
    """A task's return value for ``num_returns=len(cells)``: Ray makes
    ``num_returns=1`` ONE return object, not a 1-tuple."""
    return tuple(cells) if len(cells) > 1 else cells[0]


def cell_refs(task, n: int, *args) -> list:
    """The ``n`` refs of ``task.options(num_returns=n).remote(*args)`` as
    a list, one bare ref included (the task returns through
    :func:`cells_return`)."""
    refs = task.options(num_returns=n).remote(*args)
    return list(refs) if n > 1 else [refs]


@ray.remote
def _scatter_task(num_slices: int, kind: str | None, *blocks):
    """Split packed (slice, payload[, kind]) rows of ``blocks`` into one
    list-of-payload-bytes return PER SLICE."""
    out: list[list[bytes]] = [[] for _ in range(num_slices)]
    for t in blocks:
        if t.num_rows == 0:
            # Ray emits 0-row blocks with an EMPTY schema (no columns)
            # for input splits whose map UDF never ran — they carry no
            # payload and would KeyError on the column lookups below
            continue
        if kind is not None:
            t = t.filter(pc.equal(t["kind"], kind))
        for s, p in zip(t["slice"].to_pylist(), t["payload"].to_pylist()):
            out[s].append(p)
    return cells_return(out)


def scatter_slices(packed, num_slices: int, *, kind: str | None = None
                   ) -> list[list["ray.ObjectRef"]]:
    """Scatter a MATERIALIZED packed Dataset by its ``slice`` column.

    ``packed`` holds :func:`pack_slices` rows for slices in ``[0,
    num_slices)``.  When ``kind`` is given only rows with that ``kind``
    value participate (lets a mixed stream — e.g. pass-2 blocks carrying
    both violation tables and band payloads — scatter without a separate
    filtered copy; the non-matching rows are read once per scatter task,
    never shipped to the per-slice tasks).

    Returns ``per_slice`` where ``per_slice[s]`` is a list of ObjectRefs
    each resolving to a ``list[bytes]`` of slice-``s`` payloads (one per
    scatter task, so every slice gets its list once ``packed`` has a
    block).  Pass them as top-level ``*args`` to the per-slice task, so
    Ray fetches exactly the bytes that task owns, and read them with
    :func:`unpack_cells`.
    """
    refs = packed.to_arrow_refs()
    if not refs:
        return [[] for _ in range(num_slices)]
    size = packed.size_bytes() or 0
    n_tasks = max(1, min(len(refs),
                         int(size // (num_slices * TARGET_CELL_BYTES))))
    grids = [cell_refs(_scatter_task, num_slices, num_slices, kind,
                       *(refs[i] for i in group))
             for group in np.array_split(np.arange(len(refs)), n_tasks)
             if len(group)]
    return [[g[s] for g in grids] for s in range(num_slices)]


@ray.remote
def _keyed_final_task(final, *cells) -> pa.Table | None:
    parts = [p for p, in unpack_cells(cells)]
    return final(parts) if parts else None


def keyed_fold(ds, partial, keys: list[str], final) -> pa.Table | None:
    """Reduce ``ds`` per key: ``partial(block) -> pa.Table`` collapses
    every block to rows holding the ``keys`` columns, each row goes to
    slice ``slice_of(key_hash(keys), default_num_parts())``, and one
    flat task per slice runs ``final(list[pa.Table]) -> pa.Table`` over
    its rows.  Every slice gets a task once ``ds`` has a block (each
    scatter task hands every slice one cell list); a task whose slice
    received no row skips ``final`` and returns None.  All rows of a
    key, null included, meet in one ``final`` call.  Returns the
    concatenated ``final`` tables, or None when no slice had a row.
    One Dataset execution."""
    n = default_num_parts()

    def pack(t: pa.Table) -> pa.Table:
        p = partial(t)
        return pack_slices(slice_of(key_hash([p[k] for k in keys])[0], n),
                           p)

    packed = ds.map_batches(pack, batch_format="pyarrow",
                            zero_copy_batch=True).materialize()
    futs = [_keyed_final_task.remote(final, *cells)
            for cells in scatter_slices(packed, n) if cells]
    out = [t for t in ray.get(futs) if t is not None]
    return pa.concat_tables(out, promote_options="default") if out \
        else None
