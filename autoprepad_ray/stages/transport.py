"""Packed payload streams and sorted blocks: the one partial->merge
fold, the one slice exchange, the one keyed map and the one ordered
scan.

Every packed stream is ``payload`` rows of pickled objects, optionally
tagged with ``slice`` and ``kind`` columns, and only this module builds
and reads them (:func:`_pickled` for a fold; :func:`pack_slices` and
:func:`kind_rows` write the exchange's rows, :func:`slice_map`,
:func:`fold_payloads` and :func:`kind_tables` read them).

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

:func:`keyed_map` is the one keyed exchange: the rows of one Dataset,
or of several keyed alike (a join's sides), route by the
``sketches.key_hash`` of the key columns through the slice exchange
below, and one task per live slice runs a plain function over them (any
Arrow key type; all null keys meet in one call).  :func:`keyed_fold` is
a keyed map over per-block partials plus a driver concat.

Every total-order step (NTILE, DENSE_RANK, systematic sampling, prefix
dedup, LAG-style transitions, shard layout) runs on :func:`scan`: one
sort (null keys last), one ``summarize`` task per sorted block (or just
the row counts its metadata holds), a driver ``prefix`` over those O(blocks)
summaries, and one ``emit`` task per block fed its prefix value.  Row
data never reaches the driver and no second exchange runs.

The slice exchange carries every key-routed step (censuses, band
pairing, candidate pairing and verify, keyed maps and folds,
reconciliation, similarity joins) in three parts:

1. :func:`slice_of` is the routing rule, ``splitmix64(key) % n``.  A
   co-partitioned step is right only when every side routes by the same
   function, so no caller restates it.
2. :func:`pack_slices` is the packer: given a slice id per row and
   row-aligned fields, it emits one ``(slice[, kind], payload)`` row per
   live slice, the payload pickling that slice's rows of every field.
   Numpy fields are fancy-indexed; Arrow arrays and tables are
   ``take``n, because a pickled ``Table.slice`` carries its parent's
   whole buffers.  :func:`kind_rows` adds a mixed stream's unsliced
   rows (``agg``, ``viol``), which :func:`fold_payloads` and
   :func:`kind_tables` read.
3. :func:`slice_map` is the one per-slice task: a few scatter tasks
   split a materialized packed stream into one return object PER SLICE
   (``num_returns=num_slices``), so each byte moves once, and one task
   per slice that a row reached runs a plain ``fn(s, parts)`` over its
   slice's unpickled payloads, handed only slice-``s`` refs.  The cells
   are that task's top-level args, which Ray dereferences; a ref that
   ``fn`` closes over is not, and ``fn`` ``ray.get``s it.

Sizing: Ray stores task returns under ~100 KB inline in the OWNER's
process, so pathologically small cells would pile the whole stream into
the driver heap.  Scatter tasks therefore group enough input blocks that
the expected per-slice cell clears ``TARGET_CELL_BYTES``; when the whole
stream is small the single-task case is trivially fine.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

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


def default_num_parts() -> int:
    """Slice count of a scatter: 4 per cluster CPU, at least 16 (4 CPUs
    are assumed when Ray is not initialized)."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 4)) \
            if ray.is_initialized() else 4
    except Exception:
        cpus = 4
    return max(16, cpus * 4)


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


def merge_fields(*merges):
    """A fold ``merge`` for tuple partials: field ``i`` of the result is
    ``merges[i]`` over field ``i`` of every part (each merge sees ``[]``
    when there is no part)."""
    def merge(parts: list[tuple]) -> tuple:
        return tuple(m([p[i] for p in parts]) for i, m in enumerate(merges))
    return merge


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
    rows as in :func:`slice_map`."""
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
    bytes, and the first one's schema (None when no partial ran).
    Layouts add."""

    rows: int = 0
    blocks: int = 0
    bytes: int = 0
    schema: pa.Schema | None = field(default=None, compare=False)

    def __add__(self, o: "Layout") -> "Layout":
        return Layout(self.rows + o.rows, self.blocks + o.blocks,
                      self.bytes + o.bytes,
                      o.schema if self.schema is None else self.schema)


def fold_with_layout(ds, partial, merge) -> tuple:
    """:func:`fold` that also returns the :class:`Layout` of ``ds``: each
    partial counts its own block, so the layout costs no extra pass.
    Returns ``(merge result, layout)``."""
    def counted(t: pa.Table) -> tuple:
        return Layout(t.num_rows, 1, t.nbytes, t.schema), partial(t)

    layout, out = fold(ds, counted, merge_fields(
        lambda lays: sum(lays, Layout()), merge))
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


_STRINGS = (pa.string(), pa.large_string(), pa.binary(), pa.large_binary())


def _flag_nulls(t: pa.Table, keys: list[str]) -> pa.Table:
    """``t`` before :func:`scan`'s sort: an int8 ``__null{i}`` per key (1
    on a null), which sorts ahead of its key, and string keys' nulls
    filled (Ray's sort orders boundary keys in numpy: None < str
    raises)."""
    for i, k in enumerate(keys):
        t = t.append_column(f"__null{i}",
                            pc.cast(pc.is_null(t[k]), pa.int8()))
        if t[k].type in _STRINGS:
            t = t.set_column(t.schema.get_field_index(k), k, pc.fill_null(
                t[k], pa.scalar(b"", t[k].type)))
    return t


def _unflag_nulls(t: pa.Table, keys: list[str]) -> pa.Table:
    """A sorted block without the ``__null{i}`` columns, its string keys'
    nulls put back."""
    for i, k in enumerate(keys):
        null = pc.equal(t[f"__null{i}"], 1)
        if t[k].type in _STRINGS and pc.any(null).as_py():
            col = pa.concat_arrays(t[k].chunks)   # if_else corrupts
            t = t.set_column(t.schema.get_field_index(k), k, pc.if_else(
                null, pa.scalar(None, col.type), col))  # offset slices
    return t.drop_columns([f"__null{i}" for i in range(len(keys))])


@ray.remote
def _scan_task(fn, keys: list[str], block, *args):
    return fn(_unflag_nulls(BlockAccessor.for_block(block).to_arrow(),
                            keys), *args)


def scan(ds, keys: list[str], summarize, prefix, emit, *,
         descending: list[bool] | None = None):
    """The ordered scan: sort ``ds`` by ``keys`` once, then walk its
    sorted blocks in global order.  Null keys sort last whether their
    key ascends or descends (DuckDB's default order).

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
    desc = descending or [False] * len(keys)
    s = ds.map_batches(_flag_nulls, fn_args=(keys,), batch_format="pyarrow",
                       zero_copy_batch=True) \
        .sort([c for i, k in enumerate(keys) for c in (f"__null{i}", k)],
              descending=[d for dk in desc for d in (False, dk)]) \
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
    out = prefix(ray.get([_scan_task.remote(summarize, keys, r)
                          for r in refs])
                 if summarize else counts)
    if emit is None:
        return out
    return rd.from_arrow_refs([_scan_task.remote(emit, keys, r, v)
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
    the stream's :func:`pack_slices` cells.  :func:`fold_payloads` and
    :func:`kind_tables` read them by ``kind``; no scatter ships them."""
    return pa.table({
        "slice": pa.array([-1] * len(rows), pa.int32()),
        "kind": pa.array(list(rows), pa.string()),
        "payload": pa.array([pickle.dumps(o) for o in rows.values()],
                            pa.large_binary())})


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
    list-of-payload-bytes return PER SLICE, plus a last return: the mask
    of the slices it filled.  Without a ``kind`` filter, a stream's
    ``kind`` tags ride along: each cell entry is ``(kind, payload)``.
    No :func:`kind_rows` row is shipped either way."""
    out: list[list] = [[] for _ in range(num_slices)]
    for t in blocks:
        if t.num_rows == 0:
            # Ray emits 0-row blocks with an EMPTY schema (no columns)
            # for input splits whose map UDF never ran — they carry no
            # payload and would KeyError on the column lookups below
            continue
        if kind is not None:
            t = t.filter(pc.equal(t["kind"], kind))
        elif "kind" in t.column_names:
            # a tagged stream read whole: its kind_rows (slice -1) stay
            t = t.filter(pc.greater_equal(t["slice"], 0))
        cells = t["payload"].to_pylist()
        if kind is None and "kind" in t.column_names:
            cells = list(zip(t["kind"].to_pylist(), cells))
        for s, p in zip(t["slice"].to_pylist(), cells):
            out[s].append(p)
    return cells_return([*out, np.array([bool(c) for c in out])])


def _scatter_slices(packed, num_slices: int, kind: str | None
                    ) -> list[list["ray.ObjectRef"]]:
    """``per_slice[s]``: one ref per scatter task that filled slice
    ``s`` (each task returns its fill mask), so a slice no row reached
    gets ``[]``.  A few scatter tasks split the materialized ``packed``
    stream, each grouping enough blocks that its expected per-slice
    cell clears ``TARGET_CELL_BYTES``."""
    refs = packed.to_arrow_refs()
    if not refs:
        return [[] for _ in range(num_slices)]
    size = packed.size_bytes() or 0
    n_tasks = max(1, min(len(refs),
                         int(size // (num_slices * TARGET_CELL_BYTES))))
    grids = [cell_refs(_scatter_task, num_slices + 1, num_slices, kind,
                       *(refs[i] for i in group))
             for group in np.array_split(np.arange(len(refs)), n_tasks)
             if len(group)]
    filled = ray.get([g[-1] for g in grids])
    return [[g[s] for g, m in zip(grids, filled) if m[s]]
            for s in range(num_slices)]


@ray.remote
def _slice_task(fn, s: int, returns: int | None, *cell_lists):
    # the cells are top-level args, so Ray hands them dereferenced: the
    # task fetches its own slice and nothing else
    parts = [(p[0], pickle.loads(p[1])) if isinstance(p, tuple)
             else pickle.loads(p) for cells in cell_lists for p in cells]
    out = fn(s, parts)
    return out if returns is None else cells_return(list(out))


def slice_map(packed, num_slices: int, fn, *, kind: str | None = None,
              returns: int | None = None) -> list:
    """Run ``fn(s, parts)`` once per live slice of a MATERIALIZED packed
    stream, in ONE task per slice that a row reached (no task for an
    empty slice).

    ``packed`` holds :func:`pack_slices` rows for slices in ``[0,
    num_slices)``.  ``parts`` lists slice ``s``'s payload tuples, in
    block order.  With ``kind``, only rows of that ``kind`` take part;
    the others (a mixed stream's :func:`kind_rows`, or another
    stream's cells) are read once by the scatter and never shipped.
    Without ``kind``, a tagged stream gives ``(kind, payload)`` pairs.

    Returns one ref per live slice, in slice order, to ``fn``'s
    result.  With ``returns=k``, ``fn`` returns a sequence of ``k``
    objects and each live slice gives a list of ``k`` refs, one per
    object, so a consumer fetches only the objects it reads.  A ref
    ``fn`` closes over arrives as a ref: ``ray.get`` it."""
    cells = [(s, c) for s, c in
             enumerate(_scatter_slices(packed, num_slices, kind)) if c]
    if returns is None:
        return [_slice_task.remote(fn, s, None, *c) for s, c in cells]
    return [cell_refs(_slice_task, returns, fn, s, returns, *c)
            for s, c in cells]


@ray.remote
def _kind_table_task(block, kind: str, schema: pa.Schema) -> pa.Table:
    tabs = _payloads([block], kind)
    return pa.concat_tables(tabs, promote_options="default") if tabs \
        else schema.empty_table()


def kind_tables(packed, kind: str, schema: pa.Schema):
    """The tables of a MATERIALIZED packed stream's ``kind`` rows (each
    a :func:`kind_rows` table) as a materialized Dataset: one flat task
    per block concatenates its tables, wrapped with
    ``ray.data.from_arrow_refs``.  A block without such a row (Ray's
    dynamic block splitting can cut one off its row, or leave a 0-row
    block with an empty schema) gives ``schema.empty_table()``.  Built
    once, so ``count()`` reads block metadata and neither iteration nor
    a write re-runs a map."""
    return rd.from_arrow_refs([_kind_table_task.remote(r, kind, schema)
                               for r in packed.to_arrow_refs()])


def _pack_side(t: pa.Table, keys: list[str], n: int, side: str):
    return pack_slices(slice_of(key_hash([t[k] for k in keys])[0], n), t,
                       kind=side)


def _keyed_refs(sides, keys: list[str], fn) -> list:
    """The output refs of :func:`keyed_map`, one per live slice."""
    sides = sides if isinstance(sides, tuple) else (sides,)
    n = default_num_parts()
    packed = [d.map_batches(_pack_side, fn_args=(keys, n, str(i)),
                            batch_format="pyarrow", zero_copy_batch=True)
              for i, d in enumerate(sides)]
    packed = (packed[0].union(*packed[1:]) if len(packed) > 1
              else packed[0]).materialize()

    n_sides = len(sides)

    def per_slice(s: int, parts: list) -> pa.Table:
        tables: list[list[pa.Table]] = [[] for _ in range(n_sides)]
        for side, (t,) in parts:
            tables[int(side)].append(t)
        return fn(*(pa.concat_tables(ts, promote_options="default") if ts
                    else pa.table({}) for ts in tables))

    return slice_map(packed, n, per_slice)


def keyed_map(sides, keys: list[str], fn):
    """Run ``fn`` per key slice: every row of ``sides`` (one Dataset, or
    a tuple of Datasets that all hold the ``keys`` columns) goes to
    slice ``slice_of(key_hash(keys), default_num_parts())`` in ONE
    materialized union execution and one :func:`slice_map`.  One
    task per slice that received a row calls ``fn(*tables) ->
    pa.Table`` with its rows, one table per side (a side without rows
    there is a table without columns).  All rows of a key, null
    included, meet in one call, among the slice's other keys.  Returns
    the Dataset of the ``fn`` tables (no row at all: an empty Dataset
    without columns)."""
    refs = _keyed_refs(sides, keys, fn)
    return rd.from_arrow_refs(refs) if refs else rd.from_arrow(pa.table({}))


def keyed_fold(ds, partial, keys: list[str], final) -> pa.Table | None:
    """Reduce ``ds`` per key: ``partial(block) -> pa.Table`` collapses
    every block to rows holding the ``keys`` columns, and a
    :func:`keyed_map` over those rows runs ``final(list[pa.Table]) ->
    pa.Table`` once per live slice.  All rows of a key, null included,
    meet in one ``final`` call.  Returns the concatenated ``final``
    tables on the driver, or None when no partial kept a row."""
    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
    out = ray.get(_keyed_refs(parts, keys, lambda t: final([t])))
    return pa.concat_tables(out, promote_options="default") if out \
        else None
