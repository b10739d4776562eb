"""Profile job: one streaming pass -> per-column statistics artifact.

This is the engine's "fit phase" — the Ray-Data re-expression of the
reference's fitted-transformer state (Tukey fences TukeyTransformer.py:37-42,
MAD median/mad MedianAbsolutDeviation.py:41-42, imputer medians/modes,
RobustScaler center/scale — all scalars learned over the train frame).

Shape: ``map_batches(partial)`` emits ONE serialized sketch-bundle row per
block (pre-aggregation — nothing row-shaped ever shuffles), and
``stages.transport`` folds the bundles into a :class:`TableProfile`,
each column's exact value counts in as few sort passes as
``max_exact`` allows.  The artifact is a few KB of JSON — broadcast to
validate tasks exactly like the reference shares fitted scalars by
object reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np
import pyarrow as pa

from .sketches import KLL, HyperLogLog, MomentSketch, ValueCounts, hash64
from .stages.transport import Layout, fold_with_layout

# stamped into TableProfile JSON; 2 = KLL quantile sketch (the unstamped
# format 1 held a t-digest)
PROFILE_FORMAT = 2


class ProfileFormatError(ValueError):
    """A stored profile has another format version: re-profile."""


def _col_kind(t: pa.DataType) -> str:
    if pa.types.is_floating(t) or pa.types.is_integer(t) or pa.types.is_decimal(t):
        return "numeric"
    if pa.types.is_timestamp(t) or pa.types.is_date(t):
        return "timestamp"
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return "string"
    if pa.types.is_boolean(t):
        return "numeric"
    return "other"


@dataclass
class ColumnSketch:
    """Partial (mergeable) state for one column."""

    name: str
    kind: str
    moments: MomentSketch = field(default_factory=MomentSketch)
    values: ValueCounts = field(default_factory=ValueCounts)
    kll: KLL = field(default_factory=KLL)
    hll: HyperLogLog = field(default_factory=HyperLogLog)

    def _spill_to_sketches(self, values: ValueCounts | None = None
                           ) -> None:
        """Exactness abandoned: seed KLL + HLL from the drained exact
        value counts of ``values`` (default: this column's own; a
        weighted KLL seeding and a hash pass over the DISTINCT values
        reproduce everything the approximate sketches would have
        seen)."""
        vals, cnts = (self.values if values is None else values).drain()
        if len(vals) == 0:
            return
        if self.kind in ("numeric", "timestamp"):
            self.kll.update_weighted(
                np.asarray(vals, dtype=np.float64),
                np.asarray(cnts, dtype=np.int64))
        self.hll.add_hashes(hash64(vals))

    def update_array(self, arr: pa.ChunkedArray | pa.Array) -> None:
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        nulls = arr.null_count
        if self.kind in ("numeric", "timestamp"):
            np_vals = arr.drop_null().to_numpy(zero_copy_only=False)
            if self.kind == "timestamp":
                np_vals = np_vals.astype("datetime64[us]").astype(np.int64)
            np_vals = np.asarray(np_vals)
            self.moments.update(np_vals, nulls=nulls)
            if not self.values.overflow:
                # exact path: KLL/HLL stay dormant (lazy) — they are
                # seeded from the exact counts only if exactness is lost
                self.values.update(np_vals)
                if self.values.overflow:
                    self._spill_to_sketches()
            else:
                clean = (np_vals[~np.isnan(np_vals)]
                         if np_vals.dtype.kind == "f" else np_vals)
                self.kll.update(clean)
                if clean.size:
                    self.hll.add_hashes(hash64(clean))
        elif self.kind == "string":
            from .sketches import np_object
            vals = np_object(arr.drop_null())
            self.moments.nulls += nulls
            self.moments.n += len(vals)
            if not self.values.overflow:
                self.values.update(vals)
                if self.values.overflow:
                    self._spill_to_sketches()
            elif len(vals):
                self.hll.add_hashes(hash64(vals))
        else:
            self.moments.nulls += nulls
            self.moments.n += len(arr) - nulls

    def merge(self, o: "ColumnSketch") -> "ColumnSketch":
        return _merge_columns([self, o])

    # ---- finalize accessors -------------------------------------------------

    @property
    def count(self) -> int:
        return self.moments.n

    @property
    def null_count(self) -> int:
        return self.moments.nulls + self.moments.nans

    def quantile(self, q: float) -> float:
        """Exact (ValueCounts, numpy-linear semantics) under the distinct
        threshold; KLL past it — the documented scale contract."""
        if not self.values.overflow:
            return self.values.quantile(q)
        return self.kll.quantile(q)

    @property
    def exact_quantiles(self) -> bool:
        return not self.values.overflow

    def distinct(self) -> float:
        if not self.values.overflow:
            return float(self.values.distinct)
        return self.hll.estimate()

    def mode(self) -> tuple[Any, int] | None:
        if self.values.overflow or not self.values.counts:
            return None
        return self.values.mode()

    def to_dict(self) -> dict:
        return {
            "name": self.name, "kind": self.kind,
            "moments": self.moments.to_dict(),
            "values": self.values.to_dict(),
            "kll": self.kll.to_dict(),
            "hll": self.hll.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ColumnSketch":
        return cls(
            name=d["name"], kind=d["kind"],
            moments=MomentSketch.from_dict(d["moments"]),
            values=ValueCounts.from_dict(d["values"]),
            kll=KLL.from_dict(d["kll"]),
            hll=HyperLogLog.from_dict(d["hll"]),
        )


@dataclass
class TableProfile:
    """Finalized profile artifact: broadcastable, JSON-serializable."""

    columns: dict[str, ColumnSketch]
    n_rows: int = 0
    fingerprint: str = ""
    # the blocks the profile pass folded; not part of the JSON artifact
    layout: Layout = field(default_factory=Layout, compare=False)

    def __getitem__(self, name: str) -> ColumnSketch:
        return self.columns[name]

    def __contains__(self, name: str) -> bool:
        return name in self.columns

    def require_exact(self, cols: Iterable[str], caller: str) -> None:
        """Raise ``ValueError`` naming the first of ``cols`` whose exact
        value counts overflowed (drained: no domain, map or mode)."""
        for c in cols:
            if self[c].values.overflow:
                raise ValueError(f"{caller}: {c!r} has more than "
                                 f"{self[c].values.max_items} distinct values")

    def to_json(self) -> str:
        return json.dumps({
            "format": PROFILE_FORMAT,
            "n_rows": self.n_rows, "fingerprint": self.fingerprint,
            "columns": {k: v.to_dict() for k, v in self.columns.items()},
        })

    @classmethod
    def from_json(cls, s: str) -> "TableProfile":
        d = json.loads(s)
        if d.get("format") != PROFILE_FORMAT:
            raise ProfileFormatError(
                f"profile format {d.get('format', 1)}, this engine reads "
                f"{PROFILE_FORMAT}")
        return cls(
            columns={k: ColumnSketch.from_dict(v) for k, v in d["columns"].items()},
            n_rows=d["n_rows"], fingerprint=d["fingerprint"],
        )


# ---------------------------------------------------------------------------
# the job


def bundle_partial(columns: list[str] | None,
                   max_exact: int = 2_000_000):
    """The profile fold's partial: a block -> its ``(rows, sketches)``
    bundle over ``columns`` (every column for None), each column's exact
    value counts capped at ``max_exact`` distinct values."""
    def partial(batch: pa.Table) -> tuple:
        cols = columns if columns is not None else batch.column_names
        sketches: dict[str, ColumnSketch] = {}
        n = batch.num_rows
        for name in cols:
            if name not in batch.column_names:
                continue
            kind = _col_kind(batch.schema.field(name).type)
            cs = ColumnSketch(name=name, kind=kind)
            cs.values.max_items = max_exact
            cs.update_array(batch[name])
            sketches[name] = cs
        return n, sketches

    return partial


def _pairwise(items: list, merge2):
    """``items`` merged in a balanced pairwise order, ``None`` items
    skipped (the order fixes the floats of a moment merge)."""
    def m(a, b):
        return b if a is None else a if b is None else merge2(a, b)

    while len(items) > 1:
        items = [m(a, b) for a, b in zip(items[0::2], items[1::2])] \
            + items[len(items) & ~1:]
    return items[0]


def _merge_columns(parts: list) -> ColumnSketch:
    """One column's partial sketches (``None`` where a bundle lacks the
    column) merged into the first present one.  The exact value counts
    merge in as few passes as ``max_items`` allows
    (``ValueCounts.merge_all``: one pass when the parts fit it
    together); moments, KLL and HLL merge in the balanced pairwise
    order.  The result is exact iff every part is and the merged
    distinct count stays within ``max_items``.  Otherwise the exact
    values seed KLL and HLL: the merged run and each part it did not
    reach, or, when a part had already overflowed, each exact part
    unmerged."""
    present = [p for p in parts if p is not None]
    out = present[0]
    exact = [p.values for p in present if not p.values.overflow]
    out.moments = _pairwise([p and p.moments for p in parts],
                            MomentSketch.merge)
    out.kll = _pairwise([p and p.kll for p in parts], KLL.merge)
    out.hll = _pairwise([p and p.hll for p in parts], HyperLogLog.merge)
    out.values = ValueCounts(out.values.max_items)
    if len(exact) < len(present):
        out.values.overflow, rest = True, exact
    else:
        rest = out.values.merge_all(exact)
    if out.values.overflow:
        for vc in [out.values, *rest]:
            out._spill_to_sketches(vc)
    return out


def merge_bundles(bundles: list[tuple]) -> tuple:
    """The profile fold's merge of :func:`bundle_partial` bundles: each
    column's partials merge at once (:func:`_merge_columns`), columns in
    first-seen order."""
    names = list(dict.fromkeys(n for _, sk in bundles for n in sk))
    return (sum(n for n, _ in bundles),
            {name: _merge_columns([sk.get(name) for _, sk in bundles])
             for name in names})


def profile_dataset(ds, columns: list[str] | None = None, *,
                    max_exact: int = 2_000_000,
                    fingerprint: str = "") -> TableProfile:
    """Compute a :class:`TableProfile` in one streaming pass over ``ds``.

    The :func:`bundle_partial` bundles fold with
    ``stages.transport.fold_with_layout`` (every merge is
    :func:`merge_bundles`), so the profile also records the
    :class:`~autoprepad_ray.stages.transport.Layout` of ``ds``.
    """
    (total, merged), layout = fold_with_layout(
        ds, bundle_partial(columns, max_exact), merge_bundles)
    return TableProfile(columns=merged, n_rows=total, fingerprint=fingerprint,
                        layout=layout)


def profile_arrays(named_arrays: dict[str, np.ndarray], *,
                   max_exact: int = 2_000_000) -> TableProfile:
    """Single-process profile of in-memory arrays (tests / tiny refs)."""
    merged: dict[str, ColumnSketch] = {}
    n_rows = 0
    for name, arr in named_arrays.items():
        arr = np.asarray(arr)
        kind = "numeric" if arr.dtype.kind in "ifb" else "string"
        cs = ColumnSketch(name=name, kind=kind)
        cs.values.max_items = max_exact
        cs.update_array(pa.array(arr))
        merged[name] = cs
        n_rows = max(n_rows, len(arr))
    return TableProfile(columns=merged, n_rows=n_rows)
