"""End-to-end validation of the image+caption table (the north-rule
pipeline): schema assert, NaN-token canonicalization, per-column
profiles, Tukey/MAD row evidence, null-rate budget, uniqueness,
referential integrity, per-partition PSI drift, decode verification,
and phash near-duplicates (FIXTURES.md R1-R7; verdict composition is
the reference's OR-merge, experiment.py:441-445).

Execution shape (the whole point at 10^12-row scale): THREE streaming
passes over the image table, not one per check —

- PASS 1 (column-pruned metadata read): one ``map_batches`` computes
  per block the profile partials (ref partitions), every drift
  histogram, and the key censuses (image_id-hash, phash, phash-band) —
  all mergeable, tree-merged, finalized on the driver into fences +
  reference histograms + candidate sets (duplicate ids, duplicate
  phashes, multi-member band buckets, orphan hashes).  Nothing
  row-shaped leaves the pass; the candidate sets are tiny.
- PASS 2 (metadata read, candidates broadcast): row evidence flags,
  per-partition stat/null counts, and the row LISTINGS for exactly the
  candidate keys (duplicate-id rows, orphan rows, dup-phash members).
  Candidate listings are small by construction; violation rows are
  capped per block (counts stay exact).
- Banded-Hamming pairing (own execution reading only image_id+phash):
  hash-partitioned ``groupby(part).map_groups`` over the band stream —
  pruned to hot buckets when collisions are rare, the full deduped
  stream (multi-index hashing) when n >> 2^16 per band — with exact
  verification inside the groups; only pairs reach the driver.
- PASS 3 (payload read, stateless decode tasks fused into the read):
  decode verification — the only pass that touches ``bytes``.

Plus one tiny pass over the captions table (id-hash census) and, when
caption-side orphans exist, one capped listing pass over captions.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..functions.strings import canonicalize_nan_tokens
from ..profile import ColumnSketch, TableProfile, _col_kind
from ..sketches import hash64, np_object
from ..validators import row_checks as rc
from ..validators.drift import psi_from_counts
from ..validators.near_dup import (_band_combos, _merge_count_arrays,
                                   _resolve_ids, default_num_parts)

EXPECTED_FIELDS = {
    "image_id": pa.string(), "bytes": pa.large_binary(),
    "w": pa.int32(), "h": pa.int32(), "fmt": pa.string(),
    "caption": pa.string(), "phash": pa.int64(),
}

META_COLS = ["image_id", "w", "h", "fmt", "caption", "phash",
             "partition_id"]
EDGES_WH = np.array([0, 48, 80, 112, 160, 8192], dtype=float)
EDGES_CAP = np.arange(0.0, 220.0, 20.0)
PROFILE_COLS = ["w", "h", "caption_len", "caption", "fmt"]


def assert_schema_files(paths: list[str]) -> list[str]:
    """File-level schema assert: reads parquet FOOTERS only (pyarrow
    read_schema), never builds a Dataset — a full-table
    ``rd.read_parquet(dir)`` spends ~1.5 s sampling datasource metadata
    just to answer a schema question."""
    import pyarrow.parquet as pq

    errors: list[str] = []
    seen: set = set()
    for p in paths:
        schema = pq.read_schema(p)
        key = tuple(zip(schema.names, (str(t) for t in schema.types)))
        if key in seen:
            continue
        seen.add(key)
        for e in _schema_errors(dict(zip(schema.names, schema.types))):
            if e not in errors:
                errors.append(e)
    return errors


def _schema_errors(have: dict) -> list[str]:
    errors = []

    def _is_bin(t) -> bool:
        return pa.types.is_binary(t) or pa.types.is_large_binary(t)

    for name, typ in EXPECTED_FIELDS.items():
        if name not in have:
            errors.append(f"missing column {name}")
        elif have[name] != typ and not (
                # only the bytes column tolerates binary<->large_binary;
                # a large_binary where a string was declared is an error
                name == "bytes" and _is_bin(have[name]) and _is_bin(typ)):
            errors.append(f"{name}: {have[name]} != {typ}")
    return errors


def assert_schema(ds) -> list[str]:
    """Schema validator: the declared input_hint schema is ASSERTED, not
    inferred (engine inverts XCopySchemaTransformer's coercion)."""
    schema = ds.schema()
    return _schema_errors(dict(zip(schema.names, schema.types)))


def _prep(batch: pa.Table) -> pa.Table:
    """Canonicalize caption NaN tokens + derive caption_len (stays NULL
    for null captions: null-rate is its own check; the length
    distribution describes present values only)."""
    cap = canonicalize_nan_tokens(batch["caption"])
    batch = batch.set_column(batch.column_names.index("caption"),
                             "caption", cap)
    clen = pc.utf8_length(cap)
    return batch.append_column("caption_len", pc.cast(clen, pa.int64()))


def _pickled(obj) -> pa.Table:
    return pa.table({"payload": pa.array([pickle.dumps(obj)],
                                         type=pa.large_binary())})


# ---------------------------------------------------------------------------
# PASS 1: profile + histograms + censuses


def _hist_partial(batch: pa.Table, pid: np.ndarray, uniq, inv) -> dict:
    out: dict = {}
    for col, edges in (("w", EDGES_WH), ("h", EDGES_WH),
                       ("caption_len", EDGES_CAP)):
        nb = len(edges) - 1
        v = batch[col].cast(pa.float64()).combine_chunks().to_numpy(
            zero_copy_only=False)
        keep = ~np.isnan(v)
        idx = np.clip(np.searchsorted(edges, v[keep], side="right") - 1,
                      0, nb - 1)
        counts = np.zeros((len(uniq), nb), dtype=np.int64)
        np.add.at(counts, (inv[keep], idx), 1)
        out[col] = counts
    fmt = np_object(batch["fmt"])
    d: dict = {}
    for k, u in enumerate(uniq):
        vv, cc = np.unique(fmt[inv == k], return_counts=True)
        d[int(u)] = dict(zip(vv.tolist(), cc.tolist()))
    out["fmt"] = d
    return out


N_SLICES = 8


def _slice_of(vals_u64: np.ndarray) -> np.ndarray:
    """Balanced census slice id from the top bits of a mixed key."""
    with np.errstate(over="ignore"):
        mixed = vals_u64.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return (mixed >> np.uint64(61)).astype(np.int8)


def _census_rows(kind: str, side: int, vals: np.ndarray,
                 cnts: np.ndarray) -> list[tuple[str, int, bytes]]:
    """Split one (vals, cnts) census partial into range-sliced rows so
    the merge+filter happens DISTRIBUTED, per (kind, slice) — the full
    near-unique census never centralizes anywhere (the 10^12 path)."""
    sl = _slice_of(vals.view(np.uint64) if vals.dtype != np.uint64
                   else vals)
    out = []
    for s in range(N_SLICES):
        m = sl == s
        if m.any():
            out.append((kind, s, pickle.dumps((side, vals[m], cnts[m]))))
    return out


def _make_p1_partial(ref_set: list[int]):
    def p1(batch: pa.Table) -> pa.Table:
        batch = _prep(batch)
        pid = batch["partition_id"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(pid, return_inverse=True)
        # profile partials over the reference partitions only
        ref_mask = np.isin(pid, ref_set)
        sketches: dict[str, ColumnSketch] = {}
        if ref_mask.any():
            ref_tbl = batch.filter(pa.array(ref_mask))
            for col in PROFILE_COLS:
                cs = ColumnSketch(
                    name=col, kind=_col_kind(ref_tbl.schema.field(col).type))
                if cs.kind == "string":
                    # near-unique free-text columns: exact value counts
                    # would ship every distinct string through the merge
                    # tree — cap low so they hand off to HLL early
                    cs.values.max_items = 65_536
                cs.update_array(ref_tbl[col])
                sketches[col] = cs
        raw = _hist_partial(batch, pid, uniq, inv)
        # canonical (merge-stable) form: {col: {pid: counts}}
        hists = {col: {int(u): raw[col][k] for k, u in enumerate(uniq)}
                 for col in ("w", "h", "caption_len")}
        hists["fmt"] = raw["fmt"]
        nrows = {int(u): int(c) for u, c in
                 zip(uniq, np.bincount(inv, minlength=len(uniq)))}
        rows: list[tuple[str, int, bytes]] = [
            ("prof", -1, pickle.dumps((sketches, hists, nrows)))]
        idv, idc = np.unique(hash64(np_object(batch["image_id"])),
                             return_counts=True)
        rows += _census_rows("idcap", 0, idv, idc)
        ph = batch["phash"].to_numpy(zero_copy_only=False)
        phv, phc = np.unique(ph, return_counts=True)
        rows += _census_rows("ph", 0, phv.astype(np.int64), phc)
        # band census is DENSE: the keyspace is only 4 x 2^16 slots, so a
        # bincount per batch + vector-add merge beats sparse unique-merge
        u64 = ph.astype(np.int64).view(np.uint64)
        band_keys = []
        for b in range(4):
            band_keys.append(
                np.int64(b * 65536)
                + ((u64 >> np.uint64(16 * b)) & np.uint64(0xFFFF))
                .astype(np.int64))
        dense = np.bincount(np.concatenate(band_keys),
                            minlength=4 * 65536).astype(np.int32)
        rows.append(("bandd", 0, pickle.dumps(dense)))
        return pa.table({
            "kind": pa.array([r[0] for r in rows]),
            "slice": pa.array([r[1] for r in rows], type=pa.int8()),
            "payload": pa.array([r[2] for r in rows],
                                type=pa.large_binary())})

    return p1


def _merge_prof(payloads: list) -> tuple:
    """Merge the small per-block profile partials (sketches + hists +
    row counts) — KBs per block, driver-side fold is fine."""
    sketches: dict[str, ColumnSketch] = {}
    hists: dict = {"w": {}, "h": {}, "caption_len": {}, "fmt": {}}
    nrows: dict = {}
    for p in payloads:
        sk, hi, nr = p
        for col, cs in sk.items():
            if col in sketches:
                sketches[col].merge(cs)
            else:
                sketches[col] = cs
        for col in ("w", "h", "caption_len"):
            for u, counts in hi[col].items():
                if u in hists[col]:
                    hists[col][u] = hists[col][u] + counts
                else:
                    hists[col][u] = counts.copy()
        for u, vc in hi["fmt"].items():
            tgt = hists["fmt"].setdefault(u, {})
            for v, n in vc.items():
                tgt[v] = tgt.get(v, 0) + n
        for u, n in nr.items():
            nrows[u] = nrows.get(u, 0) + n
    return sketches, hists, nrows


def _reduce_kind(kind: str, payloads: list, has_captions: bool) -> bytes:
    """Merge one (kind, slice) group's partials + candidate filter: only
    duplicates / orphans / hot buckets leave the reducer."""
    if kind == "prof":
        return pickle.dumps(_merge_prof([pickle.loads(p)
                                         for p in payloads]))
    sides: dict[int, list] = {0: [], 1: []}
    for p in payloads:
        data = pickle.loads(p)
        if kind == "bandd":
            sides[0].append((data, None))
        else:
            side, vals, cnts = data
            sides[side].append((vals, cnts))
    if kind == "idcap":
        iv, ic = (_merge_count_arrays(sides[0]) if sides[0]
                  else (np.empty(0, np.uint64), np.empty(0, np.int64)))
        dup = iv[ic >= 2]
        if has_captions:
            cv, _ = (_merge_count_arrays(sides[1]) if sides[1]
                     else (np.empty(0, np.uint64),
                           np.empty(0, np.int64)))
            orph_img = np.setdiff1d(iv.astype(np.uint64),
                                    cv.astype(np.uint64),
                                    assume_unique=True)
            orph_cap = np.setdiff1d(cv.astype(np.uint64),
                                    iv.astype(np.uint64),
                                    assume_unique=True)
        else:
            orph_img = orph_cap = np.empty(0, np.uint64)
        return pickle.dumps((dup, orph_img, orph_cap))
    if kind == "ph":
        pv, pc_ = _merge_count_arrays(sides[0])
        m = pc_ >= 2
        return pickle.dumps((pv[m], pc_[m]))
    # bandd (dense)
    total = np.zeros(4 * 65536, dtype=np.int64)
    for vals, _ in sides[0]:
        total += vals
    hot = np.nonzero(total >= 2)[0].astype(np.int64)
    return pickle.dumps((hot, total[hot], int(total.sum())))


@ray.remote
def _reduce_slice_task(slice_id: int, has_captions: bool,
                       *blocks) -> list[tuple[str, bytes]]:
    """Flat reduce task for one census slice: pulls its rows out of the
    (plasma-shared, zero-copy) partial blocks and merges per kind.  The
    keyspace is tiny (kinds x N_SLICES), so flat tasks over block refs
    replace a sort-based groupby exchange — same distributed semantics
    (merges happen in tasks, only candidates reach the driver), none of
    the union+sort overhead."""
    by_kind: dict[str, list] = {}
    for b in blocks:
        mask = pc.equal(b["slice"], pa.scalar(slice_id, type=pa.int8()))
        t = b.filter(mask)
        for kind, payload in zip(t["kind"].to_pylist(),
                                 t["payload"].to_pylist()):
            by_kind.setdefault(kind, []).append(payload)
    return [(k, _reduce_kind(k, ps, has_captions))
            for k, ps in by_kind.items()]


# ---------------------------------------------------------------------------
# PASS 2: evidence + candidate listings


class _P2Partial:
    """Broadcast-state pass: flags, partition counts, candidate rows.

    Deliberately a plain-function stage (closure over an ObjectRef, not
    an actor pool): the broadcast state is a few KB and ``ray.get`` of a
    local object is ~free, while an actor pool would pay multi-second
    spinup per run — the kind of flat cost that caps scaling efficiency.
    """

    def __init__(self, blob_ref):
        (states, self.dup_id_hashes, self.dup_phashes,
         self.orphan_hashes, mad_threshold, self.viol_cap,
         self.band_mode, self.hot_bands,
         self.band_slices) = ray.get(blob_ref)
        self.checker = rc.RowChecker(pickle.dumps(states),
                                     mad_threshold=mad_threshold)

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = _prep(batch)
        checked = self.checker(batch)
        caption_null = pc.is_null(checked["caption"])
        checked = checked.append_column(
            "caption_null", pc.cast(caption_null, pa.int8()))
        pid = checked["partition_id"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(pid, return_inverse=True)
        tuk = checked[rc.TUKEY_TOTAL].to_numpy(zero_copy_only=False)
        mad = checked[rc.MAD_TOTAL].to_numpy(zero_copy_only=False)
        nul = checked["caption_null"].to_numpy(zero_copy_only=False)
        viol = (tuk > 0) | (mad > 0)
        counts = {
            int(u): (int(n), int(sv), int(nv)) for u, n, sv, nv in zip(
                uniq,
                np.bincount(inv, minlength=len(uniq)),
                np.bincount(inv, weights=viol.astype(float),
                            minlength=len(uniq)).astype(np.int64),
                np.bincount(inv, weights=(nul > 0).astype(float),
                            minlength=len(uniq)).astype(np.int64))}
        viol_tbl = checked.drop(["caption"]).filter(
            pa.array(viol))
        if viol_tbl.num_rows > self.viol_cap:
            viol_tbl = viol_tbl.slice(0, self.viol_cap)
        ids = np_object(checked["image_id"])
        idh = hash64(ids)
        dup_rows = None
        if self.dup_id_hashes.size:
            m = np.isin(idh, self.dup_id_hashes)
            dup_rows = (np.asarray(ids[m]), pid[m])
        orphan_rows = None
        if self.orphan_hashes.size:
            m = np.isin(idh, self.orphan_hashes)
            orphan_rows = np.asarray(ids[m])
        ph = checked["phash"].to_numpy(zero_copy_only=False)
        ph_members = None
        if self.dup_phashes.size:
            m = np.isin(ph, self.dup_phashes)
            mi, mv = np.asarray(ids[m]), ph[m]
            # capped member sample PER BLOCK (the duplicate_phash_groups
            # rule): at most 64 (min) ids per dup hash leave each block,
            # so the driver collection is bounded by dup_hashes x 64 x
            # touching-blocks even when a hot hash has millions of rows
            # — web-scale image corpora are dominated by exact dups, and
            # uncapped member rows were the one remaining driver-bound
            # O(dup rows) stream in this pipeline.  The global 64
            # smallest ids per hash survive per-block capping exactly
            # (each is among its own block's 64 smallest).
            if len(mv):
                order = np.lexsort((mi, mv))
                mv, mi = mv[order], mi[order]
                first = np.r_[True, mv[1:] != mv[:-1]]
                rank = np.arange(len(mv)) - np.maximum.accumulate(
                    np.where(first, np.arange(len(mv)), 0))
                keep = rank < 64
                mv, mi = mv[keep], mi[keep]
            ph_members = (mi, mv)
        # three row kinds: the small per-block aggregate (driver-bound),
        # the capped violation table (object-store-bound — the driver
        # never concatenates violation rows), and the sliced Hamming
        # band payloads (consumed by the pairing groupby straight off
        # the materialized pass-2 output — no extra read/execution)
        kinds = ["agg", "viol"]
        slices = [-1, -1]
        payloads = [pickle.dumps((counts, dup_rows, orphan_rows,
                                  ph_members, viol_tbl.schema)),
                    pickle.dumps(viol_tbl)]
        if self.band_mode != "none":
            from ..sketches import splitmix64
            ph_u = np.unique(ph)
            keys = _band_combos(ph_u).ravel()
            out_ph = np.repeat(ph_u, 4)
            if self.band_mode == "prune":
                m = np.isin(keys, self.hot_bands)
                keys, out_ph = keys[m], out_ph[m]
            if len(keys):
                sl = (splitmix64(keys.view(np.uint64))
                      % np.uint64(self.band_slices)).astype(np.int32)
                order = np.argsort(sl, kind="stable")
                sl, keys, out_ph = sl[order], keys[order], out_ph[order]
                bounds = np.flatnonzero(
                    np.r_[True, sl[1:] != sl[:-1], True])
                for s, e in zip(bounds[:-1], bounds[1:]):
                    kinds.append("band")
                    slices.append(int(sl[s]))
                    payloads.append(pickle.dumps((keys[s:e],
                                                  out_ph[s:e])))
        return pa.table({
            "kind": pa.array(kinds),
            "slice": pa.array(slices, type=pa.int32()),
            "payload": pa.array(payloads, type=pa.large_binary())})


# ---------------------------------------------------------------------------


@dataclass
class ImageValidationReport:
    verdicts: pd.DataFrame
    profile: Any
    # LAZY ray.data.Dataset over the materialized pass-2 blocks: flagged
    # rows (capped per block).  Consume with iter_batches/write_parquet/
    # to_pandas; also written to ``violations_dir`` when given.
    stat_violations: Any = None
    stat_violations_path: str | None = None
    dup_ids: pd.DataFrame | None = None
    orphans: pd.DataFrame | None = None
    drift_psi: pd.DataFrame | None = None
    decode_violations: pd.DataFrame | None = None
    neardup_groups: pd.DataFrame | None = None
    neardup_pairs: pd.DataFrame | None = None
    hamming_saturated: bool = False      # legacy: always False now
    hamming_path: str = "none"           # none | prune | mih_shuffle
    schema_errors: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def failed_partitions(self) -> dict[str, list[int]]:
        out = {}
        for check in [c for c in self.verdicts.columns if c.endswith("_fail")]:
            out[check[:-5]] = sorted(
                self.verdicts.loc[self.verdicts[check] == 1,
                                  "partition_id"].astype(int).tolist())
        return out


def _caption_census_rows(captions_path: str):
    """Caption-side id-hash census as sliced rows (side=1), unioned into
    the same distributed (kind, slice) reduce as the image side."""
    caps = rd.read_parquet(captions_path, columns=["image_id"])

    def partial(t: pa.Table) -> pa.Table:
        v, c = np.unique(hash64(np_object(t["image_id"])),
                         return_counts=True)
        rows = _census_rows("idcap", 1, v, c)
        return pa.table({
            "kind": pa.array([r[0] for r in rows]),
            "slice": pa.array([r[1] for r in rows], type=pa.int8()),
            "payload": pa.array([r[2] for r in rows],
                                type=pa.large_binary())})

    return caps.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True)


def validate_images(images_dir: str, captions_path: str | None = None, *,
                    ref_partitions: tuple[int, ...] = (0, 1, 2),
                    stat_budget: float = 0.005,
                    null_budget: float = 0.05,
                    psi_budget: float = 0.2,
                    decode: bool = True,
                    neardup: bool = True,
                    viol_cap_per_block: int = 10_000,
                    violations_dir: str | None = None,
                    mad_threshold: float = 3.5) -> ImageValidationReport:
    import glob as _glob
    import os as _os
    import time as _time
    timings: dict = {}
    _t0 = _time.perf_counter()
    # accept a single-file input too; a zero-match glob would silently
    # skip the schema assert, so it is an error instead
    if _os.path.isfile(images_dir):
        _schema_paths = [images_dir]
    else:
        _schema_paths = sorted(
            _glob.glob(f"{images_dir.rstrip('/')}/**/*.parquet",
                       recursive=True))
    if not _schema_paths:
        raise ValueError(
            f"no parquet files found under {images_dir!r} — "
            "schema assert would silently pass on nothing")
    schema_errors = assert_schema_files(_schema_paths)

    # ---- PASS 3 launches FIRST (payload read, decode tasks) ----
    # decode verification depends on nothing the metadata passes
    # compute, so its ~N-times-longer execution runs CONCURRENTLY with
    # passes 1/2 and the Hamming pairing: the metadata work hides under
    # the decode wall instead of serializing in front of it (~4-5 s of
    # the 28 s pipeline at bench scale).  Ray's scheduler interleaves
    # the executions' tasks; decode holds no reserved workers, so the
    # metadata tasks take CPUs as soon as a decode task finishes.
    import concurrent.futures as _cf

    decode_pool = None
    decode_future = None
    decode_walls: dict = {}
    if decode:
        from ..context import prime_fsspec_http_stub
        from ..stages.decode import decode_verify

        # the decode thread and the main thread both open Datasets:
        # settle Ray's racy lazy fsspec-http import first
        prime_fsspec_http_stub()

        def _run_decode():
            t0 = _time.perf_counter()
            payload_ds = rd.read_parquet(
                images_dir, columns=["image_id", "bytes", "w", "h",
                                     "fmt", "phash", "partition_id"])
            dv = decode_verify(payload_ds)
            df = dv.map_batches(
                lambda t: t.filter(pc.equal(t["decode_ok"], 0))
                .select(["image_id", "partition_id", "fmt",
                         "decode_reason"]),
                batch_format="pyarrow").to_pandas()
            decode_walls["wall"] = round(_time.perf_counter() - t0, 3)
            return df

        decode_pool = _cf.ThreadPoolExecutor(1)
        decode_future = decode_pool.submit(_run_decode)

    meta = rd.read_parquet(images_dir, columns=META_COLS)

    # ---- PASS 1 ----
    # ONE image-side execution of per-block partials (profile + sliced
    # censuses), the tiny caption-census execution overlapped under it,
    # then FLAT per-slice reduce tasks over the partial block refs —
    # everything merges DISTRIBUTED per (kind, slice); only candidates
    # (dups / orphans / hot buckets) and the merged few-KB profile ever
    # reach the driver (the 10^12 path).  A Dataset.union + sort-groupby
    # expressed the same reduce but paid ~2-3 s of exchange overhead
    # for a keyspace of a few dozen groups.
    # large pass-1 batches: censuses dedupe within a batch, so fewer,
    # bigger partials mean less census volume through the reduce
    p1 = meta.map_batches(_make_p1_partial(list(ref_partitions)),
                          batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=100_000)
    has_captions = captions_path is not None
    if has_captions:
        caps_rows = _caption_census_rows(captions_path)
        with _cf.ThreadPoolExecutor(2) as pool:
            f1 = pool.submit(p1.materialize)
            f2 = pool.submit(caps_rows.materialize)
            refs = f1.result().to_arrow_refs() \
                + f2.result().to_arrow_refs()
    else:
        refs = p1.materialize().to_arrow_refs()
    futures = [_reduce_slice_task.remote(s, has_captions, *refs)
               for s in range(-1, N_SLICES)]
    reduced = [{"kind": k, "payload": p}
               for out in ray.get(futures) for k, p in out]
    prof_payload = None
    dup_parts_, oimg_parts, ocap_parts = [], [], []
    ph_parts_: list = []
    band_parts_: list = []
    band_total = 0
    for r in reduced:
        data = pickle.loads(r["payload"])
        if r["kind"] == "prof":
            prof_payload = data
        elif r["kind"] == "idcap":
            dup_parts_.append(data[0])
            oimg_parts.append(data[1])
            ocap_parts.append(data[2])
        elif r["kind"] == "ph":
            ph_parts_.append(data)
        else:  # bandd
            band_parts_.append((data[0], data[1]))
            band_total += data[2]

    def _cat(parts, dtype):
        return (np.sort(np.concatenate(parts)) if parts
                else np.empty(0, dtype))

    dup_id_hashes = _cat(dup_parts_, np.uint64).astype(np.uint64)
    orphan_img_hashes = _cat(oimg_parts, np.uint64).astype(np.uint64)
    orphan_cap_hashes = _cat(ocap_parts, np.uint64).astype(np.uint64)
    ph_vals = (np.concatenate([p[0] for p in ph_parts_])
               if ph_parts_ else np.empty(0, np.int64))
    ph_cnts = (np.concatenate([p[1] for p in ph_parts_])
               if ph_parts_ else np.empty(0, np.int64))
    hot_band_vals = (np.concatenate([p[0] for p in band_parts_])
                     if band_parts_ else np.empty(0, np.int64))
    hot_band_cnts = (np.concatenate([p[1] for p in band_parts_])
                     if band_parts_ else np.empty(0, np.int64))

    sketches, hists, nrows = prof_payload
    timings["pass1_profile_census"] = round(_time.perf_counter() - _t0, 3)
    _t0 = _time.perf_counter()
    prof = TableProfile(columns=sketches,
                        n_rows=sum(nrows[p] for p in ref_partitions
                                   if p in nrows))
    states = rc.fence_states(prof, ["w", "h"])

    # drift vs reference histograms
    ref_set = set(ref_partitions)
    psi_rows = []
    ref_hists = {col: np.sum([hists[col][p] for p in ref_set
                              if p in hists[col]], axis=0)
                 for col in ("w", "h", "caption_len")}
    fmt_cats = sorted({c for d in hists["fmt"].values() for c in d})
    fmt_ref = np.array([sum(hists["fmt"][p].get(c, 0)
                            for p in ref_set if p in hists["fmt"])
                        for c in fmt_cats], dtype=float)
    for pid in sorted(nrows):
        row = {"partition_id": pid}
        for col in ("w", "h", "caption_len"):
            row[f"psi_{col}"] = psi_from_counts(ref_hists[col],
                                                hists[col][pid])
        row["psi_fmt"] = psi_from_counts(
            fmt_ref,
            [hists["fmt"].get(pid, {}).get(c, 0) for c in fmt_cats])
        row["drift_fail"] = int(
            pid not in ref_set and max(
                row["psi_w"], row["psi_h"], row["psi_caption_len"],
                row["psi_fmt"]) > psi_budget)
        psi_rows.append(row)
    drift_df = pd.DataFrame(psi_rows)

    # candidate sets (already filtered distributed; reducers emitted
    # ONLY dup phashes and hot band buckets)
    dup_phashes = (np.sort(ph_vals.astype(np.int64)) if neardup
                   else np.empty(0, np.int64))
    hot_bands = (np.sort(hot_band_vals.astype(np.int64)) if neardup
                 else np.empty(0, np.int64))
    # path choice for the banded-Hamming stage: when collisions are rare
    # the hot-bucket broadcast prunes the band stream to almost nothing;
    # when collision rows pass the bound (n >> 2^16 per band) the filter
    # would keep ~everything, so ship the whole deduped band stream
    # through the hash-partitioned pairing exchange instead (the
    # multi-index-hashing scale path — pairing happens IN the groups,
    # never on the driver, so saturation no longer disables the stage)
    hamming_path = "none"
    if neardup and hot_bands.size:
        collision_rows = int(hot_band_cnts.sum())
        hamming_path = ("mih_shuffle" if collision_rows
                        > max(100_000, int(0.02 * band_total))
                        else "prune")
    ph_count_map = dict(zip(ph_vals.tolist(), ph_cnts.tolist()))

    # ---- PASS 2 ----
    band_slices = default_num_parts()
    blob_ref = ray.put((states, dup_id_hashes, dup_phashes,
                        orphan_img_hashes, mad_threshold,
                        viol_cap_per_block,
                        hamming_path if neardup else "none",
                        hot_bands if hamming_path == "prune" else None,
                        band_slices))
    def p2_fn(batch: pa.Table, _cache={}) -> pa.Table:
        if "p" not in _cache:
            _cache["p"] = _P2Partial(blob_ref)
        return _cache["p"](batch)

    # ONE execution of the metadata pass, materialized to the object
    # store (spillable): the driver then take_all()s ONLY the small agg
    # rows; the capped violation tables stay distributed and are exposed
    # as a lazy dataset / written to a parquet sink — never concatenated
    # on the driver (block count is unbounded at 10^12 rows even if each
    # block's listing is capped)
    p2_out = meta.map_batches(p2_fn, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()
    counts: dict[int, list[int]] = {}
    dup_ids_all: list = []
    dup_pids_all: list = []
    orphan_ids_all: list = []
    ph_member_ids: list = []
    ph_member_vals: list = []
    agg_only = p2_out.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], "agg")),
        batch_format="pyarrow")
    viol_schema: pa.Schema | None = None
    for r in agg_only.take_all():
        (cnts, dup_rows, orphan_rows,
         ph_members, viol_schema) = pickle.loads(r["payload"])
        for u, (n, sv, nv) in cnts.items():
            agg = counts.setdefault(u, [0, 0, 0])
            agg[0] += n
            agg[1] += sv
            agg[2] += nv
        if dup_rows is not None and len(dup_rows[0]):
            dup_ids_all.append(dup_rows[0])
            dup_pids_all.append(dup_rows[1])
        if orphan_rows is not None and len(orphan_rows):
            orphan_ids_all.append(orphan_rows)
        if ph_members is not None and len(ph_members[0]):
            ph_member_ids.append(ph_members[0])
            ph_member_vals.append(ph_members[1])

    def _unpack_viol(t: pa.Table) -> pa.Table:
        # batch_size=None -> one batch per block; a block usually holds
        # the always-emitted viol row, but Ray's dynamic block splitting
        # (target max block size) can produce a block without one — fall
        # back to the empty typed table so concat never sees []
        tabs = [pickle.loads(p) for p in
                t.filter(pc.equal(t["kind"], "viol"))["payload"]
                .to_pylist()]
        if not tabs:
            return viol_schema.empty_table()
        return pa.concat_tables(tabs, promote_options="default")

    stat_viol = p2_out.map_batches(_unpack_viol, batch_format="pyarrow",
                                   batch_size=None)
    if violations_dir is not None:
        from ..io import write_partitioned
        write_partitioned(stat_viol, violations_dir)

    # uniqueness listing (exact counts per actual id)
    dup_df = pd.DataFrame({"image_id": [], "n": []})
    uniq_fail: set = set()
    if dup_ids_all:
        ids_cat = np.concatenate(dup_ids_all)
        pids_cat = np.concatenate(dup_pids_all)
        vc = pd.Series(ids_cat).value_counts()
        vc = vc[vc >= 2]
        dup_df = pd.DataFrame({"image_id": vc.index, "n": vc.to_numpy()})
        real = set(vc.index)
        uniq_fail = {int(p) for i, p in zip(ids_cat, pids_cat)
                     if i in real}

    # referential listing
    orphan_df = None
    if captions_path is not None:
        img_orph_ids = (np.concatenate(orphan_ids_all)
                        if orphan_ids_all else np.empty(0, object))
        iv, ic = np.unique(img_orph_ids, return_counts=True)
        rows = [{"image_id": i, "left_n": int(c), "right_n": 0}
                for i, c in zip(iv.tolist(), ic.tolist())]
        if orphan_cap_hashes.size:
            caps = rd.read_parquet(captions_path, columns=["image_id"])
            oc_ref = ray.put(orphan_cap_hashes)

            def cap_orphans(t: pa.Table) -> pa.Table:
                h = hash64(np_object(t["image_id"]))
                return t.filter(pa.array(np.isin(h, ray.get(oc_ref))))

            cap_rows = caps.map_batches(cap_orphans,
                                        batch_format="pyarrow").take_all()
            cv, cc = np.unique([r["image_id"] for r in cap_rows],
                               return_counts=True)
            rows += [{"image_id": i, "left_n": 0, "right_n": int(c)}
                     for i, c in zip(cv.tolist(), cc.tolist())]
        orphan_df = pd.DataFrame(rows, columns=["image_id", "left_n",
                                                "right_n"])

    # near-dup group listings (exact-equal phashes) — vectorized
    # lexsort fold over the capped per-block (id, phash) samples, never
    # a per-row dict loop (counts stay exact from the pass-1 census)
    nd_groups = nd_pairs = None
    if neardup:
        if ph_member_ids:
            mi = np.concatenate(ph_member_ids)
            mv = np.concatenate(ph_member_vals)
            order = np.lexsort((mi, mv))
            mv, mi = mv[order], mi[order]
            bounds = np.flatnonzero(
                np.r_[True, mv[1:] != mv[:-1], True])
            hs = [int(mv[s]) for s in bounds[:-1]]
            nd_groups = pd.DataFrame({
                "phash": hs,
                "n": [int(ph_count_map[h]) for h in hs],
                "ids": [mi[s:min(e, s + 64)].tolist()
                        for s, e in zip(bounds[:-1], bounds[1:])]})
        else:
            nd_groups = pd.DataFrame({"phash": [], "n": [], "ids": []})

    timings["pass2_evidence_listings"] = round(
        _time.perf_counter() - _t0, 3)
    _t0 = _time.perf_counter()

    # ---- banded-Hamming pairing (distributed) ----
    # consumes the band payload rows already sitting in the materialized
    # pass-2 output — no extra read or census; the pass-1 census chose
    # the path.  The slice-addressed scatter (stages.transport) splits
    # out the band cells once per block, so pairing tasks never fetch
    # the violation tables riding the same blocks and each band byte
    # moves once even multi-node.  Ids resolve via a pruned 2-column
    # read only when pairs exist.
    if neardup:
        if hamming_path != "none":
            from ..stages.transport import scatter_slices
            from ..validators.near_dup import _hash_pair_slice_task
            per_slice = scatter_slices(p2_out, band_slices, kind="band")
            futs = [_hash_pair_slice_task.remote(4, 4096, *per_slice[s])
                    for s in range(band_slices)]
            ph_pairs = pd.concat(ray.get(futs), ignore_index=True) \
                .drop_duplicates(["ph_a", "ph_b"])
            nd_pairs = _resolve_ids(
                rd.read_parquet(images_dir,
                                columns=["image_id", "phash"]),
                "phash", "image_id", ph_pairs)
        else:
            nd_pairs = pd.DataFrame({
                "id_a": pd.Series([], dtype=object),
                "id_b": pd.Series([], dtype=object),
                "dist": pd.Series([], dtype=np.int64)})
    timings["hamming_pairs"] = round(_time.perf_counter() - _t0, 3)
    _t0 = _time.perf_counter()

    # ---- PASS 3 join (launched before pass 1; see top) ----
    decode_df = None
    decode_fail: set = set()
    if decode:
        decode_df = decode_future.result()
        decode_pool.shutdown()
        if len(decode_df):
            decode_fail = set(decode_df["partition_id"].astype(int))

    # decode's own wall (it ran overlapped with the metadata passes);
    # the residual wait after Hamming is what decode added to total
    timings["pass3_decode"] = decode_walls.get("wall", 0.0)
    timings["decode_join_wait"] = round(_time.perf_counter() - _t0, 3)

    # ---- verdict composition (OR-merge) ----
    vr = []
    for pid in sorted(counts):
        n, sv, nv = counts[pid]
        vr.append({
            "partition_id": pid, "n_rows": n,
            "stat_viol": sv, "null_viol": nv,
            "stat_fail": int(n > 0 and sv / n > stat_budget),
            "null_fail": int(n > 0 and nv / n > null_budget),
        })
    verdicts = pd.DataFrame(vr).merge(
        drift_df[["partition_id", "drift_fail"]], on="partition_id")
    verdicts["uniq_fail"] = verdicts["partition_id"].astype(int).map(
        lambda p: int(p in uniq_fail))
    verdicts["decode_fail"] = verdicts["partition_id"].astype(int).map(
        lambda p: int(p in decode_fail))
    fail_cols = [c for c in verdicts.columns if c.endswith("_fail")]
    verdicts["fail"] = (verdicts[fail_cols].max(axis=1)).astype(int)
    verdicts = verdicts.sort_values("partition_id").reset_index(drop=True)

    return ImageValidationReport(
        verdicts=verdicts, profile=prof, stat_violations=stat_viol,
        stat_violations_path=violations_dir,
        dup_ids=dup_df, orphans=orphan_df, drift_psi=drift_df,
        decode_violations=decode_df, neardup_groups=nd_groups,
        neardup_pairs=nd_pairs, hamming_saturated=False,
        hamming_path=hamming_path,
        schema_errors=schema_errors, timings=timings)


