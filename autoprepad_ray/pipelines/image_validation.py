"""End-to-end validation of the image+caption table (the north-rule
pipeline): schema assert, NaN-token canonicalization, per-column
profiles, Tukey/MAD row evidence, null-rate budget, uniqueness,
referential integrity, per-partition PSI drift, decode verification,
and phash near-duplicates (FIXTURES.md R1-R7; verdict composition is
the reference's OR-merge, experiment.py:441-445).

Execution shape (the whole point at 10^12-row scale): THREE streaming
passes over the image table, not one per check, and one id-census read
of the captions.  Every read goes through ``io.read_table``: one read
task per file, output never split, so pass 2's per-block map and the
caption census fuse into their read tasks (``ReadParquet->MapBatches``)
and a "block" below is a file's output, cut further only by Ray's
dynamic splitting above ``target_max_block_size`` (128 MiB).  So does
decode: pass 3 is ONE operator, read, decode and failure filter in one
task per file.  Pass 1's ``batch_size=100_000`` makes its map a
separate operator after the read —

- PASS 1 (column-pruned metadata read, ONE execution): a ``Dataset.union``
  of the image-side partial and the caption-side id census.  Each image
  block emits one ``agg`` row (profile partial over the reference
  partitions, drift histograms, ``near_dup.band_census`` of its
  distinct phashes) and census cells:
  one row-aligned (key, count, kind code) field set of id hashes and
  phashes, and on the caption side the id hashes with the distinct ids
  themselves as one more field, packed by ``transport.slice_of(key,
  band_slices)``.  The ``agg`` rows fold in flat tasks
  (``transport.fold_payloads``); the census cells reach one
  ``transport.slice_map`` task per live slice, so each census
  byte moves once and a key's counts from both tables meet in one
  task.  Only candidate sets (duplicate ids, duplicate phashes,
  image-side orphan hashes), the caption-side orphan ids with their
  counts and the few-KB profile reach the driver.
- PASS 2 (metadata read, candidates broadcast): row evidence flags,
  per-partition stat/null counts, and the row LISTINGS for exactly the
  candidate keys (duplicate-id rows, orphan rows, dup-phash members).
  Candidate listings are small by construction; violation rows are
  capped per block, i.e. per file-sized block (counts stay exact).  The
  pass is materialized once; its small ``agg`` rows fold off the
  blocks in flat tasks (``transport.fold_payloads``), and one flat task
  per block unpacks its violation table (``transport.kind_tables``),
  never through a second execution.
- Banded-Hamming pairing (no read of its own): pass 2 also emits each
  block's id-carrying band cells (band key, hash, block-min id) —
  pruned to hot buckets when collisions are rare, the full deduped
  stream (multi-index hashing) when n >> 2^16 per band.  Per-slice
  ``transport.slice_map`` tasks over the scattered cells pair, verify
  exactly and resolve each paired hash's global min id in one visit;
  only pairs reach the driver.
- PASS 3 (payload read, stateless decode tasks): decode verification —
  the only pass that touches ``bytes``.  ``decode.decode_verify`` and
  the failure filter fuse into the read task (one task per file), so
  payload bytes never go through the object store and only failing
  rows leave the task; each task decodes its block in
  ``decode.DECODE_SLICE_ROWS``-row slices, which bounds decoded pixels
  in worker heaps.  Decode parallelism is the read's, one task per file.

Every id listing (duplicate ids, orphans on both sides, near-dup
members) counts a null id as one id and sorts it last, as DuckDB's
``GROUP BY ... ORDER BY`` does.  Per-partition PSI and verdict
arithmetic is :func:`partition_verdicts`, and the global findings are
:func:`_findings` over the folded :func:`_listing_partial` listings:
the runner runs both, fed from its checkpointed censuses.
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

from ..functions.strings import canonicalize_nan_tokens
from ..io import parquet_files, read_table
from ..profile import ColumnSketch, TableProfile, _col_kind, merge_bundles
from ..sketches import key_hash, np_object
from ..stages.transport import (default_num_parts, fold_payloads,
                                kind_rows, kind_tables, merge_concat,
                                merge_counts, merge_fields, pack_slices,
                                slice_map, slice_of)
from ..validators import near_dup, row_checks as rc
from ..validators.drift import (histogram_partial, merge_histograms,
                                psi_from_counts)
from ..validators.near_dup import (_EMPTY_PAIRS, _band_cells,
                                   _capped_per_key, _id_pairs, _pair_ids,
                                   _sum_census, band_census)

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
# per-partition drift histograms (fixed edges) beside the fmt counts
HIST_SPECS = {"w": EDGES_WH, "h": EDGES_WH, "caption_len": EDGES_CAP}
PSI_COLS = ("w", "h", "caption_len", "fmt")
# violation rows listed per pass-2 block (per file); counts stay exact
VIOL_CAP_PER_BLOCK = 10_000
# decode failures as PASS 3 lists them
DECODE_LISTING = pa.schema([("image_id", pa.string()),
                            ("partition_id", pa.int32()),
                            ("fmt", pa.string()),
                            ("decode_reason", pa.string())])


def assert_schema_files(paths: list[str]) -> list[str]:
    """File-level schema assert: reads parquet FOOTERS only (pyarrow
    read_schema), never builds a Dataset — a full-table
    ``rd.read_parquet(dir)`` spends ~1.5 s sampling datasource metadata
    just to answer a schema question."""
    import pyarrow.parquet as pq

    errors: list[str] = []
    seen: set = set()
    for p in paths:
        try:
            schema = pq.read_schema(p)
        except (pa.ArrowInvalid, OSError) as e:
            raise ValueError(f"cannot read the parquet footer of {p!r}: "
                             f"{e}") from e
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


# ---------------------------------------------------------------------------
# PASS 1: profile + histograms + censuses


def _drift_partial(batch: pa.Table) -> tuple[dict, dict]:
    """Per-partition drift histograms of a prepped block
    (``drift.histogram_partial`` over ``HIST_SPECS`` and ``fmt``)."""
    return histogram_partial(batch, HIST_SPECS, ["fmt"], "partition_id")


def _merge_drift(parts: list[tuple[dict, dict]]) -> tuple[dict, dict]:
    """Fold :func:`_drift_partial` outputs."""
    return merge_histograms(parts, HIST_SPECS, ["fmt"])


def _prof_partial(batch: pa.Table, ref_set) -> tuple:
    """Profile + histogram half of the pass-1 partial over a prepped
    block: ((reference rows, sketches over the ``ref_set`` rows),
    per-partition drift histograms) — folded by :func:`_merge_prof`."""
    ref_mask = np.isin(batch["partition_id"].to_numpy(zero_copy_only=False),
                       list(ref_set))
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
    return (int(ref_mask.sum()), sketches), _drift_partial(batch)


# folds :func:`_prof_partial` outputs: sketch bundles through
# ``profile.merge_bundles``, histograms through ``drift.merge_histograms``
_merge_prof = merge_fields(merge_bundles, _merge_drift)


# the kind code of a census row: image id hash, phash, caption id hash
_ID, _PH, _CAP = 0, 1, 2
_NO_CENSUS = (np.empty(0, np.uint64), np.empty(0, np.int64),
              np.empty(0, np.int8))
_NO_LISTINGS = (np.empty(0, object), np.empty(0, np.int64),
                np.empty(0, object), np.empty(0, np.int64),
                np.empty(0, object))


def _image_census(batch: pa.Table) -> tuple:
    """Image-side census of a block, (keys, counts, codes): its distinct
    id key hashes (code ``_ID``) and raw phashes (``_PH``, exact) with
    their counts."""
    idv, idc = np.unique(key_hash([batch["image_id"]])[0],
                         return_counts=True)
    phv, phc = np.unique(batch["phash"].to_numpy(zero_copy_only=False),
                         return_counts=True)
    return (np.concatenate([idv, phv.astype(np.int64).view(np.uint64)]),
            np.concatenate([idc, phc]),
            np.repeat(np.int8([_ID, _PH]), [len(idv), len(phv)]))


def _make_p1_partial(ref_set: list[int]):
    def p1(batch: pa.Table, num_slices: int) -> pa.Table:
        batch = _prep(batch)
        keys, cnts, code = _image_census(batch)
        # the band census over the census's distinct phashes
        bands = band_census(keys[code == _PH].view(np.int64))
        return pa.concat_tables([
            kind_rows({"agg": (_prof_partial(batch, ref_set), bands)}),
            pack_slices(slice_of(keys, num_slices), keys, cnts, code,
                        kind="census")])

    return p1


def _caption_census(batch: pa.Table) -> tuple:
    """Caption-side id census of a block, code ``_CAP``: (key hashes,
    counts, codes, ids), each distinct id (null is one) kept as an Arrow
    value, so the census names the caption orphans."""
    g = batch.group_by("image_id").aggregate([([], "count_all")])
    ids = g["image_id"].combine_chunks()
    return (key_hash([ids])[0], g["count_all"].to_numpy(),
            np.full(len(ids), _CAP, np.int8), ids)


def _caption_cells(batch: pa.Table, num_slices: int) -> pa.Table:
    """:func:`_caption_census` cells, unioned into pass 1."""
    cells = _caption_census(batch)
    return pack_slices(slice_of(cells[0], num_slices), *cells,
                       kind="census")


# folds pass-1 ``agg`` payloads (profile partial, band census)
_merge_p1 = merge_fields(_merge_prof, _sum_census)


def _census_slice(parts: list, has_captions: bool) -> tuple:
    """Merge one slice's census cells and keep only the candidates:
    ((duplicate id hashes, image-side orphan hashes, duplicate phashes,
    their counts), the caption-side orphan rows as an (image_id,
    right_n) table, or None without caption cells)."""
    keys, cnts, code = merge_concat([p[:3] for p in parts]) or _NO_CENSUS
    iv, ic = merge_counts([(keys[code == _ID], cnts[code == _ID])])
    pv, pn = merge_counts([(keys[code == _PH].view(np.int64),
                            cnts[code == _PH])])
    cv = keys[code == _CAP]
    orph_img = np.setdiff1d(iv, cv) if has_captions \
        else np.empty(0, np.uint64)
    # caption cells carry the distinct ids as a fourth field
    caps = [p[3] for p in parts if len(p) > 3]
    orph_cap = None
    if caps:
        m = ~np.isin(cv, iv)
        orph_cap = pa.table({
            "image_id": pa.concat_arrays(caps).filter(pa.array(m)),
            "right_n": cnts[code == _CAP][m]})
    return (iv[ic >= 2], orph_img, pv[pn >= 2], pn[pn >= 2]), orph_cap


# ---------------------------------------------------------------------------
# PASS 2: evidence + candidate listings


def _evidence(checker: rc.RowChecker, batch: pa.Table) -> tuple:
    """Row evidence of one raw metadata block: (checked rows with
    ``caption_null`` appended, partition ids, {pid: (rows, stat_viol,
    null_viol)}, stat-violation mask, null-caption mask)."""
    checked = checker(_prep(batch))
    caption_null = pc.is_null(checked["caption"])
    checked = checked.append_column(
        "caption_null", pc.cast(caption_null, pa.int8()))
    pid = checked["partition_id"].to_numpy(zero_copy_only=False)
    uniq, inv = np.unique(pid, return_inverse=True)
    tuk = checked[rc.TUKEY_TOTAL].to_numpy(zero_copy_only=False)
    mad = checked[rc.MAD_TOTAL].to_numpy(zero_copy_only=False)
    stat = (tuk > 0) | (mad > 0)
    null = caption_null.to_numpy(zero_copy_only=False)
    counts = {
        int(u): (int(n), int(sv), int(nv)) for u, n, sv, nv in zip(
            uniq,
            np.bincount(inv, minlength=len(uniq)),
            np.bincount(inv, weights=stat.astype(float),
                        minlength=len(uniq)).astype(np.int64),
            np.bincount(inv, weights=null.astype(float),
                        minlength=len(uniq)).astype(np.int64))}
    return checked, pid, counts, stat, null


def _listing_partial(t: pa.Table, dup_id_hashes: np.ndarray,
                     orphan_hashes: np.ndarray,
                     dup_phashes: np.ndarray) -> tuple:
    """A block's candidate listings (pass 2, and the runner's listing
    read): (duplicate-candidate ids, their partition ids, image-side
    orphan-candidate ids, dup-phash members as (phashes, ids)).  Members
    are capped at the 64 smallest ids per hash PER BLOCK, so a hot hash
    ships 64 x touching-blocks ids, and the global 64 smallest survive
    (each is among its own block's 64 smallest)."""
    idh, _ = key_hash([t["image_id"]])

    def ids(m: np.ndarray) -> np.ndarray:
        # only the masked rows' ids become Python objects
        return np_object(t["image_id"].filter(pa.array(m)))

    dup = np.isin(idh, dup_id_hashes)
    ph = t["phash"].to_numpy(zero_copy_only=False)
    m = np.isin(ph, dup_phashes)
    return (ids(dup), t["partition_id"].to_numpy(zero_copy_only=False)[dup],
            ids(np.isin(idh, orphan_hashes)),
            *_capped_per_key(ph[m], ids(m), 64))


def _merge_listings(parts: list[tuple]) -> tuple:
    """Fold :func:`_listing_partial` outputs (associative; ``[]`` folds
    to empty listings): the dup-id and orphan listings concatenate, and
    the dup-phash member sample keeps the 64 smallest ids per hash."""
    dup_ids, dup_pids, orphan_ids, member_ph, member_ids = \
        merge_concat(parts) or _NO_LISTINGS
    return (dup_ids, dup_pids, orphan_ids,
            *_capped_per_key(member_ph, member_ids, 64))


class _P2Partial:
    """Broadcast-state pass: flags, partition counts, candidate rows.

    Deliberately a plain-function stage (closure over an ObjectRef, not
    an actor pool): the broadcast state is a few KB and ``ray.get`` of a
    local object is ~free, while an actor pool would pay multi-second
    spinup per run — the kind of flat cost that caps scaling efficiency.
    """

    def __init__(self, blob_ref):
        (states, self.cands, self.hot_bands,
         self.band_slices) = ray.get(blob_ref)
        self.checker = rc.RowChecker(pickle.dumps(states))

    def __call__(self, batch: pa.Table) -> pa.Table:
        checked, _, counts, viol, _ = _evidence(self.checker, batch)
        viol_tbl = checked.drop(["caption"]).filter(pa.array(viol))
        # a block is one file's read output (cut further only above
        # target_max_block_size, 128 MiB), so the listing keeps up to
        # the cap per file; counts stay exact
        if viol_tbl.num_rows > VIOL_CAP_PER_BLOCK:
            viol_tbl = viol_tbl.slice(0, VIOL_CAP_PER_BLOCK)
        # three row kinds: the per-block aggregate (folded in flat
        # tasks), the capped violation table (never concatenated on the
        # driver) and the id-carrying Hamming band cells (scattered to
        # the pairing tasks off the materialized output)
        out = kind_rows({
            "agg": (counts, _listing_partial(checked, *self.cands),
                    viol_tbl.schema),
            "viol": viol_tbl})
        return pa.concat_tables([out, _band_cells(
            checked["phash"].to_numpy(zero_copy_only=False),
            checked["image_id"], self.band_slices, hot=self.hot_bands)])


def _id_counts(t: pa.Table, aggs: list) -> pa.Table:
    """``t`` aggregated per ``image_id`` — all null ids are one id — and
    sorted by it, null last (DuckDB's ``GROUP BY`` + ``ORDER BY``)."""
    return t.group_by("image_id").aggregate(aggs).sort_by(
        [("image_id", "ascending")], null_placement="at_end")


def _sum_counts(parts: list[dict]) -> dict:
    """Sum ``_evidence``'s {pid: (rows, stat_viol, null_viol)} partials."""
    out: dict = {}
    for d in parts:
        for u, c in d.items():
            out[u] = tuple(a + b for a, b in zip(out.get(u, (0, 0, 0)), c))
    return out


def _first(parts: list):
    """The first part, or None: the merge of a field every part holds
    alike (a listing schema)."""
    return next(iter(parts), None)


# folds pass-2 ``agg`` payloads: per-partition counts add up, the
# listings fold by :func:`_merge_listings`, the violation schema is kept
_merge_agg = merge_fields(_sum_counts, _merge_listings, _first)


def _findings(listings: tuple, ph_vals: np.ndarray, ph_cnts: np.ndarray,
              cap_orphans: list, captions: bool) -> tuple:
    """The global key findings of validate_images and the runner, from
    the folded listings and the census's dup-phash counts and caption
    orphans (:func:`_census_slice`): (duplicate ids with counts, the
    partitions holding them, orphans on both sides with counts or None
    without captions, exact near-dup groups with up to 64 ids)."""
    dup_ids, dup_pids, orphan_ids, member_ph, member_ids = listings
    dup = _id_counts(pa.table({"image_id": pa.array(dup_ids),
                               "pid": dup_pids}),
                     [([], "count_all"), ("pid", "distinct")])
    dup = dup.filter(pc.greater_equal(dup["count_all"], 2))
    dup_df = pd.DataFrame({"image_id": dup["image_id"].to_pylist(),
                           "n": dup["count_all"].to_numpy()})
    uniq_fail = set(pc.list_flatten(dup["pid_distinct"]).to_pylist())

    orphan_df = None
    if captions:
        img = _id_counts(pa.table({"image_id": pa.array(orphan_ids)}),
                         [([], "count_all")])
        cap = [t for t in cap_orphans if t is not None]
        cap = _id_counts(pa.concat_tables(cap), [("right_n", "sum")]) \
            if cap else pa.table({"image_id": [], "right_n_sum": []})
        orphan_df = pd.DataFrame({
            "image_id": img["image_id"].to_pylist()
            + cap["image_id"].to_pylist(),
            "left_n": img["count_all"].to_pylist() + [0] * cap.num_rows,
            "right_n": [0] * img.num_rows + cap["right_n_sum"].to_pylist()})

    # member_ph is sorted: one group per run of equal hashes
    starts = np.flatnonzero(np.r_[True, member_ph[1:] != member_ph[:-1]])[
        :len(member_ph)]
    count = dict(zip(ph_vals.tolist(), ph_cnts.tolist()))
    hs = [int(member_ph[s]) for s in starts]
    groups = pd.DataFrame({
        "phash": hs, "n": [int(count[h]) for h in hs],
        "ids": [member_ids[s:e].tolist() for s, e in
                zip(starts, np.r_[starts[1:], len(member_ph)])]})
    return dup_df, uniq_fail, orphan_df, groups


# ---------------------------------------------------------------------------
# per-partition verdicts (validate_images and the runner)


def _reference_hists(hists: tuple[dict, dict], ref_set) -> tuple[dict, dict]:
    """The reference sums: folded drift histograms and fmt counts summed
    over the ``ref_set`` partitions."""
    num, cat = hists
    fmt: dict = {}
    for p in ref_set:
        for k, v in cat["fmt"].get(p, {}).items():
            fmt[k] = fmt.get(k, 0) + v
    return {c: sum((num[c][p] for p in ref_set if p in num[c]),
                   np.zeros(len(e) - 1, dtype=np.int64))
            for c, e in HIST_SPECS.items()}, fmt


def partition_verdicts(pids, counts: dict, hists: tuple[dict, dict],
                       ref: tuple[dict, dict], ref_set, *,
                       stat_budget: float, null_budget: float,
                       psi_budget: float) -> list[dict]:
    """Per-partition PSI and stat/null/drift verdict rows from folded
    pass counts ({pid: (rows, stat_viol, null_viol)}), folded drift
    histograms and the reference sums (:func:`_reference_hists`).  A
    partition without rows counts zeros.  ``psi_fmt`` spans the
    categories of the reference plus that partition, so a category
    seen only in other partitions never moves it."""
    num, cat = hists
    ref_num, ref_fmt = ref
    rows = []
    for pid in pids:
        n, sv, nv = counts.get(pid, (0, 0, 0))
        row = {"partition_id": pid, "n_rows": n,
               "stat_viol": sv, "null_viol": nv,
               "stat_fail": int(n > 0 and sv / n > stat_budget),
               "null_fail": int(n > 0 and nv / n > null_budget)}
        fmt = cat["fmt"].get(pid, {})
        cats = sorted(set(ref_fmt) | set(fmt))
        pairs = {c: (ref_num[c], num[c].get(
            pid, np.zeros(len(e) - 1, dtype=np.int64)))
            for c, e in HIST_SPECS.items()}
        pairs["fmt"] = ([ref_fmt.get(c, 0) for c in cats],
                        [fmt.get(c, 0) for c in cats])
        for c, (ref_counts, cur_counts) in pairs.items():
            row[f"psi_{c}"] = psi_from_counts(ref_counts, cur_counts)
        row["drift_fail"] = int(pid not in ref_set and max(
            row[f"psi_{c}"] for c in PSI_COLS) > psi_budget)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------


@dataclass
class ImageValidationReport:
    verdicts: pd.DataFrame
    profile: Any
    # materialized ray.data.Dataset of the flagged rows (capped per
    # block), unpacked once off the pass-2 blocks (kind_tables):
    # count() reads metadata, iteration and writes run no map.  Also
    # written to ``violations_dir`` when given.
    stat_violations: Any = None
    stat_violations_path: str | None = None
    dup_ids: pd.DataFrame | None = None
    orphans: pd.DataFrame | None = None
    drift_psi: pd.DataFrame | None = None
    decode_violations: pd.DataFrame | None = None
    neardup_groups: pd.DataFrame | None = None
    neardup_pairs: pd.DataFrame | None = None
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


def _decode_failures(files: list[str]) -> pd.DataFrame:
    """PASS 3 over ``files``: decode-verify the payload (column-pruned:
    everything but caption) and list the rows that fail, as
    ``image_id, partition_id, fmt, decode_reason`` (typed when empty).

    Decode and the failure filter fuse into the read, one task per file
    (``ReadParquet->MapBatches(_verify_slices)->MapBatches(<lambda>)``):
    only the failing rows leave the task that read the payload."""
    from ..stages.decode import decode_verify

    payload_ds = read_table(files, columns=["image_id", "bytes", "w", "h",
                                            "fmt", "phash", "partition_id"])
    failures = decode_verify(payload_ds).map_batches(
        lambda t: t.filter(pc.equal(t["decode_ok"], 0))
        .select(DECODE_LISTING.names),
        batch_format="pyarrow").materialize()
    # ``to_pandas`` drops the columns of an all-clean listing, and a
    # 0-row file reads as a block without columns
    blocks = [t for t in ray.get(failures.to_arrow_refs()) if t.num_columns]
    return (pa.concat_tables(blocks) if blocks
            else DECODE_LISTING.empty_table()).to_pandas()


def validate_images(images_dir: str, captions_path: str | None = None, *,
                    ref_partitions: tuple[int, ...] = (0, 1, 2),
                    stat_budget: float = 0.005,
                    null_budget: float = 0.05,
                    psi_budget: float = 0.2,
                    decode: bool = True,
                    neardup: bool = True,
                    violations_dir: str | None = None
                    ) -> ImageValidationReport:
    import time as _time
    timings: dict = {}
    _t0 = _time.perf_counter()
    # accept a single-file input too; a zero-match glob would silently
    # skip the schema assert, so it is an error instead.  Every read
    # below reuses this listing (one read task per file, io.read_table)
    files = parquet_files(images_dir)
    if not files:
        raise ValueError(
            f"no parquet files found under {images_dir!r} — "
            "schema assert would silently pass on nothing")
    schema_errors = assert_schema_files(files)

    # ---- PASS 3 launches FIRST (payload read, decode tasks) ----
    # decode verification depends on nothing the metadata passes
    # compute, so its ~N-times-longer execution runs CONCURRENTLY with
    # passes 1/2 and the Hamming pairing: the metadata work hides under
    # the decode wall instead of serializing in front of it (~4-5 s of
    # the 28 s pipeline at bench scale).  Ray's scheduler interleaves
    # the executions' tasks; decode holds no reserved workers, so the
    # metadata tasks take CPUs as soon as a decode task finishes.
    import concurrent.futures as _cf

    decode_walls: dict = {}
    if decode:
        from ..context import prime_fsspec_http_stub

        # the decode thread and the main thread both open Datasets:
        # settle Ray's racy lazy fsspec-http import first
        prime_fsspec_http_stub()

        def _run_decode():
            t0 = _time.perf_counter()
            df = _decode_failures(files)
            decode_walls["wall"] = round(_time.perf_counter() - t0, 3)
            return df

    # the metadata passes below run in try/finally: when one raises,
    # the decode thread (and its Ray Data execution) is drained before
    # the error propagates, never left running behind the caller
    decode_pool = _cf.ThreadPoolExecutor(
        1, thread_name_prefix="validate_images_decode")
    try:
        if decode:
            decode_future = decode_pool.submit(_run_decode)
        meta = read_table(files, columns=META_COLS)

        # ---- PASS 1 ----
        # ONE execution: the image-side partial (profile + histograms +
        # band census in an ``agg`` row, id/phash census cells) in
        # a union with the caption-side id census cells.  The agg rows
        # fold in flat tasks; the census cells, sliced by key hash,
        # scatter to per-slice tasks that merge both tables' counts for
        # their keys — only candidates (dups / orphans, the caption
        # orphans named by their ids) and the merged few-KB profile
        # reach the driver (the 10^12 path).
        # large pass-1 batches: censuses dedupe within a batch, so fewer,
        # bigger partials mean less census volume through the reduce
        band_slices = default_num_parts()
        p1 = meta.map_batches(_make_p1_partial(list(ref_partitions)),
                              fn_kwargs={"num_slices": band_slices},
                              batch_format="pyarrow", zero_copy_batch=True,
                              batch_size=100_000)
        has_captions = captions_path is not None
        if has_captions:
            p1 = p1.union(read_table(captions_path, columns=["image_id"])
                          .map_batches(_caption_cells,
                                       fn_kwargs={"num_slices": band_slices},
                                       batch_format="pyarrow",
                                       zero_copy_batch=True))
        p1_out = p1.materialize()
        # the census tasks run while the agg rows fold
        census_futs = slice_map(
            p1_out, band_slices,
            lambda s, parts: _census_slice(parts, has_captions),
            kind="census")
        ((n_ref, sketches), hists), bands = fold_payloads(
            p1_out, _merge_p1, kind="agg")
        cands, cap_orphans = zip(*(ray.get(census_futs)
                                   or [_census_slice([], has_captions)]))
        dup_id_hashes, orphan_img_hashes, ph_vals, ph_cnts = \
            merge_concat(cands)
        timings["pass1_profile_census"] = round(_time.perf_counter() - _t0, 3)
        _t0 = _time.perf_counter()
        prof = TableProfile(columns=sketches, n_rows=n_ref)
        states = rc.fence_states(prof, ["w", "h"])

        # the banded-Hamming arm
        hamming_path, hot_bands = (
            near_dup.hamming_arm(bands) if neardup
            else ("none", np.empty(0, np.int64)))
        dup_phashes = (np.sort(ph_vals) if neardup
                       else np.empty(0, np.int64))

        # ---- PASS 2 ----
        blob_ref = ray.put((states, (dup_id_hashes, orphan_img_hashes,
                                     dup_phashes), hot_bands, band_slices))

        def p2_fn(batch: pa.Table, _cache={}) -> pa.Table:
            if "p" not in _cache:
                _cache["p"] = _P2Partial(blob_ref)
            return _cache["p"](batch)

        # ONE execution of the metadata pass, materialized to the object
        # store (spillable): flat fold tasks merge ONLY the small agg rows
        # off its blocks (no second execution); the capped violation
        # tables stay distributed — unpacked once, one task per block,
        # into a materialized dataset / written to a parquet sink —
        # never concatenated on the driver (block count is unbounded at
        # 10^12 rows even if each block's listing is capped)
        p2_out = meta.map_batches(p2_fn, batch_format="pyarrow",
                                  zero_copy_batch=True).materialize()
        counts, listings, viol_schema = fold_payloads(p2_out, _merge_agg,
                                                      kind="agg")
        stat_viol = kind_tables(p2_out, "viol", viol_schema)
        if violations_dir is not None:
            from ..io import write_partitioned
            write_partitioned(stat_viol, violations_dir)
        dup_df, uniq_fail, orphan_df, nd_groups = _findings(
            listings, ph_vals, ph_cnts, cap_orphans, has_captions)

        timings["pass2_evidence_listings"] = round(
            _time.perf_counter() - _t0, 3)
        _t0 = _time.perf_counter()

        # ---- banded-Hamming pairing (distributed) ----
        # consumes the id-carrying band cells already sitting in the
        # materialized pass-2 output — no extra read or census; the pass-1
        # census chose the path.  The slice-addressed scatter
        # (stages.transport) splits out the band cells once per block, so
        # pairing tasks never fetch the violation tables riding the same
        # blocks and each band byte moves once even multi-node; each
        # pairing task resolves the global min id of the hashes it pairs
        # in the same visit (near_dup._pair_ids).
        nd_pairs = (pd.DataFrame(_EMPTY_PAIRS) if hamming_path == "none"
                    else _id_pairs(*_pair_ids(p2_out, band_slices, 4,
                                              "4x16")))
        timings["hamming_pairs"] = round(_time.perf_counter() - _t0, 3)
        _t0 = _time.perf_counter()

        # ---- PASS 3 join (launched before pass 1; see top) ----
        decode_df = None
        decode_fail: set = set()
        if decode:
            decode_df = decode_future.result()
            if len(decode_df):
                decode_fail = set(decode_df["partition_id"].astype(int))
    finally:
        decode_pool.shutdown(cancel_futures=True)

    # decode's own wall (it ran overlapped with the metadata passes);
    # the residual wait after Hamming is what decode added to total
    timings["pass3_decode"] = decode_walls.get("wall", 0.0)
    timings["decode_join_wait"] = round(_time.perf_counter() - _t0, 3)

    # ---- verdict composition (OR-merge) ----
    vr = pd.DataFrame(partition_verdicts(
        sorted(counts), counts, hists, _reference_hists(hists, ref_partitions),
        ref_partitions, stat_budget=stat_budget, null_budget=null_budget,
        psi_budget=psi_budget))
    drift_df = vr[["partition_id", *(f"psi_{c}" for c in PSI_COLS),
                     "drift_fail"]]
    verdicts = vr[["partition_id", "n_rows", "stat_viol", "null_viol",
                     "stat_fail", "null_fail", "drift_fail"]].copy()
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
        decode_violations=decode_df,
        neardup_groups=nd_groups if neardup else None,
        neardup_pairs=nd_pairs if neardup else None,
        hamming_path=hamming_path,
        schema_errors=schema_errors, timings=timings)


