"""Run manifest + per-partition checkpoint/resume for image validation
(north rule: "resumable from checkpoint with per-partition lineage +
metrics") — a checkpoint layer over ``pipelines.image_validation``'s
own partials and reductions, run on the shared scaffold
``pipelines.checkpoint._run_sharded`` (unit ``partition``).

Layout under ``out_dir``::

    profile_<fingerprint>.json            # cached fit-phase artifact
    refhists_<fingerprint>.json           # cached reference histograms
    capcensus_<fingerprint>.parquet       # cached caption-side id census
    manifest.json                         # completed partitions + lineage
    dup_ids.parquet  orphans.parquet      # the last run's global listings
    neardup_groups.parquet  neardup_pairs.parquet
    partitions/partition=<pid>/verdict.json
    partitions/partition=<pid>/violations/*.parquet
    partitions/partition=<pid>/keycensus.parquet  # key, n, code, image_id

Execution shape:
- reference side: ONE pruned execution over the reference partitions
  folds the profile+histogram half of the pass-1 partial
  (``_merge_prof``), cached by the reference files' fingerprint, so a
  resume never mixes profiles of different inputs (SURVEY §7.6) and
  never re-reads the reference;
- per pending partition: ONE execution, the metadata map (pass-2
  evidence, histogram partial, pass-1 census cells) unioned with pass
  3's ``_decode_rows`` when ``decode``; its ``agg`` and ``decode`` rows
  fold off the materialized blocks in flat tasks.  PSI and verdict come
  from ``partition_verdicts``, as in ``validate_images``; rows naming
  another ``partition_id`` are an error.  Verdict, violation rows (stat
  OR null, uncapped) and census go to a tmp dir, renamed into place; a
  kill loses at most the ``checkpoint.MAX_PARALLEL`` partitions running;
- a partition is complete iff its manifest entry matches the profile
  fingerprint, the verdict settings (budgets, ``decode``) and its own
  files' fingerprint, and its ``verdict.json`` exists;
- cross-partition key checks (uniqueness, referential, near-dup) are
  ``validate_images``' reduction (``_census_slice``,
  ``_listing_partial``, ``_findings``) over the checkpointed censuses:
  exact duplicate ids, orphans on both sides and near-dup groups from
  ONE listing read of the partitions whose census holds a candidate,
  Hamming pairs from the censuses' (phash, min id) cells: band census,
  arm and band cells on the driver, then ``_pair_ids`` over one
  in-memory Dataset (an input-only execution, no map).  No other
  completed partition is read; a census missing or from an older
  engine is rebuilt from its own partition.  A resume of k partitions
  runs at most k + 2 Ray Data executions, decode on or off.
"""

from __future__ import annotations

import glob
import json
import os
import pickle
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

from .. import __version__
from ..io import read_table
from ..profile import ProfileFormatError, TableProfile
from ..sketches import np_object
from ..validators import row_checks as rc
from ..validators.domain import constant_listing
from ..validators.near_dup import (_band_cells, _id_pairs, _minid_per_key,
                                   _pair_ids, _sum_census, band_census,
                                   hamming_arm)
from ..stages.transport import (default_num_parts, fold, fold_payloads,
                                kind_rows, kind_tables, merge_fields)
from .checkpoint import (_atomic_write_json, _finish_run, _fingerprint,
                         _run_sharded)
from .image_validation import (_ID, _PH, META_COLS, PSI_COLS,
                               _caption_census, _census_slice,
                               _decode_rows, _drift_partial, _evidence,
                               _findings, _first, _image_census,
                               _listing_partial, _merge_decode, _merge_drift,
                               _merge_listings, _merge_prof, _prep,
                               _prof_partial, _reference_hists, _sum_counts,
                               assert_schema_files, partition_verdicts)


def _cells_table(keys: np.ndarray, n, code, ids) -> pa.Table:
    """A checkpointed census: pass-1 census cells and an id per cell."""
    return pa.table({"key": keys.view(np.int64), "n": n, "code": code,
                     "image_id": ids})


def _census_cells(t: pa.Table) -> tuple:
    """The (keys, counts, codes) cells of a checkpointed census."""
    return (t["key"].to_numpy().view(np.uint64), t["n"].to_numpy(),
            t["code"].to_numpy())


_NO_CELLS = _cells_table(np.empty(0, np.uint64), np.empty(0, np.int64),
                         np.empty(0, np.int8), pa.nulls(0))


def _concat_cells(tables: list[pa.Table]) -> pa.Table:
    return pa.concat_tables([_NO_CELLS, *tables], promote_options="default")


def _block_census(t: pa.Table) -> pa.Table:
    """A block's checkpointed census: its ``_image_census`` cells, a
    phash cell carrying the phash's min image_id by the band cells' rule
    (``_minid_per_key``), an id-hash cell no id."""
    keys, n, code = _image_census(t)
    _, minid = _minid_per_key(t["phash"].to_numpy(zero_copy_only=False),
                              np_object(t["image_id"]))
    return _cells_table(keys, n, code, pa.array(np.concatenate(
        [np.full(int((code == _ID).sum()), None, object), minid])))


# folds a partition pass's ``agg`` payloads (counts, drift histograms,
# census, listing schema)
_merge_partition_agg = merge_fields(_sum_counts, _merge_drift,
                                    _concat_cells, _first)


def _write_table(t: pa.Table, path: str) -> None:
    pq.write_table(t, path + ".tmp")
    os.replace(path + ".tmp", path)


def _cached_table(path: str, build) -> tuple[pa.Table, bool]:
    """(table, cached): read ``path``, or build and write it when it is
    missing or an older engine's (no ``image_id`` column)."""
    if os.path.exists(path):
        t = pq.read_table(path)
        if "image_id" in t.column_names:
            return t, True
    t = build()
    _write_table(t, path)
    return t, False


def discover_partitions(images_dir: str) -> dict[int, list[str]]:
    out: dict[int, list[str]] = {}
    for d in sorted(glob.glob(os.path.join(images_dir, "partition=*"))):
        pid = int(os.path.basename(d).split("=")[1])
        out[pid] = sorted(glob.glob(os.path.join(d, "*.parquet")))
    return out


def _reference(out_dir: str, ref_files: list[str], ref_partitions):
    """(profile, ref histograms, ref fmt counts, fingerprint), cached by
    the reference files' fingerprint."""
    fp = _fingerprint(ref_files)
    ppath = os.path.join(out_dir, f"profile_{fp}.json")
    hpath = os.path.join(out_dir, f"refhists_{fp}.json")
    if os.path.exists(ppath) and os.path.exists(hpath):
        with open(ppath) as f, open(hpath) as g:
            try:
                prof = TableProfile.from_json(f.read())
                cached = json.load(g)
                return prof, {k: np.asarray(v, dtype=np.int64)
                              for k, v in cached["hists"].items()}, \
                    cached["fmt"], fp
            except ProfileFormatError:
                pass        # an older engine's format: re-profile below
    ref_set = list(ref_partitions)
    (n_ref, sketches), hists = fold(
        read_table(ref_files,
                   columns=["w", "h", "fmt", "caption", "partition_id"]),
        lambda t: _prof_partial(_prep(t), ref_set), _merge_prof)
    prof = TableProfile(columns=sketches, fingerprint=fp, n_rows=n_ref)
    ref_hists, ref_fmt = _reference_hists(hists, ref_set)
    _atomic_write_json(ppath, json.loads(prof.to_json()))
    _atomic_write_json(hpath, {
        "hists": {k: v.tolist() for k, v in ref_hists.items()},
        "fmt": ref_fmt})
    return prof, ref_hists, ref_fmt, fp


def run_validation(images_dir: str, out_dir: str, *,
                   captions_path: str | None = None,
                   ref_partitions: tuple[int, ...] = (0, 1, 2),
                   stat_budget: float = 0.005, null_budget: float = 0.05,
                   psi_budget: float = 0.2, decode: bool = True) -> dict:
    """Validate all partitions, skipping those already checkpointed.

    Returns the manifest dict (also persisted to ``manifest.json``)."""
    started_at = time.time()
    os.makedirs(out_dir, exist_ok=True)
    parts = discover_partitions(images_dir)
    missing = sorted(set(ref_partitions) - set(parts))
    if missing:
        raise ValueError(f"ref_partitions {missing} not found under "
                         f"{images_dir!r} (have {sorted(parts)})")
    ref_files = [f for p in ref_partitions for f in parts[p]]
    prof, ref_hists, ref_fmt, prof_fp = _reference(out_dir, ref_files,
                                                   ref_partitions)
    states_blob = pickle.dumps(rc.fence_states(prof, ["w", "h"]))

    def meta_partial(batch: pa.Table, _cache={}) -> pa.Table:
        if "c" not in _cache:
            _cache["c"] = rc.RowChecker(states_blob)
        checked, _, counts, stat, null = _evidence(_cache["c"], batch)
        listing = checked.drop(["caption"]).filter(pa.array(stat | null))
        # the agg row goes to the driver; the viol row stays distributed
        # and is written straight to the partition's violations sink
        return kind_rows({"agg": (counts, _drift_partial(checked),
                                  _block_census(checked), listing.schema),
                          "viol": listing})

    def validate_partition(pid: int, tmp: str) -> dict:
        schema_errors = assert_schema_files(parts[pid])
        out = read_table(parts[pid], columns=META_COLS).map_batches(
            meta_partial, batch_format="pyarrow", zero_copy_batch=True)
        out = (out.union(_decode_rows(parts[pid])) if decode
               else out).materialize()
        counts, hists, census, viol_schema = fold_payloads(
            out, _merge_partition_agg, kind="agg")
        if set(counts) - {pid}:
            raise ValueError(
                f"partition={pid} holds rows of partition_id "
                f"{sorted(set(counts) - {pid})}")
        row, = partition_verdicts(
            [pid], counts, hists, (ref_hists, ref_fmt), ref_partitions,
            stat_budget=stat_budget, null_budget=null_budget,
            psi_budget=psi_budget)

        decode_ids = (fold_payloads(out, _merge_decode, kind="decode")[
            "image_id"].to_pylist() if decode else [])
        viol_dir = os.path.join(tmp, "violations")
        os.makedirs(viol_dir)                 # kept even when empty
        if row["stat_viol"] or row["null_viol"]:
            # distributed write: violation blocks never concat on the
            # driver
            kind_tables(out, "viol", viol_schema).write_parquet(viol_dir)
        pq.write_table(census, os.path.join(tmp, "keycensus.parquet"))
        verdict = {
            **{k: row[k] for k in ("partition_id", "n_rows", "stat_viol",
                                   "stat_fail", "null_viol", "null_fail")},
            "psi": {c: round(row[f"psi_{c}"], 6) for c in PSI_COLS},
            "drift_fail": row["drift_fail"],
            "decode_viol": len(decode_ids),
            "decode_fail": int(len(decode_ids) > 0),
            "decode_sample": decode_ids[:100],
            "schema_errors": schema_errors,
        }
        verdict["fail"] = int(any(verdict[k] for k in
                                  ("stat_fail", "null_fail", "drift_fail",
                                   "decode_fail")) or bool(schema_errors))
        return verdict

    manifest, pending = _run_sharded(
        out_dir, "partition", parts,
        {"profile_fp": prof_fp, "stat_budget": stat_budget,
         "null_budget": null_budget, "psi_budget": psi_budget,
         "decode": decode},
        validate_partition,
        {"engine_version": __version__, "images_dir": images_dir,
         "partitions": {}, "runs": []},
        checkpoint_file="verdict.json")

    # A6 finding off the reference profile (no extra pass): the
    # reference DROPS zero-variance columns silently before fitting
    # (reference runs.py:333-335); the engine reports them
    const_cols = constant_listing(prof)["col_name"].to_pylist()
    return _finish_run(manifest, out_dir, {
        "started_at": started_at, "pending": pending,
        "profile_fp": prof_fp, "constant_columns": const_cols,
        **_global_checks(out_dir, parts, captions_path)})


def _global_checks(out_dir: str, parts: dict[int, list[str]],
                   captions_path: str | None) -> dict:
    """The run's uniqueness, referential and near-dup findings, as
    counts for the run entry and listings written beside the manifest."""
    new, cached, cells = [], [], {}
    for pid in sorted(parts):
        cells[pid], hit = _cached_table(
            os.path.join(out_dir, "partitions", f"partition={pid}",
                         "keycensus.parquet"),
            lambda: fold(read_table(parts[pid], columns=["image_id", "phash"]),
                         _block_census, _concat_cells))
        (cached if hit else new).append(pid)
    census = [_census_cells(t) for t in cells.values()]
    captions = captions_path is not None
    if captions:
        cap, _ = _cached_table(
            os.path.join(out_dir, "capcensus_"
                         f"{_fingerprint([captions_path])}.parquet"),
            lambda: fold(read_table(captions_path, columns=["image_id"]),
                         lambda t: _cells_table(*_caption_census(t)),
                         _concat_cells))
        census.append((*_census_cells(cap),
                       cap["image_id"].combine_chunks()))
    cands, cap_orphans = _census_slice(census, captions)
    id_cands, dup_ph = np.concatenate(cands[:2]), cands[2]
    listing_pids = [pid for pid, (k, _, code) in zip(cells, census)
                    if np.isin(k[code == _ID], id_cands).any()
                    or np.isin(k[code == _PH].view(np.int64), dup_ph).any()]
    listings = _merge_listings([])
    if listing_pids:
        ref = ray.put((*cands[:2], np.sort(dup_ph)))
        listings = fold(
            read_table([f for p in listing_pids for f in parts[p]],
                       columns=["image_id", "phash", "partition_id"]),
            lambda t: _listing_partial(t, *ray.get(ref)), _merge_listings)
    dup, _, orphans, groups = _findings(listings, *cands[2:],
                                        [cap_orphans], captions)
    # Hamming pairs, each census one block of the census and the cells
    ph = [t.filter(pc.equal(t["code"], _PH)) for t in cells.values()]
    keys = [t["key"].to_numpy() for t in ph]
    _, hot = hamming_arm(_sum_census([band_census(np.unique(k))
                                        for k in keys]))
    n = default_num_parts()
    pairs = _id_pairs(*_pair_ids(rd.from_arrow([
        _band_cells(k, t["image_id"], n, hot=hot)
        for k, t in zip(keys, ph)]), n, 4, "4x16"))
    found = {"dup_ids": dup, "orphans": orphans, "neardup_groups": groups,
             "neardup_pairs": pairs}
    for name, df in found.items():
        path = os.path.join(out_dir, f"{name}.parquet")
        if df is not None:
            _write_table(pa.Table.from_pandas(df, preserve_index=False), path)
        elif os.path.exists(path):          # an earlier run's, with captions
            os.remove(path)
    out = {"uniqueness_violations": len(dup),
           "uniqueness_sample": dup["image_id"].tolist()[:50],
           "neardup_groups": len(groups), "neardup_pairs": len(pairs),
           "global_checks": {"census_new_partitions": new,
                             "census_cached_partitions": cached,
                             "listing_partitions": listing_pids}}
    if captions:
        out["referential_orphans"] = len(orphans)
    return out
