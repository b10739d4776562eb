"""Run manifest + per-partition checkpoint/resume for image validation
(north rule: "resumable from checkpoint with per-partition lineage +
metrics") — a checkpoint layer over ``pipelines.image_validation``'s
own pass partials, run on the shared scaffold
``pipelines.checkpoint._run_sharded`` (unit ``partition``).

Layout under ``out_dir``::

    profile_<fingerprint>.json            # cached fit-phase artifact
    refhists_<fingerprint>.json           # cached reference histograms
    capcensus_<fingerprint>.parquet       # cached caption-side id census
    manifest.json                         # completed partitions + lineage
    partitions/partition=<pid>/verdict.json
    partitions/partition=<pid>/violations/*.parquet
    partitions/partition=<pid>/keycensus.parquet  # (kind, hash, n)

Execution shape:
- reference side: ONE pruned execution over the reference partitions
  runs the profile+histogram half of the pass-1 partial and folds it
  with ``_merge_prof`` — the same profile and reference sums
  ``validate_images`` fits.
  Profile and reference histograms cache beside each other, keyed by
  an input fingerprint (paths + sizes of the reference files), so a
  resume NEVER mixes profiles from different inputs (SURVEY §7.6) and
  never re-reads the reference;
- per pending partition: ONE metadata execution (pass-2 evidence head
  + histogram partial + key census), whose ``agg`` rows fold off the
  materialized blocks in flat tasks (``transport.fold_payloads``),
  plus the payload read for decode.  The partition's PSI and
  stat/null/drift verdict come from ``image_validation.partition_verdicts``,
  the path ``validate_images`` uses; rows whose ``partition_id`` names
  another partition are an error.
  Its outputs — verdict, violation rows (stat OR null, uncapped) and
  the distinct-key census — are written into a tmp dir and renamed
  into place, then the manifest is rewritten.  Up to 4 partitions run
  at once (the scaffold's driver threads), so a killed run loses at
  most the partitions in flight;
- a partition is complete iff its manifest entry matches the profile
  fingerprint, the verdict settings (budgets, ``decode``) and the
  fingerprint of its own files, and its ``verdict.json`` exists;
  completed partitions' files are never read;
- cross-partition key checks (uniqueness, referential, near-dup) are
  run-scoped and INCREMENTAL: they merge the checkpointed censuses —
  only partitions that actually contain globally-duplicated keys are
  re-read, and only their id column, for the exact violation listing.
  The manifest records which partitions' censuses were computed vs
  cached per run.
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

from .. import __version__
from ..io import read_table
from ..profile import ProfileFormatError, TableProfile
from ..validators import row_checks as rc
from ..stages.transport import (fold, fold_payloads, kind_rows,
                                kind_tables, merge_counts)
from .checkpoint import (_atomic_write_json, _finish_run, _fingerprint,
                         _run_sharded)
from .image_validation import (META_COLS, PSI_COLS, _decode_failures,
                               _drift_partial, _evidence, _id_counts,
                               _key_census, _merge_drift, _merge_prof, _prep,
                               _prof_partial, _reference_hists,
                               _sum_counts, assert_schema_files,
                               partition_verdicts)

def _merge_census(parts: list[dict]) -> dict:
    """Fold ``_key_census`` partials ({kind: (hashes, counts)})."""
    return {k: merge_counts([p[k] for p in parts if k in p])
            for k in {k for p in parts for k in p}}


def _merge_partition_agg(parts: list[tuple]) -> tuple:
    """Fold a partition pass's ``agg`` payloads (counts, drift
    histograms, key census, listing schema) — associative."""
    return (_sum_counts([p[0] for p in parts]),
            _merge_drift([p[1] for p in parts]),
            _merge_census([p[2] for p in parts]),
            next((p[3] for p in parts), None))


def _census_table(census: dict) -> pa.Table:
    """The (kind, hash, n) table of a folded census."""
    kinds, hashes, counts = [], [], []
    for k in sorted(census):
        v, c = census[k]
        kinds.extend([k] * len(v))
        hashes.append(v.astype(np.uint64).view(np.int64))
        counts.append(c)
    return pa.table({
        "kind": pa.array(kinds, type=pa.string()),
        "hash": pa.array(np.concatenate(hashes) if hashes
                         else np.empty(0, np.int64)),
        "n": pa.array(np.concatenate(counts) if counts
                      else np.empty(0, np.int64))})


def _hash_census(files: list[str], columns: list[str]) -> pa.Table:
    """Census of a file set outside the partition pass: the caption
    census, and a partition census missing from its checkpoint."""
    return _census_table(fold(read_table(files, columns=columns),
                              _key_census, _merge_census))


def _census_arrays(tbl: pa.Table, kind: str
                   ) -> tuple[np.ndarray, np.ndarray]:
    t = tbl.filter(pc.equal(tbl["kind"], kind))
    return (t["hash"].to_numpy(zero_copy_only=False)
            .astype(np.int64).view(np.uint64),
            t["n"].to_numpy(zero_copy_only=False).astype(np.int64))


def _cached_table(path: str, build) -> tuple[pa.Table, bool]:
    """(table, cached): read ``path`` or build it and write it atomically."""
    if os.path.exists(path):
        return pq.read_table(path), True
    tbl = build()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(tbl, path + ".tmp")
    os.replace(path + ".tmp", path)
    return tbl, False


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
                   psi_budget: float = 0.2, decode: bool = True,
                   run_global_checks: bool = True) -> dict:
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
                                  _key_census(checked), listing.schema),
                          "viol": listing})

    def validate_partition(pid: int, tmp: str) -> dict:
        schema_errors = assert_schema_files(parts[pid])
        out = read_table(parts[pid], columns=META_COLS).map_batches(
            meta_partial, batch_format="pyarrow",
            zero_copy_batch=True).materialize()
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

        # an empty failure listing comes back without columns
        decode_ids = (list(_decode_failures(parts[pid]).get("image_id", []))
                      if decode else [])
        viol_dir = os.path.join(tmp, "violations")
        os.makedirs(viol_dir)                 # kept even when empty
        if row["stat_viol"] or row["null_viol"]:
            # distributed write: violation blocks never concat on the
            # driver
            kind_tables(out, "viol", viol_schema).write_parquet(viol_dir)
        pq.write_table(_census_table(census),
                       os.path.join(tmp, "keycensus.parquet"))
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

    # A6 finding off the already-built reference profile (zero extra
    # pass): the reference DROPS zero-variance columns silently before
    # fitting (reference runs.py:333-335, experiment.py:545-559); the
    # engine reports them — a constant stat column usually means a
    # broken upstream feed, not a column to quietly exclude
    from ..validators.domain import sketch_is_constant
    const_cols = sorted(n for n in prof.columns
                        if sketch_is_constant(prof[n]))

    run_entry = {"started_at": started_at, "pending": pending,
                 "profile_fp": prof_fp,
                 "constant_columns": const_cols}
    if run_global_checks:
        from ..sketches import key_hash

        # incremental: merge the checkpointed per-partition censuses;
        # rebuild only a census file that is missing (completed by an
        # older engine version) — a resumed run reads NO completed
        # partition's key columns
        census_new: list[int] = []
        census_cached: list[int] = []
        id_cens: dict[int, tuple] = {}
        ph_cens: dict[int, tuple] = {}
        for pid in sorted(parts):
            tbl, cached = _cached_table(
                os.path.join(out_dir, "partitions", f"partition={pid}",
                             "keycensus.parquet"),
                lambda: _hash_census(parts[pid], ["image_id", "phash"]))
            (census_cached if cached else census_new).append(pid)
            id_cens[pid] = _census_arrays(tbl, "id")
            ph_cens[pid] = _census_arrays(tbl, "ph")
        iv, ic = merge_counts(list(id_cens.values()))
        dup_hashes = iv[ic >= 2]
        listing_pids = sorted(
            pid for pid, (v, _) in id_cens.items()
            if dup_hashes.size and np.isin(v, dup_hashes).any())
        real: list = []
        if listing_pids:
            # exact listing: read ONLY the affected partitions' id
            # column, pruned by the broadcast dup-hash set (hash
            # collisions only add candidates; the exact value count
            # filter removes them)
            import ray as _ray
            dup_ref = _ray.put(np.sort(dup_hashes))
            cand_ds = read_table(
                [f for pid in listing_pids for f in parts[pid]],
                columns=["image_id"])

            def dup_rows(t: pa.Table) -> pa.Table:
                h, _ = key_hash([t["image_id"]])
                return t.select(["image_id"]).filter(
                    pa.array(np.isin(h, _ray.get(dup_ref))))

            rows = fold(cand_ds, dup_rows,
                        lambda p: pa.concat_tables(p) if p else None)
            if rows is not None:
                # null ids are one id, listed last
                g = _id_counts(rows, [([], "count_all")])
                real = g.filter(pc.greater_equal(g["count_all"], 2))[
                    "image_id"].to_pylist()
        run_entry["uniqueness_violations"] = len(real)
        run_entry["uniqueness_sample"] = real[:50]
        pv, pn = merge_counts(list(ph_cens.values()))
        run_entry["neardup_groups"] = int((pn >= 2).sum())
        if captions_path is not None:
            # caption-side census cached by file fingerprint (64-bit
            # hash-set diff; collision odds ~n^2/2^64 — negligible)
            cap_tbl, _ = _cached_table(
                os.path.join(out_dir, "capcensus_"
                             f"{_fingerprint([captions_path])}.parquet"),
                lambda: _hash_census([captions_path], ["image_id"]))
            cv, _ = _census_arrays(cap_tbl, "id")
            run_entry["referential_orphans"] = int(
                np.setdiff1d(iv, cv).size + np.setdiff1d(cv, iv).size)
            # the setdiff runs over 64-bit id-hash censuses, not raw ids:
            # a hash collision can MISS an orphan (odds ~n^2/2^64).
            # Record the method beside the count so consumers never
            # assume exactness (pipelines.image_validation lists orphans
            # from raw ids when exactness is needed).
            run_entry["referential_method"] = (
                "hash64-census setdiff (approximate: collisions can "
                "mask orphans, odds ~n^2/2^64)")
        run_entry["global_checks"] = {
            "method": "incremental-census",
            "census_new_partitions": census_new,
            "census_cached_partitions": census_cached,
            "listing_partitions": listing_pids,
        }
    return _finish_run(manifest, out_dir, run_entry)
