"""Run manifest + per-partition checkpoint/resume for image validation
(north rule: "resumable from checkpoint with per-partition lineage +
metrics").

Layout under ``out_dir``::

    profile_<fingerprint>.json            # cached fit-phase artifact
    capcensus_<fingerprint>.parquet       # cached caption-side id census
    manifest.json                         # completed partitions + lineage
    partitions/partition=<pid>/verdict.json
    partitions/partition=<pid>/violations/*.parquet
    partitions/partition=<pid>/keycensus.parquet  # (kind, hash, n)

Contracts:
- the profile artifact is keyed by an input fingerprint (paths + sizes
  of the reference partitions), so a resume NEVER mixes profiles from
  different inputs (SURVEY §7.6);
- per-partition outputs are written to a temp dir then atomically
  renamed; the manifest is rewritten (tmp + ``os.replace``) after each
  partition completes — a killed run loses at most the partition in
  flight;
- on resume, completed partitions are skipped and their input files are
  never read (the pending-partition filter is pushed into the read);
- cross-partition key checks (uniqueness, referential, near-dup) are
  run-scoped and INCREMENTAL: each completed partition checkpoints its
  distinct-key census (id-hash + phash counts), and a resumed run
  merges the cached censuses instead of re-reading completed
  partitions' key columns — only partitions that actually contain
  globally-duplicated keys are re-read, and only their id column, for
  the exact violation listing.  The manifest records which partitions'
  censuses were computed vs cached per run.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .. import __version__
from ..io import read_table
from ..profile import ProfileFormatError, TableProfile, profile_dataset
from ..validators import drift, row_checks as rc
from .image_validation import _prep, assert_schema_files


def _fingerprint(paths: list[str]) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.encode())
        h.update(str(os.path.getsize(p)).encode())
    return h.hexdigest()[:16]


def _atomic_write_json(path: str, obj) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, default=str)
    os.replace(tmp, path)


def _hash_census(files: list[str], *, with_phash: bool) -> pa.Table:
    """(kind, hash, n) distinct-key census over a file set: per-block
    np.unique partials, 32-way vectorized tree merge, driver fold —
    the partition-scoped building block the incremental global checks
    merge across runs.  ``kind`` is 'id' (hash64 of image_id) and,
    when ``with_phash``, 'ph' (the raw phash value — exact)."""
    import pickle

    from ..sketches import hash64, np_object
    from ..validators.near_dup import _merge_count_arrays

    cols = ["image_id", "phash"] if with_phash else ["image_id"]
    ds = read_table(files, columns=cols)

    def partial(t: pa.Table) -> pa.Table:
        out = {"id": np.unique(hash64(np_object(t["image_id"])),
                               return_counts=True)}
        if with_phash:
            out["ph"] = np.unique(
                t["phash"].to_numpy(zero_copy_only=False),
                return_counts=True)
        return pa.table({"payload": pa.array([pickle.dumps(out)],
                                             type=pa.large_binary())})

    def merge(batch: pa.Table) -> pa.Table:
        parts = [pickle.loads(p) for p in batch["payload"].to_pylist()]
        out = {k: _merge_count_arrays([p[k] for p in parts])
               for k in parts[0]}
        return pa.table({"payload": pa.array([pickle.dumps(out)],
                                             type=pa.large_binary())})

    merged = ds.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True) \
        .map_batches(merge, batch_size=32, batch_format="pyarrow")
    parts = [pickle.loads(r["payload"]) for r in merged.take_all()]
    final = {k: _merge_count_arrays([p[k] for p in parts])
             for k in parts[0]}
    kinds, hashes, counts = [], [], []
    for k, (v, c) in final.items():
        kinds.extend([k] * len(v))
        hashes.append(v.astype(np.uint64).view(np.int64))
        counts.append(c)
    return pa.table({
        "kind": pa.array(kinds),
        "hash": pa.array(np.concatenate(hashes) if hashes
                         else np.empty(0, np.int64)),
        "n": pa.array(np.concatenate(counts) if counts
                      else np.empty(0, np.int64))})


def _census_arrays(tbl: pa.Table, kind: str
                   ) -> tuple[np.ndarray, np.ndarray]:
    t = tbl.filter(pc.equal(tbl["kind"], kind))
    return (t["hash"].to_numpy(zero_copy_only=False)
            .astype(np.int64).view(np.uint64),
            t["n"].to_numpy(zero_copy_only=False).astype(np.int64))


def discover_partitions(images_dir: str) -> dict[int, list[str]]:
    out: dict[int, list[str]] = {}
    for d in sorted(glob.glob(os.path.join(images_dir, "partition=*"))):
        pid = int(os.path.basename(d).split("=")[1])
        out[pid] = sorted(glob.glob(os.path.join(d, "*.parquet")))
    return out


def _load_or_build_profile(out_dir: str, ref_files: list[str],
                           ref_partitions) -> tuple[TableProfile, str]:
    fp = _fingerprint(ref_files)
    path = os.path.join(out_dir, f"profile_{fp}.json")
    if os.path.exists(path):
        with open(path) as f:
            try:
                return TableProfile.from_json(f.read()), fp
            except ProfileFormatError:
                pass        # an older engine's format: re-profile below
    ds = read_table(ref_files)
    prof = profile_dataset(
        ds.map_batches(_prep, batch_format="pyarrow", zero_copy_batch=True),
        columns=["w", "h", "caption_len", "caption", "fmt"],
        fingerprint=fp)
    _atomic_write_json(path, json.loads(prof.to_json()))
    return prof, fp


def run_validation(images_dir: str, out_dir: str, *,
                   captions_path: str | None = None,
                   ref_partitions: tuple[int, ...] = (0, 1, 2),
                   stat_budget: float = 0.005, null_budget: float = 0.05,
                   psi_budget: float = 0.2, decode: bool = True,
                   run_global_checks: bool = True) -> dict:
    """Validate all partitions, skipping those already checkpointed.

    Returns the manifest dict (also persisted to ``manifest.json``)."""
    os.makedirs(os.path.join(out_dir, "partitions"), exist_ok=True)
    parts = discover_partitions(images_dir)
    manifest_path = os.path.join(out_dir, "manifest.json")
    manifest = {"engine_version": __version__, "images_dir": images_dir,
                "partitions": {}, "runs": []}
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            manifest = json.load(f)

    ref_files = [f for p in ref_partitions for f in parts.get(p, [])]
    prof, prof_fp = _load_or_build_profile(out_dir, ref_files,
                                           ref_partitions)
    states = rc.fence_states(prof, ["w", "h"])

    # reference histograms for drift — cached beside the profile, keyed
    # by the same input fingerprint, so a resume never re-reads the
    # reference partitions
    edges_wh = np.array([0, 48, 80, 112, 160, 8192], dtype=float)
    edges_cap = np.arange(0.0, 220.0, 20.0)
    hist_cache = os.path.join(out_dir, f"refhists_{prof_fp}.json")
    if os.path.exists(hist_cache):
        with open(hist_cache) as f:
            cached = json.load(f)
        ref_hists = {k: np.asarray(v, dtype=np.int64)
                     for k, v in cached["hists"].items()}
        ref_fmt = cached["fmt"]
    else:
        ref_ds = read_table(ref_files).map_batches(
            _prep, batch_format="pyarrow", zero_copy_batch=True)
        ref_hists = {
            "w": drift.histogram_counts(ref_ds, "w", edges_wh),
            "h": drift.histogram_counts(ref_ds, "h", edges_wh),
            "caption_len": drift.histogram_counts(ref_ds, "caption_len",
                                                  edges_cap),
        }
        ref_fmt = drift.categorical_counts(ref_ds, "fmt")
        _atomic_write_json(hist_cache, {
            "hists": {k: v.tolist() for k, v in ref_hists.items()},
            "fmt": ref_fmt})

    def _complete(p: int) -> bool:
        entry = manifest["partitions"].get(str(p))
        if entry is None or entry.get("profile_fp") != prof_fp:
            return False
        # trust but verify: the checkpoint is the OUTPUT, not the
        # manifest line — a deleted/partial partition dir re-runs
        return os.path.exists(os.path.join(
            out_dir, "partitions", f"partition={p}", "verdict.json"))

    pending = [p for p in sorted(parts) if not _complete(p)]

    import pickle

    from .image_validation import META_COLS

    states_blob = pickle.dumps(states)
    hist_specs = {"w": edges_wh, "h": edges_wh, "caption_len": edges_cap}

    def meta_pass(batch: pa.Table, _cache={}) -> pa.Table:
        """ONE fused pass per partition: evidence counts + violation
        listing + drift histograms + fmt counts (mirrors the fused
        execution shape of pipelines.image_validation)."""
        if "c" not in _cache:
            _cache["c"] = rc.RowChecker(states_blob)
        batch = _prep(batch)
        checked = _cache["c"](batch)
        nul = pc.cast(pc.is_null(checked["caption"]), pa.int8())
        checked = checked.append_column("caption_null", nul)
        tuk = checked[rc.TUKEY_TOTAL].to_numpy(zero_copy_only=False)
        mad = checked[rc.MAD_TOTAL].to_numpy(zero_copy_only=False)
        nularr = checked["caption_null"].to_numpy(zero_copy_only=False)
        viol = (tuk > 0) | (mad > 0)
        counts = (batch.num_rows, int(viol.sum()), int((nularr > 0).sum()))
        viol_tbl = checked.drop(["caption"]).filter(
            pa.array(viol | (nularr > 0)))
        hists = {}
        for col, edges in hist_specs.items():
            v = checked[col].cast(pa.float64()).combine_chunks() \
                .to_numpy(zero_copy_only=False)
            v = v[~np.isnan(v)]
            idx = np.clip(np.searchsorted(edges, v, side="right") - 1,
                          0, len(edges) - 2)
            hists[col] = np.bincount(idx, minlength=len(edges) - 1) \
                .astype(np.int64)
        from ..sketches import np_object
        fv, fc = np.unique(np_object(checked["fmt"]), return_counts=True)
        fmt_counts = dict(zip(fv.tolist(), fc.tolist()))
        # agg rows go to the driver; viol rows stay distributed and are
        # written straight to the partition's violations sink
        return pa.table({
            "kind": pa.array(["agg", "viol"]),
            "payload": pa.array(
                [pickle.dumps((counts, hists, fmt_counts,
                               viol_tbl.schema)),
                 pickle.dumps(viol_tbl)], type=pa.large_binary())})

    for pid in pending:
        t0 = time.time()
        schema_errors = assert_schema_files(parts[pid])
        meta = read_table(parts[pid], columns=META_COLS)
        n_rows = stat_viol = null_viol = 0
        cur_hists = {c: np.zeros(len(e) - 1, dtype=np.int64)
                     for c, e in hist_specs.items()}
        cur_fmt: dict = {}
        mp = meta.map_batches(meta_pass, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()
        viol_schema: pa.Schema | None = None
        for r in mp.map_batches(
                lambda t: t.filter(pc.equal(t["kind"], "agg")),
                batch_format="pyarrow").take_all():
            (n, sv, nv), hi, fc, viol_schema = pickle.loads(r["payload"])
            n_rows += n
            stat_viol += sv
            null_viol += nv
            for c in cur_hists:
                cur_hists[c] += hi[c]
            for k, v in fc.items():
                cur_fmt[k] = cur_fmt.get(k, 0) + v

        cats = sorted(set(ref_fmt) | set(cur_fmt))
        psi = {c: drift.psi_from_counts(ref_hists[c], cur_hists[c])
               for c in cur_hists}
        psi["fmt"] = drift.psi_from_counts(
            [ref_fmt.get(c, 0) for c in cats],
            [cur_fmt.get(c, 0) for c in cats])

        decode_bad = 0
        decode_ids: list[str] = []
        if decode:
            from ..stages.decode import decode_verify
            # column-pruned: decode needs everything BUT caption
            # (image_validation.py does the same — reading the caption
            # into the decode tasks is pure waste)
            payload_ds = read_table(
                parts[pid], columns=["image_id", "bytes", "w", "h",
                                     "fmt", "phash"])
            bad = decode_verify(payload_ds).map_batches(
                lambda t: t.filter(pc.equal(t["decode_ok"], 0))
                .select(["image_id", "decode_reason"]),
                batch_format="pyarrow").take_all()
            decode_bad = len(bad)
            decode_ids = [r["image_id"] for r in bad[:100]]

        verdict = {
            "partition_id": pid,
            "n_rows": n_rows,
            "stat_viol": stat_viol,
            "stat_fail": int(n_rows > 0 and stat_viol / n_rows > stat_budget),
            "null_viol": null_viol,
            "null_fail": int(n_rows > 0 and null_viol / n_rows > null_budget),
            "psi": {k: round(v, 6) for k, v in psi.items()},
            "drift_fail": int(pid not in ref_partitions
                              and max(psi.values()) > psi_budget),
            "decode_viol": decode_bad,
            "decode_fail": int(decode_bad > 0),
            "decode_sample": decode_ids,
            "schema_errors": schema_errors,
        }
        verdict["fail"] = int(any(verdict[k] for k in
                                  ("stat_fail", "null_fail", "drift_fail",
                                   "decode_fail")) or bool(schema_errors))

        # atomic per-partition output: write to tmp dir, rename into place
        pdir = os.path.join(out_dir, "partitions", f"partition={pid}")
        tmp = pdir + ".tmp"
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        os.makedirs(tmp)
        viol_dir = os.path.join(tmp, "violations")
        os.makedirs(viol_dir, exist_ok=True)  # keep the dir even if empty
        if stat_viol or null_viol:
            # distributed write: violation blocks never concat on the
            # driver (capped per block, unbounded block count at scale)
            def _unpack(t: pa.Table) -> pa.Table:
                # dynamic block splitting can yield a block with no viol
                # row — fall back to the empty typed table
                tabs = [pickle.loads(p) for p in
                        t.filter(pc.equal(t["kind"], "viol"))["payload"]
                        .to_pylist()]
                if not tabs:
                    return viol_schema.empty_table()
                return pa.concat_tables(tabs, promote_options="default")

            mp.map_batches(_unpack, batch_format="pyarrow",
                           batch_size=None).write_parquet(viol_dir)
        # checkpoint this partition's distinct-key census so future
        # runs' global checks never re-read its key columns
        pq.write_table(_hash_census(parts[pid], with_phash=True),
                       os.path.join(tmp, "keycensus.parquet"))
        _atomic_write_json(os.path.join(tmp, "verdict.json"), verdict)
        if os.path.exists(pdir):
            shutil.rmtree(pdir)
        os.replace(tmp, pdir)

        manifest["partitions"][str(pid)] = {
            "profile_fp": prof_fp,
            "inputs": [{"path": p, "bytes": os.path.getsize(p)}
                       for p in parts[pid]],
            "verdict": verdict,
            "wall_s": round(time.time() - t0, 3),
            "engine_version": __version__,
            "completed_at": time.time(),
        }
        _atomic_write_json(manifest_path, manifest)

    # A6 finding off the already-built reference profile (zero extra
    # pass): the reference DROPS zero-variance columns silently before
    # fitting (reference runs.py:333-335, experiment.py:545-559); the
    # engine reports them — a constant stat column usually means a
    # broken upstream feed, not a column to quietly exclude
    from ..validators.domain import sketch_is_constant
    const_cols = sorted(n for n in prof.columns
                        if sketch_is_constant(prof[n]))

    run_entry = {"started_at": time.time(), "pending": pending,
                 "profile_fp": prof_fp,
                 "constant_columns": const_cols}
    if run_global_checks:
        from ..sketches import hash64, np_object
        from ..validators.near_dup import _merge_count_arrays

        # incremental: merge per-partition key censuses; compute a
        # census only for partitions that don't have one checkpointed
        # (completed by an older engine version) — a resumed run reads
        # NO completed partition's key columns
        census_new: list[int] = []
        census_cached: list[int] = []
        id_cens: dict[int, tuple] = {}
        ph_cens: dict[int, tuple] = {}
        for pid in sorted(parts):
            cpath = os.path.join(out_dir, "partitions",
                                 f"partition={pid}", "keycensus.parquet")
            if os.path.exists(cpath):
                tbl = pq.read_table(cpath)
                census_cached.append(pid)
            else:
                tbl = _hash_census(parts[pid], with_phash=True)
                tmp_c = cpath + ".tmp"
                os.makedirs(os.path.dirname(cpath), exist_ok=True)
                pq.write_table(tbl, tmp_c)
                os.replace(tmp_c, cpath)
                census_new.append(pid)
            id_cens[pid] = _census_arrays(tbl, "id")
            ph_cens[pid] = _census_arrays(tbl, "ph")
        iv, ic = _merge_count_arrays(list(id_cens.values()))
        dup_hashes = iv[ic >= 2]
        listing_pids = sorted(
            pid for pid, (v, _) in id_cens.items()
            if dup_hashes.size and np.isin(v, dup_hashes).any())
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

            def keep(t: pa.Table) -> pa.Table:
                h = hash64(np_object(t["image_id"]))
                return t.filter(pa.array(np.isin(
                    h, _ray.get(dup_ref))))

            ids = np.concatenate(
                [np_object(b["image_id"]) for b in
                 cand_ds.map_batches(keep, batch_format="pyarrow")
                 .iter_batches(batch_size=65536, batch_format="pyarrow")]
                or [np.empty(0, object)])
            uv, uc = np.unique(ids, return_counts=True)
            real = uv[uc >= 2]
            run_entry["uniqueness_violations"] = int(len(real))
            run_entry["uniqueness_sample"] = sorted(real.tolist())[:50]
        else:
            run_entry["uniqueness_violations"] = 0
            run_entry["uniqueness_sample"] = []
        pv, pn = _merge_count_arrays(list(ph_cens.values()))
        run_entry["neardup_groups"] = int((pn >= 2).sum())
        if captions_path is not None:
            # caption-side census cached by file fingerprint (64-bit
            # hash-set diff; collision odds ~n^2/2^64 — negligible)
            cap_fp = _fingerprint([captions_path])
            cappath = os.path.join(out_dir, f"capcensus_{cap_fp}.parquet")
            if os.path.exists(cappath):
                cap_tbl = pq.read_table(cappath)
            else:
                cap_tbl = _hash_census([captions_path], with_phash=False)
                tmp_c = cappath + ".tmp"
                pq.write_table(cap_tbl, tmp_c)
                os.replace(tmp_c, cappath)
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
    manifest["runs"].append(run_entry)
    _atomic_write_json(manifest_path, manifest)
    return manifest
