"""The workloads' jobs, their correctness checks, and the traced layer
probes.

Every timed call goes through a public function of the engine; spans
are recorded around those calls only (``tracer`` is a
:class:`perfbench.tracing.Tracer` or the no-op ``NullTracer``).  A job
returns a dict of its outputs; ``check`` raises :class:`CheckFailed`
when they differ from the generator's expectations or the numpy oracle.
"""

from __future__ import annotations

import glob
import os
import shutil
import statistics

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from autoprepad_ray.pipelines.flagship import validate_numeric_table
from autoprepad_ray.pipelines.image_validation import (EDGES_WH,
                                                       validate_images)
from autoprepad_ray.pipelines.runner import run_validation
from autoprepad_ray.profile import profile_dataset
from autoprepad_ray.stages.decode import DecodeVerify, decode_verify
from autoprepad_ray.validators import row_checks as rc
from autoprepad_ray.validators.drift import partition_histograms
from autoprepad_ray.validators.near_dup import hamming_neardup_pairs
from autoprepad_ray.validators.referential import orphans
from autoprepad_ray.validators.uniqueness import duplicate_keys

from . import inputs
from .tracing import NullTracer

# the recipe's verdicts; "stat" comes from the numpy oracle instead
# (see inputs.fimg_stat_verdicts): [3] for almost every seed
FIMG_FAILED = {"null": [5], "uniq": [1, 6], "decode": [2], "drift": [7]}
RESUME_PIDS = (6, 7)        # checkpoints deleted before the resume
DECODE_COLS = ["image_id", "bytes", "w", "h", "fmt", "phash",
               "partition_id"]


class CheckFailed(Exception):
    pass


def _fimg_failed(exp: dict) -> dict:
    return {"stat": exp["stat_fail"], **FIMG_FAILED}


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _bad_decodes(t: pa.Table) -> pa.Table:
    return t.filter(pc.equal(t["decode_ok"], 0)).select(["image_id"])


def _flagged_rows(t: pa.Table) -> pa.Table:
    n = pc.sum(pc.greater(t[rc.TUKEY_TOTAL], 0)).as_py() or 0
    return pa.table({"n": [n]})


# ---------------------------------------------------------------------------
# fimg_validate: the fused image+caption validation pipeline


def fimg_job(fx: dict, tracer, job: str) -> dict:
    with tracer.span("image_validation.validate_images", job) as a:
        rep = validate_images(fx["images"], fx["captions"])
        a.update(timings=dict(rep.timings), dup_ids=len(rep.dup_ids),
                 orphans=len(rep.orphans),
                 neardup_pairs=len(rep.neardup_pairs),
                 decode_violations=len(rep.decode_violations))
    with tracer.span("image_validation.stat_violations", job) as a:
        a["rows"] = n_viol = rep.stat_violations.count()
    return {"rep": rep, "violation_rows": n_viol}


def check_fimg(out: dict, fx: dict) -> None:
    rep, exp = out["rep"], fx["exp"]
    failed, want = rep.failed_partitions(), _fimg_failed(exp)
    _expect({k: failed.get(k) for k in want} == want,
            f"failed partitions {failed}")
    _expect(sorted(rep.dup_ids["image_id"]) == sorted(exp["dup_ids"]),
            "duplicate ids")
    o = rep.orphans
    _expect(sorted(o.loc[o["right_n"] == 0, "image_id"])
            == sorted(exp["orphan_image_ids"]), "image-side orphans")
    _expect(sorted(o.loc[o["left_n"] == 0, "image_id"])
            == sorted(exp["orphan_caption_ids"]), "caption-side orphans")
    _expect(sorted(rep.decode_violations["image_id"])
            == sorted(exp["bad_decode_ids"]), "decode violations")
    _expect(out["violation_rows"] >= len(exp["outlier_w_ids"]),
            "violation listing misses the planted outliers")


# ---------------------------------------------------------------------------
# tabular_profile: fit/transform over a numeric table


def tabular_job(fx: dict, tracer, job: str) -> dict:
    """``validate_numeric_table`` plus consuming both outputs.  Traced,
    the job replays the public calls ``validate_numeric_table`` makes
    (profile, fences, row checks, score threshold, verdicts, scores) so
    each gets its own span; the executions are the same."""
    ds = rd.read_parquet(fx["files"])
    cols, part = inputs.TAB_COLS, inputs.TAB_PART_COL
    if isinstance(tracer, NullTracer):
        res = validate_numeric_table(ds, cols, partition_col=part)
        prof, verdicts = res.profile, res.verdicts.to_pandas()
        labels = res.enriched.sum(rc.LABEL_COL)
        return {"profile": prof, "verdicts": verdicts, "labels": labels}
    with tracer.span("profile.profile_dataset", job) as a:
        prof = profile_dataset(ds, columns=cols)
        a["rows"] = prof.n_rows
        a["sketch_cols"] = sum(not prof[c].exact_quantiles for c in cols)
    with tracer.span("row_checks.fence_states", job):
        states = rc.fence_states(prof, cols)
    checked = rc.check_rows(ds, states)
    with tracer.span("flagship.score_threshold", job):
        stats = rc.score_threshold(checked)
    enriched = rc.attach_scores(checked, stats=stats)
    with tracer.span("flagship.partition_verdicts", job):
        verdicts = rc.partition_verdicts(checked, part).to_pandas()
    with tracer.span("flagship.enrich", job):
        labels = enriched.sum(rc.LABEL_COL)
    return {"profile": prof, "states": states, "verdicts": verdicts,
            "labels": labels}


def check_tabular(out: dict, fx: dict) -> None:
    oracle = fx["oracle"]
    v = out["verdicts"].sort_values(inputs.TAB_PART_COL)
    _expect(v[inputs.TAB_PART_COL].tolist()
            == list(range(len(oracle["n_rows"]))), "verdict partitions")
    _expect(v["n_rows"].tolist() == oracle["n_rows"], "partition rows")
    _expect(v["n_viol"].tolist() == oracle["n_viol"],
            "per-partition violation counts")
    _expect(v["fail"].astype(int).tolist() == oracle["fail"], "verdicts")
    _expect(oracle["fail"][oracle["planted"]] == 1,
            "planted partition passed")
    _expect(int(out["labels"]) == oracle["labels"], "anomaly label count")


# ---------------------------------------------------------------------------
# runner_resume: checkpointed run, then a resume


def runner_job(fx: dict, tracer, job: str, out_dir: str) -> dict:
    shutil.rmtree(out_dir, ignore_errors=True)
    with tracer.span("runner.cold", job) as a:
        m1 = run_validation(fx["images"], out_dir,
                            captions_path=fx["captions"])
        a["partition_s_median"] = statistics.median(
            p["wall_s"] for p in m1["partitions"].values())
    with tracer.span("runner.drop_checkpoints", job):
        for p in RESUME_PIDS:
            shutil.rmtree(os.path.join(out_dir, "partitions",
                                       f"partition={p}"))
    with tracer.span("runner.resume", job) as a:
        m2 = run_validation(fx["images"], out_dir,
                            captions_path=fx["captions"])
        last = m2["runs"][-1]
        a["partitions_run"] = len(last["pending"])
        a["census_cached"] = len(
            last["global_checks"]["census_cached_partitions"])
        a["written_mb"] = inputs.dir_bytes(out_dir, "*") / 1e6
    return {"cold": m1, "resume": m2, "out_dir": out_dir}


def check_runner(out: dict, fx: dict) -> None:
    m1, m2, exp = out["cold"], out["resume"], fx["exp"]
    v = {int(k): p["verdict"] for k, p in m1["partitions"].items()}
    pids = list(range(inputs.FIMG_PARTITIONS))
    _expect(sorted(v) == pids, "cold run partitions")
    for check, want in _fimg_failed(exp).items():
        if check != "uniq":      # the runner reports uniqueness globally
            _expect([p for p in pids if v[p][f"{check}_fail"]] == want,
                    f"{check} verdicts")
    r1, r2 = m1["runs"][-1], m2["runs"][-1]
    _expect(r1["uniqueness_violations"] == len(exp["dup_ids"]),
            "uniqueness violations")
    _expect(r1["referential_orphans"] == len(exp["orphan_image_ids"])
            + len(exp["orphan_caption_ids"]), "referential orphans")
    _expect(sorted(r2["pending"]) == list(RESUME_PIDS),
            f"resume re-ran {r2['pending']}")
    others = [p for p in pids if p not in RESUME_PIDS]
    _expect(set(others) <= set(
        r2["global_checks"]["census_cached_partitions"]),
        "resume recomputed a kept partition's key census")
    for p in pids:
        a, b = m1["partitions"][str(p)], m2["partitions"][str(p)]
        _expect(a["verdict"] == b["verdict"], f"partition {p} verdict")
        if p in others:
            _expect(a["completed_at"] == b["completed_at"],
                    f"partition {p} re-ran")


# ---------------------------------------------------------------------------


def run(kind: str, fx: dict, tracer, job: str, scratch: str) -> dict:
    if kind == "tabular_profile":
        return tabular_job(fx, tracer, job)
    if kind == "runner_resume":
        return runner_job(fx, tracer, job, os.path.join(scratch, "runner"))
    return fimg_job(fx, tracer, job)


def check(kind: str, out: dict, fx: dict) -> None:
    {"fimg_validate": check_fimg, "tabular_profile": check_tabular,
     "runner_resume": check_runner}[kind](out, fx)


# ---------------------------------------------------------------------------
# traced layer probes: each calls one public function on its own


def fimg_probes(fx: dict, tracer) -> None:
    job, exp = "fimg_probes", fx["exp"]
    with tracer.span("image_validation.meta_only", job):
        meta = validate_images(fx["images"], fx["captions"], decode=False)
    failed = meta.failed_partitions()
    _expect(all(failed.get(k) == v for k, v in _fimg_failed(exp).items()
                if k != "decode"), f"metadata-only verdicts {failed}")

    payload = pq.read_table(fx["images"], columns=["bytes"])["bytes"]
    with tracer.span("decode.decode_verify", job) as a:
        bad = decode_verify(rd.read_parquet(fx["images"],
                                            columns=DECODE_COLS)) \
            .map_batches(_bad_decodes, batch_format="pyarrow").to_pandas()
        a["payload_mb"] = pc.sum(pc.binary_length(payload)).as_py() / 1e6
    _expect(sorted(bad["image_id"]) == sorted(exp["bad_decode_ids"]),
            "decode_verify violations")

    files = sorted(glob.glob(os.path.join(fx["images"], "*", "*.parquet")))
    bad_inproc = []
    with tracer.span("decode.inproc", job):
        dv = DecodeVerify()
        for f in files:
            for b in pq.ParquetFile(f).iter_batches(256, columns=DECODE_COLS):
                t = dv(pa.Table.from_batches([b]))
                bad_inproc += _bad_decodes(t)["image_id"].to_pylist()
    _expect(sorted(bad_inproc) == sorted(exp["bad_decode_ids"]),
            "in-process decode violations")

    with tracer.span("uniqueness.duplicate_keys", job):
        dups = duplicate_keys(rd.read_parquet(fx["images"],
                                              columns=["image_id"]),
                              ["image_id"])
    _expect(sorted(dups["image_id"].to_pylist()) == sorted(exp["dup_ids"]),
            "duplicate_keys")

    with tracer.span("referential.orphans", job):
        orph = orphans(rd.read_parquet(fx["images"], columns=["image_id"]),
                       rd.read_parquet(fx["captions"], columns=["image_id"]),
                       "image_id", sizes=(fx["rows"], fx["rows"]))
    _expect(sorted(orph["image_id"].to_pylist())
            == sorted(exp["orphan_image_ids"] + exp["orphan_caption_ids"]),
            "orphans")

    with tracer.span("drift.partition_histograms", job):
        num, _ = partition_histograms(
            rd.read_parquet(fx["images"],
                            columns=["w", "h", "fmt", "partition_id"]),
            {"w": EDGES_WH, "h": EDGES_WH}, ["fmt"], "partition_id")
    _expect(sum(int(c.sum()) for c in num["w"].values()) == fx["rows"],
            "drift histogram row count")

    with tracer.span("near_dup.hamming_neardup_pairs", job) as a:
        pairs = hamming_neardup_pairs(
            rd.read_parquet(fx["images"], columns=["image_id", "phash"]))
        a["pairs"] = len(pairs)
    found = {frozenset(p) for p in zip(pairs["id_a"], pairs["id_b"])}
    _expect(all(frozenset((x, y)) in found
                for x, y, d in exp["hamming_pairs"] if 1 <= d <= 4),
            "hamming pairs")


def tabular_probes(fx: dict, tracer, states: dict) -> None:
    job = "tabular_probes"
    with tracer.span("row_checks.check_rows", job):
        rc.check_rows(rd.read_parquet(fx["files"]), states) \
            .map_batches(_flagged_rows, batch_format="pyarrow").take_all()
    with tracer.span("baseline.numpy", job):
        t = pa.concat_tables([pq.read_table(f) for f in fx["files"]])
        got = inputs.numpy_verdicts(
            {c: t[c].to_numpy() for c in t.column_names})
    _expect(got == {k: fx["oracle"][k] for k in got}, "numpy baseline")


def layer_metrics(tr) -> dict:
    """Per-layer values, all read from the recorded spans."""
    s = tr.seconds
    iv = tr.find("image_validation.validate_images", "fimg_validate")
    t, ivc = iv["attrs"]["timings"], iv["attrs"]
    prof = tr.find("profile.profile_dataset")["attrs"]
    cold = tr.find("runner.cold", "runner_resume")["attrs"]
    resume = tr.find("runner.resume", "runner_resume")["attrs"]
    payload_mb = tr.find("decode.decode_verify")["attrs"]["payload_mb"]
    return {
        "image_validation.pass1_s": t.get("pass1_profile_census", 0.0),
        "image_validation.pass2_s": t.get("pass2_evidence_listings", 0.0),
        "image_validation.hamming_s": t.get("hamming_pairs", 0.0),
        "image_validation.decode_wall_s": t.get("pass3_decode", 0.0),
        "image_validation.decode_join_wait_s": t.get("decode_join_wait",
                                                     0.0),
        "image_validation.violation_rows":
            tr.find("image_validation.stat_violations",
                    "fimg_validate")["attrs"]["rows"],
        "image_validation.dup_ids": ivc["dup_ids"],
        "image_validation.orphans": ivc["orphans"],
        "image_validation.neardup_pairs": ivc["neardup_pairs"],
        "image_validation.decode_violations": ivc["decode_violations"],
        "image_validation.meta_only_s": s("image_validation.meta_only"),
        "image_validation.overlap_ratio":
            (s("image_validation.meta_only") + s("decode.decode_verify"))
            / (iv["end"] - iv["start"]),
        "decode.s": s("decode.decode_verify"),
        "decode.mb_per_s": payload_mb / s("decode.decode_verify"),
        "decode.inproc_s": s("decode.inproc"),
        "profile.s": s("profile.profile_dataset"),
        "profile.rows": prof["rows"],
        "profile.sketch_cols": prof["sketch_cols"],
        "row_checks.s": s("row_checks.check_rows"),
        "flagship.score_threshold_s": s("flagship.score_threshold"),
        "flagship.verdicts_s": s("flagship.partition_verdicts"),
        "flagship.enrich_s": s("flagship.enrich"),
        "baseline.numpy_s": s("baseline.numpy"),
        "uniqueness.s": s("uniqueness.duplicate_keys"),
        "referential.s": s("referential.orphans"),
        "drift.s": s("drift.partition_histograms"),
        "near_dup.s": s("near_dup.hamming_neardup_pairs"),
        "runner.cold_s": s("runner.cold", "runner_resume"),
        "runner.resume_s": s("runner.resume", "runner_resume"),
        "runner.partition_s_median": cold["partition_s_median"],
        "runner.partitions_run": resume["partitions_run"],
        "runner.census_cached": resume["census_cached"],
        "runner.written_mb": resume["written_mb"],
    }
