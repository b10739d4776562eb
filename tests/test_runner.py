"""Checkpoint/resume semantics of the validation runner."""

import json
import os

import pytest

from autoprepad_ray.fixtures import generate_fimg
from autoprepad_ray.pipelines.runner import run_validation


@pytest.fixture(scope="module")
def fimg_small(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("fimg_run"))
    exp = generate_fimg(d, partitions=8, rows=120, seed=42, inject=True)
    return d, exp


def test_run_and_resume(fimg_small, tmp_path):
    d, exp = fimg_small
    out = str(tmp_path / "out")
    m1 = run_validation(f"{d}/images", out, captions_path=f"{d}/captions.parquet")
    assert sorted(int(k) for k in m1["partitions"]) == list(range(8))
    v = {int(k): p["verdict"] for k, p in m1["partitions"].items()}
    assert v[3]["stat_fail"] == 1 and v[0]["stat_fail"] == 0
    assert v[5]["null_fail"] == 1
    assert v[7]["drift_fail"] == 1 and v[4]["drift_fail"] == 0
    assert v[2]["decode_fail"] == 1
    assert m1["runs"][-1]["uniqueness_violations"] == len(exp.dup_ids)
    assert m1["runs"][-1]["referential_orphans"] == (
        len(exp.orphan_image_ids) + len(exp.orphan_caption_ids))
    # per-partition outputs exist
    for pid in range(8):
        pdir = os.path.join(out, "partitions", f"partition={pid}")
        assert os.path.exists(os.path.join(pdir, "verdict.json"))
        assert os.path.isdir(os.path.join(pdir, "violations"))

    # ---- resume: drop 2 partitions from the manifest, rerun ----
    mpath = os.path.join(out, "manifest.json")
    with open(mpath) as f:
        m = json.load(f)
    done_times = {k: p["completed_at"] for k, p in m["partitions"].items()}
    del m["partitions"]["4"]
    del m["partitions"]["6"]
    with open(mpath, "w") as f:
        json.dump(m, f)
    m2 = run_validation(f"{d}/images", out,
                        captions_path=f"{d}/captions.parquet")
    assert sorted(m2["runs"][-1]["pending"]) == [4, 6]
    # untouched partitions kept their original completion stamps
    for k in ("0", "1", "2", "3", "5", "7"):
        assert m2["partitions"][k]["completed_at"] == done_times[k]
    # re-run verdicts identical to first run
    for k in ("4", "6"):
        a = dict(m1["partitions"][k]["verdict"])
        b = dict(m2["partitions"][k]["verdict"])
        assert a == b
    # profile artifact was cached (exactly one profile_*.json)
    profs = [f for f in os.listdir(out) if f.startswith("profile_")]
    assert len(profs) == 1


def test_resume_invalidates_on_input_change(fimg_small, tmp_path):
    """Changing an input partition file re-validates everything whose
    profile fingerprint changed (profiles never mix across inputs)."""
    import shutil
    from autoprepad_ray.fixtures import generate_partition
    import pyarrow.parquet as pq

    d, _ = fimg_small
    work = str(tmp_path / "data")
    shutil.copytree(d, work)
    out = str(tmp_path / "out")
    m1 = run_validation(f"{work}/images", out,
                        captions_path=f"{work}/captions.parquet",
                        decode=False)
    fp1 = m1["runs"][-1]["profile_fp"]
    # regenerate reference partition 0 with a different seed -> new bytes
    t, _, _ = generate_partition(0, 120, seed=43, partitions=8)
    pq.write_table(t, f"{work}/images/partition=0/part.parquet")
    m2 = run_validation(f"{work}/images", out,
                        captions_path=f"{work}/captions.parquet",
                        decode=False)
    fp2 = m2["runs"][-1]["profile_fp"]
    assert fp1 != fp2
    # every partition re-ran under the new profile fingerprint
    assert sorted(m2["runs"][-1]["pending"]) == list(range(8))
    assert all(p["profile_fp"] == fp2
               for p in m2["partitions"].values())
    profs = [f for f in os.listdir(out) if f.startswith("profile_")]
    assert len(profs) == 2  # both artifacts cached, keyed by fingerprint


def test_incremental_global_checks(fimg_small, tmp_path):
    """Global key checks merge checkpointed per-partition censuses: a
    resumed run re-reads NO completed partition's key columns (censuses
    all cached), re-reads only dup-affected partitions for the exact
    listing, and rebuilds a census only when its file is missing."""
    d, exp = fimg_small
    out = str(tmp_path / "out")
    m1 = run_validation(f"{d}/images", out,
                        captions_path=f"{d}/captions.parquet", decode=False)
    g1 = m1["runs"][-1]["global_checks"]
    # censuses were checkpointed while each partition was processed
    assert g1["census_new_partitions"] == []
    assert g1["census_cached_partitions"] == list(range(8))
    # injected dup ids live in partitions 1 and 6 only
    assert g1["listing_partitions"] == [1, 6]
    assert m1["runs"][-1]["uniqueness_violations"] == len(exp.dup_ids)

    # simulate an older-version checkpoint: drop one census file
    os.remove(os.path.join(out, "partitions", "partition=3",
                           "keycensus.parquet"))
    m2 = run_validation(f"{d}/images", out,
                        captions_path=f"{d}/captions.parquet", decode=False)
    assert m2["runs"][-1]["pending"] == []          # nothing re-validated
    g2 = m2["runs"][-1]["global_checks"]
    assert g2["census_new_partitions"] == [3]       # exactly the missing one
    # results identical to the full run
    for k in ("uniqueness_violations", "neardup_groups",
              "referential_orphans"):
        assert m2["runs"][-1][k] == m1["runs"][-1][k], k
    assert sorted(m2["runs"][-1]["uniqueness_sample"]) == \
        sorted(set(exp.dup_ids))


def test_resume_reprofiles_old_format_profile(fimg_small, tmp_path):
    """A profile JSON written before the format stamp (it held a t-digest,
    not a KLL sketch) must not crash a resume: the runner re-profiles,
    and the re-run partitions get the same verdicts as a clean run."""
    d, _ = fimg_small
    out = str(tmp_path / "out")
    kw = dict(captions_path=f"{d}/captions.parquet", decode=False)
    m1 = run_validation(f"{d}/images", out, **kw)
    (name,) = [f for f in os.listdir(out) if f.startswith("profile_")]
    ppath = os.path.join(out, name)
    with open(ppath) as f:
        prof = json.load(f)
    del prof["format"]
    for col in prof["columns"].values():
        del col["kll"]
        col["tdigest"] = {"compression": 200, "means": [], "weights": []}
    with open(ppath, "w") as f:
        json.dump(prof, f)
    mpath = os.path.join(out, "manifest.json")
    with open(mpath) as f:
        m = json.load(f)
    del m["partitions"]["3"], m["partitions"]["5"]
    with open(mpath, "w") as f:
        json.dump(m, f)

    m2 = run_validation(f"{d}/images", out, **kw)
    assert sorted(m2["runs"][-1]["pending"]) == [3, 5]
    for k in m1["partitions"]:
        assert m2["partitions"][k]["verdict"] == \
            m1["partitions"][k]["verdict"], k
    with open(ppath) as f:
        assert "kll" in next(iter(json.load(f)["columns"].values()))
