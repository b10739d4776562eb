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


def _verdicts(m):
    return {int(k): p["verdict"] for k, p in m["partitions"].items()}


def test_resume_reruns_on_setting_change(fimg_small, tmp_path):
    """A checkpoint only counts under the verdict settings it was made
    with: changing ``decode`` or a budget re-runs every partition."""
    d, _ = fimg_small
    out = str(tmp_path / "out")
    kw = dict(captions_path=f"{d}/captions.parquet")
    m1 = run_validation(f"{d}/images", out, decode=False, **kw)
    assert _verdicts(m1)[2]["decode_fail"] == 0
    m2 = run_validation(f"{d}/images", out, decode=True, **kw)
    assert m2["runs"][-1]["pending"] == list(range(8))
    assert _verdicts(m2)[2]["decode_fail"] == 1
    m3 = run_validation(f"{d}/images", out, decode=True, stat_budget=0.9,
                        **kw)
    assert m3["runs"][-1]["pending"] == list(range(8))
    assert _verdicts(m3)[3]["stat_fail"] == 0
    m4 = run_validation(f"{d}/images", out, decode=True, stat_budget=0.9,
                        **kw)
    assert m4["runs"][-1]["pending"] == []


def test_resume_reruns_changed_partition(fimg_small, tmp_path):
    """Rewriting a non-reference partition's file re-runs exactly that
    partition (the profile fingerprint covers only the reference)."""
    import shutil

    import pyarrow.parquet as pq

    from autoprepad_ray.fixtures import generate_partition

    d, _ = fimg_small
    work = str(tmp_path / "data")
    shutil.copytree(d, work)
    out = str(tmp_path / "out")
    kw = dict(captions_path=f"{work}/captions.parquet", decode=False)
    m1 = run_validation(f"{work}/images", out, **kw)
    assert _verdicts(m1)[5]["null_fail"] == 1
    path = f"{work}/images/partition=5/part.parquet"
    size = os.path.getsize(path)
    t, _, _ = generate_partition(5, 120, seed=42, inject=False,
                                 partitions=8)
    pq.write_table(t, path)
    assert os.path.getsize(path) != size
    m2 = run_validation(f"{work}/images", out, **kw)
    assert m2["runs"][-1]["pending"] == [5]
    assert _verdicts(m2)[5]["null_fail"] == 0
    assert m2["runs"][-1]["profile_fp"] == m1["runs"][-1]["profile_fp"]


def test_ref_partitions_must_exist(fimg_small, tmp_path):
    d, _ = fimg_small
    with pytest.raises(ValueError, match=r"\[9\]"):
        run_validation(f"{d}/images", str(tmp_path / "out"),
                       ref_partitions=(0, 9), decode=False)


def test_runner_matches_validate_images(fimg_small, tmp_path):
    """Per partition, the runner's verdicts and PSI equal
    validate_images' on the same table: both come from
    ``image_validation.partition_verdicts``."""
    from autoprepad_ray.pipelines.image_validation import validate_images

    d, _ = fimg_small
    rep = validate_images(f"{d}/images", f"{d}/captions.parquet")
    m = run_validation(f"{d}/images", str(tmp_path / "out"),
                       captions_path=f"{d}/captions.parquet")
    got = _verdicts(m)
    want = rep.verdicts.merge(rep.drift_psi.drop(columns="drift_fail"),
                              on="partition_id")
    assert sorted(got) == want["partition_id"].tolist()
    for row in want.to_dict("records"):
        v = got[int(row["partition_id"])]
        for k in ("n_rows", "stat_viol", "null_viol", "stat_fail",
                  "null_fail", "drift_fail", "decode_fail"):
            assert v[k] == row[k], (row["partition_id"], k)
        for c in ("w", "h", "caption_len", "fmt"):
            assert v["psi"][c] == pytest.approx(row[f"psi_{c}"], abs=1e-6)


def test_partition_holding_other_partition_rows_fails_loud(fimg_small,
                                                         tmp_path):
    """A partition directory whose rows carry another ``partition_id``
    is an error, never a verdict that differs from validate_images'."""
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    d, _ = fimg_small
    images = tmp_path / "images"
    shutil.copytree(f"{d}/images", images)
    for f in (images / "partition=4").glob("*.parquet"):
        t = pq.read_table(f)
        pq.write_table(t.set_column(
            t.schema.get_field_index("partition_id"), "partition_id",
            pa.array([3] * t.num_rows, type=pa.int32())), f)
    with pytest.raises(ValueError, match=r"partition=4 .* \[3\]"):
        run_validation(str(images), str(tmp_path / "out"), decode=False,
                       run_global_checks=False)


def test_partition_failure_commits_others_and_resumes(fimg_small, tmp_path,
                                                      monkeypatch):
    """An error in one partition reaches the caller, leaves that
    partition without output, and keeps every other partition
    committed; the resume re-runs exactly it and ends with the verdicts
    of a clean run."""
    from autoprepad_ray.pipelines import runner

    d, _ = fimg_small
    kw = dict(captions_path=f"{d}/captions.parquet", decode=False)
    clean = run_validation(f"{d}/images", str(tmp_path / "clean"), **kw)

    real = runner.assert_schema_files

    def failing(paths):
        if any("partition=5" in p for p in paths):
            raise RuntimeError("injected failure in partition 5")
        return real(paths)

    out = str(tmp_path / "out")
    monkeypatch.setattr(runner, "assert_schema_files", failing)
    with pytest.raises(RuntimeError, match="partition 5"):
        run_validation(f"{d}/images", out, **kw)
    assert not os.path.exists(os.path.join(out, "partitions",
                                           "partition=5"))
    with open(os.path.join(out, "manifest.json")) as f:
        m = json.load(f)
    assert sorted(int(k) for k in m["partitions"]) == [0, 1, 2, 3, 4, 6, 7]
    for pid in (0, 1, 2, 3, 4, 6, 7):
        assert os.path.exists(os.path.join(
            out, "partitions", f"partition={pid}", "verdict.json"))

    monkeypatch.setattr(runner, "assert_schema_files", real)
    m2 = run_validation(f"{d}/images", out, **kw)
    assert m2["runs"][-1]["pending"] == [5]
    assert _verdicts(m2) == _verdicts(clean)
    for k in ("uniqueness_violations", "neardup_groups",
              "referential_orphans"):
        assert m2["runs"][-1][k] == clean["runs"][-1][k], k


def test_cold_run_read_count(fimg_small, tmp_path, monkeypatch):
    """A cold run without decode reads the reference once and each
    partition once, plus the caption census and the exact uniqueness
    listing of the dup-affected partitions; no read touches ``bytes``."""
    from autoprepad_ray.pipelines import runner

    calls = []
    real = runner.read_table

    def counting(path, **kw):
        calls.append((path, kw.get("columns")))
        return real(path, **kw)

    monkeypatch.setattr(runner, "read_table", counting)
    d, _ = fimg_small
    m = run_validation(f"{d}/images", str(tmp_path / "out"),
                       captions_path=f"{d}/captions.parquet", decode=False)
    listing = m["runs"][-1]["global_checks"]["listing_partitions"]
    assert listing == [1, 6]
    assert len(calls) == 1 + 8 + 1 + 1
    assert all(cols is not None and "bytes" not in cols
               for _, cols in calls)


def test_runner_duplicate_null_ids_list_as_one_id(fimg_small, tmp_path):
    """The runner's duplicate-id listing counts null ids as one id and
    lists it last, as DuckDB's ``GROUP BY`` does (two null ids used to
    raise TypeError in ``np.unique``)."""
    from tests.test_image_pipeline import _duck_listings, _with_null_ids

    src, exp = fimg_small
    d = _with_null_ids(src, tmp_path / "fx", exp.hot_phash, images=True,
                       captions=False)
    m = run_validation(f"{d}/images", str(tmp_path / "out"),
                       captions_path=f"{d}/captions.parquet", decode=False)
    want = [i for i, _ in _duck_listings(d)["dup_ids"]]
    assert want[-1] is None
    assert m["runs"][-1]["uniqueness_violations"] == len(want)
    assert m["runs"][-1]["uniqueness_sample"] == want[:50]
