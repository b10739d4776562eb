"""Checkpoint/resume semantics of the validation runner."""

import json
import os
import re

import pytest

from autoprepad_ray.fixtures import generate_fimg
from autoprepad_ray.pipelines.runner import run_validation


@pytest.fixture(scope="module")
def fimg_small(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("fimg_run"))
    exp = generate_fimg(d, partitions=8, rows=120, seed=42, inject=True)
    return d, exp


def _candidate_partitions(d: str) -> list[int]:
    """DuckDB's partitions holding a global-check candidate: a duplicate
    id, an image-side orphan id or a duplicate phash."""
    import duckdb

    con = duckdb.connect()
    con.execute(f"""CREATE VIEW img AS SELECT image_id, phash, partition_id
                    FROM read_parquet('{d}/images/*/*.parquet')""")
    con.execute(f"""CREATE VIEW cap AS SELECT image_id
                    FROM read_parquet('{d}/captions.parquet')""")
    pids = [p for p, in con.execute("""
        SELECT DISTINCT partition_id FROM img i
        WHERE image_id IN (SELECT image_id FROM img GROUP BY image_id
                           HAVING COUNT(*) >= 2)
           OR NOT EXISTS (SELECT 1 FROM cap c
                          WHERE c.image_id IS NOT DISTINCT FROM i.image_id)
           OR phash IN (SELECT phash FROM img GROUP BY phash
                        HAVING COUNT(*) >= 2)
        ORDER BY 1""").fetchall()]
    con.close()
    return pids


def _listings(out: str) -> dict:
    """The runner's global listings, read back from beside the
    manifest, as comparable rows."""
    import pandas as pd

    def rows(name):
        df = pd.read_parquet(os.path.join(out, f"{name}.parquet"))
        return [tuple(x.tolist() if hasattr(x, "tolist") else x for x in r)
                for r in df.itertuples(index=False)]

    return {k: rows(k) for k in ("dup_ids", "orphans", "neardup_groups",
                                 "neardup_pairs")}


def _report_listings(rep) -> dict:
    """validate_images' dup_ids, orphans, neardup_groups and
    neardup_pairs as comparable rows."""
    return {k: [tuple(r) for r in getattr(rep, k).itertuples(index=False)]
            for k in ("dup_ids", "orphans", "neardup_groups",
                      "neardup_pairs")}


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
    # the listing read covers exactly the partitions holding a candidate
    assert g1["listing_partitions"] == _candidate_partitions(d)
    assert m1["runs"][-1]["uniqueness_violations"] == len(exp.dup_ids)
    assert "referential_method" not in m1["runs"][-1]
    first = _listings(out)

    # older-engine checkpoints: one census file missing, one without the
    # image_id column
    import pyarrow.parquet as pq

    pdir = os.path.join(out, "partitions")
    os.remove(os.path.join(pdir, "partition=3", "keycensus.parquet"))
    old = os.path.join(pdir, "partition=5", "keycensus.parquet")
    pq.write_table(pq.read_table(old).drop_columns(["image_id"]), old)
    m2 = run_validation(f"{d}/images", out,
                        captions_path=f"{d}/captions.parquet", decode=False)
    assert m2["runs"][-1]["pending"] == []          # nothing re-validated
    g2 = m2["runs"][-1]["global_checks"]
    assert g2["census_new_partitions"] == [3, 5]    # exactly those two
    assert "image_id" in pq.read_table(old).column_names
    # results identical to the full run
    for k in ("uniqueness_violations", "neardup_groups", "neardup_pairs",
              "referential_orphans"):
        assert m2["runs"][-1][k] == m1["runs"][-1][k], k
    assert _listings(out) == first
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
        run_validation(str(images), str(tmp_path / "out"), decode=False)


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
    partition once, plus the caption census and one listing read of the
    partitions whose census holds a candidate; no read touches
    ``bytes``."""
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
    assert listing == _candidate_partitions(d)
    assert len(calls) == 1 + 8 + 1 + 1
    assert calls[-1] == ([f"{d}/images/partition={p}/part.parquet"
                          for p in listing],
                         ["image_id", "phash", "partition_id"])
    assert all(cols is not None and "bytes" not in cols
               for _, cols in calls)


@pytest.mark.parametrize("images,captions",
                         [(True, False), (False, True), (True, True)],
                         ids=["image_nulls", "caption_nulls", "both"])
def test_runner_null_ids_list_as_one_id_like_duckdb(fimg_small, tmp_path,
                                                    images, captions):
    """Null ids on either side or both: the runner's duplicate ids,
    orphans on both sides with their counts and near-dup groups count
    null as one id and list it last, as DuckDB over the same files."""
    from tests.test_image_pipeline import _duck_listings, _with_null_ids

    src, exp = fimg_small
    d = _with_null_ids(src, tmp_path / "fx", exp.hot_phash, images=images,
                       captions=captions)
    out = str(tmp_path / "out")
    m = run_validation(f"{d}/images", out,
                       captions_path=f"{d}/captions.parquet", decode=False)
    want = _duck_listings(d)
    got = _listings(out)
    assert got["dup_ids"] == want["dup_ids"]
    assert got["orphans"] == want["orphans"]
    assert got["neardup_groups"] == [(h, n, ids[:64])
                                     for h, n, ids in want["groups"]]
    assert m["runs"][-1]["uniqueness_sample"] == \
        [i for i, _ in want["dup_ids"]][:50]
    if images:
        assert want["dup_ids"][-1] == (None, 2)


def test_runner_global_findings_match_validate_images(fimg_small, tmp_path):
    """The runner's listed duplicate ids, orphans, near-dup groups and
    Hamming pairs equal validate_images' report row for row, on a cold
    run and on a resume after two partitions' checkpoints are deleted."""
    import shutil

    from autoprepad_ray.pipelines.image_validation import validate_images

    d, _ = fimg_small
    kw = dict(captions_path=f"{d}/captions.parquet", decode=False)
    want = _report_listings(validate_images(f"{d}/images", **kw))
    assert all(want.values())
    out = str(tmp_path / "out")
    run_validation(f"{d}/images", out, **kw)
    assert _listings(out) == want
    for p in (4, 6):
        shutil.rmtree(os.path.join(out, "partitions", f"partition={p}"))
    m = run_validation(f"{d}/images", out, **kw)
    assert m["runs"][-1]["pending"] == [4, 6]
    assert _listings(out) == want


def test_resume_read_count(fimg_small, tmp_path, monkeypatch):
    """A resume reads the pending partitions (metadata and the decode
    payload), and one listing read pruned to ``image_id, phash,
    partition_id`` over exactly the partitions whose census holds a
    candidate: no other completed partition, and ``bytes`` only in
    decode."""
    import shutil

    from autoprepad_ray.pipelines import image_validation, runner

    d, _ = fimg_small
    out = str(tmp_path / "out")
    kw = dict(captions_path=f"{d}/captions.parquet")
    run_validation(f"{d}/images", out, **kw)
    for p in (4, 6):
        shutil.rmtree(os.path.join(out, "partitions", f"partition={p}"))
    calls = []
    real = runner.read_table

    def counting(path, **kw):
        calls.append((path, kw.get("columns")))
        return real(path, **kw)

    monkeypatch.setattr(runner, "read_table", counting)
    monkeypatch.setattr(image_validation, "read_table", counting)
    m = run_validation(f"{d}/images", out, **kw)
    assert m["runs"][-1]["pending"] == [4, 6]

    def files(*pids):
        return [f"{d}/images/partition={p}/part.parquet" for p in pids]

    meta = [p for p, cols in calls if cols == runner.META_COLS]
    payload = [p for p, cols in calls if "bytes" in cols]
    listing = [(p, cols) for p, cols in calls
               if cols == ["image_id", "phash", "partition_id"]]
    assert sorted(meta) == sorted(payload) == [files(4), files(6)]
    assert listing == [(files(*_candidate_partitions(d)),
                        ["image_id", "phash", "partition_id"])]
    assert len(calls) == len(meta) + len(payload) + len(listing)


def test_resume_pairs_without_a_map_execution(fimg_small, tmp_path,
                                              monkeypatch, ray_executions):
    """A resume of two partitions makes k + 2 = 4 Ray Data executions,
    decode on or off: one per partition, the listing read and the
    pairing input.  With decode, each partition's execution is one union
    of its metadata map and pass 3's fused decode emitter.  The Hamming
    pairing, from ``hamming_arm`` on, starts one execution with no
    ``MapBatches``: the checkpointed cells reach the pairing tasks as
    one in-memory Dataset."""
    import shutil

    from autoprepad_ray.pipelines import runner

    d, _ = fimg_small
    start, real = [], runner.hamming_arm

    def arm(census):
        start.append(len(ray_executions))
        return real(census)

    monkeypatch.setattr(runner, "hamming_arm", arm)
    meta = "ReadParquet->MapBatches(meta_partial)"
    union = [meta, "ReadParquet->MapBatches(_verify_slices)"
             "->MapBatches(_failure_rows)",
             "UnionOperator(MapBatches(meta_partial), "
             "MapBatches(_failure_rows))"]
    for decode, want in ((True, union), (False, [meta])):
        out = str(tmp_path / f"out_{decode}")
        kw = dict(captions_path=f"{d}/captions.parquet", decode=decode)
        run_validation(f"{d}/images", out, **kw)
        for p in (6, 7):
            shutil.rmtree(os.path.join(out, "partitions", f"partition={p}"))
        del ray_executions[:], start[:]
        m = run_validation(f"{d}/images", out, **kw)
        assert m["runs"][-1]["pending"] == [6, 7]
        assert m["runs"][-1]["neardup_pairs"] > 0
        assert len(ray_executions) == 4, ray_executions
        plans = [[op.name for op in ex._topology if op.name != "Input"]
                 for ex in ray_executions]
        assert [p for p in plans if meta in p] == [want, want], plans
        pairing = plans[start[0]:]
        assert len(pairing) == 1, pairing
        assert not any("MapBatches" in name for name in pairing[0]), pairing


@pytest.mark.parametrize("col,typ", [("partition_id", "int64"),
                                     ("fmt", "large_string")])
def test_decode_listing_keeps_the_files_types(fimg_small, tmp_path, col,
                                              typ):
    """A partition written with an int64 ``partition_id`` (pandas'
    default, not a declared field) or a ``large_string`` ``fmt`` (a
    schema error) still gets a verdict: the decode listing keeps the
    file's types, clean partition or failing one.  Only the declared
    field's type adds a schema error; nothing else in a verdict moves."""
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from autoprepad_ray.pipelines.image_validation import _decode_failures

    d, exp = fimg_small
    work = tmp_path / "data"
    shutil.copytree(d, work)
    retyped = (2, 4)                      # a decode failure, a clean one
    for p in retyped:
        (f,) = (work / "images" / f"partition={p}").glob("*.parquet")
        t = pq.read_table(f)
        pq.write_table(t.set_column(t.schema.get_field_index(col), col,
                                    t[col].cast(getattr(pa, typ)())), f)
    bad, clean = (_decode_failures(
        [str(f) for f in (work / "images" / f"partition={p}").glob("*")])
        for p in retyped)
    assert sorted(bad["image_id"]) == sorted(
        i for i in exp.bad_decode_ids if i.startswith("img-0002-"))
    assert len(clean) == 0 and clean.dtypes.equals(bad.dtypes)

    kw = dict(captions_path=f"{d}/captions.parquet")
    want = _verdicts(run_validation(f"{d}/images", str(tmp_path / "a"),
                                    **kw))
    got = _verdicts(run_validation(f"{work}/images", str(tmp_path / "b"),
                                   **kw))
    if col == "fmt":
        for p in retyped:
            assert got[p].pop("schema_errors") == [f"fmt: {typ} != string"]
            assert got[p].pop("fail") == 1
            want[p].pop("schema_errors"), want[p].pop("fail")
    assert got == want


def test_unreadable_partition_file_is_named(fimg_small, tmp_path):
    """A partition file whose parquet footer cannot be read fails with
    an error naming that file; the other partitions commit, and once the
    file is restored a resume runs exactly that partition."""
    import shutil

    d, _ = fimg_small
    work = tmp_path / "data"
    shutil.copytree(d, work)
    (f,) = (work / "images" / "partition=4").glob("*.parquet")
    good = f.read_bytes()
    f.write_bytes(good[:len(good) // 2])
    out = str(tmp_path / "out")
    kw = dict(captions_path=f"{work}/captions.parquet", decode=False)
    with pytest.raises(ValueError, match=re.escape(str(f))):
        run_validation(f"{work}/images", out, **kw)
    with open(os.path.join(out, "manifest.json")) as fh:
        done = json.load(fh)["partitions"]
    assert sorted(int(k) for k in done) == [0, 1, 2, 3, 5, 6, 7]
    f.write_bytes(good)
    m = run_validation(f"{work}/images", out, **kw)
    assert m["runs"][-1]["pending"] == [4]


def test_runner_has_no_global_checks_of_its_own():
    """The runner's global findings are validate_images' reduction over
    the checkpointed censuses: no hash setdiff, census merge, listing
    fold, Hamming entry point or "approximate" method label of its
    own."""
    import inspect

    from autoprepad_ray.pipelines import runner

    src = inspect.getsource(runner)
    for token in ("setdiff1d", "merge_counts", "referential_method",
                  "_id_counts", "group_by", "count_all", "_capped_per_key",
                  "hamming_neardup_pairs"):
        assert token not in src, token
