"""Codec units + end-to-end F-IMG validation against the injection
recipes' expected outcomes (FIXTURES.md R1-R7)."""

import numpy as np
import pytest

from autoprepad_ray.functions import imagecodec as ic
from autoprepad_ray.fixtures import generate_fimg


def test_ppm_roundtrip_exact():
    img = ic.synth_image("x", 64, 32)
    assert img.shape == (32, 64, 3)
    out = ic.decode_ppm(ic.encode_ppm(img))
    assert np.array_equal(out, img)


def test_qraw_lossy_psnr_above_40():
    img = ic.synth_image("y", 96, 96)
    out = ic.decode_qraw(ic.encode_qraw(img))
    p = ic.psnr(img, out)
    assert 40.0 <= p < 60.0


def test_truncation_and_sniff():
    img = ic.synth_image("z", 32, 32)
    data = ic.encode_ppm(img)
    with pytest.raises(ValueError):
        ic.decode_ppm(data[: len(data) // 2])
    assert ic.sniff_format(data) == "ppm"
    assert ic.sniff_format(ic.encode_qraw(img)) == "qraw"
    assert ic.sniff_format(b"JUNK") is None
    with pytest.raises(NotImplementedError):
        ic.decode(b"\x89PNG", "png")


def test_average_hash_properties():
    a = ic.average_hash(ic.synth_image("a", 64, 64))
    a2 = ic.average_hash(ic.synth_image("a", 64, 64))
    b = ic.average_hash(ic.synth_image("b", 64, 64))
    assert a == a2  # deterministic
    d = int(ic.hamming64(np.int64(a), np.int64(b))[0])
    assert 10 <= d <= 54  # unrelated images far apart
    assert int(ic.hamming64(np.int64(a), np.int64(a))[0]) == 0


@pytest.fixture(scope="module")
def fimg(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("fimg"))
    exp = generate_fimg(d, partitions=8, rows=250, seed=42, inject=True)
    return d, exp


def test_fixture_determinism(tmp_path):
    from autoprepad_ray.fixtures import generate_partition
    t1, c1, _ = generate_partition(1, 50, 42, partitions=8)
    t2, c2, _ = generate_partition(1, 50, 42, partitions=8)
    assert t1.equals(t2) and c1 == c2


def test_image_validation_end_to_end(fimg):
    d, exp = fimg
    from autoprepad_ray.pipelines.image_validation import validate_images

    rep = validate_images(f"{d}/images", f"{d}/captions.parquet")
    assert rep.schema_errors == []
    failed = rep.failed_partitions()
    assert failed["stat"] == [3], rep.verdicts
    assert failed["null"] == [5], rep.verdicts
    assert failed["uniq"] == [1, 6], rep.verdicts
    assert failed["decode"] == [2], rep.verdicts
    assert failed["drift"] == [7], rep.drift_psi

    # R3: exactly the injected duplicate ids
    assert sorted(rep.dup_ids["image_id"]) == sorted(exp.dup_ids)

    # R4: orphans both directions
    img_side = rep.orphans[rep.orphans["right_n"] == 0]
    cap_side = rep.orphans[rep.orphans["left_n"] == 0]
    assert sorted(img_side["image_id"]) == sorted(exp.orphan_image_ids)
    assert sorted(cap_side["image_id"]) == sorted(exp.orphan_caption_ids)

    # R1: every injected outlier row appears in the violation listing
    viol_ids = set(rep.stat_violations.to_pandas()["image_id"])
    assert set(exp.outlier_w_ids) <= viol_ids

    # R5: hot phash bucket exact count; exact pairs bucketized
    assert exp.hot_phash is not None
    hot = rep.neardup_groups[rep.neardup_groups["phash"] == exp.hot_phash]
    assert len(hot) == 1 and int(hot["n"].iloc[0]) == exp.hot_count
    group_hashes = set(rep.neardup_groups["phash"])
    pair_ids = {frozenset(p) for p in
                zip(rep.neardup_pairs["id_a"], rep.neardup_pairs["id_b"])}
    for a, b in exp.exact_pairs:
        assert frozenset((a, b)) in pair_ids or any(
            a in ids and b in ids for ids in rep.neardup_groups["ids"])
    for a, b, dist in exp.hamming_pairs:
        if 1 <= dist <= 4:
            assert frozenset((a, b)) in pair_ids, (a, b, dist)

    # R7: exactly the injected bad-decode rows
    assert sorted(rep.decode_violations["image_id"]) == sorted(
        exp.bad_decode_ids)


def test_row_invariant_payloads_untouched(fimg):
    """BASELINE input_hint invariant: the pipeline must not corrupt
    payloads — bytes and caption of every output row byte-equal the
    input row (decoded-pixel allclose is implied for lossless; for qraw
    the decode stage asserts PSNR>=40 internally)."""
    import ray.data as rd
    from autoprepad_ray.stages.decode import decode_verify

    d, _ = fimg
    ds = rd.read_parquet(f"{d}/images/partition=0")
    out = decode_verify(ds).to_pandas()
    src = rd.read_parquet(f"{d}/images/partition=0").to_pandas()
    merged = src.merge(out, on="image_id", suffixes=("_in", "_out"))
    assert len(merged) == len(src)
    assert (merged["caption_in"] == merged["caption_out"]).all()
    assert all(bi == bo for bi, bo in
               zip(merged["bytes_in"], merged["bytes_out"]))
    # lossless rows decode to identical pixels
    row = merged[merged["fmt_in"] == "ppm"].iloc[0]
    assert np.array_equal(ic.decode_ppm(row["bytes_in"]),
                          ic.decode_ppm(row["bytes_out"]))


def test_assert_schema_binary_tolerance_scoped_to_bytes(tmp_path):
    """Only the bytes column tolerates binary<->large_binary; any other
    column arriving as large_binary is a schema error (regression: the
    tolerance clause parsed as (A and B) or C and let everything pass)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd
    from autoprepad_ray.pipelines.image_validation import assert_schema

    t = pa.table({
        "image_id": pa.array(["a"]),
        "bytes": pa.array([b"x"], type=pa.binary()),          # tolerated
        "w": pa.array([1], type=pa.int32()),
        "h": pa.array([1], type=pa.int32()),
        "fmt": pa.array(["ppm"]),
        "caption": pa.array([b"cap"], type=pa.large_binary()),  # error
        "phash": pa.array([0], type=pa.int64()),
    })
    p = str(tmp_path / "t.parquet")
    pq.write_table(t, p)
    errs = assert_schema(rd.read_parquet(p))
    assert any(e.startswith("caption") for e in errs), errs
    assert not any(e.startswith("bytes") for e in errs), errs


def test_decode_verify_plain_binary_offsets(fimg):
    """bytes arriving as plain binary (int32 offsets) must decode
    correctly (regression: offsets were always read as int64), and the
    Ray stage must match the in-process DecodeVerify."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd
    from autoprepad_ray.stages.decode import DecodeVerify, decode_verify

    d, exp = fimg
    t = rd.read_parquet(f"{d}/images/partition=0").limit(50) \
        .to_arrow_refs()
    import ray
    tbl = pa.concat_tables([ray.get(r) for r in t])
    tbl = tbl.set_column(tbl.column_names.index("bytes"), "bytes",
                         tbl["bytes"].cast(pa.binary()))
    out = decode_verify(rd.from_arrow(tbl)).to_pandas()
    assert (out["decode_ok"] == 1).all(), \
        out.loc[out["decode_ok"] == 0, "decode_reason"].tolist()

    # R7 partition (the injected bad decodes): decode_verify over Ray
    # equals DecodeVerify run in-process on every output column
    path = f"{d}/images/partition=2"
    cols = ["decode_ok", "decode_reason", "psnr", "phash_recomputed"]
    local = DecodeVerify()(pq.read_table(path)).to_pandas()
    remote = decode_verify(rd.read_parquet(path)).to_pandas()
    assert local["image_id"].is_unique and len(local) == len(remote)
    local = local.set_index("image_id")[cols].sort_index()
    remote = remote.set_index("image_id")[cols].sort_index()
    assert sorted(local.index[local["decode_ok"] == 0]) == sorted(
        exp.bad_decode_ids)
    for c in cols:
        assert local[c].tolist() == remote[c].tolist(), c


def test_decode_verify_slice_boundaries(fimg, monkeypatch, tmp_path):
    """Decode walks each block in ``DECODE_SLICE_ROWS``-row slices: at 7
    rows, a 250-row file's fused decode equals one in-process
    ``DecodeVerify`` call on every output column (the R7 bad decodes
    too), and a 0-row input decodes to nothing without error."""
    import math

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray
    from autoprepad_ray.io import read_table
    from autoprepad_ray.stages import decode

    d, exp = fimg
    path = f"{d}/images/partition=2"
    monkeypatch.setattr(decode, "DECODE_SLICE_ROWS", 7)
    cols = ["image_id", "decode_ok", "decode_reason", "psnr",
            "phash_recomputed"]
    src = pq.read_table(path)
    assert src.num_rows == 250
    local = decode.DecodeVerify()(src).select(cols)
    blocks = ray.get(decode.decode_verify(read_table(path))
                     .materialize().to_arrow_refs())
    remote = pa.concat_tables(blocks).select(cols)
    # one slice per chunk: the task saw the patched slice size
    assert [b["decode_ok"].num_chunks for b in blocks] == [math.ceil(250 / 7)]
    assert remote.sort_by("image_id").equals(local.sort_by("image_id"))
    bad = pc.equal(local["decode_ok"], 0)
    assert sorted(local.filter(bad)["image_id"].to_pylist()) == sorted(
        exp.bad_decode_ids)

    empty = decode._verify_slices(src.slice(0, 0), slice_rows=7,
                                  min_psnr=40.0, check_phash=True)
    assert empty.num_rows == 0 and empty.column_names[-4:] == cols[1:]
    pq.write_table(src.slice(0, 0), str(tmp_path / "empty.parquet"))
    assert decode.decode_verify(
        read_table(str(tmp_path / "empty.parquet"))).count() == 0


def test_decode_failures_plan_one_fused_operator(fimg, ray_executions):
    """Pass 3 is ONE operator, read + decode + failure filter in one
    task per file: no map operator after the read consumes payload
    blocks (a batched decode map would plan as a second operator)."""
    from autoprepad_ray.io import parquet_files
    from autoprepad_ray.pipelines.image_validation import _decode_failures

    d, exp = fimg
    df = _decode_failures(parquet_files(f"{d}/images"))
    assert sorted(df["image_id"]) == sorted(exp.bad_decode_ids)
    assert len(ray_executions) == 1
    ops = [op.name for op in ray_executions[0]._topology
           if op.name != "Input"]
    assert ops == ["ReadParquet->MapBatches(_verify_slices)"
                   "->MapBatches(_failure_rows)"], ops


def test_decode_failures_typed_on_clean_partition(fimg):
    """A partition without a bad decode lists no row but keeps the
    listing's columns and types, as a failing partition's listing has."""
    from autoprepad_ray.io import parquet_files
    from autoprepad_ray.pipelines.image_validation import (
        DECODE_LISTING, _decode_failures)

    d, _ = fimg
    clean = _decode_failures(parquet_files(f"{d}/images/partition=0"))
    bad = _decode_failures(parquet_files(f"{d}/images/partition=2"))
    assert len(clean) == 0 and len(bad) > 0
    assert list(clean.columns) == list(bad.columns) == DECODE_LISTING.names
    assert clean.dtypes.equals(bad.dtypes)
    assert clean["image_id"].tolist() == []


def _actors() -> dict:
    """Class name of every actor the session has created, live or dead."""
    from ray._private import state
    return {k: a["ActorClassName"] for k, a in state.actors().items()}


def test_decode_creates_no_actors(fimg):
    """Decode runs as stateless tasks: neither decode_verify alone nor
    the full pipeline with decode creates an actor."""
    import ray.data as rd
    from autoprepad_ray.pipelines.image_validation import validate_images
    from autoprepad_ray.stages.decode import decode_verify

    d, _ = fimg
    # Ray Data starts its own bookkeeping actors on first use
    rd.range(8).map_batches(lambda b: b).take_all()
    before = _actors()
    out = decode_verify(rd.read_parquet(f"{d}/images/partition=2"))
    assert (out.to_pandas()["decode_ok"] == 0).any()
    rep = validate_images(f"{d}/images", f"{d}/captions.parquet")
    assert rep.failed_partitions()["decode"] == [2]
    new = {k: v for k, v in _actors().items() if k not in before}
    assert not new, new


def test_violations_stream_to_sink(fimg, tmp_path):
    """Pass-2 violations stream to a partitioned parquet sink (never a
    driver-side concat); the report carries their dataset + the path."""
    import ray.data as rd
    from autoprepad_ray.pipelines.image_validation import validate_images

    d, exp = fimg
    sink = str(tmp_path / "viol")
    rep = validate_images(f"{d}/images", f"{d}/captions.parquet",
                          decode=False, violations_dir=sink)
    assert rep.stat_violations_path == sink
    ondisk = rd.read_parquet(sink).to_pandas()
    assert set(exp.outlier_w_ids) <= set(ondisk["image_id"])
    # the report's dataset agrees with the sink
    mem = rep.stat_violations.to_pandas()
    assert sorted(mem["image_id"]) == sorted(ondisk["image_id"])


def test_validate_images_rejects_empty_dir(tmp_path):
    """A zero-match glob must error, not silently skip the schema
    assert (the old behavior passed schema on nothing)."""
    from autoprepad_ray.pipelines.image_validation import validate_images

    empty = tmp_path / "nothing"
    empty.mkdir()
    with pytest.raises(ValueError, match="no parquet files"):
        validate_images(str(empty), decode=False, neardup=False)


def test_validate_images_accepts_single_file(fimg):
    """A direct .parquet file path validates that file (the glob
    fallback from ADVICE r2)."""
    import glob as _glob

    from autoprepad_ray.pipelines.image_validation import validate_images

    d, _ = fimg
    one = sorted(_glob.glob(f"{d}/images/partition=0/*.parquet"))[0]
    rep = validate_images(one, decode=False, neardup=False)
    assert rep.schema_errors == []
    assert int(rep.verdicts["n_rows"].sum()) == 250


def test_html_reports(fimg, tmp_path):
    """S4/S5 viz surface: self-contained HTML from the profile and the
    validation report (reference renders via sklearn HTML repr,
    control.py:234-256, and ydata-profiling, configuration.py:559-566)."""
    from autoprepad_ray.pipelines.image_validation import validate_images
    from autoprepad_ray.report import profile_to_html, validation_to_html

    d, _ = fimg
    rep = validate_images(f"{d}/images", f"{d}/captions.parquet",
                          decode=False, neardup=False)
    html = validation_to_html(rep)
    for frag in ("<!doctype html", "Per-partition verdicts",
                 "Cross-partition checks", "Stage timings",
                 "Column profile", "caption_len"):
        assert frag in html
    # fail rows are highlighted
    assert 'class="fail"' in html and 'class="ok"' in html
    p = profile_to_html(rep.profile)
    assert "<table>" in p and "caption_len" in p
    out = tmp_path / "report.html"
    out.write_text(html)
    assert out.stat().st_size > 2000


def test_failed_pass_drains_decode_thread(fimg, monkeypatch):
    """A metadata pass that raises reaches the caller only after the
    overlapped decode thread has finished: no executor thread (and no
    Ray Data execution) is left running behind the error."""
    import threading

    from autoprepad_ray.pipelines import image_validation as iv

    def boom(ref_set):
        raise RuntimeError("pass 1 failed")

    d, _ = fimg
    monkeypatch.setattr(iv, "_make_p1_partial", boom)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="pass 1 failed"):
        iv.validate_images(f"{d}/images", f"{d}/captions.parquet")
    # executor workers are non-daemon threads; Ray's own are daemons
    left = [t.name for t in threading.enumerate()
            if t not in before and not t.daemon]
    assert not left, left


def _layout_witnesses(rep) -> dict:
    def rows(df, cols):
        return sorted(map(tuple, df[cols].astype(str).to_numpy()))

    groups = rep.neardup_groups
    return {
        "verdicts": rep.verdicts.to_dict("records"),
        "dup_ids": rows(rep.dup_ids, ["image_id", "n"]),
        "orphans": rows(rep.orphans, ["image_id", "left_n", "right_n"]),
        "neardup_pairs": rows(rep.neardup_pairs, ["id_a", "id_b", "dist"]),
        "neardup_groups": sorted(
            (str(h), int(n), tuple(sorted(ids))) for h, n, ids in
            zip(groups["phash"], groups["n"], groups["ids"])),
        "decode_violations": rows(rep.decode_violations,
                                  ["image_id", "partition_id", "fmt",
                                   "decode_reason"]),
        "stat_violation_ids": set(
            rep.stat_violations.to_pandas()["image_id"]),
    }


def test_results_independent_of_block_layout(fimg, monkeypatch):
    """The per-block partial folds and capped listings give the same
    report whether a read is one block per file (io.read_table) or
    Ray's default plan, which splits each file's output."""
    import ray.data as rd

    from autoprepad_ray.pipelines import image_validation as iv

    d, _ = fimg
    args = (f"{d}/images", f"{d}/captions.parquet")
    per_file = _layout_witnesses(iv.validate_images(*args))

    calls = []

    def ray_default(path, columns=None):
        calls.append(path)
        return rd.read_parquet(path, columns=columns)

    monkeypatch.setattr(iv, "read_table", ray_default)
    split = _layout_witnesses(iv.validate_images(*args))
    # payload, metadata, caption census
    assert len(calls) == 3, calls
    assert rd.read_parquet(f"{d}/images").materialize().num_blocks() > 8
    for k in per_file:
        assert per_file[k] == split[k], k


def test_validate_images_read_count(fimg, monkeypatch):
    """With captions and decode on, validate_images reads the payload,
    the metadata and the caption census — the census cells carry caption
    ids, so no read lists caption orphans, and pass-2 band cells carry
    ids, so no read resolves pair ids."""
    from autoprepad_ray.pipelines import image_validation as iv

    calls = []
    real = iv.read_table

    def counting(path, **kw):
        calls.append((path, kw.get("columns")))
        return real(path, **kw)

    monkeypatch.setattr(iv, "read_table", counting)
    d, exp = fimg
    rep = iv.validate_images(f"{d}/images", f"{d}/captions.parquet")
    assert rep.failed_partitions()["decode"] == [2]
    assert len(rep.neardup_pairs) and len(exp.orphan_caption_ids)
    assert len(calls) == 3, calls


def test_hamming_arms_agree(fimg, monkeypatch):
    """The pass-1 census picks ``prune`` on the fixture; with the
    collision bound at zero it picks ``mih_shuffle``.  Both arms give the
    same pairs and groups, and find every generated pair at 1 <= d <= 4."""
    from autoprepad_ray.pipelines.image_validation import validate_images
    from autoprepad_ray.validators import near_dup

    d, exp = fimg
    args = (f"{d}/images", f"{d}/captions.parquet")
    prune = validate_images(*args, decode=False)
    monkeypatch.setattr(near_dup, "SAT_MIN", 0)
    monkeypatch.setattr(near_dup, "SAT_FRAC", 0.0)
    mih = validate_images(*args, decode=False)
    assert (prune.hamming_path, mih.hamming_path) == ("prune", "mih_shuffle")
    assert prune.neardup_pairs.equals(mih.neardup_pairs)
    assert prune.neardup_groups.equals(mih.neardup_groups)
    pairs = {frozenset(p) for p in zip(mih.neardup_pairs["id_a"],
                                       mih.neardup_pairs["id_b"])}
    want = [(a, b) for a, b, dist in exp.hamming_pairs if 1 <= dist <= 4]
    assert want
    for a, b in want:
        assert frozenset((a, b)) in pairs, (a, b)


def test_psi_fmt_ignores_other_partitions_categories(fimg, tmp_path):
    """A partition's psi_fmt spans the categories of the reference plus
    that partition: a fmt value present only in partition 7 leaves every
    other partition's psi_fmt unchanged."""
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from autoprepad_ray.pipelines.image_validation import validate_images

    d, _ = fimg
    images = tmp_path / "images"
    shutil.copytree(f"{d}/images", images)
    (f,) = (images / "partition=7").glob("*.parquet")
    t = pq.read_table(f)
    fmt = t["fmt"].to_pylist()
    fmt[0] = "webp"
    pq.write_table(t.set_column(t.schema.get_field_index("fmt"), "fmt",
                                pa.array(fmt, type=pa.string())), f)
    kw = dict(decode=False, neardup=False)
    base = validate_images(f"{d}/images", **kw).drift_psi
    got = validate_images(str(images), **kw).drift_psi
    assert got["partition_id"].tolist() == list(range(8))
    assert got["psi_fmt"].iloc[7] != base["psi_fmt"].iloc[7]
    assert got["psi_fmt"].iloc[:7].tolist() == base["psi_fmt"].iloc[:7].tolist()


def test_validate_images_execution_count(fimg, ray_executions):
    """Pass 1 runs the image partial and the caption census as ONE union
    execution: without decode, validate_images runs two Ray Data
    executions (pass 1, pass 2) — the census names the caption orphans —
    and counting the violation rows starts none."""
    from autoprepad_ray.pipelines.image_validation import validate_images

    calls = ray_executions
    d, exp = fimg
    rep = validate_images(f"{d}/images", f"{d}/captions.parquet",
                          decode=False)
    assert len(rep.neardup_pairs) and len(exp.orphan_caption_ids)
    assert sorted(rep.orphans.loc[rep.orphans["left_n"] == 0, "image_id"]) \
        == sorted(exp.orphan_caption_ids)
    assert len(calls) == 2, calls
    assert rep.stat_violations.count() >= len(exp.outlier_w_ids)
    assert len(calls) == 2, calls


def test_capped_per_key_and_pairs_order_null_ids_last():
    """Null ids sort after every id: in the capped member sample (two
    nulls next to strings used to raise TypeError in np.lexsort) and in
    a near-dup pair whose hash resolves to a null id."""
    import pandas as pd

    from autoprepad_ray.validators.near_dup import _capped_per_key, _id_pairs

    keys = np.array([1, 1, 1, 1, 2], dtype=np.int64)
    ids = np.array([None, "b", None, "a", None], dtype=object)
    k, i = _capped_per_key(keys, ids, 3)
    assert k.tolist() == [1, 1, 1, 2] and i.tolist() == ["a", "b", None, None]
    pairs = _id_pairs(pd.DataFrame({"ph_a": [1], "ph_b": [2], "dist": [1]}),
                      np.array([1, 2], dtype=np.int64),
                      np.array([None, "x"], dtype=object))
    assert pairs[["id_a", "id_b"]].values.tolist() == [["x", None]]


def _with_null_ids(src: str, dst, hot_phash: int, *, images: bool,
                   captions: bool) -> str:
    """A copy of the fixture ``src`` with null ids: on the image side the
    first two rows of the hot phash group (one partition, next to the
    string image orphans), on the caption side two caption rows (next
    to the string caption orphans)."""
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq
    import pyarrow.compute as pc

    shutil.copytree(src, dst)
    if images:
        for f in sorted((dst / "images").glob("*/*.parquet")):
            t = pq.read_table(f)
            hot = np.flatnonzero(pc.equal(t["phash"], hot_phash)
                                 .to_numpy(zero_copy_only=False))
            if len(hot) >= 2:
                ids = t["image_id"].to_pylist()
                ids[hot[0]] = ids[hot[1]] = None
                pq.write_table(t.set_column(
                    t.schema.get_field_index("image_id"), "image_id",
                    pa.array(ids, pa.string())), f)
                break
        else:
            raise AssertionError("no partition holds two hot rows")
    if captions:
        f = dst / "captions.parquet"
        t = pq.read_table(f)
        ids = t["image_id"].to_pylist()
        ids[3] = ids[-1] = None
        pq.write_table(t.set_column(0, "image_id",
                                    pa.array(ids, pa.string())), f)
    return str(dst)


def _duck_listings(d: str) -> dict:
    """DuckDB's duplicate ids, orphans on both sides (null is one id:
    ``IS NOT DISTINCT FROM``), uniqueness-failing partitions and the
    hot-group id sample over the files of fixture ``d``."""
    import duckdb

    con = duckdb.connect()
    con.execute(f"""CREATE VIEW img AS SELECT image_id, partition_id, phash
                    FROM read_parquet('{d}/images/*/*.parquet')""")
    con.execute(f"""CREATE VIEW cap AS SELECT image_id
                    FROM read_parquet('{d}/captions.parquet')""")
    q = lambda sql: [tuple(r) for r in con.execute(sql).fetchall()]
    orph = """SELECT a.image_id, COUNT(*) FROM {a} a WHERE NOT EXISTS (
                  SELECT 1 FROM {b} b
                  WHERE b.image_id IS NOT DISTINCT FROM a.image_id)
              GROUP BY a.image_id ORDER BY a.image_id NULLS LAST"""
    out = {
        "dup_ids": q("""SELECT image_id, COUNT(*) FROM img GROUP BY image_id
                        HAVING COUNT(*) >= 2
                        ORDER BY image_id NULLS LAST"""),
        "orphans": [(i, n, 0) for i, n in q(orph.format(a="img", b="cap"))]
        + [(i, 0, n) for i, n in q(orph.format(a="cap", b="img"))],
        "uniq": [p for p, in q("""
            SELECT DISTINCT partition_id FROM img WHERE image_id IN (
                SELECT image_id FROM img GROUP BY image_id
                HAVING COUNT(*) >= 2)
            OR (image_id IS NULL AND (SELECT COUNT(*) FROM img
                                      WHERE image_id IS NULL) >= 2)
            ORDER BY 1""")],
        "groups": q("""SELECT phash, COUNT(*),
                              list(image_id ORDER BY image_id NULLS LAST)
                       FROM img GROUP BY phash HAVING COUNT(*) >= 2
                       ORDER BY phash"""),
    }
    con.close()
    return out


@pytest.mark.parametrize("images,captions",
                         [(True, False), (False, True), (True, True)],
                         ids=["image_nulls", "caption_nulls", "both"])
def test_null_ids_list_as_one_id_like_duckdb(fimg, tmp_path, images,
                                             captions):
    """Null ids on either side or both: every id listing counts null as
    one id and sorts it last — duplicate ids, orphans on both sides
    (image side, then caption side, each in id order; the caption side
    named by the pass-1 census) with their counts, the uniqueness
    verdicts and the near-dup member samples — as DuckDB over the same
    files."""
    from autoprepad_ray.pipelines.image_validation import validate_images

    src, exp = fimg
    d = _with_null_ids(src, tmp_path / "fx", exp.hot_phash,
                       images=images, captions=captions)
    rep = validate_images(f"{d}/images", f"{d}/captions.parquet",
                          decode=False)
    want = _duck_listings(d)
    assert list(zip(rep.dup_ids["image_id"], rep.dup_ids["n"])) \
        == want["dup_ids"]
    assert list(map(tuple, rep.orphans.itertuples(index=False))) \
        == want["orphans"]
    assert rep.failed_partitions()["uniq"] == want["uniq"]
    got = [(h, n, ids) for h, n, ids in zip(rep.neardup_groups["phash"],
                                            rep.neardup_groups["n"],
                                            rep.neardup_groups["ids"])]
    assert got == [(h, n, ids[:64]) for h, n, ids in want["groups"]]
    # the copy puts a null id where each case needs it
    if images:
        assert (None, 2) in want["dup_ids"]
    if images != captions:
        assert (None, 2 * images, 2 * captions) in want["orphans"]


def test_census_names_caption_orphans_like_duckdb(fimg, tmp_path):
    """The caption-side orphans come from the pass-1 census cells, which
    carry each caption id: ids and ``right_n`` equal a DuckDB anti-join
    over the fixture's captions, with a null caption id and a caption
    orphan listed twice."""
    import shutil

    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from autoprepad_ray.pipelines.image_validation import validate_images

    src, exp = fimg
    d = tmp_path / "fx"
    shutil.copytree(src, d)
    t = pq.read_table(d / "captions.parquet")
    extra = pa.table({"image_id": pa.array([None, exp.orphan_caption_ids[0]],
                                           pa.string()),
                      "caption": pa.array(["x", "y"], pa.string())})
    pq.write_table(pa.concat_tables([t, extra.cast(t.schema)]),
                   d / "captions.parquet")
    rep = validate_images(f"{d}/images", f"{d}/captions.parquet",
                          decode=False, neardup=False)
    got = rep.orphans[rep.orphans["left_n"] == 0]
    want = duckdb.sql(f"""
        SELECT c.image_id, COUNT(*) FROM read_parquet('{d}/captions.parquet') c
        WHERE NOT EXISTS (
            SELECT 1 FROM read_parquet('{d}/images/*/*.parquet') i
            WHERE i.image_id IS NOT DISTINCT FROM c.image_id)
        GROUP BY c.image_id ORDER BY c.image_id NULLS LAST""").fetchall()
    assert list(zip(got["image_id"], got["right_n"])) == \
        [tuple(r) for r in want]
    assert want[-1] == (None, 1) and (exp.orphan_caption_ids[0], 2) in want


def test_census_and_pairing_start_no_task_for_an_empty_slice(tmp_path,
                                                             monkeypatch):
    """Four images, two of them one bit apart: the pass-1 census keys
    (4 id hashes, 4 phashes) reach at most 8 of the 16 slices and the
    pruned band cells (the 3 bands the pair shares) at most 3, and
    ``slice_map`` starts a task for those live slices only."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from autoprepad_ray.pipelines.image_validation import validate_images
    from autoprepad_ray.stages import transport

    ph = [0x0123456789ABCDEF, 0x0123456789ABCDEE, 0x7A5A5A5A5A5A5A5A,
          0x3C3C3C3C0F0F0F0F]
    t = pa.table({
        "image_id": ["a", "b", "c", "d"],
        "bytes": pa.array([b"x"] * 4, pa.large_binary()),
        "w": pa.array([64] * 4, pa.int32()),
        "h": pa.array([64] * 4, pa.int32()),
        "fmt": ["ppm"] * 4,
        "caption": ["one", "two", "three", "four"],
        "phash": pa.array(ph, pa.int64()),
        "partition_id": pa.array([0] * 4, pa.int32())})
    (tmp_path / "partition=0").mkdir()
    pq.write_table(t, tmp_path / "partition=0" / "part.parquet")
    launched = []
    task = transport._slice_task

    class Counted:
        def remote(self, fn, s, *args):
            launched.append(fn.__qualname__.split(".")[0])
            return task.remote(fn, s, *args)

    monkeypatch.setattr(transport, "_slice_task", Counted())
    rep = validate_images(str(tmp_path), ref_partitions=(0,), decode=False)
    assert rep.neardup_pairs[["id_a", "id_b", "dist"]].values.tolist() \
        == [["a", "b", 1]]
    assert transport.default_num_parts() == 16
    assert 1 <= launched.count("validate_images") <= 8
    assert 1 <= launched.count("_pair_ids") <= 3
    assert len(launched) == launched.count("validate_images") \
        + launched.count("_pair_ids")
