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
    driver-side concat); the report carries a lazy dataset + the path."""
    import ray.data as rd
    from autoprepad_ray.pipelines.image_validation import validate_images

    d, exp = fimg
    sink = str(tmp_path / "viol")
    rep = validate_images(f"{d}/images", f"{d}/captions.parquet",
                          decode=False, violations_dir=sink)
    assert rep.stat_violations_path == sink
    ondisk = rd.read_parquet(sink).to_pandas()
    assert set(exp.outlier_w_ids) <= set(ondisk["image_id"])
    # lazy dataset agrees with the sink
    lazy = rep.stat_violations.to_pandas()
    assert sorted(lazy["image_id"]) == sorted(ondisk["image_id"])


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
