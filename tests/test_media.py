"""Audio/video multimodal stages: codec roundtrips, offset-exact frame
sampling, feature parity vs direct numpy, stub gating, and the planted
near-dup video pipeline over the F-MEDIA fixture."""

import numpy as np
import pyarrow as pa
import pytest

from autoprepad_ray.functions import imagecodec as ic
from autoprepad_ray.functions import mediacodec as mc
from autoprepad_ray.fixtures import ensure_fmedia, generate_fmedia


def test_wavr_roundtrip():
    pcm = mc.synth_audio("a1", 8000, 16_000, channels=1)
    data = mc.encode_wavr(pcm, 16_000)
    out, sr = mc.decode_wavr(data)
    assert sr == 16_000
    np.testing.assert_array_equal(out[:, 0], pcm)
    # stereo + zero-copy uint8 view input (the Arrow-buffer path)
    pcm2 = mc.synth_audio("a2", 5000, 8_000, channels=2)
    data2 = np.frombuffer(mc.encode_wavr(pcm2, 8_000), dtype=np.uint8)
    out2, sr2 = mc.decode_wavr(data2)
    assert sr2 == 8_000 and out2.shape == (5000, 2)
    np.testing.assert_array_equal(out2, pcm2)


def test_wavr_errors():
    pcm = mc.synth_audio("a1", 1000)
    data = mc.encode_wavr(pcm, 16_000)
    with pytest.raises(ValueError, match="truncated"):
        mc.decode_wavr(data[: len(data) // 2])
    with pytest.raises(ValueError, match="not a wavr"):
        mc.decode_wavr(b"JUNK" + data[4:])
    with pytest.raises(NotImplementedError, match="mp3"):
        mc.decode_audio(data, "mp3")


def test_vraw_frame_slicing_matches_full_decode():
    frames = mc.synth_video("v1", w=32, h=24, n_frames=5)
    data = mc.encode_vraw(frames, fps=12.5)
    w, h, nf, fps = mc.vraw_header(data)
    assert (w, h, nf, fps) == (32, 24, 5, 12.5)
    full, fps2 = mc.decode_vraw(data)
    assert fps2 == 12.5
    np.testing.assert_array_equal(full, frames)
    for k in range(5):
        np.testing.assert_array_equal(mc.decode_vraw_frame(data, k),
                                      frames[k])
    with pytest.raises(ValueError, match="out of range"):
        mc.decode_vraw_frame(data, 5)
    # truncated: frame 0 still slices, missing tail frame raises
    cut = data[: mc.VRAW_HEADER + 32 * 24 * 3 * 2]
    np.testing.assert_array_equal(mc.decode_vraw_frame(cut, 0), frames[0])
    with pytest.raises(ValueError, match="truncated"):
        mc.decode_vraw_frame(cut, 3)


def test_synth_video_content_key_plants_dups():
    a = mc.synth_video("shared", n_frames=3)
    b = mc.synth_video("shared", n_frames=3)
    c = mc.synth_video("other", n_frames=3)
    np.testing.assert_array_equal(a, b)
    assert ic.average_hash(a[0]) != ic.average_hash(c[0])


@pytest.fixture(scope="module")
def fmedia(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("fmedia"))
    exp = generate_fmedia(d, audio_rows=24, video_rows=16, seed=42)
    return d, exp


def test_audio_features_parity_and_flags(ray_session, fmedia):
    import ray.data as rd

    from autoprepad_ray.stages.media import audio_features

    d, exp = fmedia
    out = audio_features(rd.read_parquet(f"{d}/audio.parquet")) \
        .to_pandas().set_index("audio_id")
    assert len(out) == 24
    for aid in exp.bad_audio_ids:
        assert out.loc[aid, "audio_ok"] == 0
    for aid in exp.stub_audio_ids:
        assert out.loc[aid, "audio_ok"] == 0
        assert out.loc[aid, "audio_reason"].startswith("no-codec:")
    assert (out.drop(exp.bad_audio_ids + exp.stub_audio_ids)["audio_ok"]
            == 1).all()

    # feature oracle: recompute directly with numpy for two good clips
    import pyarrow.parquet as pq
    tbl = pq.read_table(f"{d}/audio.parquet")
    rows = {i: (f, b) for i, f, b in zip(tbl["audio_id"].to_pylist(),
                                         tbl["fmt"].to_pylist(),
                                         tbl["bytes"].to_pylist())}
    checked = 0
    for aid, (fmt, payload) in sorted(rows.items()):
        if fmt != "wavr" or aid in exp.bad_audio_ids:
            continue
        pcm, sr = mc.decode_wavr(payload)
        x = pcm.astype(np.float64)
        assert out.loc[aid, "sample_rate"] == sr
        assert out.loc[aid, "channels"] == pcm.shape[1]
        assert out.loc[aid, "duration_sec"] == pcm.shape[0] / sr
        np.testing.assert_allclose(out.loc[aid, "rms"],
                                   np.sqrt(np.mean(x * x)), rtol=1e-12)
        assert out.loc[aid, "peak"] == np.abs(pcm).max()
        mono = x.mean(axis=1)
        np.testing.assert_allclose(out.loc[aid, "zcr"],
                                   (mono[:-1] * mono[1:] < 0).mean(),
                                   rtol=1e-12)
        seg = mono[: 1 << 15]
        spec = np.abs(np.fft.rfft(seg * np.hanning(len(seg))))
        freqs = np.fft.rfftfreq(len(seg), d=1.0 / sr)
        np.testing.assert_allclose(out.loc[aid, "spectral_centroid_hz"],
                                   (freqs * spec).sum() / spec.sum(),
                                   rtol=1e-9)
        checked += 1
        if checked == 3:
            break
    assert checked == 3


def test_video_metadata_header_only(ray_session, fmedia):
    import ray.data as rd

    from autoprepad_ray.stages.media import video_metadata

    d, exp = fmedia
    out = video_metadata(rd.read_parquet(f"{d}/videos.parquet")) \
        .to_pandas().set_index("video_id")
    assert len(out) == 16
    good = out.drop(exp.truncated_video_ids)
    assert (good["video_ok"] == 1).all()
    assert (good["w"] == 32).all() and (good["n_frames"] == 8).all()
    assert np.allclose(good["duration_sec"], 1.0)  # 8 frames @ 8 fps
    for vid in exp.truncated_video_ids:
        assert out.loc[vid, "video_ok"] == 0
        assert out.loc[vid, "video_reason"].startswith("truncated:")


def test_sample_frames_offset_exact(ray_session, fmedia):
    import ray.data as rd

    from autoprepad_ray.stages.media import sample_frames

    d, exp = fmedia
    out = sample_frames(rd.read_parquet(f"{d}/videos.parquet"),
                        every_k=4, emit_bytes=True).to_pandas()
    # 8 frames, every 4th -> frames 0 and 4 per intact video; the
    # truncated video (3 frames left) keeps only frame 0
    counts = out.groupby("video_id").size()
    for vid in exp.truncated_video_ids:
        assert counts[vid] == 1
    assert (counts.drop(exp.truncated_video_ids) == 2).all()
    # phash + re-encoded bytes match a direct synthesis of that frame
    row = out[(out["video_id"] == "vid-000000")
              & (out["frame_idx"] == 4)].iloc[0]
    frame = mc.synth_video("vid-000000", w=32, h=32, n_frames=8)[4]
    assert row["phash"] == ic.average_hash(frame)
    np.testing.assert_array_equal(ic.decode_ppm(row["bytes"]), frame)
    assert row["image_id"] == "vid-000000#f4"


def test_video_frame_neardup_planted(ray_session, fmedia):
    import ray.data as rd

    from autoprepad_ray.stages.media import video_frame_neardup

    d, exp = fmedia
    out = video_frame_neardup(rd.read_parquet(f"{d}/videos.parquet"),
                              every_k=4, max_dist=4)
    got = set(zip(out["video_a"], out["video_b"]))
    for pair in exp.neardup_video_pairs:
        assert tuple(pair) in got, f"planted pair {pair} missed"
    planted = set(map(tuple, exp.neardup_video_pairs))
    extras = got - planted
    assert not extras, f"false video pairs: {extras}"
    # both sampled frames of each planted pair collide exactly
    assert (out.set_index(["video_a", "video_b"])
            .loc[list(planted), "n_frame_pairs"] == 2).all()


def test_ensure_fmedia_cache(tmp_path):
    base = str(tmp_path / "cache")
    d1, exp1 = ensure_fmedia(base, audio_rows=8, video_rows=4)
    assert exp1 is not None
    d2, exp2 = ensure_fmedia(base, audio_rows=8, video_rows=4)
    assert d2 == d1 and exp2 is None


def test_sampled_frames_feed_image_decode_verify(ray_session, fmedia):
    """Composition proof: sample_frames(emit_bytes=True) rows carry the
    exact image-table schema (bytes/fmt/w/h/phash/image_id), so the
    image pipeline's decode_verify stage consumes them
    unchanged — video frames are first-class images downstream."""
    import ray.data as rd

    from autoprepad_ray.stages.decode import decode_verify
    from autoprepad_ray.stages.media import sample_frames

    d, exp = fmedia
    frames = sample_frames(rd.read_parquet(f"{d}/videos.parquet"),
                           every_k=4, emit_bytes=True)
    out = decode_verify(frames).to_pandas()
    assert len(out) > 0
    assert (out["decode_ok"] == 1).all()          # ppm re-encode is lossless
    assert (out["phash_recomputed"] == out["phash"]).all()
