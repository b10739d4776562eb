"""Audio/video multimodal stages (beyond-reference surface; the
reference engine is tabular-only — see ``mediacodec`` module docstring).

Three stages over opaque ``binary`` media columns:

- :func:`audio_features` — ``map_batches`` decode + feature-extract:
  duration, RMS, peak, zero-crossing rate, spectral centroid.
  Stateless task.
- :func:`video_metadata` — header-only parse (20 bytes/row): w, h,
  frame count, fps, duration + truncation check WITHOUT touching frame
  bytes.  Stateless task.
- :func:`sample_frames` — frame sampling via computed offsets
  (``decode_vraw_frame`` slices frame k straight out of the payload);
  emits one image row per sampled frame with a recomputed ``phash``, so
  the output feeds the EXISTING banded-Hamming near-dup machinery
  (``validators.near_dup.hamming_neardup_pairs``) unchanged — video
  near-dup = frame-sample ∘ image near-dup.

No stage here builds an actor pool: none has per-worker state heavy
enough to pay for the worker starts.  Like
:func:`stages.decode.verify_batch`, payload blobs force a per-row loop
(each row is an opaque buffer); all inner math is numpy, payload access
is zero-copy off the Arrow buffers, and batches stay small so a batch
per task fits worker heaps.  At 100 TB the audio stage is decode-bound
exactly like image pass 3.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import imagecodec as ic
from ..functions import mediacodec as mc


def _payload_views(blobs: pa.Array, n: int):
    """Zero-copy per-row uint8 views off a binary column's buffers
    (same offsets trick as decode.verify_batch — the per-row ``.as_py()``
    copy would double memory traffic on a decode-bound stage)."""
    off_buf, data_buf = blobs.buffers()[1], blobs.buffers()[2]
    off_dtype = (np.int64 if pa.types.is_large_binary(blobs.type)
                 else np.int32)
    offsets = np.frombuffer(off_buf, dtype=off_dtype)[
        blobs.offset:blobs.offset + n + 1].astype(np.int64)
    payload = np.frombuffer(data_buf, dtype=np.uint8)
    return offsets, payload


def _audio_features_batch(batch: pa.Table, *, fft_cap: int) -> pa.Table:
    n = batch.num_rows
    ok = np.ones(n, dtype=bool)
    reasons = np.full(n, "", dtype=object)
    duration = np.zeros(n)
    rms = np.zeros(n)
    peak = np.zeros(n, dtype=np.int64)
    zcr = np.zeros(n)
    centroid = np.zeros(n)
    sr_out = np.zeros(n, dtype=np.int64)
    ch_out = np.zeros(n, dtype=np.int64)
    blobs = batch["bytes"].combine_chunks()
    offsets, payload = _payload_views(blobs, n)
    fmts = batch["fmt"].to_pylist()
    for i in range(n):
        data = payload[offsets[i]:offsets[i + 1]]
        fmt = fmts[i]
        if fmt != "wavr":
            ok[i] = False
            reasons[i] = f"no-codec:{fmt}"
            continue
        if mc.sniff_media(data) != fmt:
            ok[i] = False
            reasons[i] = f"fmt-mismatch:{mc.sniff_media(data)}"
            continue
        try:
            pcm, sr = mc.decode_wavr(data)
        except ValueError as e:
            ok[i] = False
            reasons[i] = f"decode-error:{e}"
            continue
        ns, ch = pcm.shape
        sr_out[i], ch_out[i] = sr, ch
        duration[i] = ns / sr
        if ns == 0:
            continue
        x = pcm.astype(np.float64)
        rms[i] = float(np.sqrt(np.mean(x * x)))
        peak[i] = int(np.abs(pcm).max())
        mono = x.mean(axis=1)
        signs = mono[:-1] * mono[1:] < 0
        zcr[i] = float(signs.mean()) if ns > 1 else 0.0
        seg = mono[:fft_cap]
        spec = np.abs(np.fft.rfft(seg * np.hanning(len(seg))))
        freqs = np.fft.rfftfreq(len(seg), d=1.0 / sr)
        tot = spec.sum()
        centroid[i] = float((freqs * spec).sum() / tot) if tot > 0 else 0.0
    return pa.table({
        "audio_id": batch["audio_id"],
        "audio_ok": pa.array(ok.astype(np.int8)),
        "audio_reason": pa.array(reasons, type=pa.string()),
        "sample_rate": pa.array(sr_out),
        "channels": pa.array(ch_out),
        "duration_sec": pa.array(duration),
        "rms": pa.array(rms),
        "peak": pa.array(peak),
        "zcr": pa.array(zcr),
        "spectral_centroid_hz": pa.array(centroid),
    })


def audio_features(ds, *, batch_size: int = 128, fft_cap: int = 1 << 15):
    """Decode ``wavr`` payloads and emit per-clip features, as stateless
    tasks.

    ``fft_cap`` bounds the spectral-centroid FFT to the first
    ``fft_cap`` samples (downmixed mono) so a pathological hours-long
    clip cannot blow up a batch."""
    return ds.map_batches(
        _audio_features_batch, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size, fn_kwargs={"fft_cap": int(fft_cap)})


# ---------------------------------------------------------------------------
# video


def _video_meta_batch(batch: pa.Table) -> pa.Table:
    n = batch.num_rows
    ok = np.ones(n, dtype=bool)
    reasons = np.full(n, "", dtype=object)
    w = np.zeros(n, dtype=np.int64)
    h = np.zeros(n, dtype=np.int64)
    nf = np.zeros(n, dtype=np.int64)
    fps = np.zeros(n)
    blobs = batch["bytes"].combine_chunks()
    offsets, payload = _payload_views(blobs, n)
    fmts = batch["fmt"].to_pylist()
    for i in range(n):
        data = payload[offsets[i]:offsets[i + 1]]
        if fmts[i] != "vraw":
            ok[i] = False
            reasons[i] = f"no-codec:{fmts[i]}"
            continue
        try:
            wi, hi, nfi, fpsi = mc.vraw_header(data)
        except ValueError as e:
            ok[i] = False
            reasons[i] = f"header-error:{e}"
            continue
        w[i], h[i], nf[i], fps[i] = wi, hi, nfi, fpsi
        expected = mc.VRAW_HEADER + nfi * wi * hi * 3
        if len(data) < expected:
            ok[i] = False
            reasons[i] = f"truncated:{len(data)}<{expected}"
    dur = np.divide(nf, fps, out=np.zeros(n), where=fps > 0)
    return pa.table({
        "video_id": batch["video_id"],
        "video_ok": pa.array(ok.astype(np.int8)),
        "video_reason": pa.array(reasons, type=pa.string()),
        "w": pa.array(w), "h": pa.array(h),
        "n_frames": pa.array(nf), "fps": pa.array(fps),
        "duration_sec": pa.array(dur),
    })


def video_metadata(ds):
    """Header-only video metadata + truncation check: reads 20 bytes of
    each payload (plus the byte-length from the Arrow offsets), never a
    frame.  Stateless task — no actor-pool spinup."""
    return ds.map_batches(_video_meta_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


def _sample_frames_batch(batch: pa.Table, *, every_k: int,
                         emit_bytes: bool) -> pa.Table:
    vids, idxs, phashes = [], [], []
    ws, hs, fbytes_out = [], [], []
    blobs = batch["bytes"].combine_chunks()
    offsets, payload = _payload_views(blobs, batch.num_rows)
    ids = batch["video_id"].to_pylist()
    for i in range(batch.num_rows):
        data = payload[offsets[i]:offsets[i + 1]]
        try:
            w, h, nf, _ = mc.vraw_header(data)
        except ValueError:
            continue  # video_metadata reports these; sampling skips them
        for k in range(0, nf, every_k):
            try:
                frame = mc.decode_vraw_frame(data, k)
            except ValueError:
                break  # truncated tail — sampled frames before it stand
            vids.append(ids[i])
            idxs.append(k)
            phashes.append(ic.average_hash(frame))
            if emit_bytes:
                ws.append(w)
                hs.append(h)
                fbytes_out.append(ic.encode_ppm(frame))
    cols = {
        "image_id": pa.array([f"{v}#f{k}" for v, k in zip(vids, idxs)],
                             type=pa.string()),
        "video_id": pa.array(vids, type=pa.string()),
        "frame_idx": pa.array(idxs, type=pa.int64()),
        "phash": pa.array(phashes, type=pa.int64()),
    }
    if emit_bytes:
        cols.update({
            "w": pa.array(ws, type=pa.int64()),
            "h": pa.array(hs, type=pa.int64()),
            "fmt": pa.array(["ppm"] * len(vids), type=pa.string()),
            "bytes": pa.array(fbytes_out, type=pa.binary()),
        })
    return pa.table(cols)


def sample_frames(ds, *, every_k: int = 4, emit_bytes: bool = False,
                  batch_size: int = 64):
    """Frame-sample every ``every_k``-th frame of each video via
    computed payload offsets (``decode_vraw_frame`` — only sampled
    frames are ever materialized).  Output rows carry ``image_id``
    (``<video_id>#f<k>``) + ``phash`` so they plug straight into the
    image near-dup path; ``emit_bytes=True`` additionally re-encodes the
    sampled frame as a ppm image row for the full image-validation
    pipeline.  Stateless task (codec dispatch is module-level — no
    per-actor state to justify pool spinup)."""
    import functools
    return ds.map_batches(
        functools.partial(_sample_frames_batch, every_k=every_k,
                          emit_bytes=emit_bytes),
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size)


def video_frame_neardup(ds, *, every_k: int = 4, max_dist: int = 4,
                        group_cap: int = 64):
    """Video near-duplicate pairs from sampled-frame phashes.

    Two components, both over the (small) sampled-frame stream:

    - EXACT: frames whose phash is identical across distinct videos.
      ``hamming_neardup_pairs`` deliberately reports one representative
      per distinct hash (dist >= 1 only), so exact collisions need their
      own path: the census-pruned ``duplicate_phash_groups`` (packed
      np.unique partials + tree merge + broadcast dup-hash filter — a
      sort-groupby on the near-unique phash column is the repo's
      documented enemy), then video pairs per colliding hash on the
      driver (dup buckets only; ``group_cap`` bounds a degenerate
      all-same-hash corpus via the bucket id sample).
    - NEAR (1 <= dist <= max_dist): the existing banded-Hamming pairing
      over frame ids, mapped back to video ids on the driver (the pair
      list is already a driver-resident result).

    Returns a DataFrame (video_a, video_b, n_frame_pairs), video_a <
    video_b; two videos pair when ANY sampled frame pairs and the frame
    count is the evidence.  The frame stream is a computed chain
    consumed by both components -> materialized once (repo lesson)."""
    import pandas as pd

    from ..validators.near_dup import (duplicate_phash_groups,
                                       hamming_neardup_pairs)

    frames = sample_frames(ds, every_k=every_k).materialize()

    buckets = duplicate_phash_groups(
        frames.select_columns(["phash", "video_id"]),
        phash_col="phash", id_col="video_id",
        sample_cap=group_cap).to_pandas()
    ex_a, ex_b = [], []
    for ids in buckets["ids"]:
        vids = np.unique(np.asarray(ids, dtype=object))[:group_cap]
        if len(vids) >= 2:
            ia, ib = np.triu_indices(len(vids), k=1)
            ex_a.append(vids[ia])
            ex_b.append(vids[ib])
    exact = pd.DataFrame({
        "video_a": np.concatenate(ex_a) if ex_a
        else pd.Series([], dtype=object),
        "video_b": np.concatenate(ex_b) if ex_b
        else pd.Series([], dtype=object)})

    near = hamming_neardup_pairs(frames, max_dist=max_dist)
    if len(near):
        va = near["id_a"].str.split("#f").str[0]
        vb = near["id_b"].str.split("#f").str[0]
        near = pd.DataFrame({"video_a": np.minimum(va, vb),
                             "video_b": np.maximum(va, vb)})
        near = near[near["video_a"] != near["video_b"]]
    else:
        near = pd.DataFrame({"video_a": pd.Series([], dtype=object),
                             "video_b": pd.Series([], dtype=object)})

    allp = pd.concat([exact, near], ignore_index=True)
    out = (allp.groupby(["video_a", "video_b"], as_index=False)
           .size().rename(columns={"size": "n_frame_pairs"}))
    return out.sort_values(["video_a", "video_b"]).reset_index(drop=True)
