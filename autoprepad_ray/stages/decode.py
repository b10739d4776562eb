"""Image decode / verification stage (FIXTURES R7; the F14 "model
scorer" slot from SURVEY §2.3).

:func:`verify_batch` decodes every row's payload and checks

- payload magic matches the declared ``fmt`` (mis-labeled rows),
- payload is complete (truncation),
- decoded dimensions match the declared ``w``/``h`` metadata,
- recomputed perceptual hash matches the ``phash`` column,
- for lossy formats, decode -> re-encode -> decode PSNR >= ``min_psnr``
  (the >=40 dB allclose invariant from BASELINE.json ``input_hint``).

:func:`decode_verify` maps it over a Dataset as stateless tasks (its
``batch_size`` keeps it an operator of its own after the read: Ray fuses
no batched map into a read task).  The only state is the module-level codec table: an
actor pool's worker starts (~1 s of CPU each on a 4-vCPU host) would
cost several times the decode work itself (~0.25 s in-process for the
2,000-image benchmark table).

Binary payloads force a per-row decode loop (each row is an opaque blob);
the inner pixel work is numpy-vectorized and batches stay small
(``batch_size`` ~256) so a batch per task fits worker heaps.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import imagecodec as ic

DECODERS = {"ppm": ic.decode_ppm, "qraw": ic.decode_qraw}
LOSSY = frozenset({"qraw"})


def verify_batch(batch: pa.Table, *, min_psnr: float = 40.0,
                 check_phash: bool = True) -> pa.Table:
    """Append ``decode_ok``, ``decode_reason``, ``psnr`` and
    ``phash_recomputed`` to ``batch``."""
    n = batch.num_rows
    ok = np.ones(n, dtype=bool)
    reasons = np.full(n, "", dtype=object)
    psnr_vals = np.full(n, np.inf)
    rehash = np.zeros(n, dtype=np.int64)
    blobs = batch["bytes"].combine_chunks()
    # zero-copy payload views straight off the Arrow buffers — the
    # per-row .as_py() copy would double memory traffic on the
    # hottest stage (memory bandwidth is the scaling ceiling here)
    off_buf, data_buf = blobs.buffers()[1], blobs.buffers()[2]
    # offset width follows the Arrow type: binary carries int32
    # offsets, large_binary int64 — reading the wrong width silently
    # garbles every payload slice
    off_dtype = (np.int64 if pa.types.is_large_binary(blobs.type)
                 else np.int32)
    offsets = np.frombuffer(off_buf, dtype=off_dtype)[
        blobs.offset:blobs.offset + n + 1].astype(np.int64)
    payload = np.frombuffer(data_buf, dtype=np.uint8)
    fmts = batch["fmt"].to_pylist()
    ws = batch["w"].to_numpy(zero_copy_only=False)
    hs = batch["h"].to_numpy(zero_copy_only=False)
    phs = batch["phash"].to_numpy(zero_copy_only=False)
    # pass 1: per-row decode (payloads are opaque blobs — the loop is
    # irreducible), grouping decoded pixels by dimension
    groups: dict[tuple[int, int], list[tuple[int, np.ndarray, str]]] = {}
    for i in range(n):
        data = payload[offsets[i]:offsets[i + 1]]
        fmt = fmts[i]
        dec = DECODERS.get(fmt)
        if dec is None:
            ok[i] = False
            reasons[i] = f"no-codec:{fmt}"
            continue
        sniffed = ic.sniff_format(data)
        if sniffed != fmt:
            ok[i] = False
            reasons[i] = f"fmt-mismatch:{sniffed}"
            continue
        try:
            img = dec(data)
        except ValueError as e:
            ok[i] = False
            reasons[i] = f"decode-error:{e}"
            continue
        ih, iw = img.shape[:2]
        if iw != ws[i] or ih != hs[i]:
            ok[i] = False
            reasons[i] = f"dims-mismatch:{iw}x{ih}"
            continue
        groups.setdefault((ih, iw), []).append((i, img, fmt))
    # pass 2: per-dimension stacks -> fully vectorized hashing + PSNR.
    # All pixel math stays INTEGER (uint16 channel sums, int32
    # squared errors): the float64 path moved ~70 bytes/pixel of
    # memory traffic and this stage is bandwidth-bound — on a
    # saturated shared-memory host the float version stops scaling
    # past ~8 cores.  Cell sums < 2^53 keep the float64 cell means
    # integer-exact, so hashes are bit-identical to
    # functions.imagecodec.average_hash.
    for (ih, iw), members in groups.items():
        idx = np.array([m[0] for m in members])
        stack = np.stack([m[1] for m in members])          # (k,h,w,3)
        if ih % 8 == 0 and iw % 8 == 0:
            # fused cell sums straight off the uint8 stack: cell
            # mean of the gray (channel-sum) plane == cell pixel
            # sum over all channels / pixels-per-cell, and integer
            # sums < 2^53 make the float64 division exact — bit-
            # identical to the uint16-gray mean while skipping the
            # 4 bytes/px write+reread of the gray intermediate
            # (this stage is memory-bandwidth-bound)
            csum = stack.reshape(len(idx), 8, ih // 8, 8, iw // 8, 3) \
                .sum(axis=(2, 4, 5), dtype=np.int64)
            cells = csum / float((ih // 8) * (iw // 8))
        else:
            gray = stack.sum(axis=3, dtype=np.uint16)
            cells = np.stack([ic._box_mean_8x8(g) for g in gray])
        bits = cells > cells.mean(axis=(1, 2), keepdims=True)
        packed = np.packbits(bits.reshape(len(idx), 64), axis=1)
        h64 = packed.copy().view(">u8").astype(np.uint64).ravel() \
            .astype(np.int64)
        rehash[idx] = h64
        if check_phash:
            bad = h64 != phs[idx]
            ok[idx[bad]] = False
            reasons[idx[bad]] = "phash-mismatch"
        lossy_rows = np.array([m[2] in LOSSY for m in members])
        if lossy_rows.any():
            sub = stack[lossy_rows]
            q = sub >> 2
            rt = ((q << 2) | (q >> 4)).astype(np.uint8)     # q <= 63
            d = sub.astype(np.int16) - rt                   # |d| <= 3
            sq = (d * d).astype(np.int64).sum(axis=(1, 2, 3))
            mse = sq / (ih * iw * 3)
            with np.errstate(divide="ignore"):
                p = np.where(mse == 0, np.inf,
                             10.0 * np.log10(255.0 ** 2 / mse))
            li = idx[lossy_rows]
            psnr_vals[li] = p
            bad = p < min_psnr
            ok[li[bad]] = False
            for k in np.nonzero(bad)[0]:
                reasons[li[k]] = f"psnr:{p[k]:.1f}"
    batch = batch.append_column("decode_ok",
                                pa.array(ok.astype(np.int8)))
    batch = batch.append_column("decode_reason",
                                pa.array(reasons, type=pa.string()))
    batch = batch.append_column("psnr", pa.array(psnr_vals))
    batch = batch.append_column("phash_recomputed", pa.array(rehash))
    return batch


class DecodeVerify:
    """:func:`verify_batch` with its options bound, for in-process use
    (``DecodeVerify()(table)``)."""

    def __init__(self, *, min_psnr: float = 40.0, check_phash: bool = True):
        self.min_psnr = min_psnr
        self.check_phash = check_phash

    def __call__(self, batch: pa.Table) -> pa.Table:
        return verify_batch(batch, min_psnr=self.min_psnr,
                            check_phash=self.check_phash)


def decode_verify(ds, *, batch_size: int = 256, min_psnr: float = 40.0,
                  check_phash: bool = True):
    """Run :func:`verify_batch` over the dataset as stateless tasks."""
    return ds.map_batches(
        verify_batch, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size,
        fn_kwargs={"min_psnr": min_psnr, "check_phash": check_phash})
