"""Hand-rolled image codecs + perceptual hashing (no PIL in sandbox).

Formats (FIXTURES.md F-IMG):
- ``ppm``  — lossless binary P6 (header + raw RGB), ~20 LoC each way.
- ``qraw`` — synthetic lossy: channels quantized to 6 bits, bit-replicated
  on decode -> PSNR ~46 dB, exercising the >=40 dB allclose invariant
  from BASELINE.json ``input_hint``.

Real decoders for other formats (jpeg/png/webp) are NOT available in this
container; :func:`decode` raises ``NotImplementedError`` for them behind a
clearly-marked stub so the Ray-side plumbing (schema, stage signature,
batch sizing) stays real and tested.

``average_hash`` is a deterministic DCT-free 64-bit perceptual hash
(8x8 box-mean, threshold at the mean), the ``phash`` column generator.
"""

from __future__ import annotations

import numpy as np

PPM_MAGIC = b"P6"
QRAW_MAGIC = b"QRAW"


def encode_ppm(img: np.ndarray) -> bytes:
    h, w, _ = img.shape
    return b"P6\n%d %d\n255\n" % (w, h) + img.astype(np.uint8).tobytes()


def _as_view(data) -> np.ndarray:
    """bytes / memoryview / ndarray -> zero-copy uint8 view."""
    if isinstance(data, np.ndarray):
        return data
    return np.frombuffer(data, dtype=np.uint8)


def decode_ppm(data) -> np.ndarray:
    """Accepts bytes or a zero-copy uint8 view (Arrow buffer slice)."""
    view = _as_view(data)
    header = bytes(view[:64])
    if not header.startswith(PPM_MAGIC):
        raise ValueError("not a P6 ppm payload")
    # header: P6\n<w> <h>\n255\n
    nl1 = header.index(b"\n")
    nl2 = header.index(b"\n", nl1 + 1)
    nl3 = header.index(b"\n", nl2 + 1)
    w, h = (int(x) for x in header[nl1 + 1:nl2].split())
    body = view[nl3 + 1:]
    expected = w * h * 3
    if len(body) < expected:
        raise ValueError(f"truncated ppm body: {len(body)} < {expected}")
    return body[:expected].reshape(h, w, 3)


def encode_qraw(img: np.ndarray) -> bytes:
    h, w, _ = img.shape
    q = (img.astype(np.uint8) >> 2).astype(np.uint8)  # 6-bit quantization
    return QRAW_MAGIC + np.array([w, h], dtype="<u4").tobytes() + q.tobytes()


def decode_qraw(data) -> np.ndarray:
    """Accepts bytes or a zero-copy uint8 view (Arrow buffer slice)."""
    view = _as_view(data)
    if bytes(view[:4]) != QRAW_MAGIC:
        raise ValueError("not a qraw payload")
    w, h = np.frombuffer(bytes(view[4:12]), dtype="<u4")
    body = view[12:]
    expected = int(w) * int(h) * 3
    if len(body) < expected:
        raise ValueError(f"truncated qraw body: {len(body)} < {expected}")
    q = body[:expected].reshape(int(h), int(w), 3)
    # bit-replicate 6 -> 8 bits (max error 2 -> PSNR ~46 dB)
    return ((q.astype(np.uint16) << 2) | (q >> 4)).astype(np.uint8)


def decode(data: bytes, fmt: str) -> np.ndarray:
    if fmt == "ppm":
        return decode_ppm(data)
    if fmt == "qraw":
        return decode_qraw(data)
    # STUB: real-world formats need external codec libraries not present
    # in this container; the decode stage contract is identical.
    raise NotImplementedError(f"no codec for fmt={fmt!r} in this sandbox")


def sniff_format(data) -> str | None:
    head = bytes(_as_view(data)[:4])
    if head.startswith(PPM_MAGIC):
        return "ppm"
    if head.startswith(QRAW_MAGIC):
        return "qraw"
    return None


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        return 0.0
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return float(10.0 * np.log10(255.0 ** 2 / mse))


def _box_mean_8x8(gray: np.ndarray) -> np.ndarray:
    """8x8 box means over an (h, w) array (any integer/float dtype),
    arbitrary h/w >= 8."""
    h, w = gray.shape
    ys = (np.arange(9) * h) // 8
    xs = (np.arange(9) * w) // 8
    integral = np.zeros((h + 1, w + 1), dtype=np.float64)
    np.cumsum(np.cumsum(gray, axis=0), axis=1, out=integral[1:, 1:])
    out = np.empty((8, 8))
    for i in range(8):
        for j in range(8):
            area = (ys[i + 1] - ys[i]) * (xs[j + 1] - xs[j])
            out[i, j] = (integral[ys[i + 1], xs[j + 1]]
                         - integral[ys[i], xs[j + 1]]
                         - integral[ys[i + 1], xs[j]]
                         + integral[ys[i], xs[j]]) / max(1, area)
    return out


def average_hash(img: np.ndarray) -> int:
    """64-bit average-hash of decoded pixels (signed int64 for Arrow).

    Grayscale is the integer CHANNEL SUM (uint16), not a float mean —
    the hash thresholds cells against their own mean, so the constant
    factor of 3 cancels, and integer sums keep the hot decode stage's
    memory traffic at 2 bytes/pixel instead of 8 (cell sums stay well
    under 2^53, so the float64 cell means are integer-exact and the
    bits are deterministic).  Fast path: h, w divisible by 8 -> pure
    reshape/mean; general sizes use the integral-image box mean."""
    gray = img.sum(axis=2, dtype=np.uint16)
    h, w = gray.shape
    if h % 8 == 0 and w % 8 == 0:
        cells = gray.reshape(8, h // 8, 8, w // 8).mean(axis=(1, 3))
    else:
        cells = _box_mean_8x8(gray)
    bits = (cells > cells.mean()).ravel()
    packed = np.packbits(bits.astype(np.uint8))
    return int(packed.view(">u8")[0].astype(np.int64))


def hamming64(a: np.ndarray | int, b: np.ndarray | int) -> np.ndarray:
    """Vectorized Hamming distance between int64 hash values/arrays."""
    from ..sketches import popcount64
    ua = np.asarray(a, dtype=np.int64).view(np.uint64)
    ub = np.asarray(b, dtype=np.int64).view(np.uint64)
    return popcount64(np.bitwise_xor(ua, ub))


def synth_image(image_id: str, w: int, h: int, seed: int = 42) -> np.ndarray:
    """Deterministic RGB content keyed by (seed, image_id): a per-image
    random 8x8 coarse pattern upsampled to (h, w) plus fine noise — a
    pure function, byte-identical across processes.  The coarse pattern
    makes ``average_hash`` bits i.i.d. per image (unrelated images land
    ~32 bits apart), so near-dup buckets reflect real content identity,
    not a shared background.  Requires w, h divisible by 8."""
    from ..sketches import hash64
    key = int(hash64([image_id], seed=seed)[0])
    rng = np.random.default_rng(key)
    coarse = rng.integers(0, 256, size=(8, 8, 3))
    img = np.repeat(np.repeat(coarse, h // 8, axis=0), w // 8, axis=1)
    noise = rng.integers(-8, 9, size=(h, w, 3))
    return np.clip(img + noise, 0, 255).astype(np.uint8)
