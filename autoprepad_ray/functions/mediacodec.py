"""Hand-rolled audio/video codecs for the multimodal stages (no
libsndfile/ffmpeg in this sandbox).

Same design as :mod:`imagecodec`: media payloads are opaque ``binary``
columns with typed metadata; two deterministic numpy-only formats make
the Ray-side plumbing (schema, stage signature, batch sizing, zero-copy
buffer views) real and testable, while real-world codecs (wav/mp3/flac,
mp4/webm) raise a clearly-marked ``NotImplementedError`` stub.

Formats:
- ``wavr`` — raw PCM: ``WAVR`` magic + ``<u4 sample_rate`` +
  ``<u2 channels`` + ``<u4 n_samples`` + interleaved ``<i2`` samples.
- ``vraw`` — raw video: ``VRAW`` magic + ``<u4 w, h, n_frames,
  fps_milli`` + concatenated raw RGB uint8 frames.  Frame k lives at a
  COMPUTABLE offset (``header + k*w*h*3``), so frame sampling slices the
  payload without decoding — or even touching — the other frames.

Reference parity note: the reference engine has no media path at all
(AutoPrepAD is tabular, `pipelines/control.py`); these stages are the
beyond-reference multimodal surface the north rule asks for, reusing the
image pipeline's phash/Hamming machinery for sampled video frames.
"""

from __future__ import annotations

import numpy as np

from .imagecodec import _as_view

WAVR_MAGIC = b"WAVR"
VRAW_MAGIC = b"VRAW"
WAVR_HEADER = 4 + 4 + 2 + 4
VRAW_HEADER = 4 + 4 * 4


# ---------------------------------------------------------------------------
# audio: wavr


def encode_wavr(pcm: np.ndarray, sample_rate: int) -> bytes:
    """``pcm`` is int16, shape (n_samples,) mono or (n_samples, ch)."""
    if pcm.ndim == 1:
        pcm = pcm[:, None]
    n, ch = pcm.shape
    return (WAVR_MAGIC
            + np.array([sample_rate], dtype="<u4").tobytes()
            + np.array([ch], dtype="<u2").tobytes()
            + np.array([n], dtype="<u4").tobytes()
            + np.ascontiguousarray(pcm.astype("<i2")).tobytes())


def decode_wavr(data) -> tuple[np.ndarray, int]:
    """bytes / zero-copy uint8 view -> (int16 (n, ch) array, sample_rate)."""
    view = _as_view(data)
    if bytes(view[:4]) != WAVR_MAGIC:
        raise ValueError("not a wavr payload")
    sr = int(np.frombuffer(bytes(view[4:8]), dtype="<u4")[0])
    ch = int(np.frombuffer(bytes(view[8:10]), dtype="<u2")[0])
    n = int(np.frombuffer(bytes(view[10:14]), dtype="<u4")[0])
    if ch < 1 or sr < 1:
        raise ValueError(f"bad wavr header: sr={sr} ch={ch}")
    body = view[WAVR_HEADER:]
    expected = n * ch * 2
    if len(body) < expected:
        raise ValueError(f"truncated wavr body: {len(body)} < {expected}")
    pcm = np.frombuffer(bytes(body[:expected]), dtype="<i2").reshape(n, ch)
    return pcm, sr


# ---------------------------------------------------------------------------
# video: vraw


def encode_vraw(frames: np.ndarray, fps: float) -> bytes:
    """``frames`` is uint8, shape (n_frames, h, w, 3)."""
    nf, h, w, _ = frames.shape
    return (VRAW_MAGIC
            + np.array([w, h, nf, round(fps * 1000)],
                       dtype="<u4").tobytes()
            + np.ascontiguousarray(frames.astype(np.uint8)).tobytes())


def vraw_header(data) -> tuple[int, int, int, float]:
    """Parse ONLY the 20-byte header -> (w, h, n_frames, fps).

    The metadata pass uses this so it never reads frame bytes."""
    view = _as_view(data)
    if bytes(view[:4]) != VRAW_MAGIC:
        raise ValueError("not a vraw payload")
    w, h, nf, fps_milli = np.frombuffer(bytes(view[4:VRAW_HEADER]),
                                        dtype="<u4")
    return int(w), int(h), int(nf), fps_milli / 1000.0


def decode_vraw_frame(data, k: int) -> np.ndarray:
    """Slice frame ``k`` straight out of the payload view — O(frame),
    not O(video); other frames are never materialized."""
    view = _as_view(data)
    w, h, nf, _ = vraw_header(view)
    if not 0 <= k < nf:
        raise ValueError(f"frame {k} out of range [0, {nf})")
    fbytes = w * h * 3
    start = VRAW_HEADER + k * fbytes
    body = view[start:start + fbytes]
    if len(body) < fbytes:
        raise ValueError(f"truncated vraw frame {k}")
    return body.reshape(h, w, 3)


def decode_vraw(data) -> tuple[np.ndarray, float]:
    view = _as_view(data)
    w, h, nf, fps = vraw_header(view)
    fbytes = w * h * 3
    body = view[VRAW_HEADER:VRAW_HEADER + nf * fbytes]
    if len(body) < nf * fbytes:
        raise ValueError("truncated vraw body")
    return body.reshape(nf, h, w, 3), fps


# ---------------------------------------------------------------------------
# dispatch + stubs


def decode_audio(data, fmt: str) -> tuple[np.ndarray, int]:
    if fmt == "wavr":
        return decode_wavr(data)
    # STUB: real audio codecs (wav/mp3/flac/ogg) need libsndfile/ffmpeg,
    # absent in this container; the decode stage contract is
    # identical — swap the dispatch entry when the codec lib exists.
    raise NotImplementedError(f"no audio codec for fmt={fmt!r} in sandbox")


def sniff_media(data) -> str | None:
    head = bytes(_as_view(data)[:4])
    if head == WAVR_MAGIC:
        return "wavr"
    if head == VRAW_MAGIC:
        return "vraw"
    return None


# ---------------------------------------------------------------------------
# deterministic synthesis (fixtures)


def synth_audio(audio_id: str, n_samples: int, sample_rate: int = 16_000,
                seed: int = 42, channels: int = 1) -> np.ndarray:
    """Deterministic int16 PCM keyed by (seed, audio_id): a mix of two
    id-keyed sinusoids plus uniform noise — a pure function,
    byte-identical across processes."""
    from ..sketches import hash64
    key = int(hash64([audio_id], seed=seed)[0])
    rng = np.random.default_rng(key)
    t = np.arange(n_samples) / sample_rate
    f1, f2 = rng.uniform(80, 2000, size=2)
    amp = rng.uniform(0.1, 0.7)
    wave = amp * (np.sin(2 * np.pi * f1 * t) + 0.5 * np.sin(2 * np.pi * f2 * t))
    wave = wave + rng.uniform(-0.02, 0.02, size=n_samples)
    pcm = np.clip(wave * 32767 / 1.6, -32768, 32767).astype(np.int16)
    if channels > 1:
        pcm = np.repeat(pcm[:, None], channels, axis=1)
    return pcm


def synth_video(content_key: str, w: int = 32, h: int = 32,
                n_frames: int = 8, seed: int = 42) -> np.ndarray:
    """Deterministic (n_frames, h, w, 3) uint8 frames; frame k's content
    is keyed by (seed, content_key, k) via :func:`imagecodec.synth_image`
    so two videos sharing a ``content_key`` have IDENTICAL frames (the
    planted near-dup device — their sampled-frame phashes collide)."""
    from .imagecodec import synth_image
    return np.stack([synth_image(f"{content_key}#f{k}", w, h, seed=seed)
                     for k in range(n_frames)])
