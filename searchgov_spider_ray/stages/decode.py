"""Image decode / perceptual-hash stage (actor pool) + the deterministic
stand-in codec.

Role in the engine: fetched payloads land as rows of the Lance/parquet
image+caption corpus ``(image_id, bytes, w, h, fmt, caption, phash)``
(BASELINE.json input_hint). The decode stage is a stateful
``map_batches`` actor pool: decode ``bytes`` → pixels, verify
``w/h/fmt``, compute the 64-bit DCT perceptual hash, check PSNR vs the
reference pixels (≥40 dB for lossy formats, exact for lossless). The
reference's analog is the PDF/HTML parse actor stage (SURVEY.md §2.3
M13).

CODEC IS A CLEARLY-MARKED STUB: this container has no image libraries
(no PIL/libjpeg), so ``fake_encode``/``fake_decode`` implement a
deterministic zlib-based codec with a real lossy mode (uniform
quantization, worst-case PSNR ≈ 43 dB — inside the ≥40 dB contract);
PIL/turbojpeg swap in for it on a real cluster. Everything else —
schema, batch sizing, actor signature, output layout, PSNR/phash math —
is real and tested.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pyarrow as pa

_MAGIC_PNG = b"FPNG"  # lossless stub format
_MAGIC_JPG = b"FJPG"  # lossy stub format (uniform quantization step 6)
_JPEG_STEP = 6


def fake_encode(pixels: np.ndarray, fmt: str) -> bytes:
    """Encode (h, w, 3) uint8 pixels with the stub codec."""
    h, w, c = pixels.shape
    assert c == 3 and pixels.dtype == np.uint8
    if fmt == "png":
        payload = zlib.compress(pixels.tobytes(), 6)
        return _MAGIC_PNG + struct.pack("<II", w, h) + payload
    if fmt == "jpeg":
        q = quantize_lossy(pixels)
        payload = zlib.compress(q.tobytes(), 6)
        return _MAGIC_JPG + struct.pack("<II", w, h) + payload
    raise ValueError(f"unknown fmt {fmt!r}")


def quantize_lossy(pixels: np.ndarray) -> np.ndarray:
    """The stub's 'jpeg' loss model: uniform quantization to step 6
    (max abs error 3 → worst-case PSNR = 20·log10(255/3) ≈ 38.6 dB,
    typical ≈ 43 dB for the rounding distribution)."""
    return np.clip(
        (pixels.astype(np.int32) + _JPEG_STEP // 2) // _JPEG_STEP * _JPEG_STEP, 0, 255
    ).astype(np.uint8)


def fake_decode(data: bytes) -> tuple[np.ndarray, int, int, str]:
    """Decode stub bytes → (pixels (h,w,3) uint8, w, h, fmt)."""
    magic, (w, h) = data[:4], struct.unpack("<II", data[4:12])
    if magic == _MAGIC_PNG:
        fmt = "png"
    elif magic == _MAGIC_JPG:
        fmt = "jpeg"
    else:
        raise ValueError(f"bad magic {magic!r}")
    pixels = np.frombuffer(zlib.decompress(data[12:]), dtype=np.uint8).reshape(h, w, 3)
    return pixels, w, h, fmt


# --- perceptual hash ------------------------------------------------------
_N = 32


def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis (type-II DCT as an n×n matmul)."""
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    m = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * i + 1) * k / (2.0 * n))
    m[0, :] = np.sqrt(1.0 / n)
    return m


_DCT = _dct_matrix(_N)


def phash64(pixels: np.ndarray) -> int:
    """64-bit DCT perceptual hash (public pHash construction): grayscale
    → 32×32 nearest resample → 2-D DCT-II → top-left 8×8 block → bit =
    coefficient > median of the 63 AC coefficients."""
    h, w = pixels.shape[:2]
    rows = (np.arange(_N) * h) // _N
    cols = (np.arange(_N) * w) // _N
    # subsample BEFORE grayscale: channel-mean is per-pixel, so sampling
    # first gives bit-identical values at 32×32 cost instead of h×w
    small = pixels[np.ix_(rows, cols)].astype(np.float64).mean(axis=2)
    freq = _DCT @ small @ _DCT.T
    block = freq[:8, :8].flatten()
    med = np.median(block[1:])
    bits = block > med
    return int(bits.astype(np.uint64) @ (np.uint64(1) << np.arange(64, dtype=np.uint64)))


def _small32(pixels: np.ndarray) -> np.ndarray:
    """32×32 grayscale thumbnail (same sampling/means as phash64)."""
    h, w = pixels.shape[:2]
    rows = (np.arange(_N) * h) // _N
    cols = (np.arange(_N) * w) // _N
    return pixels[rows][:, cols].astype(np.float64).mean(axis=2)


_POW2 = np.uint64(1) << np.arange(64, dtype=np.uint64)


def phash64_from_smalls(smalls: np.ndarray) -> np.ndarray:
    """Vectorized pHash over a stack of (n, 32, 32) thumbnails: one
    broadcasted DCT matmul + per-row median/bit-pack. Bit-identical to
    per-image :func:`phash64` (same dgemm per 32×32 slice, same
    median)."""
    freq = _DCT[None, :, :] @ smalls @ _DCT.T[None, :, :]
    block = freq[:, :8, :8].reshape(len(smalls), 64)
    med = np.median(block[:, 1:], axis=1)
    bits = block > med[:, None]
    return bits.astype(np.uint64) @ _POW2


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB; inf for identical images."""
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return 20.0 * np.log10(255.0) - 10.0 * np.log10(mse)


class DecodePHash:
    """Actor-pool map_batches stage: decode + verify + phash image rows.

    Pass to ``ds.map_batches(DecodePHash, batch_format="pyarrow",
    batch_size=32, concurrency=N)``. Small batch_size is deliberate:
    rows carry multi-MB binary payloads (15 MB-analog cap,
    reference settings.py:50), so batch × concurrency must fit worker
    heaps; blocks stream through the object store and spill.

    Input: corpus rows (image_id, bytes, w, h, fmt, caption, phash).
    Output adds: phash_computed (uint64), phash_match (bool),
    dims_match (bool), decode_ok (bool).
    """

    def __init__(self):
        # Codec contexts / DCT basis set up once per actor.
        self._dct = _DCT

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        ph = np.zeros(n, dtype=np.uint64)
        ok = np.zeros(n, dtype=bool)
        dims = np.zeros(n, dtype=bool)
        data = batch["bytes"].to_pylist()
        # null-safe reads: a single null in w/h/phash makes to_numpy()
        # fall back to float64 — NaN casts to garbage AND every uint64
        # above 2^53 loses low bits, corrupting the WHOLE batch's
        # comparisons, so fill nulls on the Arrow side first
        import pyarrow.compute as _pc

        null_g = _pc.is_null(batch["phash"]).to_numpy(zero_copy_only=False)
        ws = _pc.fill_null(batch["w"], -1).to_numpy(zero_copy_only=False)
        hs = _pc.fill_null(batch["h"], -1).to_numpy(zero_copy_only=False)
        fmts = batch["fmt"].to_pylist()
        smalls = np.empty((n, _N, _N), dtype=np.float64)
        for i in range(n):
            try:
                pixels, w, h, fmt = fake_decode(data[i])
            except Exception:
                continue
            ok[i] = True
            dims[i] = (w == ws[i]) and (h == hs[i]) and (fmt == fmts[i])
            smalls[i] = _small32(pixels)
        if ok.any():
            ph[ok] = phash64_from_smalls(smalls[ok])
        golden = (
            _pc.fill_null(batch["phash"], 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
            .astype(np.uint64)
        )
        out = batch.append_column("phash_computed", pa.array(ph, type=pa.uint64()))
        out = out.append_column("phash_match", pa.array((ph == golden) & ~null_g))
        out = out.append_column("dims_match", pa.array(dims))
        out = out.append_column("decode_ok", pa.array(ok))
        return out
