"""Image column stages: resize and feature-extract.

Large-scale training-data pipelines treat images as opaque ``binary``
columns with typed metadata; each transform is an actor-pool
``map_batches`` stage (codec/DCT state built once per actor, work per
batch, small ``batch_size`` because rows carry multi-MB payloads). The
reference has no media pipeline — its closest analog is the PDF parse
actor (convert_pdf_i14y.py:77-140); these stages follow the same shape
as :mod:`.decode` (SURVEY.md §2.5 image row).

THE CODEC IS A CLEARLY-MARKED STUB: the container has no PIL, so images
use the deterministic zlib stub codec from :mod:`.decode`. The Ray-side
plumbing — schemas, batch sizing, actor signatures, output layouts,
resampling/feature math — is real and tested (tests/test_multimodal.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .decode import _small32, fake_decode, fake_encode, phash64_from_smalls


def resize_nearest(pixels: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Nearest-neighbor resample of (h, w, 3) uint8 pixels — same
    index arithmetic as the pHash thumbnail, so resize(32, 32) of an
    image hashes identically to the original's pHash."""
    h, w = pixels.shape[:2]
    rows = (np.arange(out_h) * h) // out_h
    cols = (np.arange(out_w) * w) // out_w
    return pixels[rows][:, cols]


class ImageResize:
    """Actor-pool map_batches stage: re-encode every image at most
    ``max_side`` px on its long edge (aspect preserved, never
    upscaled). Input/output: corpus image rows — ``bytes/w/h`` are
    replaced, other columns pass through.

    Use ``ds.map_batches(ImageResize, fn_constructor_kwargs=
    {"max_side": 64}, batch_format="pyarrow", batch_size=64,
    concurrency=N)``.
    """

    def __init__(self, max_side: int = 64):
        self.max_side = max_side

    def __call__(self, batch: pa.Table) -> pa.Table:
        data = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        out_b: list[bytes] = []
        out_w = np.empty(len(data), dtype=np.int32)
        out_h = np.empty(len(data), dtype=np.int32)
        ok = np.zeros(len(data), dtype=bool)
        for i, (b, fmt) in enumerate(zip(data, fmts)):
            try:
                pixels, w, h, _ = fake_decode(b)
                side = max(w, h)
                if side <= self.max_side:
                    # already small: pass ORIGINAL bytes through — a
                    # decode+re-encode round-trip per untouched row is
                    # pure waste on the hot path
                    out_b.append(b)
                else:
                    nw = max(1, (w * self.max_side) // side)
                    nh = max(1, (h * self.max_side) // side)
                    pixels = resize_nearest(pixels, nw, nh)
                    w, h = nw, nh
                    out_b.append(fake_encode(np.ascontiguousarray(pixels), fmt))
                out_w[i], out_h[i] = w, h
                ok[i] = True
            except Exception:  # corrupt payload: keep the row, flag it
                out_b.append(b if isinstance(b, bytes) else b"")
                out_w[i], out_h[i] = -1, -1
        cols = {name: batch[name] for name in batch.column_names}
        # a pass-through phash would be STALE for resized rows — drop it
        # (recompute downstream with DecodePHash if needed)
        cols.pop("phash", None)
        cols["bytes"] = pa.array(out_b, type=pa.large_binary())
        cols["w"] = pa.array(out_w)
        cols["h"] = pa.array(out_h)
        cols["resize_ok"] = pa.array(ok)
        return pa.table(cols)


class ImageFeatures:
    """Actor-pool map_batches stage: decode → fixed-length feature
    vector per image (channel means/stds + 16-bin luma histogram +
    pHash bits' population count = 23 floats). Output adds
    ``features: list<float>``."""

    DIM = 23

    def __call__(self, batch: pa.Table) -> pa.Table:
        data = batch["bytes"].to_pylist()
        feats = np.zeros((len(data), self.DIM), dtype=np.float32)
        smalls = np.empty((len(data), 32, 32), dtype=np.float64)
        ok = np.zeros(len(data), dtype=bool)
        for i, b in enumerate(data):
            try:
                pixels, _, _, _ = fake_decode(b)
            except Exception:
                continue
            ok[i] = True
            px = pixels.astype(np.float32)
            feats[i, 0:3] = px.mean(axis=(0, 1)) / 255.0
            feats[i, 3:6] = px.std(axis=(0, 1)) / 255.0
            luma = px.mean(axis=2)
            hist, _ = np.histogram(luma, bins=16, range=(0.0, 256.0))
            feats[i, 6:22] = hist / max(1, luma.size)
            smalls[i] = _small32(pixels)
        if ok.any():
            ph = phash64_from_smalls(smalls[ok])
            pop = np.array([bin(int(x)).count("1") for x in ph], dtype=np.float32)
            feats[ok, 22] = pop / 64.0
        return batch.append_column(
            "features", pa.array(list(feats), type=pa.list_(pa.float32()))
        ).append_column("decode_ok", pa.array(ok))


__all__ = [
    "ImageResize",
    "ImageFeatures",
    "resize_nearest",
]
