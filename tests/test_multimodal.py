"""Image column stage tests: resize and feature extraction — kernel
math unit-tested directly on Arrow batches."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from searchgov_spider_ray.stages.decode import fake_decode, fake_encode, phash64
from searchgov_spider_ray.stages.multimodal import ImageFeatures, ImageResize, resize_nearest


def _img(w, h, seed=0):
    return np.random.RandomState(seed).randint(0, 256, (h, w, 3), dtype=np.uint8)


def _image_batch(n=6, seed=1):
    rng = np.random.RandomState(seed)
    rows = {"image_id": [], "bytes": [], "w": [], "h": [], "fmt": [], "caption": [], "phash": []}
    for i in range(n):
        w, h = int(rng.randint(40, 160)), int(rng.randint(40, 160))
        fmt = "png" if i % 2 == 0 else "jpeg"
        px = _img(w, h, seed=i)
        b = fake_encode(px, fmt)
        rows["image_id"].append(f"img{i}")
        rows["bytes"].append(b)
        rows["w"].append(w)
        rows["h"].append(h)
        rows["fmt"].append(fmt)
        rows["caption"].append(f"caption {i}")
        rows["phash"].append(phash64(fake_decode(b)[0]))
    return pa.table(
        {
            "image_id": pa.array(rows["image_id"]),
            "bytes": pa.array(rows["bytes"], type=pa.large_binary()),
            "w": pa.array(rows["w"], type=pa.int32()),
            "h": pa.array(rows["h"], type=pa.int32()),
            "fmt": pa.array(rows["fmt"]),
            "caption": pa.array(rows["caption"]),
            "phash": pa.array(rows["phash"], type=pa.uint64()),
        }
    )


class TestResize:
    def test_nearest_math(self):
        px = _img(100, 60)
        out = resize_nearest(px, 50, 30)
        assert out.shape == (30, 50, 3)
        # nearest: every output pixel is an input pixel at the mapped index
        assert out[0, 0].tolist() == px[0, 0].tolist()
        assert out[29, 49].tolist() == px[(29 * 60) // 30, (49 * 100) // 50].tolist()

    def test_resize_stage_caps_long_edge(self):
        batch = _image_batch()
        out = ImageResize(max_side=48)(batch)
        ws = out["w"].to_numpy()
        hs = out["h"].to_numpy()
        assert (np.maximum(ws, hs) <= 48).all()
        # aspect preserved within integer truncation; payload re-decodes
        for b, w, h in zip(out["bytes"].to_pylist(), ws, hs):
            px, dw, dh, _ = fake_decode(b)
            assert (dw, dh) == (w, h) and px.shape == (h, w, 3)

    def test_no_upscale(self):
        batch = _image_batch(n=2)
        out = ImageResize(max_side=4096)(batch)
        assert out["bytes"].to_pylist() == batch["bytes"].to_pylist()

    def test_resize32_matches_phash_thumbnail(self):
        # the documented invariant: 32×32 resize uses the same sampling
        # grid as the pHash thumbnail
        px = _img(120, 80)
        small = resize_nearest(px, 32, 32)
        assert phash64(small) == phash64(px)


class TestImageFeatures:
    def test_feature_layout(self):
        out = ImageFeatures()(_image_batch())
        feats = out["features"].to_pylist()
        assert all(len(f) == ImageFeatures.DIM for f in feats)
        assert all(out["decode_ok"].to_pylist())
        f = np.array(feats[0])
        assert 0.0 <= f[0] <= 1.0  # mean R normalized
        assert abs(f[6:22].sum() - 1.0) < 1e-5  # histogram sums to 1

    def test_bad_bytes_flagged(self):
        batch = _image_batch(n=2)
        bad = batch.set_column(1, "bytes", pa.array([b"junk", b""], type=pa.large_binary()))
        out = ImageFeatures()(bad)
        assert out["decode_ok"].to_pylist() == [False, False]
