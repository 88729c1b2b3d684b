"""Deterministic hashing primitives.

The engine keys everything on 64-bit hashes of canonical URL forms:
dedup-shard routing, the URL-seen membership set, and checkpoint audit
tables (reference analog: scrapy-redis SHA1 request fingerprints,
/root/reference/search_gov_crawler/search_gov_spiders/job_state/dupefilter.py:8-25).

We use **xxHash64** (public spec, https://github.com/Cyan4973/xxHash)
as the canonical key hash. The ``xxhash`` C extension is not available
in this environment, so a spec-correct pure-Python implementation is
provided; ``xxhash64`` transparently uses the C library when importable
(the multi-node deployment path). Determinism is part of the contract:
checkpointed URL-seen sets must hash identically across resume runs and
across nodes.

Doc ids are sha256 hex of the canonical URL (reference:
elasticsearch/i14y_helper.py:170-173); job/spider ids are shake_256
5-byte digests (helpers/domain_spider.py:170-180).
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pyarrow as pa

_MASK = 0xFFFFFFFFFFFFFFFF
_P1 = 11400714785074694791
_P2 = 14029467366897019727
_P3 = 1609587929392839161
_P4 = 9650029242287828579
_P5 = 2870177450012600261

_u64 = struct.Struct("<Q").unpack_from
_u32 = struct.Struct("<I").unpack_from

try:  # pragma: no cover - exercised only where the C lib exists
    import xxhash as _xxhash_c

    _HAS_XXHASH_C = True

    def xxhash64(data: bytes | str, seed: int = 0) -> int:
        if isinstance(data, str):
            data = data.encode("utf-8")
        return _xxhash_c.xxh64_intdigest(data, seed)

except ImportError:
    _HAS_XXHASH_C = False

    def xxhash64(data: bytes | str, seed: int = 0) -> int:
        """xxHash64 of ``data`` (spec-correct pure-Python fallback)."""
        if isinstance(data, str):
            data = data.encode("utf-8")
        n = len(data)
        i = 0
        if n >= 32:
            v1 = (seed + _P1 + _P2) & _MASK
            v2 = (seed + _P2) & _MASK
            v3 = seed & _MASK
            v4 = (seed - _P1) & _MASK
            end = n - 32
            while i <= end:
                v1 = (v1 + _u64(data, i)[0] * _P2) & _MASK
                v1 = ((v1 << 31 | v1 >> 33) & _MASK) * _P1 & _MASK
                v2 = (v2 + _u64(data, i + 8)[0] * _P2) & _MASK
                v2 = ((v2 << 31 | v2 >> 33) & _MASK) * _P1 & _MASK
                v3 = (v3 + _u64(data, i + 16)[0] * _P2) & _MASK
                v3 = ((v3 << 31 | v3 >> 33) & _MASK) * _P1 & _MASK
                v4 = (v4 + _u64(data, i + 24)[0] * _P2) & _MASK
                v4 = ((v4 << 31 | v4 >> 33) & _MASK) * _P1 & _MASK
                i += 32
            h = (
                ((v1 << 1 | v1 >> 63) & _MASK)
                + ((v2 << 7 | v2 >> 57) & _MASK)
                + ((v3 << 12 | v3 >> 52) & _MASK)
                + ((v4 << 18 | v4 >> 46) & _MASK)
            ) & _MASK
            for v in (v1, v2, v3, v4):
                v = (v * _P2) & _MASK
                v = ((v << 31 | v >> 33) & _MASK) * _P1 & _MASK
                h = ((h ^ v) * _P1 + _P4) & _MASK
        else:
            h = (seed + _P5) & _MASK
        h = (h + n) & _MASK
        while i + 8 <= n:
            k = (_u64(data, i)[0] * _P2) & _MASK
            k = ((k << 31 | k >> 33) & _MASK) * _P1 & _MASK
            h ^= k
            h = (((h << 27 | h >> 37) & _MASK) * _P1 + _P4) & _MASK
            i += 8
        if i + 4 <= n:
            h ^= (_u32(data, i)[0] * _P1) & _MASK
            h = (((h << 23 | h >> 41) & _MASK) * _P2 + _P3) & _MASK
            i += 4
        while i < n:
            h ^= (data[i] * _P5) & _MASK
            h = ((h << 11 | h >> 53) & _MASK) * _P1 & _MASK
            i += 1
        h ^= h >> 33
        h = (h * _P2) & _MASK
        h ^= h >> 29
        h = (h * _P3) & _MASK
        h ^= h >> 32
        return h


# numpy-wrapped xxHash64 constants (np.uint64 throughout — mixing Python
# ints with np.uint64 silently upcasts to float64)
_NP_P1, _NP_P2, _NP_P3, _NP_P4, _NP_P5 = (np.uint64(p) for p in (_P1, _P2, _P3, _P4, _P5))
# per-lane rotations of the four accumulators' merge
_LANE_ROT = np.array([1, 7, 12, 18], dtype=np.uint64)


def _rot(v: np.ndarray, r) -> np.ndarray:
    r = np.uint64(r)  # a shift count, or an array of them
    return (v << r) | (v >> (np.uint64(64) - r))


def _xxhash64_block(buf: np.ndarray, lens: np.ndarray, seed: int) -> np.ndarray:
    """Lockstep xxHash64 over a padded uint8 matrix whose rows are sorted
    by length DESCENDING (so each stripe round operates on a contiguous
    prefix, no masking). Rows are padded to a multiple of 8 bytes, so
    every stripe and tail word is an aligned little-endian word of the
    row. Bit-exact vs the scalar spec implementation."""
    n_rows = len(lens)
    seed &= _MASK
    words = buf.view("<u8")
    nstripes = lens // 32
    h = np.full(n_rows, np.uint64((seed + _P5) & _MASK), dtype=np.uint64)
    n_long = int(np.searchsorted(-nstripes, -1, side="right"))
    if n_long:
        init = [(seed + _P1 + _P2) & _MASK, (seed + _P2) & _MASK, seed, (seed - _P1) & _MASK]
        v = np.tile(np.array(init, dtype=np.uint64), (n_long, 1))  # lanes v1..v4
        for s in range(int(nstripes[0])):
            k = int(np.searchsorted(-nstripes, -(s + 1), side="right"))
            v[:k] = _rot(v[:k] + words[:k, 4 * s : 4 * s + 4] * _NP_P2, 31) * _NP_P1
        hl = _rot(v, _LANE_ROT).sum(axis=1, dtype=np.uint64)
        m = _rot(v * _NP_P2, 31) * _NP_P1
        for lane in range(4):
            hl = (hl ^ m[:, lane]) * _NP_P1 + _NP_P4
        h[:n_long] = hl
    h += lens.astype(np.uint64)
    tail = nstripes * 4  # word index where each row's tail starts
    r = lens - nstripes * 32  # 0..31 remaining bytes
    for c in range(3):  # full 8-byte tail words
        rows = np.flatnonzero(r >= 8 * (c + 1))
        if not len(rows):
            break
        k = _rot(words[rows, tail[rows] + c] * _NP_P2, 31) * _NP_P1
        h[rows] = _rot(h[rows] ^ k, 27) * _NP_P1 + _NP_P4
    off4 = (tail + r // 8) * 8  # byte offset of the 4-byte word, if any
    rows = np.flatnonzero(r % 8 >= 4)
    if len(rows):
        k = buf.view("<u4")[rows, off4[rows] // 4].astype(np.uint64)
        h[rows] = _rot(h[rows] ^ (k * _NP_P1), 23) * _NP_P2 + _NP_P3
    off1 = off4 + np.where(r % 8 >= 4, 4, 0)
    for t in range(3):  # trailing single bytes
        rows = np.flatnonzero(r % 4 > t)
        if not len(rows):
            break
        b = buf[rows, off1[rows] + t].astype(np.uint64)
        h[rows] = _rot(h[rows] ^ (b * _NP_P5), 11) * _NP_P1
    h ^= h >> np.uint64(33)
    h *= _NP_P2
    h ^= h >> np.uint64(29)
    h *= _NP_P3
    h ^= h >> np.uint64(32)
    return h


# cap on (rows × padded_len) per lockstep block: bounds padding waste and
# peak memory when one huge row shares a batch with thousands of short ones
_BLOCK_BYTES = 64 << 20


def _binary_array(values) -> pa.Array:
    """``values`` (an Arrow string/binary array, chunked or not, or any
    sequence of str/bytes/None) as one Arrow array whose offsets and
    data buffers hold the UTF-8 bytes; null rows read as b""."""
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    if not isinstance(values, pa.Array):
        values = pa.array(values, from_pandas=True)
    if pa.types.is_null(values.type):  # all None (or empty)
        values = values.cast(pa.binary())
    large = pa.types.is_large_string(values.type) or pa.types.is_large_binary(values.type)
    return values.cast(pa.large_binary() if large else pa.binary())  # zero-copy


def xxhash64_array(values, seed: int = 0) -> np.ndarray:
    """xxHash64 of each string/bytes in ``values`` → ``np.uint64`` array.

    ``values`` is an Arrow string or binary array, or a sequence of
    str/bytes (None hashes as b""). The kernel reads the Arrow offsets
    and data buffers directly. Vectorized: rows are length-sorted and
    processed in lockstep numpy blocks (stripe loop over shrinking
    contiguous prefixes), bit-exact vs the scalar spec implementation /
    the C library, so checkpoints are portable across both paths. ~20×
    the pure-Python per-row loop on URL-sized strings; when the C
    ``xxhash`` extension is available it is used directly instead."""
    arr = _binary_array(values)
    n = len(arr)
    out = np.empty(n, dtype=np.uint64)
    if n == 0:
        return out
    if _HAS_XXHASH_C:
        for j, v in enumerate(arr.to_pylist()):
            out[j] = xxhash64(v if v is not None else b"", seed)
        return out
    _, off_buf, data_buf = arr.buffers()
    off_type = np.int64 if pa.types.is_large_binary(arr.type) else np.int32
    offs = np.frombuffer(off_buf, dtype=off_type, count=n + 1, offset=arr.offset * off_type().itemsize)
    offs = offs.astype(np.int64)
    data = np.frombuffer(data_buf, dtype=np.uint8) if data_buf is not None else np.zeros(0, np.uint8)
    lens = np.diff(offs)
    if arr.null_count:  # a null slot's bytes are unspecified: hash b""
        lens[~arr.is_valid().to_numpy(zero_copy_only=False)] = 0
    order = np.argsort(-lens, kind="stable")
    lens_s = lens[order]
    start = 0
    while start < n:
        # grow the block until rows*padded exceeds the budget
        maxlen = int(lens_s[start])
        padded = ((maxlen + 8) // 8) * 8  # +8 slack so tail gathers stay in-bounds
        stop = min(n, start + max(1, _BLOCK_BYTES // max(padded, 1)))
        rows = order[start:stop]
        blens = lens_s[start:stop]
        buf = np.zeros((len(rows), padded), dtype=np.uint8)
        mask = np.arange(padded)[None, :] < blens[:, None]
        # byte positions of the block's rows in ``data``, row after row
        # (the row-major order ``buf[mask]`` fills in)
        pos = np.arange(int(blens.sum()), dtype=np.int64)
        pos += np.repeat(offs[rows] - (np.cumsum(blens) - blens), blens)
        buf[mask] = data[pos]
        out[rows] = _xxhash64_block(buf, blens, seed)
        start = stop
    return out


def sha256_hex(value: bytes | str) -> str:
    """sha256 hex doc id (reference: i14y_helper.py:170-173)."""
    if isinstance(value, str):
        value = value.encode("utf-8")
    return hashlib.sha256(value).hexdigest()


def shake_id(*args, digest_bytes: int = 5) -> str:
    """shake_256 short id from args (reference: helpers/domain_spider.py:170-180)."""
    h = hashlib.shake_256("::".join(str(a) for a in args).encode("utf-8"))
    return h.hexdigest(digest_bytes)
