"""Bloom filter (Bloom 1970, public construction): set membership with
one-sided error — a present key ALWAYS hits, an absent key hits with
probability ~(1-e^{-kn/m})^k. Build once over the reference set (only
distinct-bit rows shuffle, never keys), broadcast the 4 KB dense bitset
with ray.put, and probe any number of rows map_batches-side with zero
further exchanges.

Every bit position is pure integer arithmetic over a salted splitmix64
avalanche, so a SQL oracle replays every bit position and every
membership verdict bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from .simdedup import _avalanche

# four distinct odd 64-bit mix constants (xxHash64 primes 1/3/5 + the
# splitmix64 golden-gamma) — one independent avalanche chain per hash
# function
CMS_SALTS = np.array(
    [
        0x9E3779B97F4A7C15,  # splitmix64 gamma
        0x9E3779B185EBCA87,  # xxh64 prime 1
        0x165667B19E3779F9,  # xxh64 prime 3
        0x27D4EB2F165667C5,  # xxh64 prime 5
    ],
    dtype=np.uint64,
)

BLOOM_M = 1 << 15  # 32768 bits = 4 KB dense; ~1.2% FP at 2k keys, k=4
BLOOM_K = len(CMS_SALTS)


def bloom_bits(keys: np.ndarray) -> np.ndarray:
    """(BLOOM_K, n) bit positions: row r of key k is
    avalanche(k * CMS_SALTS[r]) mod BLOOM_M. Vectorized, integer-exact."""
    k = keys.astype(np.uint64)
    return np.stack(
        [(_avalanche(k * s) % np.uint64(BLOOM_M)).astype(np.int64) for s in CMS_SALTS]
    )


def bloom_partial(keys: np.ndarray) -> np.ndarray:
    """Fold a key batch into its sorted unique set-bit indices; merge
    across batches/blocks/nodes is set union (associative)."""
    return np.unique(bloom_bits(keys))


def bloom_query(bits_sorted: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Membership probe against the sorted set-bit array: True iff all
    BLOOM_K positions of the key are set. One-sided: never a false
    negative."""
    pos = bloom_bits(keys)
    if len(bits_sorted) == 0:
        return np.zeros(pos.shape[1], dtype=bool)
    idx = np.searchsorted(bits_sorted, pos)
    idx_c = np.minimum(idx, len(bits_sorted) - 1)
    hit = (idx < len(bits_sorted)) & (bits_sorted[idx_c] == pos)
    return hit.all(axis=0)
