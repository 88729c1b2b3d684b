"""Cuckoo filter (Fan et al., CoNEXT 2014 — public paper/technique) with
a parallel exact audit set.

Role: the URL-seen membership state behind frontier dedup — the Ray
replacement for the reference's Redis fingerprint set
(/root/reference/search_gov_crawler/search_gov_spiders/job_state/dupefilter.py:8-25).
One filter instance per shard actor; shard = xxhash64(url) % S.

Design point (SURVEY.md §7.5.2): a cuckoo filter's false positives
would silently DROP novel URLs, which breaks URL-seen parity. So the
filter is a fast-path accelerator — a negative answer ("definitely
novel") is trusted; a positive answer is confirmed against the exact
audit set. ~2 bytes/key at 16-bit fingerprints ×4-slot buckets keeps
10^10/256-shards ≈ 4×10^7 keys/shard ≈ 80 MB/shard of filter; the
audit set checkpoints as a sorted uint64 column and in a long-lived
deployment lives on the shard's local disk (here: in-memory set —
the sandbox-scale stand-in, same interface).

All batch operations are vectorized numpy; the kick loop only runs on
the rare insert that needs eviction.
"""

from __future__ import annotations

import io

import numpy as np

_EMPTY = np.uint16(0)
_MAX_KICKS = 500


class CuckooFilter:
    def __init__(self, capacity: int = 1 << 16, seed: int = 0):
        # 4-slot buckets; size to ~95% max load → buckets = capacity/4 rounded up to pow2
        n_buckets = 1
        while n_buckets * 4 < capacity:
            n_buckets <<= 1
        self.n_buckets = n_buckets
        self.seed = seed
        self.buckets = np.zeros((n_buckets, 4), dtype=np.uint16)
        self.count = 0
        self._rng = np.random.RandomState(seed)

    # fingerprint: 16-bit, never 0 (0 marks an empty slot)
    @staticmethod
    def _fingerprints(hashes: np.ndarray) -> np.ndarray:
        fp = ((hashes >> np.uint64(48)) & np.uint64(0xFFFF)).astype(np.uint16)
        fp[fp == 0] = 1
        return fp

    def _index_pair(self, hashes: np.ndarray, fp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mask = np.uint64(self.n_buckets - 1)
        i1 = (hashes & mask).astype(np.int64)
        # partial-key cuckoo hashing: i2 = i1 xor H(fp)
        alt = (fp.astype(np.uint64) * np.uint64(0x5BD1E995)) & mask
        i2 = (i1.astype(np.uint64) ^ alt).astype(np.int64)
        return i1, i2

    def contains_batch(self, hashes: np.ndarray) -> np.ndarray:
        """Vectorized membership probe (may false-positive, never
        false-negative)."""
        if len(hashes) == 0:
            return np.zeros(0, dtype=bool)
        hashes = hashes.astype(np.uint64)
        fp = self._fingerprints(hashes)
        i1, i2 = self._index_pair(hashes, fp)
        in1 = (self.buckets[i1] == fp[:, None]).any(axis=1)
        in2 = (self.buckets[i2] == fp[:, None]).any(axis=1)
        return in1 | in2

    def insert(self, h: int) -> bool:
        hashes = np.array([h], dtype=np.uint64)
        fp = self._fingerprints(hashes)[0]
        i1, i2 = self._index_pair(hashes, np.array([fp], dtype=np.uint16))
        for idx in (int(i1[0]), int(i2[0])):
            slot = np.where(self.buckets[idx] == _EMPTY)[0]
            if len(slot):
                self.buckets[idx, slot[0]] = fp
                self.count += 1
                return True
        # evict loop
        idx = int(i1[0]) if self._rng.rand() < 0.5 else int(i2[0])
        cur = fp
        for _ in range(_MAX_KICKS):
            victim_slot = self._rng.randint(0, 4)
            cur, self.buckets[idx, victim_slot] = self.buckets[idx, victim_slot], cur
            mask = np.uint64(self.n_buckets - 1)
            alt = (np.uint64(cur) * np.uint64(0x5BD1E995)) & mask
            idx = int(np.uint64(idx) ^ alt)
            slot = np.where(self.buckets[idx] == _EMPTY)[0]
            if len(slot):
                self.buckets[idx, slot[0]] = cur
                self.count += 1
                return True
        raise RuntimeError("cuckoo filter full; grow capacity")

    def insert_batch(self, hashes: np.ndarray) -> None:
        """Vectorized bulk insert: up to 8 vectorized placement passes
        (4 slots × 2 candidate buckets, one winner per bucket per pass
        via np.unique-first), then the scalar evict-loop insert for the
        rare stragglers. At the ≤95% design load almost everything
        places in the first pass or two — the per-row Python loop this
        replaces was the crawl's offer-RPC hot spot (~40 µs/insert).
        May raise RuntimeError mid-batch like the scalar path; callers
        that need atomicity rebuild from their authoritative set
        (UrlSeenShard._insert_batch_growing)."""
        hashes = hashes.astype(np.uint64)
        if len(hashes) == 0:
            return
        fp = self._fingerprints(hashes)
        i1, i2 = self._index_pair(hashes, fp)
        pending = np.arange(len(hashes))
        for idx_arr in (i1, i2):
            for slot in range(4):
                if len(pending) == 0:
                    return
                tgt = idx_arr[pending]
                cand = np.flatnonzero(self.buckets[tgt, slot] == _EMPTY)
                if len(cand) == 0:
                    continue
                # one winner per bucket index this pass (first pending)
                _, first = np.unique(tgt[cand], return_index=True)
                win_pos = cand[first]
                win = pending[win_pos]
                self.buckets[idx_arr[win], slot] = fp[win]
                self.count += len(win)
                keep = np.ones(len(pending), dtype=bool)
                keep[win_pos] = False
                pending = pending[keep]
        for j in pending:  # crowded buckets → scalar evict-loop path
            self.insert(int(hashes[j]))

    def delete(self, h: int) -> bool:
        hashes = np.array([h], dtype=np.uint64)
        fp = self._fingerprints(hashes)[0]
        i1, i2 = self._index_pair(hashes, np.array([fp], dtype=np.uint16))
        for idx in (int(i1[0]), int(i2[0])):
            slot = np.where(self.buckets[idx] == fp)[0]
            if len(slot):
                self.buckets[idx, slot[0]] = _EMPTY
                self.count -= 1
                return True
        return False

    def dump(self) -> bytes:
        buf = io.BytesIO()
        np.savez_compressed(buf, buckets=self.buckets, count=np.int64(self.count))
        return buf.getvalue()

    @classmethod
    def load(cls, data: bytes) -> "CuckooFilter":
        with np.load(io.BytesIO(data)) as z:
            buckets = z["buckets"]
            count = int(z["count"])
        f = cls(capacity=buckets.shape[0] * 4)
        f.buckets = buckets
        f.count = count
        return f


class UrlSeenShard:
    """Cuckoo fast path + exact audit set: the authoritative URL-seen
    state for one shard. ``test_and_add`` is the frontier-admission
    primitive; dump/load round-trips for the per-round checkpoint."""

    def __init__(self, capacity: int = 1 << 16, seed: int = 0):
        self.filter = CuckooFilter(capacity=capacity, seed=seed)
        self.exact: set[int] = set()

    def test_and_add(self, hashes: np.ndarray) -> np.ndarray:
        """Novelty mask; novel hashes are admitted (added) atomically.
        Duplicate hashes WITHIN the input batch: first occurrence wins.

        Vectorized: one np.unique collapses within-batch duplicates
        (first-occurrence index preserved), one vectorized filter probe
        splits definitely-unseen (no false negatives) from
        needs-confirmation, and only the maybe-seen minority (true dups
        + ~3% filter false positives) pays a per-element exact-set
        lookup. New hashes bulk-insert via the vectorized
        ``insert_batch`` with grow-on-overflow recovery."""
        hashes = hashes.astype(np.uint64)
        novel = np.zeros(len(hashes), dtype=bool)
        if len(hashes) == 0:
            return novel
        uniq, first_idx = np.unique(hashes, return_index=True)
        maybe = self.filter.contains_batch(uniq)
        exact = self.exact
        is_new = ~maybe
        confirm = np.flatnonzero(maybe)
        if len(confirm):
            vals = uniq[confirm].tolist()  # python ints for set probes
            is_new[confirm] = [v not in exact for v in vals]
        if is_new.any():
            new_hashes = uniq[is_new]
            exact.update(new_hashes.tolist())
            self._insert_batch_growing(new_hashes)
            novel[first_idx[is_new]] = True
        return novel

    def _insert_batch_growing(self, new_hashes: np.ndarray) -> None:
        """Bulk-insert admitted hashes; NEVER hard-fails. Cuckoo
        filters wedge a few percent below nominal capacity, and a raise
        here would leave ``exact`` and the filter inconsistent (a false
        negative for an admitted hash). On overflow, rebuild the filter
        at 2× from the authoritative ``exact`` set (which already
        contains the new hashes, so a partial bulk insert before the
        raise is safely discarded) and keep doubling on a pathological
        fill — amortized O(1), shard state stays exactly consistent."""
        try:
            self.filter.insert_batch(new_hashes)
            return
        except RuntimeError:
            pass
        cap = self.filter.n_buckets * 8
        while True:
            grown = CuckooFilter(capacity=cap, seed=self.filter.seed)
            try:
                grown.insert_batch(np.fromiter(self.exact, dtype=np.uint64, count=len(self.exact)))
                self.filter = grown
                return
            except RuntimeError:
                cap *= 2

    def contains(self, hashes: np.ndarray) -> np.ndarray:
        hashes = hashes.astype(np.uint64)
        probe = self.filter.contains_batch(hashes)
        out = np.zeros(len(hashes), dtype=bool)
        hit = np.flatnonzero(probe)
        if len(hit):
            exact = self.exact
            # only filter hits (true members + ~3% FPs) pay a set probe
            out[hit] = [v in exact for v in hashes[hit].tolist()]
        return out

    def __len__(self) -> int:
        return len(self.exact)

    def dump(self) -> bytes:
        buf = io.BytesIO()
        audit = np.fromiter(self.exact, dtype=np.uint64, count=len(self.exact))
        audit.sort()
        np.savez_compressed(buf, filter=np.frombuffer(self.filter.dump(), dtype=np.uint8), audit=audit)
        return buf.getvalue()

    @classmethod
    def load(cls, data: bytes) -> "UrlSeenShard":
        with np.load(io.BytesIO(data)) as z:
            filt = CuckooFilter.load(z["filter"].tobytes())
            audit = z["audit"]
        shard = cls.__new__(cls)
        shard.filter = filt
        shard.exact = {int(h) for h in audit}
        return shard
