"""Sharded URL-seen dedup: actor pool of :class:`UrlSeenShard`s plus the
map_batches routing stage.

Replaces the reference's Redis dupefilter (scrapy-redis RFPDupeFilter,
/root/reference/search_gov_crawler/search_gov_spiders/job_state/dupefilter.py:8-25;
SURVEY.md §2.4 A2). Shard routing key: ``xxhash64(canonical_url) % S``
— the ONE partitioning key reused across dedup, checkpoint layout and
the seen-parity audit. On a multi-node cluster the S shard actors
spread across nodes (Ray schedules them round-robin); each frontier
batch makes at most S actor calls with vectorized hash arrays, so
chatter is O(batches × shards), not O(rows).

Exactly-once admission under task retries (SURVEY.md §7.5.2):
``offer`` is memoized per (round, batch-digest) inside the actor, so a
retried map_batches task replays the original novelty mask instead of
classifying its rows as duplicates (and never double-logs its offers).

Actor lifecycle: the shard actors outlive the runner that uses them, as
the reference's one Redis server outlives its jobs. A runner that
closes cleanly parks its actors (:func:`park_shards`): each is reset to
an empty shard, which drops its URL-seen state and frees that memory,
but it keeps its process and its 0.25-CPU reservation. The next
runner's :func:`make_shard_pool` in the same Ray session takes the
parked actors, resets each to its new shard id, and spawns processes
only for the shards still missing. No state carries over: a resume
still restores every shard from its checkpoint file. At most one
runner's worth of actors stays parked, and the driver owns them, so
they die at ``ray.shutdown()`` or when the driver exits.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow as pa
import ray

from ..functions.hashing import xxhash64
from ..state.cuckoo import UrlSeenShard


def _offer_digest(h: np.ndarray, a: np.ndarray) -> int:
    """Order-sensitive vectorized digest of an offer batch for the
    (round, digest) replay memo. Replaces xxhash64-over-tobytes: with
    no C xxhash in the container that digest is pure Python at ~35 ms/MB
    — it was the largest driver-side term of the offer RPC fan-out.
    Position-mixed avalanche + XOR-reduce keeps the memo property
    (identical batch content+order → identical key; the memo only ever
    compares batches of the SAME round from task retries). The linear
    XOR-fold alone is structurally weaker than a sequential hash
    (compensating element changes could cancel), so SEQUENTIAL anchors
    — batch length and the first/last (hash, adm) elements — are
    avalanched into the fold (ADVICE r4): an accidental collision now
    needs matching length, endpoints AND fold, effectively impossible
    for non-adversarial url hashes."""
    from ..functions.simdedup import _avalanche

    if len(h) == 0:
        return 0
    idx = np.arange(len(h), dtype=np.uint64)
    g = np.uint64(0x9E3779B97F4A7C15)
    x = _avalanche(h * g ^ _avalanche(a + idx * g))
    fold = np.bitwise_xor.reduce(x)
    ends = np.asarray(
        [np.uint64(len(h)), h[0], a[0], h[-1], a[-1]], dtype=np.uint64
    )
    # position-mix the anchors too, so swapped endpoints can't cancel
    anchor = np.bitwise_xor.reduce(
        _avalanche(ends + np.arange(5, dtype=np.uint64) * g)
    )
    return int(_avalanche(np.asarray([fold ^ anchor], dtype=np.uint64))[0])


@ray.remote(num_cpus=0.25)
class DedupShardActor:
    """One URL-seen shard. Long-lived across rounds within a job, and
    across the runners of one Ray session: a parked actor has been
    :meth:`reset` to an empty shard (its state wiped, its memory freed)
    and keeps its 0.25-CPU reservation until the next runner takes it.

    num_cpus=0.25: the shard does short vectorized membership ops per
    call, not sustained compute — a full-CPU reservation per shard
    would starve the task pool (S shards × jobs would eat the node)."""

    def __init__(self, shard_id: int, capacity: int = 1 << 16):
        self.reset(shard_id, capacity)

    def reset(self, shard_id: int, capacity: int = 1 << 16) -> None:
        """Become a new, empty shard ``shard_id``: drop the shard, the
        retry memo, the offer log and the pending-row count, and re-seed
        the cuckoo filter, so the actor answers exactly as a new one."""
        self.shard_id = shard_id
        self.shard = UrlSeenShard(capacity=capacity, seed=shard_id)
        self._memo: dict[tuple[int, int], np.ndarray] = {}
        # per-round offer log for the fused dedup path: round_id ->
        # list of raw (h, adm, mask) and/or reduced chunks
        self._offers: dict[int, list] = {}
        self._pending_rows = 0
        self._compact_rows = 1 << 20

    def offer(
        self,
        round_id: int,
        batch_digest: int,
        hashes: np.ndarray,
        adm_keys: np.ndarray,
        log: bool = True,
    ) -> np.ndarray:
        """Fused intra+cross-round dedup offer (one RPC pass replaces
        the wide rounds' sort(url_hash) exchange — see frontier.py).

        Returns the PROVISIONAL novelty mask (plain ``test_and_add``
        semantics: the first-arriving offer of an unseen hash gets
        True). Arrival order across blocks is nondeterministic, so the
        shard records every (hash, adm_key, novel) offer for the round;
        :meth:`corrections` later resolves the DETERMINISTIC winner of
        each multiply-offered hash (min adm_key = admission order) and
        the caller flips the provisional rows. Seen-set content is
        order-independent (the hash is added whichever offer arrives
        first), so checkpoint/audit parity is unaffected."""
        key = (round_id, batch_digest)
        if key in self._memo:
            return self._memo[key]
        mask = self.shard.test_and_add(hashes)
        self._memo[key] = mask
        if not log:
            # pre-deduped driver-side calls (seed admission) never need
            # corrections — skip the offer log so no round_id=-1 entries
            # linger until the first checkpoint dump purges them
            return mask
        chunks = self._offers.setdefault(round_id, [])
        chunks.append((hashes.astype(np.uint64), adm_keys.astype(np.uint64), mask))
        self._pending_rows += len(hashes)
        # bound round-state memory: fold raw offer chunks into the
        # reduced per-hash form (min adm, capped count, novel-any) —
        # merging reduced chunks is the same group-reduce, so periodic
        # compaction keeps state O(distinct hashes), not O(offers)
        if self._pending_rows >= self._compact_rows:
            self._offers[round_id] = [self._merge_reduced(chunks)]
            self._pending_rows = 0
        return mask

    def corrections(self, round_id: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resolve the round's offers: for every hash offered MORE THAN
        ONCE, return (hash, winning adm_key, novel). Single-offer hashes
        need no correction — their provisional answer was final."""
        chunks = self._offers.pop(round_id, [])
        self._pending_rows = 0
        if not chunks:
            empty_u = np.array([], dtype=np.uint64)
            return empty_u, empty_u.copy(), np.array([], dtype=bool)
        h_u, min_a, counts, novel = self._merge_reduced(chunks)
        multi = counts >= 2
        return h_u[multi], min_a[multi], novel[multi]

    @staticmethod
    def _merge_reduced(chunks: list) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Group-reduce raw offer chunks (h, adm, mask) and/or reduced
        chunks (h_u, min_adm, counts, novel) into one reduced set:
        (uniq hash, min adm_key, offer count capped at 2, novel-any).
        The count cap makes re-reduction idempotent — 'offered more
        than once' is all corrections need."""
        hs, as_, cs, ms = [], [], [], []
        for c in chunks:
            if len(c) == 3:
                hs.append(c[0])
                as_.append(c[1])
                cs.append(np.ones(len(c[0]), dtype=np.int64))
                ms.append(c[2])
            else:
                hs.append(c[0])
                as_.append(c[1])
                cs.append(c[2])
                ms.append(c[3])
        h = np.concatenate(hs)
        a = np.concatenate(as_)
        cnt = np.concatenate(cs)
        m = np.concatenate(ms)
        order = np.argsort(h, kind="stable")
        h_s, a_s, c_s, m_s = h[order], a[order], cnt[order], m[order]
        new = np.concatenate(([True], h_s[1:] != h_s[:-1]))
        starts = np.flatnonzero(new)
        h_u = h_s[new]
        min_a = np.minimum.reduceat(a_s, starts)
        counts = np.minimum(np.add.reduceat(c_s, starts), 2)
        novel = np.bitwise_or.reduceat(m_s, starts)
        return h_u, min_a, counts, novel

    def contains(self, hashes: np.ndarray) -> np.ndarray:
        return self.shard.contains(hashes)

    def size(self) -> int:
        return len(self.shard)

    def dump(self) -> bytes:
        return self.shard.dump()

    def dump_to(self, path: str, done_round: int) -> int:
        """Write this shard's checkpoint file from inside the actor —
        all shards dump concurrently instead of shipping bytes through
        the driver (multi-node: path is on shared/job storage).

        The dump follows every offer of ``done_round``, so it also
        clears the retry memo and offer log of rounds ≤ ``done_round``."""
        self._memo = {k: v for k, v in self._memo.items() if k[0] > done_round}
        self._offers = {r: v for r, v in self._offers.items() if r > done_round}
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(path).with_suffix(".tmp")
        tmp.write_bytes(self.shard.dump())
        tmp.rename(path)
        return len(self.shard)

    def restore_from(self, path: str) -> int:
        """Load this shard from its checkpoint file, read inside the
        actor as :meth:`dump_to` writes it."""
        self.shard = UrlSeenShard.load(Path(path).read_bytes())
        return len(self.shard)


# This driver's parked shard actors, by Ray session (node id, job id).
_parked: dict[tuple[str, str], list] = {}


def _parked_pool() -> list:
    """The current Ray session's parked actors. Handles parked in any
    other session name actors of a cluster that is gone: drop them."""
    ctx = ray.get_runtime_context()
    key = (ctx.get_node_id(), ctx.get_job_id())
    for old in [k for k in _parked if k != key]:
        del _parked[old]
    return _parked.setdefault(key, [])


def _reset(handles: list, capacity: int = 1 << 16) -> list[bool]:
    """Reset actor ``i`` of ``handles`` to an empty shard ``i``; return
    which of them answered (a dead actor raises instead)."""
    refs = [h.reset.remote(i, capacity) for i, h in enumerate(handles)]
    alive = []
    for ref in refs:
        try:
            ray.get(ref)
            alive.append(True)
        except ray.exceptions.RayActorError:
            alive.append(False)
    return alive


def make_shard_pool(num_shards: int, capacity: int = 1 << 16) -> list:
    """The shard actor pool of one runner (driver-side): this Ray
    session's parked actors first, each reset to an empty shard of its
    new id, then new actors for the shards still missing."""
    pool = _parked_pool()
    taken = [pool.pop() for _ in range(min(num_shards, len(pool)))]
    shards = [
        h if ok else DedupShardActor.remote(i, capacity)
        for i, (h, ok) in enumerate(zip(taken, _reset(taken, capacity)))
    ]
    return shards + [DedupShardActor.remote(i, capacity) for i in range(len(shards), num_shards)]


def park_shards(shard_handles: list) -> None:
    """Wipe a runner's shard actors and park them for the next
    :func:`make_shard_pool` of this Ray session. The reset frees each
    shard's memory and confirms the actor is alive; a dead one is
    dropped. At most ``len(shard_handles)`` actors stay parked: the
    oldest surplus is killed."""
    if not shard_handles:
        return
    pool = _parked_pool()
    pool += [h for h, ok in zip(shard_handles, _reset(shard_handles)) if ok]
    surplus = max(0, len(pool) - len(shard_handles))
    for h in pool[:surplus]:
        ray.kill(h)
    del pool[:surplus]


class FusedDedupRouter:
    """map_batches stage fusing intra-round first-wins AND URL-seen
    membership into ONE RPC pass — the replacement for the old
    ``sort(url_hash)`` exchange plus separate URL-seen router pass
    (frontier.py step 6+7).

    Per batch: (1) vectorized local first-wins by min ``adm_key`` per
    hash — local losers are global losers (their block winner dominates
    them); (2) the local winners are OFFERED to their shard actors,
    which answer with the provisional novelty mask and log the offer.
    Output columns: ``intra_first`` / ``novel`` (both PROVISIONAL — the
    deterministic min-adm_key winner of each multiply-offered hash is
    resolved by the shards' :meth:`DedupShardActor.corrections` and
    applied by :class:`CorrectionFix`). MUTATES shard state — the
    dataset containing this stage must be materialized exactly once;
    the (round, batch-digest) memo covers task-level replays.

    ``log=False`` is the SINGLE-BLOCK mode (the micro path): when the
    round's whole candidate set goes through one call, local first-wins
    already makes every offered hash unique across the round, so no
    hash can be multiply-offered — corrections are empty by
    construction and the shards skip the offer log entirely. The
    caller then skips the collect_corrections barrier too (one fewer
    all-shard RPC round-trip per micro round)."""

    def __init__(self, shard_handles: list, round_id: int, log: bool = True):
        self.shards = shard_handles
        self.num_shards = len(shard_handles)
        self.round_id = round_id
        self.log = log

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        hashes = batch["url_hash"].to_numpy().astype(np.uint64)
        adm = batch["adm_key"].to_numpy().astype(np.uint64)
        intra = np.zeros(n, dtype=bool)
        novel = np.zeros(n, dtype=bool)
        if n:
            # local first-wins: min adm_key per hash within the batch
            order = np.lexsort((adm, hashes))
            h_ord = hashes[order]
            first = np.concatenate(([True], h_ord[1:] != h_ord[:-1]))
            winners = order[first]
            intra[winners] = True
            w_hash, w_adm = hashes[winners], adm[winners]
            shard_of = (w_hash % np.uint64(self.num_shards)).astype(np.int64)
            futures = {}
            for s in np.unique(shard_of):
                idx = np.where(shard_of == s)[0]
                sub_h, sub_a = w_hash[idx], w_adm[idx]
                digest = _offer_digest(sub_h, sub_a)
                futures[int(s)] = (
                    idx,
                    self.shards[int(s)].offer.remote(
                        self.round_id, digest, sub_h, sub_a, log=self.log
                    ),
                )
            w_novel = np.zeros(len(winners), dtype=bool)
            for s, (idx, fut) in futures.items():
                w_novel[idx] = ray.get(fut)
            novel[winners] = w_novel
        out = batch.append_column("intra_first", pa.array(intra))
        return out.append_column("novel", pa.array(novel))


def collect_corrections(shard_handles: list, round_id: int):
    """Gather every shard's multi-offer resolutions into one
    hash-sorted lookup table (hash, winning adm_key, novel) for
    :class:`CorrectionFix`. Size is O(hashes offered from ≥2 blocks in
    the round) — duplicate URLs only, never the novel set. If a
    pathological dup-skew round ever makes this broadcast too big, the
    upgrade path is a second hash-routed RPC lookup per batch instead
    of the broadcast (same shard routing as the offer pass)."""
    parts = ray.get([s.corrections.remote(round_id) for s in shard_handles])
    h = np.concatenate([p[0] for p in parts])
    a = np.concatenate([p[1] for p in parts])
    nv = np.concatenate([p[2] for p in parts])
    order = np.argsort(h, kind="stable")
    return h[order], a[order], nv[order]


class CorrectionFix:
    """map_batches pass flipping provisional intra_first/novel flags to
    the deterministic resolution: for rows whose hash is in the
    broadcast correction table, the winner is exactly the row with
    adm_key == winning adm_key (local losers can never match — their
    block winner's adm_key is strictly smaller)."""

    def __init__(self, corr_ref):
        self.corr_ref = corr_ref
        self._tab = None

    def __call__(self, t: pa.Table) -> pa.Table:
        if self._tab is None:
            self._tab = ray.get(self.corr_ref)
        corr_h, corr_a, corr_nv = self._tab
        if len(t) == 0 or len(corr_h) == 0:
            return t
        h = t["url_hash"].to_numpy().astype(np.uint64)
        a = t["adm_key"].to_numpy().astype(np.uint64)
        pos = np.searchsorted(corr_h, h)
        pos_c = np.minimum(pos, len(corr_h) - 1)
        match = corr_h[pos_c] == h
        if not match.any():
            return t
        win = match & (a == corr_a[pos_c])
        intra = t["intra_first"].to_numpy(zero_copy_only=False).copy()
        novel = t["novel"].to_numpy(zero_copy_only=False).copy()
        intra[match] = win[match]
        novel[match] = win[match] & corr_nv[pos_c[match]]
        t = t.drop_columns(["intra_first", "novel"])
        t = t.append_column("intra_first", pa.array(intra))
        return t.append_column("novel", pa.array(novel))


def dump_shards(shard_handles: list, out_dir: str | Path, done_round: int) -> list[int]:
    """Checkpoint every shard's filter+audit state (K6 analog) after
    round ``done_round`` — the actors write their own files concurrently
    and drop that round's replay state. Returns each shard's size at its
    dump (the manifest's ``shard_sizes``)."""
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    return ray.get(
        [s.dump_to.remote(_shard_path(out_dir, i), done_round) for i, s in enumerate(shard_handles)]
    )


def restore_shards(shard_handles: list, ckpt_dir: str | Path) -> list[int]:
    """Load every shard from its checkpoint file; each actor reads its
    own file, so no shard's bytes pass through the driver."""
    return ray.get(
        [s.restore_from.remote(_shard_path(ckpt_dir, i)) for i, s in enumerate(shard_handles)]
    )


def _shard_path(ckpt_dir: str | Path, i: int) -> str:
    return str(Path(ckpt_dir) / f"shard_{i:04d}.npz")
