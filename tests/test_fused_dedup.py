"""Fused intra+cross-round dedup (stages/dedup.py FusedDedupRouter /
DedupShardActor.offer / corrections / CorrectionFix): controlled
out-of-order multi-batch offers against the single-block oracle
(_intra_dedup_kernel + a driver seen-set), and a forced-tiny-batch
end-to-end crawl so cross-batch duplicates exercise the correction
path under the simulator goldens."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from searchgov_spider_ray.pipelines.frontier import (
    CrawlConfig,
    CrawlJobRunner,
    _intra_dedup_kernel,
    read_denied,
    read_order,
    read_seen,
)
from searchgov_spider_ray.functions.hashing import xxhash64
from searchgov_spider_ray.pipelines.simulator import (
    RobotsRules,
    load_corpus_dict,
    simulate_crawl,
)
from searchgov_spider_ray.sources.corpusgen import CorpusSpec, generate_corpus
from searchgov_spider_ray.sources.crawl_sites import CrawlSites
from searchgov_spider_ray.stages.dedup import (
    CorrectionFix,
    collect_corrections,
    dump_shards,
    make_shard_pool,
)


def _offer_batch(shards, round_id, hashes, adm):
    """Driver-side stand-in for one FusedDedupRouter batch: local
    first-wins then hash-routed offers, returning (intra, novel)."""
    hashes = hashes.astype(np.uint64)
    adm = adm.astype(np.uint64)
    n = len(hashes)
    intra = np.zeros(n, dtype=bool)
    novel = np.zeros(n, dtype=bool)
    order = np.lexsort((adm, hashes))
    h_ord = hashes[order]
    first = np.concatenate(([True], h_ord[1:] != h_ord[:-1]))
    winners = order[first]
    intra[winners] = True
    w_hash, w_adm = hashes[winners], adm[winners]
    shard_of = (w_hash % np.uint64(len(shards))).astype(np.int64)
    w_novel = np.zeros(len(winners), dtype=bool)
    for s in np.unique(shard_of):
        idx = np.where(shard_of == s)[0]
        digest = int(xxhash64(w_hash[idx].tobytes() + w_adm[idx].tobytes()))
        w_novel[idx] = ray.get(
            shards[int(s)].offer.remote(round_id, digest, w_hash[idx], w_adm[idx])
        )
    novel[winners] = w_novel
    return intra, novel


def _apply_fix(corr, hashes, adm, intra, novel):
    t = pa.table(
        {
            "url_hash": pa.array(hashes.astype(np.uint64), type=pa.uint64()),
            "adm_key": pa.array(adm.astype(np.uint64), type=pa.uint64()),
            "intra_first": pa.array(intra),
            "novel": pa.array(novel),
        }
    )
    fix = CorrectionFix(ray.put(corr))
    out = fix(t)
    return (
        out["intra_first"].to_numpy(zero_copy_only=False),
        out["novel"].to_numpy(zero_copy_only=False),
    )


@pytest.mark.usefixtures("ray_session")
class TestShardOfferProtocol:
    def test_out_of_order_offers_corrected(self):
        shards = make_shard_pool(2)
        try:
            # batch A arrives FIRST with the LARGER adm_key for h1;
            # h2 is A-only; h3 is B-only
            h = np.array([101, 202], dtype=np.uint64)  # h1, h2
            a = np.array([20, 5], dtype=np.uint64)
            intra_a, novel_a = _offer_batch(shards, 0, h, a)
            assert intra_a.all()  # both are local winners
            assert novel_a.all()  # first arrival -> provisionally novel

            h_b = np.array([101, 303], dtype=np.uint64)  # h1 again, h3
            a_b = np.array([10, 7], dtype=np.uint64)  # SMALLER adm for h1
            intra_b, novel_b = _offer_batch(shards, 0, h_b, a_b)
            assert intra_b.all()
            # provisional: h1 already admitted by A -> False; h3 novel
            assert not novel_b[0] and novel_b[1]

            corr = collect_corrections(shards, 0)
            # exactly the multiply-offered hash, resolved to min adm
            assert corr[0].tolist() == [101]
            assert corr[1].tolist() == [10]
            assert corr[2].tolist() == [True]

            # the fix flips A's provisional winner and promotes B's row
            fa_i, fa_n = _apply_fix(corr, h, a, intra_a, novel_a)
            assert fa_i.tolist() == [False, True]
            assert fa_n.tolist() == [False, True]
            fb_i, fb_n = _apply_fix(corr, h_b, a_b, intra_b, novel_b)
            assert fb_i.tolist() == [True, True]
            assert fb_n.tolist() == [True, True]
        finally:
            for s in shards:
                ray.kill(s)

    def test_seen_hash_multi_offer_reason_split(self, tmp_path):
        """A hash seen in an EARLIER round, offered twice this round:
        the min-adm row keeps cross-dup (intra_first, not novel), the
        other flips to intra-loser — the old two-stage classification."""
        shards = make_shard_pool(2)
        try:
            h = np.array([404], dtype=np.uint64)
            _offer_batch(shards, 0, h, np.array([1], dtype=np.uint64))
            dump_shards(shards, tmp_path, 0)

            i1, n1 = _offer_batch(shards, 1, h, np.array([30], dtype=np.uint64))
            i2, n2 = _offer_batch(shards, 1, h, np.array([12], dtype=np.uint64))
            assert i1.all() and i2.all() and not n1.any() and not n2.any()
            corr = collect_corrections(shards, 1)
            assert corr[0].tolist() == [404]
            assert corr[1].tolist() == [12]
            assert corr[2].tolist() == [False]
            f1_i, f1_n = _apply_fix(corr, h, np.array([30]), i1, n1)
            f2_i, f2_n = _apply_fix(corr, h, np.array([12]), i2, n2)
            assert f1_i.tolist() == [False] and not f1_n.any()
            assert f2_i.tolist() == [True] and not f2_n.any()
        finally:
            for s in shards:
                ray.kill(s)

    def test_retry_replay_is_idempotent(self):
        """A retried batch (same round, same digest) replays the memoized
        mask and does not duplicate offers or corrections."""
        shards = make_shard_pool(1)
        try:
            h = np.array([7], dtype=np.uint64)
            a = np.array([3], dtype=np.uint64)
            _, n1 = _offer_batch(shards, 0, h, a)
            _, n2 = _offer_batch(shards, 0, h, a)  # identical retry
            assert n1.tolist() == n2.tolist() == [True]
            corr = collect_corrections(shards, 0)
            assert len(corr[0]) == 0  # single-offer hash, no correction
        finally:
            for s in shards:
                ray.kill(s)

    def test_checkpoint_dump_purges_done_rounds_only(self, tmp_path):
        """The checkpoint dump after round k drops the offer logs of
        rounds ≤ k and keeps later rounds' logs."""
        shards = make_shard_pool(1)
        try:
            h = np.array([55], dtype=np.uint64)
            for r in (0, 1):
                _offer_batch(shards, r, h, np.array([4], dtype=np.uint64))
                _offer_batch(shards, r, h, np.array([2], dtype=np.uint64))
            assert dump_shards(shards, tmp_path, 0) == [1]
            assert len(collect_corrections(shards, 0)[0]) == 0
            assert collect_corrections(shards, 1)[0].tolist() == [55]
        finally:
            for s in shards:
                ray.kill(s)

    def test_random_offers_match_single_block_oracle(self, tmp_path):
        """Randomized candidates split into arbitrary batches offered in
        shuffled order == _intra_dedup_kernel over the whole table (plus
        novel = not-previously-seen)."""
        rng = np.random.RandomState(5)
        n = 4000
        parent_depth = rng.randint(0, 5, n)
        parent_seq = rng.randint(0, 50, n)
        link_seq = rng.randint(0, 64, n)
        # force adm uniqueness the way the pipeline guarantees it
        packs = (parent_depth << 56) | (parent_seq.astype(np.int64) << 16) | link_seq
        _, uniq_idx = np.unique(packs, return_index=True)
        idx = np.sort(uniq_idx)
        parent_depth, parent_seq, link_seq = (
            parent_depth[idx],
            parent_seq[idx],
            link_seq[idx],
        )
        n = len(idx)
        hashes = rng.randint(0, 300, n).astype(np.uint64)  # heavy dup rate
        adm = (
            (parent_depth.astype(np.uint64) << np.uint64(56))
            | (parent_seq.astype(np.uint64) << np.uint64(16))
            | link_seq.astype(np.uint64)
        )

        t = pa.table(
            {
                "parent_depth": pa.array(parent_depth, type=pa.int32()),
                "parent_seq": pa.array(parent_seq, type=pa.int64()),
                "link_seq": pa.array(link_seq, type=pa.int64()),
                "url_hash": pa.array(hashes, type=pa.uint64()),
            }
        )
        oracle = _intra_dedup_kernel(t)["intra_first"].to_numpy(zero_copy_only=False)
        pre_seen = set(int(x) for x in np.unique(hashes)[::7])  # every 7th hash pre-seen

        shards = make_shard_pool(3)
        try:
            # pre-seed the seen set in an earlier round
            pre = np.array(sorted(pre_seen), dtype=np.uint64)
            _offer_batch(shards, 0, pre, np.zeros(len(pre), dtype=np.uint64))
            dump_shards(shards, tmp_path, 0)

            splits = np.array_split(rng.permutation(n), 9)
            intra = np.zeros(n, dtype=bool)
            novel = np.zeros(n, dtype=bool)
            for part in splits:
                i, v = _offer_batch(shards, 1, hashes[part], adm[part])
                intra[part] = i
                novel[part] = v
            corr = collect_corrections(shards, 1)
            intra, novel = _apply_fix(corr, hashes, adm, intra, novel)

            assert intra.tolist() == oracle.tolist()
            expect_novel = oracle & np.array([int(h) not in pre_seen for h in hashes])
            assert novel.tolist() == expect_novel.tolist()
        finally:
            for s in shards:
                ray.kill(s)


class TestMergeReduced:
    def test_raw_and_reduced_chunks_merge_identically(self):
        """Compaction invariant: reducing [raw_a, raw_b] equals reducing
        [reduce([raw_a]), raw_b] — the offer log can fold at any point
        without changing corrections."""
        from searchgov_spider_ray.stages.dedup import DedupShardActor

        merge = DedupShardActor.__ray_metadata__.modified_class._merge_reduced
        rng = np.random.RandomState(3)
        mk = lambda n: (
            rng.randint(0, 40, n).astype(np.uint64),
            rng.randint(0, 1000, n).astype(np.uint64),
            rng.rand(n) < 0.5,
        )
        raw_a, raw_b = mk(200), mk(300)
        direct = merge([raw_a, raw_b])
        folded = merge([merge([raw_a]), raw_b])
        for x, y in zip(direct, folded):
            assert x.tolist() == y.tolist()


ROUND_SECONDS = 10.0


@pytest.mark.usefixtures("ray_session")
class TestTinyBatchE2E:
    def test_forced_multi_batch_parity(self, tmp_path_factory):
        """dedup_batch_size=16 forces many offer batches per round, so
        cross-batch duplicate links hit the correction path constantly;
        order/seen/denied must still match the simulator exactly."""
        corpus_dir = tmp_path_factory.mktemp("fused_corpus")
        generate_corpus(corpus_dir, CorpusSpec(seed=97, n_domains=3, pages_per_domain=30))
        corpus = load_corpus_dict(pq.read_table(corpus_dir / "corpus_pages.parquet"))
        robots = RobotsRules.from_table(pq.read_table(corpus_dir / "robots.parquet"))
        sites = {s.name: s for s in CrawlSites.from_file(corpus_dir / "seeds.json").sites}
        images = pq.read_table(corpus_dir / "corpus_images.parquet").to_pylist()
        captions = {r["image_id"]: r["caption"] for r in images}
        site = sites["deep all domains"]
        out = tmp_path_factory.mktemp("fused_out")
        cfg = CrawlConfig(
            round_seconds=ROUND_SECONDS, num_shards=4, dedup_batch_size=16, micro_round_rows=0
        )
        runner = CrawlJobRunner(site, corpus_dir, out, cfg)
        runner.run()
        sim = simulate_crawl(site, corpus, robots, captions, round_seconds=ROUND_SECONDS)
        try:
            assert read_order(out)["url"].tolist() == [u for _, u, _ in sim.order]
            assert read_seen(runner) == {xxhash64(u) for u in sim.seen}
            assert read_denied(out) == sim.denied
        finally:
            runner.close()


class TestOfferDigest:
    """ADVICE r4: the replay-memo digest must not be a bare linear
    XOR-fold — sequential anchors (length, endpoints) have to break
    reorder/compensation collisions."""

    def test_anchor_properties(self):
        import numpy as np

        from searchgov_spider_ray.stages.dedup import _offer_digest

        h = np.arange(1, 101, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        a = np.arange(1, 101, dtype=np.uint64)
        d = _offer_digest(h, a)
        # deterministic on identical content+order
        assert d == _offer_digest(h.copy(), a.copy())
        # order-sensitive
        assert d != _offer_digest(h[::-1].copy(), a[::-1].copy())
        # endpoint swap (first<->last) must not cancel
        h2, a2 = h.copy(), a.copy()
        h2[0], h2[-1] = h[-1], h[0]
        a2[0], a2[-1] = a[-1], a[0]
        assert d != _offer_digest(h2, a2)
        # length-sensitive (prefix of the same stream)
        assert d != _offer_digest(h[:-1].copy(), a[:-1].copy())
        # empty batch has the reserved key
        assert _offer_digest(h[:0], a[:0]) == 0
