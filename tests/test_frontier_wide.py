"""Forced scale-branch parity on the Dataset executor
(``micro_round_rows=0``): with ``wide_round_rows=0`` every round takes
the distributed sort + block-prefix-sum seq assignment
(_assign_seq_wide) instead of the single-block kernel, and with
``politeness_driver_rows=0`` every round merges its grant thresholds
in the pruned partition exchange. The output must match the reference
simulator goldens, the same contract as the default paths. Dedup
itself does not dispatch on round size: the fused shard-offer pass
(tests/test_fused_dedup.py) runs at every size."""

from __future__ import annotations

import pyarrow.parquet as pq
import pytest

from searchgov_spider_ray.functions.hashing import xxhash64
from searchgov_spider_ray.pipelines.frontier import (
    CrawlConfig,
    CrawlJobRunner,
    read_denied,
    read_order,
    read_seen,
)
from searchgov_spider_ray.pipelines.simulator import (
    RobotsRules,
    load_corpus_dict,
    simulate_crawl,
)
from searchgov_spider_ray.sources.corpusgen import CorpusSpec, generate_corpus
from searchgov_spider_ray.sources.crawl_sites import CrawlSites

ROUND_SECONDS = 10.0


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("wide_corpus")
    generate_corpus(out, CorpusSpec(seed=42, n_domains=3, pages_per_domain=40))
    return out


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("job", ["plain", "deep all domains"])
def test_wide_round_parity(job, corpus_dir, tmp_path):
    corpus = load_corpus_dict(pq.read_table(corpus_dir / "corpus_pages.parquet"))
    robots = RobotsRules.from_table(pq.read_table(corpus_dir / "robots.parquet"))
    sites = {s.name: s for s in CrawlSites.from_file(corpus_dir / "seeds.json").sites}
    images = pq.read_table(corpus_dir / "corpus_images.parquet").to_pylist()
    captions = {r["image_id"]: r["caption"] for r in images}

    out = tmp_path / "out"
    cfg = CrawlConfig(
        round_seconds=ROUND_SECONDS, num_shards=4, wide_round_rows=0, micro_round_rows=0
    )
    runner = CrawlJobRunner(sites[job], corpus_dir, out, cfg)
    res = runner.run()
    sim = simulate_crawl(sites[job], corpus, robots, captions, round_seconds=ROUND_SECONDS)
    try:
        order = read_order(out)
        assert order["url"].tolist() == [u for _, u, _ in sim.order]
        assert order["depth"].tolist() == [d for _, _, d in sim.order]
        assert read_seen(runner) == {xxhash64(u) for u in sim.seen}
        assert read_denied(out) == sim.denied
        assert res.fetched == len(sim.order)
    finally:
        runner.close()


@pytest.mark.usefixtures("ray_session")
def test_wide_politeness_parity(corpus_dir, tmp_path):
    """politeness_driver_rows=0 forces the pruned-exchange threshold
    path every round; order/seen/denied must still match the simulator
    goldens exactly."""
    job = "plain"
    corpus = load_corpus_dict(pq.read_table(corpus_dir / "corpus_pages.parquet"))
    robots = RobotsRules.from_table(pq.read_table(corpus_dir / "robots.parquet"))
    sites = {s.name: s for s in CrawlSites.from_file(corpus_dir / "seeds.json").sites}
    images = pq.read_table(corpus_dir / "corpus_images.parquet").to_pylist()
    captions = {r["image_id"]: r["caption"] for r in images}

    out = tmp_path / "out"
    cfg = CrawlConfig(
        round_seconds=ROUND_SECONDS, num_shards=4,
        politeness_driver_rows=0, politeness_parts=5, micro_round_rows=0,
    )
    runner = CrawlJobRunner(sites[job], corpus_dir, out, cfg)
    res = runner.run()
    sim = simulate_crawl(sites[job], corpus, robots, captions, round_seconds=ROUND_SECONDS)
    try:
        order = read_order(out)
        assert order["url"].tolist() == [u for _, u, _ in sim.order]
        assert read_seen(runner) == {xxhash64(u) for u in sim.seen}
        assert read_denied(out) == sim.denied
        assert res.fetched == len(sim.order)
    finally:
        runner.close()


def test_pack_admission_deep_depths_sort_unsigned():
    """Regression: depth 128-250 is legal (MAX_DEPTH_LIMIT=250); an
    int64 pack flips the sign bit at depth >= 128 and sorts deep rows
    BEFORE shallow ones. The uint64 pack must order strictly by
    (parent_depth, parent_seq, link_seq)."""
    import numpy as np
    import pyarrow as pa

    from searchgov_spider_ray.pipelines.frontier import _pack_admission

    rows = [
        (0, 5, 3),
        (1, 0, 0),
        (127, 2, 1),
        (128, 0, 0),
        (130, 7, 2),
        (250, (1 << 40) - 1, (1 << 16) - 1),
    ]
    t = pa.table(
        {
            "parent_depth": pa.array([r[0] for r in rows], type=pa.int32()),
            "parent_seq": pa.array([r[1] for r in rows], type=pa.int64()),
            "link_seq": pa.array([r[2] for r in rows], type=pa.int64()),
        }
    )
    out = _pack_admission(t)
    assert out["adm_key"].type == pa.uint64()
    keys = out["adm_key"].to_numpy()
    # input rows are already in admission order -> keys strictly increase
    assert (np.diff(keys.astype(np.uint64)) > 0).all()
