"""URL-seen shard actors outlive their runner within one Ray session
(stages/dedup.py make_shard_pool / park_shards, CrawlJobRunner.close):
a cleanly closed runner's actors are wiped and reused by the next
runner, and no state leaks through them; a runner whose run() raised
has its actors killed; at most one runner's worth stays parked."""

from __future__ import annotations

import time

import numpy as np
import pyarrow.parquet as pq
import pytest
import ray

from searchgov_spider_ray.functions.hashing import xxhash64
from searchgov_spider_ray.pipelines import frontier
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
from searchgov_spider_ray.stages import dedup
from searchgov_spider_ray.stages.dedup import DedupShardActor

ROUND_SECONDS = 10.0
JOB = "deep all domains"


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("shard_reuse_corpus")
    generate_corpus(out, CorpusSpec(seed=42, n_domains=3, pages_per_domain=40))
    return out


@pytest.fixture(scope="module")
def sim(corpus_dir):
    """The job's site and its simulated crawl."""
    corpus = load_corpus_dict(pq.read_table(corpus_dir / "corpus_pages.parquet"))
    robots = RobotsRules.from_table(pq.read_table(corpus_dir / "robots.parquet"))
    site = {s.name: s for s in CrawlSites.from_file(corpus_dir / "seeds.json").sites}[JOB]
    images = pq.read_table(corpus_dir / "corpus_images.parquet").to_pylist()
    captions = {r["image_id"]: r["caption"] for r in images}
    return site, simulate_crawl(site, corpus, robots, captions, round_seconds=ROUND_SECONDS)


def _runner(corpus_dir, out, site, **cfg_kwargs) -> CrawlJobRunner:
    cfg = CrawlConfig(round_seconds=ROUND_SECONDS, num_shards=4, **cfg_kwargs)
    return CrawlJobRunner(site, corpus_dir, out, cfg)


def _ids(handles) -> list[str]:
    return [h._actor_id.hex() for h in handles]


def _dies(handle, timeout_s: float = 30.0) -> bool:
    """Whether calls on ``handle`` start raising RayActorError within
    ``timeout_s`` (ray.kill returns before the actor is gone)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            ray.get(handle.size.remote())
        except ray.exceptions.RayActorError:
            return True
        time.sleep(0.1)
    return False


def _outcome(runner, out) -> dict:
    return {
        "order": read_order(out)[["round", "depth", "seq", "url"]].values.tolist(),
        "seen": read_seen(runner),
        "denied": read_denied(out),
    }


@pytest.mark.usefixtures("ray_session")
class TestWarmShards:
    def test_next_runner_reuses_actors_and_matches_simulator(self, corpus_dir, sim, tmp_path):
        site, expected = sim
        first = _runner(corpus_dir, tmp_path / "a", site)
        try:
            first.run()
            first_ids = _ids(first.shards)
        finally:
            first.close()
        second = _runner(corpus_dir, tmp_path / "b", site)
        try:
            assert sorted(_ids(second.shards)) == sorted(first_ids)
            second.run()
            assert read_order(tmp_path / "b")["url"].tolist() == [u for _, u, _ in expected.order]
            assert read_seen(second) == {xxhash64(u) for u in expected.seen}
            assert read_denied(tmp_path / "b") == expected.denied
        finally:
            second.close()

    def test_stop_and_resume_through_reused_actors(self, corpus_dir, sim, tmp_path):
        site, _ = sim
        full = _runner(corpus_dir, tmp_path / "full", site)
        try:
            full.run()
            uninterrupted = _outcome(full, tmp_path / "full")
            ids = sorted(_ids(full.shards))
        finally:
            full.close()
        part = _runner(corpus_dir, tmp_path / "part", site, max_rounds=2)
        try:
            assert part.run().rounds == 2
            assert sorted(_ids(part.shards)) == ids
        finally:
            part.close()
        resumed = _runner(corpus_dir, tmp_path / "part", site)
        try:
            assert sorted(_ids(resumed.shards)) == ids
            assert resumed.resume_point() == 2
            resumed.run(resume=True)
            assert _outcome(resumed, tmp_path / "part") == uninterrupted
        finally:
            resumed.close()

    def test_faulted_runner_actors_are_killed(self, corpus_dir, sim, tmp_path, monkeypatch):
        site, expected = sim
        dump_shards = frontier.dump_shards

        def faulty(shards, out_dir, done_round):
            if done_round == 1:
                raise RuntimeError("fault")
            return dump_shards(shards, out_dir, done_round)

        faulted = _runner(corpus_dir, tmp_path / "faulted", site)
        handles = list(faulted.shards)
        with monkeypatch.context() as m:
            m.setattr(frontier, "dump_shards", faulty)
            with pytest.raises(RuntimeError, match="fault"):
                faulted.run()
        faulted.close()
        assert all(_dies(h) for h in handles)
        fresh = _runner(corpus_dir, tmp_path / "fresh", site)
        try:
            assert not set(_ids(fresh.shards)) & set(_ids(handles))
            fresh.run()
            assert read_seen(fresh) == {xxhash64(u) for u in expected.seen}
        finally:
            fresh.close()

    def test_two_runners_park_one_runners_worth(self, corpus_dir, sim, tmp_path):
        site, _ = sim
        a = _runner(corpus_dir, tmp_path / "a", site)
        b = _runner(corpus_dir, tmp_path / "b", site)
        killed, parked = list(a.shards), list(b.shards)
        a.close()
        b.close()
        # the last close keeps its own actors parked and kills the surplus
        assert all(_dies(h) for h in killed)
        c = _runner(corpus_dir, tmp_path / "c", site)
        try:
            assert sorted(_ids(c.shards)) == sorted(_ids(parked))
        finally:
            c.close()


_PROBE = np.arange(1, 11, dtype=np.uint64)


def _offer(actor, round_id, digest, h):
    return ray.get(actor.offer.remote(round_id, digest, h, np.arange(len(h), dtype=np.uint64)))


def _drive(actor) -> list:
    """Offers that grow the filter past its capacity and take cuckoo
    kicks over two logged rounds, a replay probe, the corrections of
    each round and the shard's dump, as comparable values."""
    rng = np.random.default_rng(7)
    out = []
    for round_id in range(2):
        h = rng.integers(0, 1 << 63, 3000, dtype=np.uint64)
        out.append(_offer(actor, round_id, 1, h))
        out.append(_offer(actor, round_id, 2, h[::3].copy()))
    # round 5 digest 9 answers False on a new shard; a leftover retry
    # memo of it would replay an old mask instead
    out.append(_offer(actor, 5, 8, _PROBE))
    out.append(_offer(actor, 5, 9, _PROBE))
    for round_id in (0, 1, 5):
        out += ray.get(actor.corrections.remote(round_id))
    return [a.tolist() for a in out] + [ray.get(actor.dump.remote())]


@pytest.mark.usefixtures("ray_session")
class TestShardReset:
    def test_reset_actor_matches_new_actor(self):
        used = DedupShardActor.remote(0, 1 << 16)
        new = DedupShardActor.remote(3, 1 << 10)
        try:
            _offer(used, 5, 9, _PROBE)
            _drive(used)
            ray.get(used.reset.remote(3, 1 << 10))
            assert ray.get(used.size.remote()) == 0
            assert _drive(used) == _drive(new)
        finally:
            ray.kill(used)
            ray.kill(new)

    def test_dead_parked_actor_is_replaced(self):
        parked = dedup.make_shard_pool(2)
        dedup.park_shards(parked)
        ray.kill(parked[0])
        assert _dies(parked[0])
        shards = dedup.make_shard_pool(2)
        try:
            assert _ids(parked)[1] in _ids(shards)
            assert _ids(parked)[0] not in _ids(shards)
            assert ray.get([s.size.remote() for s in shards]) == [0, 0]
        finally:
            for h in shards:
                ray.kill(h)

    def test_other_sessions_parked_actors_are_not_reused(self, monkeypatch):
        first = dedup.make_shard_pool(2)
        dedup.park_shards(first)
        real = ray.get_runtime_context

        class _OtherSession:
            def get_node_id(self):
                return "another-node"

            def get_job_id(self):
                return real().get_job_id()

        monkeypatch.setattr(ray, "get_runtime_context", _OtherSession)
        second = dedup.make_shard_pool(2)
        try:
            assert not set(_ids(second)) & set(_ids(first))
        finally:
            for h in second:
                ray.kill(h)
