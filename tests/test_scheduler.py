"""Job scheduler tests: pending-set semantics, restart-rerun with
resume, cron validation, failure isolation (reference:
tests/scheduling/*, SURVEY.md §5.5-6)."""

from __future__ import annotations

import pytest

from searchgov_spider_ray.pipelines.frontier import CrawlConfig
from searchgov_spider_ray.pipelines.scheduler import (
    JobScheduler,
    SchedulerManifest,
    validate_cron,
)
from searchgov_spider_ray.sources.corpusgen import CorpusSpec, generate_corpus
from searchgov_spider_ray.sources.crawl_sites import CrawlSites


@pytest.fixture(scope="module")
def sched_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("sched_corpus")
    generate_corpus(out, CorpusSpec(seed=42, n_domains=2, pages_per_domain=20))
    return out


class TestCron:
    def test_validate(self):
        assert validate_cron(None)
        assert validate_cron("0 3 * * *")
        assert validate_cron("*/5 0-12 1,15 * 1-5")
        assert not validate_cron("not cron")
        assert not validate_cron("0 3 * *")


@pytest.mark.usefixtures("ray_session")
class TestScheduler:
    def _sites(self, corpus):
        return CrawlSites.from_records(
            [
                {"name": "job a", "allowed_domains": "site0.example.gov",
                 "starting_urls": "https://site0.example.gov/p0.html", "depth_limit": 2,
                 "schedule": "0 3 * * *"},
                {"name": "job b", "allowed_domains": "site1.example.gov",
                 "starting_urls": "https://site1.example.gov/p0.html", "depth_limit": 2,
                 "output_target": "endpoint"},
            ]
        )

    def test_runs_all_and_records(self, sched_corpus, tmp_path):
        sched = JobScheduler(
            self._sites(sched_corpus), sched_corpus, tmp_path,
            CrawlConfig(round_seconds=100.0, num_shards=2),
        )
        results = sched.run_pending()
        assert len(results) == 2
        m = SchedulerManifest.load(tmp_path / "scheduler_manifest.json")
        assert all(s.status == "finished" for s in m.jobs.values())
        assert all(s.fetched > 0 for s in m.jobs.values())

    def test_jobs_share_one_pool_of_shard_actors(self, sched_corpus, tmp_path, monkeypatch):
        """Each job's runner takes the shard actors the previous job
        parked, and each job still crawls exactly as the simulator."""
        import pyarrow.parquet as pq

        from searchgov_spider_ray.pipelines import frontier
        from searchgov_spider_ray.pipelines.simulator import (
            RobotsRules,
            load_corpus_dict,
            simulate_crawl,
        )

        sites = CrawlSites.from_records(
            [
                {"name": "job a", "allowed_domains": "site0.example.gov",
                 "starting_urls": "https://site0.example.gov/p0.html", "depth_limit": 2},
                {"name": "job b", "allowed_domains": "site1.example.gov",
                 "starting_urls": "https://site1.example.gov/p0.html", "depth_limit": 2},
                {"name": "job c", "allowed_domains": "site0.example.gov,site1.example.gov",
                 "starting_urls": "https://site0.example.gov/p0.html,https://site1.example.gov/p0.html"},
            ]
        )
        actor_ids: set[str] = set()
        make_shard_pool = frontier.make_shard_pool

        def recorded(*args):
            shards = make_shard_pool(*args)
            actor_ids.update(h._actor_id.hex() for h in shards)
            return shards

        monkeypatch.setattr(frontier, "make_shard_pool", recorded)
        cfg = CrawlConfig(round_seconds=100.0, num_shards=2)
        results = JobScheduler(sites, sched_corpus, tmp_path, cfg).run_pending()
        assert len(results) == 3
        assert len(actor_ids) == cfg.num_shards

        corpus = load_corpus_dict(pq.read_table(sched_corpus / "corpus_pages.parquet"))
        robots = RobotsRules.from_table(pq.read_table(sched_corpus / "robots.parquet"))
        images = pq.read_table(sched_corpus / "corpus_images.parquet").to_pylist()
        captions = {r["image_id"]: r["caption"] for r in images}
        for site, res in zip(sites.sites, results):
            sim = simulate_crawl(site, corpus, robots, captions, round_seconds=100.0)
            assert res.job_id == site.job_id
            assert res.fetched == len(sim.order)
            assert res.seen == len(sim.seen)
            order = frontier.read_order(tmp_path / site.job_id)
            assert order["url"].tolist() == [u for _, u, _ in sim.order]
            assert frontier.read_denied(tmp_path / site.job_id) == sim.denied

    def test_restart_reruns_interrupted_with_resume(self, sched_corpus, tmp_path):
        sites = self._sites(sched_corpus)
        cfg = CrawlConfig(round_seconds=100.0, num_shards=2)
        sched = JobScheduler(sites, sched_corpus, tmp_path, cfg)
        # simulate a scheduler killed mid-job-a: mark it running
        sched.manifest.jobs["job-a"].status = "running"
        sched.manifest.save()
        sched2 = JobScheduler(sites, sched_corpus, tmp_path, cfg)
        pend = sched2.manifest.pending_or_interrupted()
        assert "job-a" in pend and "job-b" in pend
        results = sched2.run_pending()
        assert len(results) == 2
        assert sched2.manifest.jobs["job-a"].status == "finished"

    def test_invalid_cron_rejected(self, sched_corpus, tmp_path):
        sites = CrawlSites.from_records(
            [{"name": "bad", "allowed_domains": "a.gov", "starting_urls": "https://a.gov/",
              "schedule": "whenever"}]
        )
        with pytest.raises(ValueError, match="invalid cron"):
            JobScheduler(sites, sched_corpus, tmp_path)

    def test_failed_job_is_isolated(self, sched_corpus, tmp_path, monkeypatch):
        sites = self._sites(sched_corpus)
        cfg = CrawlConfig(round_seconds=100.0, num_shards=2)
        sched = JobScheduler(sites, sched_corpus, tmp_path, cfg)

        from searchgov_spider_ray.pipelines import scheduler as sched_mod

        real_runner = sched_mod.CrawlJobRunner
        calls = {"n": 0}

        class Flaky(real_runner):
            def run(self, resume=False):
                calls["n"] += 1
                if self.site.job_id == "job-a":
                    raise RuntimeError("boom")
                return super().run(resume=resume)

        monkeypatch.setattr(sched_mod, "CrawlJobRunner", Flaky)
        results = sched.run_pending()
        assert len(results) == 1  # job b still ran
        assert sched.manifest.jobs["job-a"].status == "failed"
        assert "boom" in sched.manifest.jobs["job-a"].error
        assert sched.manifest.jobs["job-b"].status == "finished"


class TestRunJobCLI:
    """python -m searchgov_spider_ray.run_job — the ray-job-submit entry."""

    def test_cli_runs_and_resumes(self, tmp_path, ray_session):
        import json
        import subprocess
        import sys

        from searchgov_spider_ray.sources.corpusgen import CorpusSpec, generate_corpus

        cdir = tmp_path / "corpus"
        generate_corpus(cdir, CorpusSpec(seed=7, n_domains=2, pages_per_domain=12))
        out = tmp_path / "run"
        cmd = [
            sys.executable, "-m", "searchgov_spider_ray.run_job",
            "--seeds", str(cdir / "seeds.json"), "--job", "plain",
            "--corpus", str(cdir), "--out", str(out),
            "--round-seconds", "10", "--num-shards", "2",
        ]
        env = dict(__import__("os").environ, RAY_ADDRESS="local")
        r1 = subprocess.run(cmd, capture_output=True, text=True, timeout=300, env=env)
        assert r1.returncode == 0, r1.stderr[-2000:]
        res1 = json.loads(r1.stdout.strip().splitlines()[-1])
        assert res1["fetched"] > 0

        # resume on a finished run is a no-op that re-reads the checkpoint
        r2 = subprocess.run(cmd + ["--resume"], capture_output=True, text=True, timeout=300, env=env)
        assert r2.returncode == 0, r2.stderr[-2000:]
        res2 = json.loads(r2.stdout.strip().splitlines()[-1])
        assert res2["seen"] == res1["seen"]

    def test_cli_unknown_job(self, tmp_path):
        import subprocess
        import sys

        from searchgov_spider_ray.sources.corpusgen import CorpusSpec, generate_corpus

        cdir = tmp_path / "c2"
        generate_corpus(cdir, CorpusSpec(seed=7, n_domains=2, pages_per_domain=5))
        r = subprocess.run(
            [sys.executable, "-m", "searchgov_spider_ray.run_job",
             "--seeds", str(cdir / "seeds.json"), "--job", "nope",
             "--corpus", str(cdir), "--out", str(cdir / "o")],
            capture_output=True, text=True, timeout=120,
        )
        assert r.returncode == 2


class TestScheduleReport:
    def test_group_and_sort(self):
        from searchgov_spider_ray.pipelines.scheduler import schedule_by_day

        entries = [
            {"schedule": "30 9 * * mon", "name": "b", "allowed_domains": "b.gov", "depth_limit": 3},
            {"schedule": "0 7 * * mon", "name": "a", "allowed_domains": "a.gov", "depth_limit": 2},
            {"schedule": "15 22 * * sat", "name": "c", "allowed_domains": "c.gov", "depth_limit": 8},
        ]
        g = schedule_by_day(entries)
        assert [e["name"] for e in g["Monday"]] == ["a", "b"]
        assert g["Monday"][0]["time"] == "07:00"
        assert g["Saturday"][0]["time"] == "22:15"
        assert g["Sunday"] == []

    def test_invalid_day(self):
        import pytest

        from searchgov_spider_ray.pipelines.scheduler import schedule_by_day

        with pytest.raises(ValueError):
            schedule_by_day([{"schedule": "0 7 * * xyz", "name": "x",
                              "allowed_domains": "x.gov", "depth_limit": 1}])

    def test_markdown_shape(self):
        from searchgov_spider_ray.pipelines.scheduler import schedule_markdown

        md = schedule_markdown(
            [{"schedule": "0 7 * * mon", "name": "a", "allowed_domains": "a.gov", "depth_limit": 2}]
        )
        assert md.startswith("# Production Schedule")
        assert "## Monday (1)" in md
        assert "|a|07:00|a.gov|2|" in md


def test_politeness_partition_kernel_parity():
    """The threshold grant paths (driver merge, pruned partition
    exchange) grant EXACTLY the rows PolitenessSelect (per-domain
    groups) grants, on a randomized multi-domain frontier."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from searchgov_spider_ray.pipelines.simulator import RobotsRules
    from searchgov_spider_ray.stages.politeness import (
        PolitenessSelect,
        politeness_partition_key,
    )

    rng = np.random.RandomState(11)
    domains = [f"d{i}.gov" for i in range(37)]
    n = 5000
    df = pd.DataFrame(
        {
            "domain": rng.choice(domains, size=n),
            "depth": rng.randint(0, 6, size=n).astype(np.int32),
            "seq": rng.permutation(n).astype(np.int64),
            "url": [f"u{i}" for i in range(n)],
        }
    )
    robots = RobotsRules.from_table(
        pa.table(
            {
                "domain": domains,
                "disallow": [[] for _ in domains],
                "crawl_delay": pa.array(
                    [[1.0, 0.25, 4.0, None][i % 4] for i in range(len(domains))],
                    type=pa.float64(),
                ),
                "sitemap_url": pa.array([None] * len(domains), type=pa.string()),
            }
        )
    )
    per_domain = PolitenessSelect(robots, 10.0)
    ref_granted = set()
    for _, grp in df.groupby("domain"):
        out = per_domain(grp)
        ref_granted |= set(out[out["granted"]]["url"])

    # exchange-free driver path: per-block top-B candidates over
    # ARBITRARY block splits -> merged thresholds -> pack<=thr lookup
    # must grant the identical set (frontier.py politeness dispatch)
    from searchgov_spider_ray.stages.politeness import (
        block_grant_candidates,
        merge_grant_thresholds,
        pack_depth_seq,
    )

    kernel = block_grant_candidates(robots, 10.0)
    blocks = [
        pa.Table.from_pandas(df.iloc[i : i + 611], preserve_index=False)
        for i in range(0, len(df), 611)
    ]
    dom_sorted, thr = merge_grant_thresholds([kernel(b) for b in blocks], robots, 10.0)
    dom = df["domain"].to_numpy(dtype="U")
    pack = pack_depth_seq(df["depth"].to_numpy(), df["seq"].to_numpy())
    idx = np.searchsorted(dom_sorted, dom)
    driver_granted = set(df["url"].to_numpy(object)[pack <= thr[idx]])
    assert driver_granted == ref_granted

    # pruned-exchange wide path: per-batch candidate prune -> coarse
    # partition -> per-partition threshold merge -> same tag lookup
    # (frontier.py wide politeness branch)
    from searchgov_spider_ray.stages.politeness import (
        partition_grant_thresholds,
        prune_grant_candidates,
    )

    prune = prune_grant_candidates(robots, 10.0)
    pruned = [prune(b) for b in blocks]
    assert sum(len(p) for p in pruned) < len(df)  # it actually prunes
    import pyarrow as pa_mod

    cand = pa_mod.concat_tables(pruned)
    parts = politeness_partition_key(cand["domain"].to_pylist(), 5)
    thr_kernel = partition_grant_thresholds(robots, 10.0)
    thr_parts = [
        thr_kernel(cand.filter(pa_mod.array(parts == p))) for p in range(5)
    ]
    thr_tab = pa_mod.concat_tables(thr_parts)
    dom2 = thr_tab["domain"].to_numpy(zero_copy_only=False).astype("U")
    order2 = np.argsort(dom2, kind="mergesort")
    thr2 = thr_tab["thr"].to_numpy(zero_copy_only=False).astype(np.uint64)[order2]
    idx2 = np.searchsorted(dom2[order2], dom)
    wide_granted = set(df["url"].to_numpy(object)[pack <= thr2[idx2]])
    assert wide_granted == ref_granted

    # regression: a domain whose over-budget rows all land in ONE block
    # prunes to exactly B candidates — merged counts == budget must
    # still cap the threshold (counts >= budgets), not grant everything
    one = pd.DataFrame(
        {
            "domain": ["d2.gov"] * 5,  # delay 4.0 -> budget(10s) = 2
            "depth": np.zeros(5, dtype=np.int32),
            "seq": np.arange(5, dtype=np.int64),
            "url": [f"x{i}" for i in range(5)],
        }
    )
    blk = pa.Table.from_pandas(one, preserve_index=False)
    dom1, thr1 = merge_grant_thresholds([kernel(blk)], robots, 10.0)
    p1 = pack_depth_seq(one["depth"].to_numpy(), one["seq"].to_numpy())
    granted1 = p1 <= thr1[np.searchsorted(dom1, one["domain"].to_numpy(dtype="U"))]
    assert granted1.sum() == 2


def test_gc_orphans(tmp_path):
    """Age-based cleanup of per-job state trees (reference
    scheduler_queue.py:85-121): idle > orphan_age deleted, fresh and
    running trees kept."""
    import os
    import time as _time

    from searchgov_spider_ray.pipelines.scheduler import JobScheduler
    from searchgov_spider_ray.sources.crawl_sites import CrawlSite, CrawlSites

    sites = CrawlSites(
        [CrawlSite(name="keep me", allowed_domains=["a.gov"], starting_urls=["https://a.gov/"])]
    )
    work = tmp_path / "work"
    now = _time.time()
    for name, age in (("stale-job", 8 * 86400), ("fresh-job", 3600), ("keep-me", 9 * 86400)):
        d = work / name / "checkpoint"
        d.mkdir(parents=True)
        f = d / "state.bin"
        f.write_bytes(b"x")
        os.utime(f, (now - age, now - age))
        os.utime(d, (now - age, now - age))
        os.utime(work / name, (now - age, now - age))
    sched = JobScheduler(sites, tmp_path / "corpus", work)
    # mark keep-me as running → protected despite its age
    from searchgov_spider_ray.pipelines.scheduler import JobState

    sched.manifest.jobs["keep-me"] = JobState(job_id="keep-me", status="running")
    deleted = sched.gc_orphans(orphan_age_seconds=604800, now=now)
    assert deleted == ["stale-job"]
    assert not (work / "stale-job").exists()
    assert (work / "fresh-job").exists()
    assert (work / "keep-me").exists()


def test_force_bool_coercion():
    from searchgov_spider_ray.sources.crawl_sites import CrawlSite, force_bool

    assert force_bool("true") and force_bool("True") and force_bool(True)
    assert not force_bool("false") and not force_bool("1") and not force_bool(None)
    s = CrawlSite(
        name="s",
        allowed_domains=["a.gov"],
        starting_urls=["https://a.gov/"],
        allow_query_string="True",
        handle_javascript="false",
        prevent_follow="yes",
    )
    assert s.allow_query_string is True
    assert s.handle_javascript is False
    assert s.prevent_follow is False


def test_gc_tmp_caches_fake_mtimes(tmp_path):
    """Age-based /tmp cache sweep: stale trees go, fresh ones stay,
    non-cache names are never touched (faked mtimes, injected root)."""
    import os
    import time

    from searchgov_spider_ray.pipelines.queries import gc_tmp_caches

    now = time.time()
    stale = tmp_path / "searchgov_ray_querycorpus"
    fresh = tmp_path / "searchgov_ray_query_crawl"
    other = tmp_path / "unrelated_dir"
    for d in (stale, fresh, other):
        d.mkdir()
        (d / "f.txt").write_text("x")
    old = now - 60 * 3600  # 60h idle > the 48h default
    for p in (stale, stale / "f.txt", other, other / "f.txt"):
        os.utime(p, (old, old))
    deleted = gc_tmp_caches(now=now, tmp_root=str(tmp_path))
    assert deleted == [str(stale)]
    assert not stale.exists() and fresh.exists() and other.exists()
    # a stale tree with ONE fresh file inside is live (newest-mtime rule)
    stale2 = tmp_path / "searchgov_ray_bench_corpus_x"
    stale2.mkdir()
    (stale2 / "old.txt").write_text("x")
    os.utime(stale2 / "old.txt", (old, old))
    (stale2 / "new.txt").write_text("y")
    assert gc_tmp_caches(now=now, tmp_root=str(tmp_path)) == []
    assert stale2.exists()
