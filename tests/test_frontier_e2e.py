"""End-to-end frontier-pipeline tests: ordering equivalence vs the
reference simulator, URL-seen parity, denial parity, emitted/image
payload parity (PSNR + caption), robots compliance, and
resume-from-checkpoint. The Ray analog of the reference's golden
cached crawl (test_full_crawl.py:122-171)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from searchgov_spider_ray.functions.hashing import xxhash64
from searchgov_spider_ray.pipelines.frontier import (
    CrawlConfig,
    CrawlJobRunner,
    read_denied,
    read_emitted,
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
    out = tmp_path_factory.mktemp("e2e_corpus")
    generate_corpus(out, CorpusSpec(seed=42, n_domains=3, pages_per_domain=40))
    return out


def _sim_env(corpus_dir):
    corpus = load_corpus_dict(pq.read_table(corpus_dir / "corpus_pages.parquet"))
    robots = RobotsRules.from_table(pq.read_table(corpus_dir / "robots.parquet"))
    sites = {s.name: s for s in CrawlSites.from_file(corpus_dir / "seeds.json").sites}
    images = pq.read_table(corpus_dir / "corpus_images.parquet").to_pylist()
    captions = {r["image_id"]: r["caption"] for r in images}
    return corpus, robots, sites, captions


@pytest.fixture(scope="module")
def sim_env(corpus_dir):
    return _sim_env(corpus_dir)


@pytest.fixture(scope="module")
def sparse_image_corpus(tmp_path_factory):
    # only page 0 of each domain (the plain job's seed) has an image
    out = tmp_path_factory.mktemp("sparse_image_corpus")
    generate_corpus(
        out, CorpusSpec(seed=42, n_domains=3, pages_per_domain=40, image_rate_mod=1000)
    )
    return out


def _assert_sim_parity(runner, out, sim):
    """A crawl matches the simulator on order, URL-seen set, denials and
    landed images."""
    assert read_order(out)["url"].tolist() == [u for _, u, _ in sim.order]
    assert read_seen(runner) == {xxhash64(u) for u in sim.seen}
    assert read_denied(out) == sim.denied
    landed = pq.read_table(str(out / "corpus")).to_pandas()
    assert set(landed["image_id"]) == {e["image_id"] for e in sim.emitted if e["image_id"]}
    assert landed["phash_match"].all()


def _run(site, corpus_dir, out_dir, **cfg_kwargs):
    cfg = CrawlConfig(**{"round_seconds": ROUND_SECONDS, "num_shards": 4, **cfg_kwargs})
    runner = CrawlJobRunner(site, corpus_dir, out_dir, cfg)
    res = runner.run()
    return runner, res


@pytest.mark.usefixtures("ray_session")
class TestOrderingAndParity:
    @pytest.fixture(scope="class")
    def plain_run(self, corpus_dir, sim_env, tmp_path_factory):
        corpus, robots, sites, captions = sim_env
        out = tmp_path_factory.mktemp("plain_out")
        runner, res = _run(sites["plain"], corpus_dir, out)
        sim = simulate_crawl(sites["plain"], corpus, robots, captions, round_seconds=ROUND_SECONDS)
        yield runner, res, sim, out
        runner.close()

    def test_fetch_order_equivalence(self, plain_run):
        runner, res, sim, out = plain_run
        order = read_order(out)
        assert order["url"].tolist() == [u for _, u, _ in sim.order]
        assert order["depth"].tolist() == [d for _, _, d in sim.order]

    def test_url_seen_parity(self, plain_run):
        runner, res, sim, out = plain_run
        assert read_seen(runner) == {xxhash64(u) for u in sim.seen}
        assert res.seen == len(sim.seen)

    def test_denied_parity(self, plain_run):
        runner, res, sim, out = plain_run
        assert read_denied(out) == sim.denied

    def test_robots_compliance(self, plain_run, sim_env):
        _, _, _, out = plain_run
        _, robots, _, _ = sim_env
        for url in read_order(out)["url"]:
            assert robots.allowed(url), f"fetched robots-disallowed {url}"

    def test_emitted_parity(self, plain_run):
        runner, res, sim, out = plain_run
        emitted = read_emitted(out)
        assert emitted["url"].tolist() == [e["url"] for e in sim.emitted]
        assert emitted["doc_id"].tolist() == [e["doc_id"] for e in sim.emitted]

    def test_image_payloads(self, plain_run, sim_env):
        runner, res, sim, out = plain_run
        corpus_out = pq.read_table(str(out / "corpus")).to_pandas()
        sim_images = {e["image_id"]: e["caption"] for e in sim.emitted if e["image_id"]}
        assert set(corpus_out["image_id"]) == set(sim_images)
        assert corpus_out["phash_match"].all()
        assert corpus_out["dims_match"].all()
        assert corpus_out["decode_ok"].all()
        for _, row in corpus_out.iterrows():
            assert row["caption"] == sim_images[row["image_id"]]


@pytest.mark.usefixtures("ray_session")
class TestMultiDomain:
    def test_deep_job_parity(self, corpus_dir, sim_env, tmp_path_factory):
        corpus, robots, sites, captions = sim_env
        site = sites["deep all domains"]
        out = tmp_path_factory.mktemp("deep_out")
        runner, res = _run(site, corpus_dir, out)
        sim = simulate_crawl(site, corpus, robots, captions, round_seconds=ROUND_SECONDS)
        assert read_order(out)["url"].tolist() == [u for _, u, _ in sim.order]
        assert read_seen(runner) == {xxhash64(u) for u in sim.seen}
        assert read_denied(out) == sim.denied
        runner.close()
        # multi-domain: politeness budgets differ per domain (robots
        # crawl_delay 1.0 / 0.5 / 2.0) — parity proves the grant logic
        domains = {u.split("/")[2] for u in read_order(out)["url"]}
        assert len(domains) == 3


@pytest.mark.usefixtures("ray_session")
class TestResume:
    def test_resume_from_checkpoint_matches_uninterrupted(
        self, corpus_dir, sim_env, tmp_path_factory
    ):
        corpus, robots, sites, captions = sim_env
        site = sites["plain"]
        full_out = tmp_path_factory.mktemp("full_out")
        full_runner, full_res = _run(site, corpus_dir, full_out)
        full_runner.close()
        full_order = read_order(full_out)

        # interrupted run: stop after 2 rounds (simulates a kill at the
        # round barrier), then a FRESH runner resumes from checkpoint
        part_out = tmp_path_factory.mktemp("part_out")
        part_runner, part_res = _run(site, corpus_dir, part_out, max_rounds=2)
        part_runner.close()
        assert part_res.rounds == 2
        cfg = CrawlConfig(round_seconds=ROUND_SECONDS, num_shards=4)
        resumed = CrawlJobRunner(site, corpus_dir, part_out, cfg)
        assert resumed.resume_point() == 2
        res2 = resumed.run(resume=True)

        resumed_order = read_order(part_out)
        assert resumed_order["url"].tolist() == full_order["url"].tolist()
        assert read_seen(resumed) == {xxhash64(u) for u in simulate_crawl(
            site, corpus, robots, captions, round_seconds=ROUND_SECONDS).seen}
        # no URL fetched twice across the kill/resume boundary
        assert resumed_order["url"].is_unique
        assert part_res.fetched + res2.fetched == full_res.fetched
        resumed.close()

    def test_mid_round_kill_replays_round(self, corpus_dir, sim_env, tmp_path_factory):
        """A round with no manifest (killed mid-round) is discarded and
        re-executed from its checkpointed entry state."""
        corpus, robots, sites, captions = sim_env
        site = sites["plain"]
        out = tmp_path_factory.mktemp("midkill_out")
        killed_runner, res = _run(site, corpus_dir, out, max_rounds=3)
        killed_runner.close()
        # simulate mid-round-3 kill: delete round-3 manifest (partial)
        ckpt_manifest = out / "checkpoint" / "round_0003" / "manifest.json"
        ckpt_manifest.unlink()
        cfg = CrawlConfig(round_seconds=ROUND_SECONDS, num_shards=4)
        resumed = CrawlJobRunner(site, corpus_dir, out, cfg)
        assert resumed.resume_point() == 2
        resumed.run(resume=True)
        sim = simulate_crawl(site, corpus, robots, captions, round_seconds=ROUND_SECONDS)
        assert read_order(out)["url"].tolist() == [u for _, u, _ in sim.order]
        assert read_seen(resumed) == {xxhash64(u) for u in sim.seen}
        resumed.close()


def test_latest_complete_round_numeric_not_lexicographic(tmp_path):
    """round_10000 must beat round_9999 (zero-padding overflow)."""
    import json

    from searchgov_spider_ray.state.checkpoint import CheckpointStore

    ckpt = CheckpointStore(tmp_path / "ck")
    for k in (9999, 10000, 10050):
        d = ckpt.root / f"round_{k:04d}"
        d.mkdir(parents=True)
        ckpt.manifest_path(k).write_text(json.dumps({"round": k, "frontier_rows": 1}))
    assert ckpt.latest_complete_round() == 10050


@pytest.mark.usefixtures("ray_session")
class TestDatasetPathParity:
    """micro_round_rows defaults route these tiny fixtures through the
    micro fast path, so the classes above pin THAT path against the
    simulator. This class forces the full Dataset path on the same
    fixture and requires byte-parity between the two modes — order
    (incl. round boundaries), URL-seen set, denial set, emitted rows."""

    def test_dataset_path_matches_micro(self, corpus_dir, sim_env, tmp_path_factory):
        _, _, sites, _ = sim_env
        out_m = tmp_path_factory.mktemp("micro_mode_out")
        out_d = tmp_path_factory.mktemp("dataset_mode_out")
        rm, res_m = _run(sites["plain"], corpus_dir, out_m)
        rd_, res_d = _run(sites["plain"], corpus_dir, out_d, micro_round_rows=0)
        try:
            _assert_same_crawl(rm, out_m, rd_, out_d)
        finally:
            rm.close()
            rd_.close()

    def test_imageless_dataset_round_lands_no_images(
        self, sparse_image_corpus, tmp_path_factory, monkeypatch
    ):
        """A Dataset round whose emitted pages carry no image starts no
        image stage: no corpus sink runs and no ``corpus/round-XXXX``
        output appears. Rounds that do carry images still land exactly
        the simulator's images."""
        from searchgov_spider_ray.pipelines import frontier

        sinks: list[tuple[str, int]] = []
        write_round = frontier._write_round

        def recorded(ds, base, round_id):
            sinks.append((base.name, round_id))
            write_round(ds, base, round_id)

        monkeypatch.setattr(frontier, "_write_round", recorded)
        cdir = sparse_image_corpus
        corpus, robots, sites, captions = _sim_env(cdir)
        out = tmp_path_factory.mktemp("sparse_image_out")
        runner, _ = _run(sites["plain"], cdir, out, micro_round_rows=0)
        runner.close()
        sim = simulate_crawl(sites["plain"], corpus, robots, captions, round_seconds=ROUND_SECONDS)

        emitted = read_emitted(out)
        has_image = emitted["url"].map(lambda u: corpus[u].get("image_id") is not None)
        image_rounds = {f"round-{r:04d}" for r in emitted.loc[has_image, "round"]}
        emit_rounds = {f"round-{r:04d}" for r in emitted["round"]}
        assert image_rounds and emit_rounds - image_rounds
        assert {f"round-{k:04d}" for b, k in sinks if b == "corpus"} == image_rounds
        assert {d.name for d in (out / "corpus").glob("round-*")} == image_rounds
        landed = pq.read_table(str(out / "corpus")).to_pandas()
        assert set(landed["image_id"]) == {e["image_id"] for e in sim.emitted if e["image_id"]}
        assert landed["phash_match"].all()


def _assert_same_crawl(rm, out_m, rd_, out_d):
    """Two crawls of one job agree on order (incl. round boundaries),
    URL-seen set, denial set, emitted rows and landed images."""
    om, od = read_order(out_m), read_order(out_d)
    for col in ("round", "depth", "seq", "url"):
        assert om[col].tolist() == od[col].tolist(), col
    assert read_seen(rm) == read_seen(rd_)
    assert read_denied(out_m) == read_denied(out_d)
    em, ed = read_emitted(out_m), read_emitted(out_d)
    assert em["url"].tolist() == ed["url"].tolist()
    assert em["doc_id"].tolist() == ed["doc_id"].tolist()
    cm = pq.read_table(str(out_m / "corpus")).to_pandas()
    cd = pq.read_table(str(out_d / "corpus")).to_pandas()
    assert sorted(cm["image_id"]) == sorted(cd["image_id"])
    assert cm["phash_match"].all() and cd["phash_match"].all()


def test_fan_out_bounds():
    from searchgov_spider_ray.pipelines import frontier

    for slots in (1, 2, 3, 32):
        for rows in (0, 1, 7, 63, 64, 130, 6_703, 10**6):
            for rows_per_task, floor in ((8, 2), (16, 2), (64, 1), (128, 1)):
                n = frontier._fan_out(rows, rows_per_task, floor, slots)
                assert 1 <= n <= 2 * slots
                assert n <= max(floor, rows // rows_per_task)
    # a 6,703-row Dataset round at 8 rows per block: 4 blocks on 2 CPUs,
    # 64 on 32
    assert frontier._fan_out(6_703, 8, 2, 2) == 4
    assert frontier._fan_out(6_703, 8, 2, 32) == 64


@pytest.fixture(scope="module")
def fan_out_corpus(tmp_path_factory):
    # rounds of ~100-200 frontier rows and ~25-60 image rows with long
    # politeness rounds: wide enough that 1 and 32 task slots give
    # different piece counts
    out = tmp_path_factory.mktemp("fan_out_corpus")
    generate_corpus(out, CorpusSpec(seed=42, n_domains=3, pages_per_domain=300, branching=16))
    return out


@pytest.mark.usefixtures("ray_session")
class TestFanOutParity:
    """The Dataset path's output does not depend on the cluster's task
    slot count: with the slot count forced to 1 and to 32 it matches the
    micro run row for row."""

    @pytest.fixture(scope="class")
    def micro_run(self, fan_out_corpus, tmp_path_factory):
        sites = {s.name: s for s in CrawlSites.from_file(fan_out_corpus / "seeds.json").sites}
        site = sites["deep all domains"]
        out = tmp_path_factory.mktemp("fan_out_micro_out")
        runner, _ = _run(site, fan_out_corpus, out, round_seconds=3600.0)
        yield site, runner, out
        runner.close()

    @pytest.mark.parametrize("slots", [1, 32])
    def test_dataset_path_matches_micro(
        self, slots, micro_run, fan_out_corpus, tmp_path, monkeypatch
    ):
        from searchgov_spider_ray.pipelines import frontier

        site, rm, out_m = micro_run
        pieces: list[int] = []
        fan_out = frontier._fan_out

        def recorded(*args):
            pieces.append(fan_out(*args))
            return pieces[-1]

        monkeypatch.setattr(frontier, "_task_slots", lambda: slots)
        monkeypatch.setattr(frontier, "_fan_out", recorded)
        out_d = tmp_path / "out"
        rd_, _ = _run(site, fan_out_corpus, out_d, round_seconds=3600.0, micro_round_rows=0)
        try:
            _assert_same_crawl(rm, out_m, rd_, out_d)
        finally:
            rd_.close()
        # the rule bit: the cap held every stage at 2 pieces on one slot,
        # and some stage went wider on 32
        assert pieces and (max(pieces) == 2 if slots == 1 else max(pieces) > 2)


# user emit steps live in arbitrary user modules; this test module is
# not importable on Ray workers, so ship its objects by value (a real
# user's __main__ script gets this from cloudpickle automatically)
import sys as _sys

import ray.cloudpickle as _rcp

_rcp.register_pickle_by_value(_sys.modules[__name__])


def _step_add_v(t):
    """priority-10 step: v = depth + 1 (order-sensitive vs _StepDouble)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    return t.append_column("v", pc.add(pc.cast(t["depth"], pa.int64()), 1))


def _step_drop_deep(t):
    """priority-5 step: DROP items deeper than 1 (the Scrapy DropItem
    analog — fewer rows out than in)."""
    import pyarrow.compute as pc

    return t.filter(pc.less_equal(t["depth"], 1))


class _StepDouble:
    """priority-20 STATEFUL step (callable class → actor pool on the
    Dataset path, once-per-job instance on the micro path): v *= 2.
    Running after _step_add_v gives v == (depth+1)*2; a priority
    violation would give (depth*2)+1 instead."""

    def __call__(self, t):
        import pyarrow.compute as pc

        return t.set_column(t.schema.get_field_index("v"), "v", pc.multiply(t["v"], 2))


@pytest.mark.usefixtures("ray_session")
class TestEmitStepsInCrawlLoop:
    """ITEM_PIPELINES end-to-end: user steps injected into the frontier
    emit path must run in (priority, name) order on BOTH round paths,
    may drop and transform item rows, and must leave the crawl itself —
    fetch order, URL-seen set, denials — untouched."""

    def _steps(self):
        from searchgov_spider_ray.stages.steps import Step

        return [
            Step(fn=_StepDouble, priority=20, name="double"),
            Step(fn=_step_add_v, priority=10, name="add_v"),
            Step(fn=_step_drop_deep, priority=5, name="drop_deep"),
        ]

    def _run_with_steps(self, site, corpus_dir, out, **cfg_kwargs):
        cfg = CrawlConfig(round_seconds=ROUND_SECONDS, num_shards=4, **cfg_kwargs)
        runner = CrawlJobRunner(site, corpus_dir, out, cfg, emit_steps=self._steps())
        res = runner.run()
        return runner, res

    def test_steps_apply_and_preserve_order(self, corpus_dir, sim_env, tmp_path_factory):
        corpus, robots, sites, captions = sim_env
        out_m = tmp_path_factory.mktemp("steps_micro_out")
        out_d = tmp_path_factory.mktemp("steps_dataset_out")
        rm, _ = self._run_with_steps(sites["plain"], corpus_dir, out_m)
        rd_, _ = self._run_with_steps(
            sites["plain"], corpus_dir, out_d, micro_round_rows=0
        )
        try:
            sim = simulate_crawl(
                sites["plain"], corpus, robots, captions, round_seconds=ROUND_SECONDS
            )
            # crawl order parity is UNAFFECTED by emit steps, both modes
            for out in (out_m, out_d):
                order = read_order(out)
                assert order["url"].tolist() == [u for _, u, _ in sim.order]
            assert read_seen(rm) == {xxhash64(u) for u in sim.seen}
            assert read_seen(rd_) == {xxhash64(u) for u in sim.seen}
            # emitted rows reflect the steps: drop first, then v=(d+1)*2
            em = pq.read_table(str(out_m / "emitted")).to_pandas()
            ed = pq.read_table(str(out_d / "emitted")).to_pandas()
            depth_of = {u: d for _, u, d in sim.order}
            want_emit = [e for e in sim.emitted if depth_of[e["url"]] <= 1]
            assert len(em) == len(ed) == len(want_emit) > 0
            for df in (em, ed):
                assert (df["depth"] <= 1).all()
                assert df["v"].tolist() == ((df["depth"] + 1) * 2).tolist()
            key = ["round", "depth", "seq", "v"]
            assert (
                em.sort_values(key)[key].values.tolist()
                == ed.sort_values(key)[key].values.tolist()
            )
        finally:
            rm.close()
            rd_.close()


@pytest.mark.usefixtures("ray_session")
class TestMicroRounds:
    """The micro path's payload tasks: image tasks only for image rows,
    one slot lookup per run, and warm kernels that never leak from one
    runner into the next."""

    def test_image_tasks_only_for_image_rows(
        self, sparse_image_corpus, tmp_path_factory, monkeypatch
    ):
        from searchgov_spider_ray.pipelines import frontier

        submitted: list[tuple[bytes, int]] = []
        warm_apply = frontier._warm_apply

        class _Recorded:
            @staticmethod
            def remote(boxed_ref, chunk):
                submitted.append((boxed_ref[0].binary(), len(chunk)))
                return warm_apply.remote(boxed_ref, chunk)

        monkeypatch.setattr(frontier, "_warm_apply", _Recorded)
        corpus, robots, sites, captions = _sim_env(sparse_image_corpus)
        out = tmp_path_factory.mktemp("sparse_image_micro_out")
        runner, res = _run(sites["plain"], sparse_image_corpus, out)
        try:
            sim = simulate_crawl(
                sites["plain"], corpus, robots, captions, round_seconds=ROUND_SECONDS
            )
            emitted = read_emitted(out)
            has_image = emitted["url"].map(lambda u: corpus[u].get("image_id") is not None)
            image_rounds = set(emitted.loc[has_image, "round"])
            assert image_rounds and len(image_rounds) < res.rounds
            image_kern = runner._kernel_refs["images"].binary()
            image_tasks = [n for key, n in submitted if key == image_kern]
            # each image round has fewer than 128 image rows: one task
            assert len(image_tasks) == len(image_rounds)
            assert sum(image_tasks) == len({e["image_id"] for e in sim.emitted if e["image_id"]})
            _assert_sim_parity(runner, out, sim)
        finally:
            runner.close()

    def test_slot_lookup_once_per_run(self, corpus_dir, sim_env, tmp_path, monkeypatch):
        import ray

        _, _, sites, _ = sim_env
        cfg = CrawlConfig(round_seconds=ROUND_SECONDS, num_shards=4)
        runner = CrawlJobRunner(sites["plain"], corpus_dir, tmp_path / "out", cfg)
        calls = []
        cluster_resources = ray.cluster_resources

        def counted():
            calls.append(1)
            return cluster_resources()

        monkeypatch.setattr(ray, "cluster_resources", counted)
        try:
            res = runner.run()
            assert res.rounds > 2
            assert len(calls) <= 1
        finally:
            runner.close()

    def test_manifest_read_once_per_round(self, corpus_dir, sim_env, tmp_path, monkeypatch):
        """run() reads each round's manifest once and hands its
        frontier_rows to the round; the round does not read it again."""
        from searchgov_spider_ray.state.checkpoint import CheckpointStore

        _, _, sites, _ = sim_env
        cfg = CrawlConfig(round_seconds=ROUND_SECONDS, num_shards=4)
        runner = CrawlJobRunner(sites["plain"], corpus_dir, tmp_path / "out", cfg)
        calls = []
        read_manifest = CheckpointStore.read_manifest

        def counted(self, k):
            calls.append(k)
            return read_manifest(self, k)

        monkeypatch.setattr(CheckpointStore, "read_manifest", counted)
        try:
            res = runner.run()
            assert res.rounds > 2
            # one read per round, plus the read of the drained frontier
            assert len(calls) == res.rounds + 1
        finally:
            runner.close()

    def test_back_to_back_runners_match_simulator(self, corpus_dir, sim_env, tmp_path):
        """A second runner in the same Ray session puts new kernel refs,
        so its tasks never reuse the first runner's warm kernels; both
        crawls match the simulator."""
        corpus, robots, sites, captions = sim_env
        site = sites["deep all domains"]
        sim = simulate_crawl(site, corpus, robots, captions, round_seconds=ROUND_SECONDS)
        keys = []
        for i in range(2):
            out = tmp_path / f"out{i}"
            runner, _ = _run(site, corpus_dir, out)
            try:
                keys.append(runner._kernel_refs["links"].binary())
                _assert_sim_parity(runner, out, sim)
            finally:
                runner.close()
        assert keys[0] != keys[1]
