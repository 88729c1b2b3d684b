"""Resume after a fault inside a round, in both round executors.

A crawl raises at one boundary of round 2 (the order, corpus or denied
sink, or the checkpoint manifest written after the shard dump), the
runner is closed, and a fresh runner resumes from the last complete
checkpoint. The finished crawl must equal an uninterrupted one: fetch
order, URL-seen set, denials, emitted URLs and landed image ids."""

from __future__ import annotations

import pyarrow.parquet as pq
import pytest

from searchgov_spider_ray.pipelines import frontier
from searchgov_spider_ray.pipelines.frontier import (
    CrawlConfig,
    CrawlJobRunner,
    read_denied,
    read_emitted,
    read_order,
    read_seen,
)
from searchgov_spider_ray.sources.corpusgen import CorpusSpec, generate_corpus
from searchgov_spider_ray.sources.crawl_sites import CrawlSites
from searchgov_spider_ray.state.checkpoint import CheckpointStore

ROUND_SECONDS = 10.0
FAULT_ROUND = 2
JOB = "deep all domains"
EXECUTORS = {"micro": {}, "dataset": {"micro_round_rows": 0}}


class _Fault(Exception):
    pass


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("resume_faults_corpus")
    generate_corpus(out, CorpusSpec(seed=42, n_domains=3, pages_per_domain=40))
    return out


def _crawl(corpus_dir, out, resume=False, **cfg_kwargs):
    site = {s.name: s for s in CrawlSites.from_file(corpus_dir / "seeds.json").sites}[JOB]
    cfg = CrawlConfig(round_seconds=ROUND_SECONDS, num_shards=4, **cfg_kwargs)
    runner = CrawlJobRunner(site, corpus_dir, out, cfg)
    try:
        runner.run(resume=resume)
        return _outcome(runner, out)
    finally:
        runner.close()


def _outcome(runner, out) -> dict:
    order = read_order(out)
    landed = pq.read_table(str(out / "corpus"), columns=["image_id"])
    return {
        "order": order[["round", "depth", "seq", "url"]].values.tolist(),
        "seen": read_seen(runner),
        "denied": read_denied(out),
        "emitted": read_emitted(out)["url"].tolist(),
        "images": sorted(landed["image_id"].to_pylist()),
    }


@pytest.fixture(scope="module")
def uninterrupted(corpus_dir, tmp_path_factory):
    return _crawl(corpus_dir, tmp_path_factory.mktemp("resume_faults_full"))


def _raise_at_sink(monkeypatch, name: str, sink: str, fired: list) -> None:
    write = getattr(frontier, name)

    def faulty(data, base, round_id):
        if base.name == sink and round_id == FAULT_ROUND:
            fired.append(sink)
            raise _Fault(sink)
        return write(data, base, round_id)

    monkeypatch.setattr(frontier, name, faulty)


def _raise_at_manifest(monkeypatch, fired: list) -> None:
    write_manifest = CheckpointStore.write_manifest

    def faulty(self, k, manifest):
        # checkpoint k + 1 closes round k; its shards are already dumped
        if k == FAULT_ROUND + 1:
            fired.append("manifest")
            raise _Fault("manifest")
        return write_manifest(self, k, manifest)

    monkeypatch.setattr(CheckpointStore, "write_manifest", faulty)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("boundary", ["order", "corpus", "denied", "manifest"])
@pytest.mark.parametrize("executor", sorted(EXECUTORS))
def test_resume_after_fault_matches_uninterrupted(
    executor, boundary, corpus_dir, uninterrupted, tmp_path, monkeypatch
):
    cfg_kwargs = EXECUTORS[executor]
    fired: list = []
    with monkeypatch.context() as m:
        if boundary == "manifest":
            _raise_at_manifest(m, fired)
        else:
            sink_writer = "_write_table_round" if executor == "micro" else "_write_round"
            _raise_at_sink(m, sink_writer, boundary, fired)
        with pytest.raises(_Fault):
            _crawl(corpus_dir, tmp_path, **cfg_kwargs)
    assert fired == [boundary]
    assert _crawl(corpus_dir, tmp_path, resume=True, **cfg_kwargs) == uninterrupted
