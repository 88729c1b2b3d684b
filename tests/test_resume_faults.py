"""Resume after a fault inside a round, in both round executors.

A crawl raises at one boundary of round 2 (the politeness grant merge,
the order, corpus or denied sink, the seq assignment after the shards
have admitted the round's URLs, the shard dump, or the checkpoint
manifest written after it), the runner is closed, and a fresh runner
resumes from the last complete checkpoint. The resumed crawl must equal
an uninterrupted one: fetch order, URL-seen set, denials, emitted URLs,
landed image ids, and the last checkpoint's frontier and depth counters.

The sink and manifest boundaries run the whole crawl. The politeness,
seq and shard-dump boundaries stop after CAPPED_ROUNDS rounds, and are
compared with an uninterrupted crawl capped the same way, to keep the
matrix short."""

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
CAPPED_ROUNDS = 5  # of the 13 rounds `deep all domains` takes
FULL_ROUNDS = CrawlConfig.max_rounds  # more than the job takes
JOB = "deep all domains"
EXECUTORS = {"micro": {}, "dataset": {"micro_round_rows": 0}}
BOUNDARY_ROUNDS = {
    "order": FULL_ROUNDS,
    "corpus": FULL_ROUNDS,
    "denied": FULL_ROUNDS,
    "manifest": FULL_ROUNDS,
    "politeness": CAPPED_ROUNDS,
    "seq": CAPPED_ROUNDS,
    "shard_dump": CAPPED_ROUNDS,
}


class _Fault(Exception):
    pass


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("resume_faults_corpus")
    generate_corpus(out, CorpusSpec(seed=42, n_domains=3, pages_per_domain=40))
    return out


def _crawl(corpus_dir, out, max_rounds, resume=False, **cfg_kwargs):
    site = {s.name: s for s in CrawlSites.from_file(corpus_dir / "seeds.json").sites}[JOB]
    cfg = CrawlConfig(
        round_seconds=ROUND_SECONDS, num_shards=4, max_rounds=max_rounds, **cfg_kwargs
    )
    runner = CrawlJobRunner(site, corpus_dir, out, cfg)
    try:
        runner.run(resume=resume)
        return _outcome(runner, out)
    finally:
        runner.close()


def _frontier_rows(fdir) -> list:
    """Sorted (depth, seq, url) rows of a checkpoint's frontier. The
    Dataset executor writes no file for an empty frontier."""
    rows = []
    for f in fdir.glob("*.parquet"):
        t = pq.read_table(f, columns=["depth", "seq", "url"])
        rows += zip(*(col.to_pylist() for col in t.columns))
    return sorted(rows)


def _outcome(runner, out) -> dict:
    order = read_order(out)
    landed = pq.read_table(str(out / "corpus"), columns=["image_id"])
    last = runner.ckpt.latest_complete_round()
    return {
        "last_checkpoint": last,
        "frontier": _frontier_rows(runner.ckpt.frontier_dir(last)),
        "depth_counters": runner.ckpt.read_manifest(last)["depth_counters"],
        "order": order[["round", "depth", "seq", "url"]].values.tolist(),
        "seen": read_seen(runner),
        "denied": read_denied(out),
        "emitted": read_emitted(out)["url"].tolist(),
        "images": sorted(landed["image_id"].to_pylist()),
    }


@pytest.fixture(scope="module")
def uninterrupted(corpus_dir, tmp_path_factory):
    """Outcome of an uninterrupted crawl, by max_rounds (run once each)."""
    outcomes = {}

    def outcome(max_rounds):
        if max_rounds not in outcomes:
            out = tmp_path_factory.mktemp("resume_faults_full")
            outcomes[max_rounds] = _crawl(corpus_dir, out, max_rounds)
        return outcomes[max_rounds]

    return outcome


def _raise_at_sink(monkeypatch, name: str, sink: str, fired: list) -> None:
    write = getattr(frontier, name)

    def faulty(data, base, round_id):
        if base.name == sink and round_id == FAULT_ROUND:
            fired.append(sink)
            raise _Fault(sink)
        return write(data, base, round_id)

    monkeypatch.setattr(frontier, name, faulty)


def _raise_in_fault_round(monkeypatch, owner, name: str, boundary: str, fired: list) -> None:
    """Make ``owner.name`` raise when called inside round FAULT_ROUND."""
    run_round = CrawlJobRunner._run_round
    current = {}

    def tracked(self, k, *args):
        current["round"] = k
        return run_round(self, k, *args)

    call = getattr(owner, name)

    def faulty(*args):
        if current.get("round") == FAULT_ROUND:
            fired.append(boundary)
            raise _Fault(boundary)
        return call(*args)

    monkeypatch.setattr(CrawlJobRunner, "_run_round", tracked)
    monkeypatch.setattr(owner, name, faulty)


def _raise_at_shard_dump(monkeypatch, fired: list) -> None:
    dump_shards = frontier.dump_shards

    def faulty(shards, out_dir, done_round):
        if done_round == FAULT_ROUND:
            fired.append("shard_dump")
            raise _Fault("shard_dump")
        return dump_shards(shards, out_dir, done_round)

    monkeypatch.setattr(frontier, "dump_shards", faulty)


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
@pytest.mark.parametrize("boundary", list(BOUNDARY_ROUNDS))
@pytest.mark.parametrize("executor", sorted(EXECUTORS))
def test_resume_after_fault_matches_uninterrupted(
    executor, boundary, corpus_dir, uninterrupted, tmp_path, monkeypatch
):
    cfg_kwargs = EXECUTORS[executor]
    max_rounds = BOUNDARY_ROUNDS[boundary]
    fired: list = []
    with monkeypatch.context() as m:
        if boundary == "politeness":
            _raise_in_fault_round(m, CrawlJobRunner, "_grant_thresholds", boundary, fired)
        elif boundary == "seq":
            # the router's offers have already admitted the round's
            # novel URLs into the shards when seq assignment runs
            _raise_in_fault_round(m, frontier, "_assign_seq_kernel", boundary, fired)
        elif boundary == "shard_dump":
            _raise_at_shard_dump(m, fired)
        elif boundary == "manifest":
            _raise_at_manifest(m, fired)
        else:
            sink_writer = "_write_table_round" if executor == "micro" else "_write_round"
            _raise_at_sink(m, sink_writer, boundary, fired)
        with pytest.raises(_Fault):
            _crawl(corpus_dir, tmp_path, max_rounds, **cfg_kwargs)
    assert fired == [boundary]
    resumed = _crawl(corpus_dir, tmp_path, max_rounds, resume=True, **cfg_kwargs)
    assert resumed == uninterrupted(max_rounds)
