"""The Dataset executor's round: Ray Data runs only the frontier read,
the payload stages and the URL-seen router; every other pass and the
sinks run as raw tasks on materialized block refs.

A Ray Data execution costs 75–160 ms of process-tree CPU even on a
trivial block, a raw task ~6 ms, so the execution count per round is
pinned here, with the sink's retry safety and the absence of Ray Data's
eager-free DeprecationWarning."""

from __future__ import annotations

import warnings

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray
from ray.data._internal.execution.streaming_executor import StreamingExecutor

from searchgov_spider_ray.pipelines import frontier
from searchgov_spider_ray.pipelines.frontier import CrawlConfig, CrawlJobRunner
from searchgov_spider_ray.sources.corpusgen import CorpusSpec, generate_corpus
from searchgov_spider_ray.sources.crawl_sites import CrawlSites

# frontier read + link payload + URL-seen router
EXECUTIONS_PER_ROUND = 3


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("dataset_round_corpus")
    generate_corpus(out, CorpusSpec(seed=42, n_domains=3, pages_per_domain=40))
    return out


def _crawl(corpus_dir, out):
    site = {s.name: s for s in CrawlSites.from_file(corpus_dir / "seeds.json").sites}["plain"]
    cfg = CrawlConfig(round_seconds=10.0, num_shards=4, micro_round_rows=0)
    runner = CrawlJobRunner(site, corpus_dir, out, cfg)
    try:
        return runner.run()
    finally:
        runner.close()


@pytest.mark.usefixtures("ray_session")
def test_round_runs_at_most_three_ray_data_executions(corpus_dir, tmp_path, monkeypatch):
    """At most 3 executions per round, plus 1 in a round that lands
    images (the image payload stage)."""
    per_round: dict[int, int] = {}
    current = {}
    run_round = CrawlJobRunner._run_round
    execute = StreamingExecutor.execute

    def tracked(self, k, *args):
        current["round"] = k
        return run_round(self, k, *args)

    def counted(self, *args, **kwargs):
        k = current.get("round")
        per_round[k] = per_round.get(k, 0) + 1
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(CrawlJobRunner, "_run_round", tracked)
    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    out = tmp_path / "out"
    res = _crawl(corpus_dir, out)

    assert res.rounds > 1 and res.fetched > 0
    image_rounds = {int(d.name.split("-")[1]) for d in (out / "corpus").glob("round-*")}
    assert image_rounds
    assert set(per_round) == set(range(res.rounds))
    for k, n in per_round.items():
        assert n <= EXECUTIONS_PER_ROUND + (k in image_rounds), (k, n)


@pytest.mark.usefixtures("ray_session")
def test_dataset_crawl_records_no_deprecation_warning(corpus_dir, tmp_path):
    """Ray Data eagerly frees the intermediate bundles between operators
    through Ray's deprecated ``free``; the round passes no such bundles
    to a Ray Data operator of its own."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = _crawl(corpus_dir, tmp_path / "out")
    assert res.fetched > 0
    assert [str(w.message) for w in caught if issubclass(w.category, DeprecationWarning)] == []


@pytest.mark.usefixtures("ray_session")
def test_write_round_twice_leaves_same_files(tmp_path):
    """A retried sink writes the same block file again instead of adding
    rows: writing one value twice leaves the same file set and rows."""
    blocks = [pa.table({"x": list(range(n))}) for n in (3, 0, 5)]
    refs = tuple(ray.put(b) for b in blocks)

    def even(t):  # a pending kernel, run by the sink task itself
        return t.filter(pc.equal(pc.bit_wise_and(t["x"], 1), 0))

    x = (frontier._Part(refs, (3, 0, 5), (even,)),)
    base = tmp_path / "sink"

    def state():
        files = sorted(p.name for p in (base / "round-0007").iterdir())
        return files, pq.read_table(str(base / "round-0007")).num_rows

    frontier._write_round(x, base, 7)
    first = state()
    frontier._write_round(x, base, 7)
    assert state() == first
    assert first == (["part-000000.parquet", "part-000002.parquet"], 5)
