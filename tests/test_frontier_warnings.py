"""A crawl on either executor, and a fixture read, log no Ray Data
WARNING record beyond two open ones.

Held at zero, each fixed at its source: "Operator produced a RefBundle
with a different schema than the previous one" (an operator emitting a
column-less empty block after a block with columns; a map over an empty
input block produces one), "Failed to hash the schemas" (a fixture read
whose schema carries pandas metadata) and "Error calculating size for
column" (Ray Data sizing an empty pandas block). Still open (ROADMAP
direction 9), each logged once per process: Ray Data's advice on the
session's object-store size, which comes from ``ray.init``, and its "no
available CPUs" notice, which a Dataset-executor payload stage logs when
it starts while the round's raw block tasks hold every CPU."""

from __future__ import annotations

import logging
from contextlib import contextmanager

import pytest

from searchgov_spider_ray.pipelines import queries
from searchgov_spider_ray.pipelines.frontier import CrawlConfig, CrawlJobRunner
from searchgov_spider_ray.sources.corpusgen import CorpusSpec, generate_corpus
from searchgov_spider_ray.sources.crawl_sites import CrawlSites


_OPEN = (
    "Ray's object store is configured to use only",
    "The Ray cluster currently does not have any available CPUs",
)


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record):
        msg = record.getMessage()
        if not any(o in msg for o in _OPEN):
            self.messages.append(msg)


@contextmanager
def _ray_data_warnings():
    logger = logging.getLogger("ray.data")
    assert logger.isEnabledFor(logging.WARNING)
    records = _Records()
    logger.addHandler(records)
    try:
        yield records.messages
    finally:
        logger.removeHandler(records)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize(
    "executor", [{}, {"micro_round_rows": 0}], ids=["micro", "dataset"]
)
def test_crawl_logs_no_warning(tmp_path, executor):
    corpus = tmp_path / "corpus"
    generate_corpus(corpus, CorpusSpec(seed=42, n_domains=3, pages_per_domain=40))
    site = {s.name: s for s in CrawlSites.from_file(corpus / "seeds.json").sites}["plain"]
    cfg = CrawlConfig(round_seconds=10.0, num_shards=4, **executor)
    with _ray_data_warnings() as messages:
        runner = CrawlJobRunner(site, corpus, tmp_path / "out", cfg)
        try:
            res = runner.run()
        finally:
            runner.close()
    assert res.fetched > 0
    assert messages == []


@pytest.mark.usefixtures("ray_session")
def test_fixture_read_logs_no_warning(sf_dir):
    with _ray_data_warnings() as messages:
        ds = queries._read(sf_dir, "documents").repartition(3).materialize()
    assert ds.count() > 0
    assert messages == []
