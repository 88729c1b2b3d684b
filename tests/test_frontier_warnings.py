"""A Dataset-executor crawl logs no Ray Data schema warnings.

Ray Data warns "Operator produced a RefBundle with a different schema
than the previous one" when an operator emits a column-less empty block
after a block with columns (a map over an empty input block produces
one). The crawl must not hand Ray such blocks."""

from __future__ import annotations

import logging

import pytest

from searchgov_spider_ray.pipelines.frontier import CrawlConfig, CrawlJobRunner
from searchgov_spider_ray.sources.corpusgen import CorpusSpec, generate_corpus
from searchgov_spider_ray.sources.crawl_sites import CrawlSites


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@pytest.mark.usefixtures("ray_session")
def test_dataset_round_logs_no_schema_warning(tmp_path):
    corpus = tmp_path / "corpus"
    generate_corpus(corpus, CorpusSpec(seed=42, n_domains=3, pages_per_domain=40))
    site = {s.name: s for s in CrawlSites.from_file(corpus / "seeds.json").sites}["plain"]
    cfg = CrawlConfig(round_seconds=10.0, num_shards=4, micro_round_rows=0)
    logger = logging.getLogger("ray.data")
    assert logger.isEnabledFor(logging.WARNING)
    records = _Records()
    logger.addHandler(records)
    runner = CrawlJobRunner(site, corpus, tmp_path / "out", cfg)
    try:
        res = runner.run()
    finally:
        runner.close()
        logger.removeHandler(records)
    assert res.fetched > 0
    assert [m for m in records.messages if "different schema" in m] == []
