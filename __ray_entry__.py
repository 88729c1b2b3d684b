"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself, then ``entry()`` as a smoke
check, runs each ``queries()[name](sf_dir)`` at sf=0.01 and compares
against ``oracle_sql()[name]`` via DuckDB (row-count + schema +
order-insensitive value-hash). Nothing here may call ray.init /
ray.shutdown.

Query implementations live in
``searchgov_spider_ray/pipelines/queries.py``; the crawl engine itself
is ``searchgov_spider_ray/pipelines/frontier.py`` (see SURVEY.md §2
for the operator inventory each entry maps to).
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

from searchgov_spider_ray.pipelines.queries import ORACLES, QUERIES  # noqa: E402


def entry() -> Any:
    """Flagship pipeline smoke: full crawl-frontier run (canonicalize →
    scope → dedup shards → politeness → fetch → decode/phash → Lance-
    shaped corpus rows) on the deterministic packaged corpus, plus a
    read of sf0.001 to prove the testdata path. Returns the fetch-order
    table (stable schema: rank, url, depth)."""
    import pandas as pd  # noqa: F401
    import ray.data as rd

    # prove the sf-dir read path works (driver smoke uses sf0.001)
    _ = rd.read_parquet("/root/testdata/sf0.001/region.parquet").count()
    from searchgov_spider_ray.pipelines.queries import crawl_order

    return crawl_order("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2 +
    the training-data additions (dedup / text analysis)."""
    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    """DuckDB-equivalent SQL for every SQL-expressible query — this now
    includes bit-exact integer-arithmetic replays of MinHash/SimHash
    near-dup, dup clustering, fingerprints, lang-ID, stratified
    sampling, and the composed curation pipeline. Only the stateful
    crawl/image/monitor entries are omitted (rows-only check;
    pytest pins their semantics against fixtures/simulator)."""
    return dict(ORACLES)
