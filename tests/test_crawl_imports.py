"""The crawl's import closure stays free of the query side: importing the
frontier and the job entry point must not load the driver-contract
queries, the training-data kernels, the relational joins or the
multimodal stage. Cuts on either side then cannot reach the other."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

QUERY_SIDE = (
    "searchgov_spider_ray.pipelines.queries",
    "searchgov_spider_ray.pipelines.training",
    "searchgov_spider_ray.pipelines.relational",
    "searchgov_spider_ray.stages.multimodal",
)


def test_crawl_imports_no_query_side_module():
    # a fresh interpreter: this test process may already hold them
    code = (
        "import json, sys\n"
        "import searchgov_spider_ray.pipelines.frontier\n"
        "import searchgov_spider_ray.run_job\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=Path(__file__).resolve().parents[1],
    ).stdout
    loaded = set(json.loads(out.splitlines()[-1]))
    assert "searchgov_spider_ray.pipelines.frontier" in loaded
    assert loaded.isdisjoint(QUERY_SIDE), sorted(loaded & set(QUERY_SIDE))
