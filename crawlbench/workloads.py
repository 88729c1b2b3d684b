"""Workload definitions and the seeded corpus cache.

Each workload is a synthetic corpus spec (``sources.corpusgen``) plus the
crawl job run over it: every domain is allowed and page 0 of every domain
is a starting URL. The seed changes the corpus noise edges and image
pixels, not the crawl's size.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

# Corpora kept in the cache at once (oldest evicted first).
CACHE_KEEP = 6
# Deep enough that no crawl of these corpora is cut by depth.
DEPTH_LIMIT = 30


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict  # CorpusSpec fields other than ``seed``
    round_seconds: float  # the politeness budget of one round
    # CrawlConfig overrides beyond round_seconds / num_shards
    cfg: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="wide_bfs",
            why=(
                "~20 links per page, most of them duplicates: the most link "
                "extraction, canonicalize/scope and URL-seen work per page, and "
                "the one round run on the Dataset executor path"
            ),
            spec=dict(n_domains=40, pages_per_domain=200, branching=20, image_rate_mod=1000),
            round_seconds=3600.0,
            # The widest round (~6 k frontier rows) must take the Dataset
            # path; the default threshold (131,072 rows) needs a corpus
            # whose crawl takes about a minute on one core.
            cfg=dict(micro_round_rows=4096),
        ),
        Workload(
            name="polite_skew",
            why=(
                "one hot domain drains 20 URLs per round for 200+ micro rounds: "
                "per-round orchestration, politeness grant and checkpoint cost"
            ),
            spec=dict(
                n_domains=40,
                pages_per_domain=100,
                hot_domain_factor=45,
                branching=8,
                image_rate_mod=1000,
            ),
            round_seconds=20.0,
        ),
        Workload(
            name="image_land",
            why=(
                "every page carries an image of up to 192 px: payload gather, "
                "decode and pHash and the corpus sink; link work is light"
            ),
            spec=dict(
                n_domains=20,
                pages_per_domain=100,
                branching=4,
                image_rate_mod=1,
                max_image_side=192,
            ),
            round_seconds=3600.0,
        ),
    ]
}


def corpus_spec(workload: Workload, seed: int):
    from searchgov_spider_ray.sources.corpusgen import CorpusSpec

    return CorpusSpec(seed=seed, **workload.spec)


def spec_key(spec) -> str:
    """Stable cache key of a CorpusSpec (all fields, seed included)."""
    blob = json.dumps(asdict(spec), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def ensure_corpus(cache_root: Path, workload: Workload, seed: int) -> tuple[Path, float | None]:
    """Return (corpus dir, generation seconds or None when cached).

    Corpora are cached under ``cache_root`` keyed by (workload, spec,
    seed). Generation writes to a temporary directory renamed into place,
    so an interrupted run never leaves a half-written corpus behind."""
    from searchgov_spider_ray.sources.corpusgen import generate_corpus

    spec = corpus_spec(workload, seed)
    target = cache_root / f"{workload.name}-{spec_key(spec)}"
    if (target / "seeds.json").exists():
        os.utime(target)
        return target, None
    cache_root.mkdir(parents=True, exist_ok=True)
    for stale in cache_root.glob(f".tmp-{target.name}-*"):  # from killed runs
        shutil.rmtree(stale, ignore_errors=True)
    tmp = cache_root / f".tmp-{target.name}-{os.getpid()}"
    t0 = time.perf_counter()
    generate_corpus(tmp, spec, workers=0)
    gen_s = time.perf_counter() - t0
    shutil.rmtree(target, ignore_errors=True)
    tmp.rename(target)
    _evict(cache_root, keep=CACHE_KEEP)
    return target, gen_s


def _evict(cache_root: Path, keep: int) -> None:
    dirs = [d for d in cache_root.iterdir() if d.is_dir() and not d.name.startswith(".")]
    dirs.sort(key=lambda d: d.stat().st_mtime, reverse=True)
    for d in dirs[keep:]:
        shutil.rmtree(d, ignore_errors=True)


def crawl_job(workload: Workload, seed: int, num_shards: int):
    """(CrawlSite, CrawlConfig) of the workload's crawl job."""
    from searchgov_spider_ray.pipelines.frontier import CrawlConfig
    from searchgov_spider_ray.sources.corpusgen import page_url
    from searchgov_spider_ray.sources.crawl_sites import CrawlSite

    domains = corpus_spec(workload, seed).domains()
    site = CrawlSite(
        name=f"crawlbench {workload.name}",
        allowed_domains=domains,
        starting_urls=[page_url(d, 0) for d in domains],
        depth_limit=DEPTH_LIMIT,
        output_target="elasticsearch",
    )
    cfg = replace(
        CrawlConfig(round_seconds=workload.round_seconds, num_shards=num_shards),
        **workload.cfg,
    )
    return site, cfg
