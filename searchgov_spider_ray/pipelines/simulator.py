"""Single-threaded reference crawl simulator — the executable spec.

Stand-in for the reference engine's deterministic golden crawl
(/root/reference/tests/search_gov_spiders/test_full_crawl.py:122-171,
which replays a committed HTTP cache through the full Scrapy engine).
The Ray pipeline (pipelines/frontier.py) must reproduce this
simulator's fetch ORDER, URL-seen SET, emitted rows and denial reasons
exactly; tests compare them (SURVEY.md §5, FIXTURES.md §5).

Pinned semantics (BSP rounds replace Scrapy's 1-in-flight FIFO event
loop, reference settings.py:45,53-64):

* Canonical form: ``urlnorm.canonicalize``; the URL-seen set holds
  canonical URLs (hash: xxhash64) — scrapy-redis fingerprint analog
  (job_state/dupefilter.py:8-25).
* Round 0: canonicalized starting URLs, depth 0, seq = position.
  Scope/robots-denied seeds are denied (reference logs + drops,
  middlewares.py:155-166).
* Each round: frontier sorted by (depth, seq). Per-domain politeness
  budget = max(1, floor(round_seconds / crawl_delay)) URLs this round
  (crawl_delay from robots, default 1.0 s = DOWNLOAD_DELAY,
  settings.py:47); the first budget rows per domain in (depth, seq)
  order are fetched, the rest carry over with (depth, seq) unchanged.
* Global fetch order = ascending (round, depth, seq). This is the
  golden ordering; with one domain it degenerates to exact BFS FIFO.
* Fetch misses / non-200 consume budget and order rank but emit
  nothing and yield no links (RETRY_ENABLED=False — a failed URL is
  lost, settings.py:38).
* Pages with status 200 and an allowed content type for the job's
  output_target are emitted, in fetch order.
* Links come from ``stages.links.extract_links`` over text/html bodies
  (ordered, per-page-unique). Children are canonicalized then filtered
  in the fixed order extension → deny_path → offsite → query_string →
  depth (child depth = parent depth + 1 vs depth_limit) → robots →
  duplicate. Denials are recorded with reasons; only ADMITTED URLs
  enter the seen set.
* Admission order within a round = (parent_depth, parent_seq,
  link_seq); first occurrence wins intra-round dedup. Admitted
  children get seq from a per-depth counter in admission order —
  reproducing FIFO enqueue order without serialized execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import floor

import pandas as pd
import pyarrow as pa

from ..functions.hashing import sha256_hex, xxhash64
from ..functions.urlnorm import canonicalize, host_of, path_of
from ..sources.crawl_sites import CrawlSite
from ..stages.links import extract_links
from ..stages.scope import (
    DENY_DUPLICATE,
    DENY_ROBOTS,
    KEEP,
    JobScope,
    content_type_mask,
)

DEFAULT_ROUND_SECONDS = 30.0
DEFAULT_CRAWL_DELAY = 1.0


@dataclass
class RobotsRules:
    """Per-domain politeness + disallow rules (FIXTURES.md §4)."""

    disallow: dict[str, list[str]] = field(default_factory=dict)
    crawl_delay: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_table(cls, table: pa.Table) -> "RobotsRules":
        df = table.to_pandas()
        # disallow cells arrive as numpy arrays (Arrow list<string>):
        # `x or []` raises on 2+ entries (ambiguous array truth value)
        dis = {
            r.domain: ([] if r.disallow is None else list(r.disallow))
            for r in df.itertuples()
        }
        delay = {
            r.domain: (r.crawl_delay if pd.notna(r.crawl_delay) else DEFAULT_CRAWL_DELAY)
            for r in df.itertuples()
        }
        return cls(dis, delay)

    def allowed(self, url: str) -> bool:
        rules = self.disallow.get(host_of(url))
        if not rules:
            return True
        path = path_of(url)
        return not any(path.startswith(p) for p in rules)

    def delay(self, domain: str) -> float:
        return self.crawl_delay.get(domain, DEFAULT_CRAWL_DELAY)

    def budget(self, domain: str, round_seconds: float) -> int:
        d = self.delay(domain)
        if d <= 0:  # Crawl-delay: 0 — no politeness wait, unbounded round
            return 1 << 30
        return max(1, floor(round_seconds / d))


@dataclass
class SimResult:
    order: list[tuple[int, str, int]]  # (rank, url, depth)
    seen: set[str]
    emitted: list[dict]
    denied: set[tuple[str, str]]  # (url, reason)
    rounds: int

    def order_table(self, job_id: str) -> pa.Table:
        return pa.table(
            {
                "job_id": [job_id] * len(self.order),
                "rank": pa.array([r for r, _, _ in self.order], type=pa.int64()),
                "url": [u for _, u, _ in self.order],
                "depth": pa.array([d for _, _, d in self.order], type=pa.int32()),
            }
        )

    def seen_table(self, job_id: str) -> pa.Table:
        urls = sorted(self.seen)
        return pa.table(
            {
                "job_id": [job_id] * len(urls),
                "url_hash": pa.array([xxhash64(u) for u in urls], type=pa.uint64()),
                "url": urls,
            }
        )


def simulate_crawl(
    site: CrawlSite,
    corpus: dict[str, dict],
    robots: RobotsRules,
    captions: dict[str, str] | None = None,
    round_seconds: float = DEFAULT_ROUND_SECONDS,
    max_rounds: int = 10_000,
) -> SimResult:
    """Run the reference crawl semantics for one job over an in-memory
    corpus (url → {status, content_type, body, image_id})."""
    captions = captions or {}
    scope = JobScope(
        allowed_domains=site.allowed_domains,
        deny_paths=site.deny_paths,
        allow_query_string=site.allow_query_string,
        depth_limit=site.depth_limit,
    )
    seen: set[str] = set()
    denied: set[tuple[str, str]] = set()
    order: list[tuple[int, str, int]] = []
    emitted: list[dict] = []
    depth_counters: dict[int, int] = {}
    frontier: list[tuple[int, int, str]] = []  # (depth, seq, url)

    def admit(candidates: list[tuple[int, int, int, str]]):
        """candidates: (parent_depth, parent_seq, link_seq, canonical_url)
        in any order → scope is already applied; dedup + seq-assign."""
        for pdepth, pseq, lseq, url in sorted(candidates):
            if url in seen:
                denied.add((url, DENY_DUPLICATE))
                continue
            depth = pdepth + 1
            seq = depth_counters.get(depth, 0)
            depth_counters[depth] = seq + 1
            seen.add(url)
            frontier.append((depth, seq, url))

    # --- round 0: seeds ---------------------------------------------------
    seed_candidates: list[tuple[int, int, int, str]] = []
    for i, raw in enumerate(site.starting_urls):
        url = canonicalize(raw)
        reason = scope.evaluate(pd.Series([url]), [0])[0]
        if reason == KEEP and not robots.allowed(url):
            reason = DENY_ROBOTS
        if reason != KEEP:
            denied.add((url, reason))
            continue
        seed_candidates.append((-1, 0, i, url))
    admit(seed_candidates)

    rank = 0
    rounds = 0
    while frontier and rounds < max_rounds:
        rounds += 1
        frontier.sort()
        spent: dict[str, int] = {}
        fetch_now: list[tuple[int, int, str]] = []
        carry: list[tuple[int, int, str]] = []
        for depth, seq, url in frontier:
            domain = host_of(url)
            if spent.get(domain, 0) < robots.budget(domain, round_seconds):
                spent[domain] = spent.get(domain, 0) + 1
                fetch_now.append((depth, seq, url))
            else:
                carry.append((depth, seq, url))
        frontier = carry

        candidates: list[tuple[int, int, int, str]] = []
        for depth, seq, url in fetch_now:
            order.append((rank, url, depth))
            rank += 1
            page = corpus.get(url)
            if page is None or page["status"] != 200:
                continue
            ctype = page["content_type"]
            if content_type_mask(pd.Series([ctype]), site.output_target)[0]:
                image_id = page.get("image_id")
                emitted.append(
                    {
                        "url": url,
                        "doc_id": sha256_hex(url),
                        "image_id": image_id,
                        "caption": captions.get(image_id) if image_id else None,
                    }
                )
            if site.prevent_follow or not ctype.startswith("text/html"):
                continue
            body = page["body"]
            if site.handle_javascript:
                from ..stages.fetch import render_js_body

                body = render_js_body(body)
            for link_seq, child in enumerate(extract_links(url, body)):
                curl = canonicalize(child)
                reason = scope.evaluate(pd.Series([curl]), [depth + 1])[0]
                if reason == KEEP and not robots.allowed(curl):
                    reason = DENY_ROBOTS
                if reason != KEEP:
                    denied.add((curl, reason))
                    continue
                candidates.append((depth, seq, link_seq, curl))
        admit(candidates)
    return SimResult(order=order, seen=seen, emitted=emitted, denied=denied, rounds=rounds)


def load_corpus_dict(pages_table: pa.Table) -> dict[str, dict]:
    """corpus_pages Arrow table → url-keyed dict for the simulator."""
    out: dict[str, dict] = {}
    for row in pages_table.to_pylist():
        out[row["url"]] = {
            "status": row["status"],
            "content_type": row["content_type"],
            "body": row["body"],
            "image_id": row.get("image_id"),
        }
    return out
