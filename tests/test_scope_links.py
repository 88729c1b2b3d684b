"""Scope filter + link extractor + config tests (mirrors reference
test_middlewares.py / test_spider.py table-driven cases)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from searchgov_spider_ray.sources.crawl_sites import CrawlSite, CrawlSites
from searchgov_spider_ray.stages.links import extract_links, extract_links_batch
from searchgov_spider_ray.stages.scope import (
    DENY_DEPTH,
    DENY_EXTENSION,
    DENY_OFFSITE,
    DENY_PATH,
    DENY_QUERY,
    KEEP,
    JobScope,
    content_type_mask,
    simple_content_type,
)


class TestJobScope:
    def setup_method(self):
        self.scope = JobScope(
            allowed_domains=["example.gov"],
            deny_paths=["/tag/"],
            allow_query_string=False,
            depth_limit=3,
        )

    def eval1(self, url, depth=1, scope=None):
        return (scope or self.scope).evaluate(pd.Series([url]), np.array([depth]))[0]

    def test_in_scope(self):
        assert self.eval1("https://example.gov/a.html") == KEEP
        assert self.eval1("https://sub.example.gov/a.html") == KEEP

    def test_offsite(self):
        assert self.eval1("https://other.gov/a.html") == DENY_OFFSITE
        assert self.eval1("https://notexample.gov/a.html") == DENY_OFFSITE

    def test_query_string(self):
        assert self.eval1("https://example.gov/a?x=1") == DENY_QUERY
        qs = JobScope(["example.gov"], allow_query_string=True)
        assert self.eval1("https://example.gov/a?x=1", scope=qs) == KEEP

    def test_deny_path(self):
        assert self.eval1("https://example.gov/tag/x.html") == DENY_PATH

    def test_extension(self):
        assert self.eval1("https://example.gov/x.jpg") == DENY_EXTENSION
        assert self.eval1("https://example.gov/x.css") == DENY_EXTENSION
        assert self.eval1("https://example.gov/x.pdf") == KEEP
        assert self.eval1("https://example.gov/x.html") == KEEP

    def test_depth(self):
        assert self.eval1("https://example.gov/a.html", depth=4) == DENY_DEPTH
        assert self.eval1("https://example.gov/a.html", depth=3) == KEEP

    def test_path_scoped_domain(self):
        # Pinned by reference test_middlewares.py:15-24: example.com/path
        # scope rejects http://example.com/1
        s = JobScope(allowed_domains=["example.com/path"])
        assert self.eval1("http://example.com/path/x", scope=s) == KEEP
        assert self.eval1("http://example.com/1", scope=s) == DENY_OFFSITE

    def test_url_and_port_entries_ignored(self):
        with pytest.warns(UserWarning):
            s = JobScope(allowed_domains=["https://example.com", "example.gov"])
        assert self.eval1("https://example.gov/a", scope=s) == KEEP

    def test_content_type(self):
        cts = pd.Series(
            ["text/html; charset=utf-8", "application/pdf", "image/png", "text/plain"]
        )
        assert content_type_mask(cts, "csv").tolist() == [True, True, False, True]
        assert content_type_mask(cts, "elasticsearch").tolist() == [True, True, False, False]
        assert simple_content_type(cts).tolist() == [
            "text/html", "application/pdf", "image/png", "text/plain",
        ]


class TestLinkExtractor:
    HTML = b"""
    <html><head><link rel="stylesheet" href="/no.css"></head><body>
    <a href="/a.html">a</a>
    <a href='b.html'>b</a>
    <area href="https://other.gov/c.html">
    <va-link href="/d.html"></va-link>
    <a href="/a.html">dup</a>
    <a href="#frag">skip</a>
    <a href="mailto:x@y.gov">skip</a>
    <a href="javascript:void(0)">skip</a>
    <script src="/never.js"></script>
    </body></html>"""

    def test_extract_ordered_unique(self):
        links = extract_links("https://example.gov/dir/page.html", self.HTML)
        assert links == [
            "https://example.gov/a.html",
            "https://example.gov/dir/b.html",
            "https://other.gov/c.html",
            "https://example.gov/d.html",
        ]

    def test_batch_explode(self):
        import pyarrow as pa

        batch = pa.table(
            {
                "url": ["https://example.gov/p.html", "https://example.gov/x.pdf"],
                "seq": pa.array([5, 6], type=pa.int64()),
                "body": [self.HTML, b"%PDF"],
                "content_type": ["text/html; charset=utf-8", "application/pdf"],
            }
        )
        out = extract_links_batch(batch)
        assert out.num_rows == 4  # only the HTML page yields links
        assert out["parent_seq"].to_pylist() == [5, 5, 5, 5]
        assert out["link_seq"].to_pylist() == [0, 1, 2, 3]


class TestCrawlSites:
    def test_valid_config(self):
        sites = CrawlSites.from_records(
            [
                {"name": "A", "allowed_domains": "a.gov", "starting_urls": "https://a.gov/"},
                {"name": "B", "allowed_domains": "b.gov,c.gov", "starting_urls": "https://b.gov/,https://c.gov/"},
            ]
        )
        assert sites.sites[1].allowed_domains == ["b.gov", "c.gov"]
        assert sites.sites[0].job_id == "a"
        assert sites.to_arrow().num_rows == 2
        assert sites.sites[1].allowed_hosts == ["b.gov", "c.gov"]

    def test_duplicate_job_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate job_id"):
            CrawlSites.from_records(
                [
                    {"name": "A", "job_id": "x", "allowed_domains": "a.gov", "starting_urls": "https://a.gov/"},
                    {"name": "B", "job_id": "x", "allowed_domains": "b.gov", "starting_urls": "https://b.gov/"},
                ]
            )

    def test_duplicate_target_domains_rejected(self):
        with pytest.raises(ValueError, match="output_target"):
            CrawlSites.from_records(
                [
                    {"name": "A", "allowed_domains": "a.gov", "starting_urls": "https://a.gov/"},
                    {"name": "B", "allowed_domains": "a.gov", "starting_urls": "https://a.gov/x"},
                ]
            )

    def test_field_validation(self):
        with pytest.raises(ValueError, match="depth_limit"):
            CrawlSite("X", ["a.gov"], ["https://a.gov/"], depth_limit=0)
        with pytest.raises(ValueError, match="output_target"):
            CrawlSite("X", ["a.gov"], ["https://a.gov/"], output_target="s3")
        with pytest.raises(ValueError, match="deny_paths"):
            CrawlSite("X", ["a.gov"], ["https://a.gov/"], deny_paths="/t/,/t/")


class TestPageBaseJoin:
    """_PageBase.join must be bit-identical to urllib.parse.urljoin for
    every href shape (fast paths + fallback routing)."""

    BASES = [
        "http://h.example.gov/a/b/c.html?q=1#f",
        "https://h.gov",
        "http://h.gov/",
        "http://h.gov/a/",
        "http://u:p@h.gov:8080/x/y?z",
    ]
    HREFS = [
        "x.html", "/abs/p", "//other.gov/p", "?q=2", "sub/dir/p?a=1#z",
        "p#frag", "../up", "./same", "a/../b", "news:id", "HTTP://X.gov/P",
        "http://abs.gov/p", "a.b/c", "x:y", "/..", ".", "..", "a./b",
        "p?", "p/", "?", "/p?", "//h.gov/p?", "p?a=1&b=2", "/a/b/./c",
    ]

    def test_matches_urljoin(self):
        from urllib.parse import urljoin

        from searchgov_spider_ray.stages.links import _PageBase

        for b in self.BASES:
            pb = _PageBase(b)
            for h in self.HREFS:
                assert pb.join(h) == urljoin(b, h), (b, h)

    def test_unparseable_base_falls_back(self):
        from urllib.parse import urljoin

        from searchgov_spider_ray.stages.links import _PageBase

        assert _PageBase("not-a-url").join("x") == urljoin("not-a-url", "x")


class TestRobotsReasonVectorized:
    """robots_reason's grouped/regex fast path must match per-row
    host_of/path_of + startswith semantics exactly."""

    def _rules(self):
        from searchgov_spider_ray.pipelines.simulator import RobotsRules

        return RobotsRules(
            disallow={
                "a.gov": ["/private", "/tmp"],
                "b.gov": ["/"],
                "c.gov": [],
            },
            crawl_delay={},
        )

    def test_matches_reference_semantics(self):
        import numpy as np
        import pandas as pd

        from searchgov_spider_ray.functions.urlnorm import host_of, path_of
        from searchgov_spider_ray.stages.politeness import robots_reason

        urls = pd.Series(
            [
                "http://a.gov/private/x",      # denied
                "http://a.gov/public",          # allowed
                "http://a.gov/tmp",             # denied
                "http://A.GOV./private",        # host normalizes → denied
                "http://u:p@a.gov:80/private",  # userinfo+port → denied
                "http://b.gov",                 # empty path reads "/" → denied
                "http://b.gov/anything",        # denied (rule "/")
                "http://c.gov/private",         # no rules → allowed
                "http://unknown.gov/private",   # no rules → allowed
                "junk",                         # unparseable → allowed
                "",                             # empty → allowed
            ],
            dtype="object",
        )
        rob = self._rules()
        got = robots_reason(urls, rob)
        want = np.array(
            [
                not rob.allowed(u) if host_of(u) in rob.disallow else False
                for u in urls
            ]
        )
        assert got.tolist() == want.tolist()
        assert got.tolist() == [
            True, False, True, True, True, True, True, False, False, False, False
        ]


def test_link_cap_bounds_admission_key():
    """A 70k-anchor page yields exactly MAX_LINKS_PER_PAGE unique links
    (first in document order) instead of overflowing the 16-bit
    link_seq admission-key field."""
    from searchgov_spider_ray.stages.links import MAX_LINKS_PER_PAGE, extract_links

    n = 70_000
    body = "".join(f'<a href="/p{i}.html">' for i in range(n))
    out = extract_links("https://site.gov/", body)
    assert len(out) == MAX_LINKS_PER_PAGE
    assert out[0] == "https://site.gov/p0.html"
    assert out[-1] == f"https://site.gov/p{MAX_LINKS_PER_PAGE - 1}.html"


class TestCanonScopeOracle:
    """The Arrow link chain (``_CanonScope``) row by row against a
    per-URL oracle written here from ``canonicalize``, ``re`` and
    ``urlsplit`` only. It shares no code with ``JobScope.evaluate`` or
    ``robots_reason``, which the simulator also uses (so parity with
    the simulator cannot catch a bug in them)."""

    ALLOWED = ["example.gov", "other.gov/docs"]  # one path-scoped entry
    DENY = [r"/tag/\d+"]
    DEPTH_LIMIT = 3
    DISALLOW = {
        "example.gov": ["/private", "/tmp"],
        "sub.example.gov": ["/"],
        "other.gov": ["/docs/secret"],
    }
    LINKS = [  # (raw url, parent depth)
        ("https://example.gov/a.html", 0),
        ("https://example.gov/a.html", 3),            # same URL, too deep
        ("https://example.gov/Photo.JPG", 0),         # mixed-case extension
        ("https://example.gov/x.tar.gz", 0),
        ("https://example.gov/tag/12/x.html", 0),     # deny_paths regex
        ("https://example.gov/tag/x.html", 0),
        ("https://elsewhere.gov/a.html", 0),          # offsite host
        ("https://notexample.gov/a.html", 0),
        ("https://other.gov/docs/a.html", 0),         # path-scoped entry
        ("https://other.gov/misc/a.html", 0),         # host ok, path not
        ("https://other.gov/docs/secret/a.html", 1),  # robots, third host
        ("https://example.gov/a?x=1", 0),             # query string
        ("https://example.gov/private/p.html", 1),    # robots
        ("https://example.gov/private/p.html", 3),    # depth before robots
        ("https://example.gov/private/p.html", 2),
        ("https://sub.example.gov/a.html", 0),        # subdomain: robots "/"
        ("https://deep.sub.example.gov/b.html", 0),   # subdomain, no rules
        # non-canonical raw URLs (the per-URL slow path)
        ("HTTPS://Example.GOV:443/a/../tmp/b.html", 0),
        ("https://example.gov/c.html\n", 0),
        ("https://example.gov//c.html", 0),
        ("https://user:pw@Sub.Example.gov./z", 2),
        ("https://example.gov/%7Euser/d.PNG", 0),
        ("https://example.gov", 1),
        ("https://example.gov/a.html#frag", 0),
        ("https://example.gov/q?b=2&a=1", 0),
    ]

    def _oracle(self, raw: str, parent_depth: int) -> tuple[str, str, str, int]:
        import re
        from urllib.parse import urlsplit

        from searchgov_spider_ray.functions.urlnorm import canonicalize
        from searchgov_spider_ray.stages.scope import FILTER_EXTENSIONS

        url = canonicalize(raw)
        parts = urlsplit(url)
        host = parts.netloc.split(":")[0]
        path = parts.path or "/"
        depth = parent_depth + 1
        host_ok = any(host == e.split("/")[0] or host.endswith("." + e.split("/")[0])
                      for e in self.ALLOWED)
        if any(path.lower().endswith("." + e) for e in FILTER_EXTENSIONS):
            reason = "extension"
        elif any(re.search(d, url) for d in self.DENY):
            reason = "deny_path"
        elif not (host_ok and any(e in url for e in self.ALLOWED)):
            reason = "offsite"
        elif "?" in url:
            reason = "query_string"
        elif depth > self.DEPTH_LIMIT:
            reason = "depth"
        elif any(path.startswith(p) for p in self.DISALLOW.get(host, [])):
            reason = "robots"
        else:
            reason = ""
        return url, host, reason, depth

    def test_rows_match_oracle(self):
        import pyarrow as pa

        from searchgov_spider_ray.functions.hashing import xxhash64
        from searchgov_spider_ray.pipelines.frontier import _CanonScope
        from searchgov_spider_ray.pipelines.simulator import RobotsRules

        scope = JobScope(self.ALLOWED, deny_paths=self.DENY, depth_limit=self.DEPTH_LIMIT)
        chain = _CanonScope(scope, RobotsRules(disallow=self.DISALLOW, crawl_delay={}))
        n = len(self.LINKS)
        batch = pa.table(
            {
                "parent_url": ["https://example.gov/"] * n,
                "parent_seq": pa.array(range(n), type=pa.int64()),
                "parent_depth": pa.array([d for _, d in self.LINKS], type=pa.int32()),
                "url": [u for u, _ in self.LINKS],
                "link_seq": pa.array([0] * n, type=pa.int64()),
            }
        )
        out = chain(batch)
        assert out.column_names == [
            "parent_seq", "parent_depth", "link_seq", "url", "depth", "domain", "url_hash",
            "reason",
        ]
        got = out.to_pylist()
        reasons = set()
        for (raw, pdepth), row in zip(self.LINKS, got):
            url, host, reason, depth = self._oracle(raw, pdepth)
            assert (row["url"], row["domain"], row["reason"], row["depth"]) == (
                url, host, reason, depth
            ), raw
            assert row["url_hash"] == xxhash64(url), raw
            reasons.add(reason)
        # the batch exercises every reason the chain can give
        assert reasons == {
            "", "extension", "deny_path", "offsite", "query_string", "depth", "robots"
        }
