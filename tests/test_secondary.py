"""Sitemap operators, document parsers, sinks, and monitors
(SURVEY.md §2 secondary surfaces)."""

from __future__ import annotations

import json

import pandas as pd
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from searchgov_spider_ray.sources import sitemaps
from searchgov_spider_ray.stages import docparse


SITEMAP_INDEX = b"""<?xml version="1.0"?>
<sitemapindex xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">
  <sitemap><loc>https://a.gov/sitemap1.xml</loc></sitemap>
  <sitemap><loc>https://a.gov/sitemap2.xml</loc></sitemap>
</sitemapindex>"""
SITEMAP_LEAF1 = b"""<?xml version="1.0"?>
<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">
  <url><loc>https://a.gov/p1</loc></url>
  <url><loc>https://a.gov/p2</loc></url>
</urlset>"""
SITEMAP_LEAF2 = b"""<urlset><url><loc>https://a.gov/p3</loc></url></urlset>"""


class TestSitemapParse:
    def test_index_vs_urlset(self):
        children, pages = sitemaps.parse_sitemap_xml(SITEMAP_INDEX)
        assert children == ["https://a.gov/sitemap1.xml", "https://a.gov/sitemap2.xml"]
        assert pages == []
        children, pages = sitemaps.parse_sitemap_xml(SITEMAP_LEAF1)
        assert children == [] and pages == ["https://a.gov/p1", "https://a.gov/p2"]

    def test_malformed_xml_empty(self):
        assert sitemaps.parse_sitemap_xml(b"<not xml") == ([], [])
        assert sitemaps.parse_sitemap_xml(b"<other/>") == ([], [])

    def test_robots_and_html_discovery(self):
        robots = "User-agent: *\nDisallow: /x\nSitemap: https://a.gov/sm.xml\n"
        assert sitemaps.sitemap_urls_from_robots(robots) == ["https://a.gov/sm.xml"]
        html = '<link rel="sitemap" href="/sitemap.xml">'
        assert sitemaps.sitemap_links_from_html(html) == ["/sitemap.xml"]
        cands = sitemaps.discovery_candidates("https://a.gov")
        assert "https://a.gov/sitemap.xml" in cands and len(cands) == 9

    @pytest.mark.usefixtures("ray_session")
    def test_expand_and_diff(self):
        store = {
            "https://a.gov/sitemap.xml": SITEMAP_INDEX,
            "https://a.gov/sitemap1.xml": SITEMAP_LEAF1,
            "https://a.gov/sitemap2.xml": SITEMAP_LEAF2,
        }

        def fetch(urls):
            return {u: store.get(u) for u in urls}

        ds = sitemaps.expand_sitemaps(["https://a.gov/sitemap.xml"], fetch)
        df = ds.to_pandas()
        assert sorted(df["url"]) == ["https://a.gov/p1", "https://a.gov/p2", "https://a.gov/p3"]
        assert (df["sitemap_url"] == "https://a.gov/sitemap.xml").all()

        # first run: no previous snapshot → nothing emitted
        first = sitemaps.snapshot_diff(ds, None)
        assert first.count() == 0
        # second run with one new URL
        prev = ds
        cur = rd.from_pandas(
            pd.DataFrame(
                {"sitemap_url": ["https://a.gov/sitemap.xml"] * 4,
                 "url": ["https://a.gov/p1", "https://a.gov/p2", "https://a.gov/p3", "https://a.gov/p4"]}
            )
        )
        new = sitemaps.snapshot_diff(cur, prev).to_pandas()
        assert new["url"].tolist() == ["https://a.gov/p4"]
        # forced-wide: the hash-partitioned anti join must agree
        wide = sitemaps.snapshot_diff(cur, prev, broadcast_below=0).to_pandas()
        assert wide["url"].tolist() == ["https://a.gov/p4"]

    def test_depth_cap(self):
        # self-referencing index must stop at max_depth, not loop
        loop = b"""<sitemapindex><sitemap><loc>https://a.gov/sitemap.xml</loc></sitemap></sitemapindex>"""

        def fetch(urls):
            return {u: loop for u in urls}

        ds = sitemaps.expand_sitemaps(["https://a.gov/sitemap.xml"], fetch, max_depth=3)
        assert ds.count() == 0


class TestDocParse:
    HTML = b"""<html lang="en"><head><title> My Page </title>
    <meta name="description" content="A description here">
    <meta property="article:published_time" content="2024-03-05T10:00:00">
    <meta name="keywords" content="tax,forms"></head>
    <body><h1>Heading</h1><p>The tax office processes forms. The tax office
    is open daily. Unrelated sentence about weather.</p>
    <a href="/skip">anchor text excluded</a>
    <script>var x = "never in content";</script></body></html>"""

    def test_convert_html_fields(self):
        doc = docparse.convert_html(self.HTML, "https://a.gov/docs/page.html")
        assert doc["title"] == "My Page"
        assert doc["description"] == "A description here"
        assert "tax office" in doc["content"]
        assert "never in content" not in doc["content"]
        assert "anchor text excluded" not in doc["content"]
        assert doc["language"] == "en"
        assert doc["mime_type"] == "text/html"
        assert doc["created_at"] == "2024-03-05T10:00:00"
        assert doc["tags"] == "tax,forms"
        assert doc["domain_name"] == "a.gov"
        assert doc["url_path"] == "/docs/page.html"
        assert doc["basename"] == "page.html"
        assert len(doc["doc_id"]) == 64

    def test_convert_html_empty_returns_none(self):
        assert docparse.convert_html(b"<html><body></body></html>", "https://a.gov/") is None

    def test_convert_pdf_fallback(self):
        doc = docparse.convert_pdf(b"%PDF-1.4 fake annual report text", "https://a.gov/AnnualReport2023.pdf")
        assert doc["mime_type"] == "application/pdf"
        assert "annual report text" in doc["content"]
        assert "Annual Report 2023" == doc["title"]
        assert doc["extension"] == "pdf"
        assert docparse.convert_pdf(b"not a pdf", "https://a.gov/x.pdf") is None

    def test_pdf_stub_raises(self):
        with pytest.raises(NotImplementedError):
            docparse.PdfExtractStub().extract(b"%PDF")

    def test_dates(self):
        assert docparse.parse_date_safely("2024-01-02") == "2024-01-02T00:00:00"
        assert docparse.parse_date_safely("D:20240102150405") == "2024-01-02T15:04:05"
        assert docparse.parse_date_safely("D:2024") == "2024-01-01T00:00:00"
        assert docparse.parse_date_safely("garbage !!") is None
        assert docparse.parse_date_safely(None) is None

    def test_summary_keywords(self):
        text = ("The budget covers schools. The budget covers roads. "
                "Weather was fine today. The budget is large.")
        summary, keywords = docparse.summarize_text(text)
        assert "budget" in summary
        assert keywords.split(",")[0] == "budget"

    def test_i14y_suffix_reconstruction(self):
        doc = docparse.convert_html(self.HTML, "https://a.gov/p.html")
        rec = docparse.to_i14y_record(doc)
        assert rec["title_en"] == "My Page"
        assert "title" not in rec
        assert rec["_id"] == doc["doc_id"]
        doc["language"] = "zh"
        assert "title_zh" in docparse.to_i14y_record(doc)
        doc["language"] = "xx"  # unsupported → en fallback
        assert "title_en" in docparse.to_i14y_record(doc)

    @pytest.mark.usefixtures("ray_session")
    def test_docparser_stage(self):
        import pyarrow as pa

        batch = pa.table(
            {
                "url": ["https://a.gov/p.html", "https://a.gov/r.pdf", "https://a.gov/x.bin"],
                "body": [self.HTML, b"%PDF-1.4 fake pdf body", b"\x00\x01"],
                "content_type": ["text/html; charset=utf-8", "application/pdf", "application/octet-stream"],
                "content_language": ["en-US", None, None],
            }
        )
        ds = rd.from_arrow(batch)
        out = ds.map_batches(docparse.DocParser, batch_format="pyarrow", concurrency=1).to_pandas()
        assert len(out) == 2
        assert set(out["mime_type"]) == {"text/html", "application/pdf"}


@pytest.mark.usefixtures("ray_session")
class TestSinks:
    def test_write_url_csv(self, tmp_path):
        from searchgov_spider_ray.sinks.writers import write_url_csv

        ds = rd.from_pandas(pd.DataFrame({"url": [f"https://a.gov/p{i}" for i in range(100)], "x": 1}))
        write_url_csv(ds, tmp_path / "csv")
        files = list((tmp_path / "csv").glob("*.csv"))
        assert files
        lines = sum(len(f.read_text().strip().splitlines()) - 1 for f in files)  # minus headers
        assert lines == 100

    def test_endpoint_poster_batches_and_flushes(self):
        import pyarrow as pa

        from searchgov_spider_ray.sinks.writers import EndpointBatchPoster

        posts = []
        poster = EndpointBatchPoster(post=posts.append, max_bytes=200)
        urls = [f"https://a.gov/page{i}" for i in range(30)]
        poster(pa.table({"url": urls}))
        assert posts  # hit the 200-byte threshold mid-batch
        poster.flush()
        assert sum(len(p["urls"]) for p in posts) == 30

    def test_write_i14y_jsonl(self, tmp_path):
        from searchgov_spider_ray.sinks.writers import write_i14y_jsonl

        doc = docparse.convert_html(TestDocParse.HTML, "https://a.gov/p.html")
        ds = rd.from_pandas(pd.DataFrame([doc]))
        write_i14y_jsonl(ds, tmp_path / "i14y")
        files = list((tmp_path / "i14y").glob("*.jsonl"))
        assert len(files) == 1
        rec = json.loads(files[0].read_text().splitlines()[0])
        assert rec["title_en"] == "My Page"

    def test_sitemap_snapshot_writer(self, tmp_path):
        from searchgov_spider_ray.sinks.writers import write_sitemap_snapshot

        ds = rd.from_pandas(
            pd.DataFrame({"sitemap_url": ["https://a.gov/sm.xml"] * 3,
                          "url": ["https://a.gov/b", "https://a.gov/a", "https://a.gov/c"]})
        )
        write_sitemap_snapshot(ds, tmp_path / "snaps")
        files = list((tmp_path / "snaps").glob("*.txt"))
        assert len(files) == 1
        assert files[0].read_text().splitlines() == ["https://a.gov/a", "https://a.gov/b", "https://a.gov/c"]


class TestMonitors:
    def test_evaluate_run(self, tmp_path):
        import pyarrow as pa

        from searchgov_spider_ray.pipelines.monitors import evaluate_run

        (tmp_path / "emitted" / "round-0000").mkdir(parents=True)
        pq.write_table(
            pa.table({"doc_id": ["a", "b"]}),
            tmp_path / "emitted" / "round-0000" / "part.parquet",
        )
        (tmp_path / "order" / "round-0000").mkdir(parents=True)
        pq.write_table(
            pa.table({"status": pa.array([200, 200, 500, 404], type=pa.int16())}),
            tmp_path / "order" / "round-0000" / "part.parquet",
        )
        rep = evaluate_run(tmp_path, wall_seconds=100.0)
        assert rep.passed
        assert rep.stats["items"] == 2
        assert rep.stats["unwanted_http"] == 1  # 500 counts, 404 doesn't
        rep2 = evaluate_run(tmp_path, wall_seconds=100.0, max_unwanted=0)
        assert not rep2.passed and not rep2.checks["unwanted_http_budget"]


def test_robots_multi_disallow_and_zero_delay():
    """Arrow list<string> cells arrive as numpy arrays: 2+ disallow
    entries must parse (truthiness of arrays is ambiguous), and
    Crawl-delay: 0 must mean 'no wait', not ZeroDivisionError."""
    import pyarrow as pa

    from searchgov_spider_ray.pipelines.simulator import RobotsRules

    t = pa.table(
        {
            "domain": ["a.gov", "z.gov"],
            "disallow": [["/a", "/b"], []],
            "crawl_delay": pa.array([0.0, 1.0], type=pa.float64()),
            "sitemap_url": pa.array([None, None], type=pa.string()),
        }
    )
    r = RobotsRules.from_table(t)
    assert not r.allowed("https://a.gov/b/x")
    assert r.allowed("https://a.gov/c")
    assert r.budget("a.gov", 10.0) >= 1 << 30  # zero delay -> unbounded


def test_expand_sitemaps_in_round_dedup():
    """Two indexes referencing the same child in ONE round must not
    double-emit the child's pages."""
    from searchgov_spider_ray.sources.sitemaps import expand_sitemaps

    child = b'<urlset><url><loc>https://s.gov/p1</loc></url></urlset>'
    idx = b'<sitemapindex><sitemap><loc>https://s.gov/child.xml</loc></sitemap></sitemapindex>'
    corpus = {"https://s.gov/a.xml": idx, "https://s.gov/b.xml": idx, "https://s.gov/child.xml": child}
    ds = expand_sitemaps(["https://s.gov/a.xml", "https://s.gov/b.xml"], lambda urls: {u: corpus.get(u) for u in urls})
    rows = ds.to_pandas()
    assert len(rows) == 1, rows


def test_endpoint_poster_flushes_tail_per_batch():
    import pyarrow as pa

    from searchgov_spider_ray.sinks.writers import EndpointBatchPoster

    posted = []
    p = EndpointBatchPoster(post=posted.append, max_bytes=50)
    p(pa.table({"url": [f"https://x.gov/{i}" for i in range(7)]}))
    got = [u for payload in posted for u in payload["urls"]]
    assert got == [f"https://x.gov/{i}" for i in range(7)]  # nothing buffered/lost
