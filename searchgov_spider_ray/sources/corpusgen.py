"""Deterministic synthetic web-graph + image corpus generator.

Stand-in for the reference's committed DBM HTTP-cache replay
(/root/reference/tests/search_gov_spiders/test_full_crawl.py:32-39) and
the quotes.toscrape golden crawl: a seeded, pure generator emits
``corpus_pages`` (fetchable URL → status/content-type/body/links),
``corpus_images`` (the Lance-shaped image+caption table of
BASELINE.json input_hint), ``robots`` rules and a crawl-sites-format
seeds file (FIXTURES.md §1–4). No wall-clock, no network; seed=42
convention.

The page graph is a within-domain tree over the page index modulus
(guarantees reachability from page 0 within log_branching(n) depth)
plus deterministic noise edges exercising every filter: duplicate
links, offsite links, query-string links, extension-denied links,
deny-path pages, robots-disallowed pages, relative hrefs, non-HTML
content types and non-200 statuses.

Scales to bench size (≥10⁶ pages) by chunked ParquetWriter output; use
``pages_per_domain`` × ``n_domains`` to size, ``hot_domain_factor`` to
create the skewed domain (FIXTURES.md §7).
"""

from __future__ import annotations

import json
import multiprocessing
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.hashing import xxhash64
from ..stages.decode import fake_decode, fake_encode, phash64

try:  # pragma: no cover - optional; parquet is always written
    import lance
except ImportError:
    lance = None


@dataclass
class CorpusSpec:
    seed: int = 42
    n_domains: int = 3
    pages_per_domain: int = 50
    branching: int = 4
    hot_domain_factor: int = 1  # domain 0 gets factor × pages (skew)
    image_rate_mod: int = 3  # every k-th page carries an image
    body_filler: int = 0  # extra filler bytes per body (bench sizing)
    max_image_side: int = 48
    # JS-rendered domains (S4): pages carry links in a js-links script
    # blob invisible to the static extractor; 0 keeps the corpus
    # byte-identical to pre-JS specs
    js_domains: int = 0
    # Page-file parquet codec. HTML bodies compress ~40x under zstd, so
    # compressed pages turn the fetch path's dominant memory-bus byte
    # stream into CPU-scalable decompression (~13% single-core read
    # overhead, measured) — the right trade on a multi-node cluster AND
    # for measured scaling on one box. Image payloads stay uncompressed
    # (pseudorandom bytes, 0% gain, pure decompress overhead).
    pages_codec: str = "zstd"
    # Image-file parquet row-group rows. Payload gathers read whole row
    # groups, so sparse rounds pay (rg_rows × image_size) per image hit:
    # at the default ~500-row groups a 400-seed round read ~5 GB for
    # 400×25 KB of images (measured ~6 s flat). Small groups bound the
    # amplification; dense rounds still stream the file sequentially.
    image_rg_rows: int = 64
    # Page-file parquet row-group rows — the SAME sparse-gather lesson
    # applied to bodies: the crawl's ramp rounds touch a few leading
    # pages of every domain, and each hit decompresses its whole zstd
    # row group (at 1,024-row groups a 7 k-URL ramp round decompressed
    # ~400 full groups ≈ 2.4 GB of body bytes for 43 MB of hits).
    # Default keeps the historical layout; the bench spec shrinks it.
    pages_rg_rows: int = 1_024

    def domains(self) -> list[str]:
        return [f"site{i}.example.gov" for i in range(self.n_domains)]

    def js_domain_names(self) -> list[str]:
        return [f"jsite{i}.example.gov" for i in range(self.js_domains)]

    def pages_in_domain(self, d: int) -> int:
        return self.pages_per_domain * (self.hot_domain_factor if d == 0 else 1)


def page_path(j: int) -> str:
    if j % 7 == 3:
        return f"/sub/p{j}.html"
    if j % 11 == 5:
        return f"/private/p{j}.html"
    return f"/p{j}.html"


def page_url(domain: str, j: int) -> str:
    return f"https://{domain}{page_path(j)}"


def page_content_type(j: int) -> str:
    if j % 13 == 7:
        return "application/pdf"
    if j % 17 == 11:
        return "image/png"
    return "text/html"


def page_status(j: int) -> int:
    if j % 23 == 19:
        return 404
    if j % 29 == 21:
        return 500
    return 200


def page_links(spec: CorpusSpec, d: int, j: int) -> list[str]:
    """Deterministic ordered outlinks of page j in domain d (ground
    truth; the rendered HTML embeds exactly these hrefs in order)."""
    domain = spec.domains()[d]
    n = spec.pages_in_domain(d)
    links: list[str] = []
    for i in range(spec.branching):
        k = (j * spec.branching + i + 1) % n
        if j % 4 == 0 and i == 0:
            links.append(f"p{k}.html" if page_path(k) == f"/p{k}.html" else page_path(k))
        else:
            links.append(page_url(domain, k))
    h = xxhash64(f"{spec.seed}:{d}:{j}")
    if h % 5 == 0 and links:  # duplicate link
        links.append(links[0])
    if h % 7 == 1:  # query-string link to an existing page
        links.append(page_url(domain, (j + 1) % n) + f"?ref={j}&src=page")
    if h % 6 == 2:  # offsite: next domain (in-corpus) + external
        other = spec.domains()[(d + 1) % spec.n_domains]
        links.append(page_url(other, j % spec.pages_in_domain((d + 1) % spec.n_domains)))
        links.append("https://www.external-site.com/x")
    if h % 4 == 3:  # extension-denied links
        links.append(f"https://{domain}/assets/a{j}.css")
        links.append(f"https://{domain}/img/i{j}.jpg")
    if h % 9 == 4:  # deny-path page link (exists in corpus as /tag/)
        links.append(f"https://{domain}/tag/t{j % 10}.html")
    return links


def render_body(url: str, title: str, links: list[str], filler: int = 0) -> bytes:
    anchors = []
    for i, href in enumerate(links):
        tag = "a" if i % 5 != 4 else ("area" if i % 2 == 0 else "va-link")
        anchors.append(f'<{tag} href="{href}">link {i}</{tag}>')
    pad = f"<p>{'x' * filler}</p>" if filler else ""
    # <link>/<script> hrefs must NOT be extracted (tag allowlist).
    html = (
        f"<html><head><title>{title}</title>"
        f'<link rel="stylesheet" href="/assets/never.css"></head>'
        f"<body><h1>{title}</h1>{pad}{''.join(anchors)}"
        f'<script src="/assets/never.js"></script></body></html>'
    )
    return html.encode("utf-8")


def js_page_links(spec: CorpusSpec, d: int, j: int) -> list[str]:
    """Deterministic outlinks of JS page j in js-domain d: the same
    within-domain tree shape as ``page_links`` plus a query-string
    noise link — these appear ONLY in the js-links script blob."""
    domain = spec.js_domain_names()[d]
    n = spec.pages_per_domain
    links = [page_url(domain, (j * spec.branching + i + 1) % n) for i in range(spec.branching)]
    h = xxhash64(f"{spec.seed}:js:{d}:{j}")
    if h % 7 == 1:
        links.append(page_url(domain, (j + 1) % n) + f"?ref={j}")
    return links


def render_body_js(url: str, title: str, links: list[str], filler: int = 0) -> bytes:
    """HTML whose links live in a js-links JSON blob (what a real JS
    site serves before rendering): the static extractor sees NO
    anchors; JsFetcher's render step materializes them."""
    payload = json.dumps(links)
    pad = f"<p>{'x' * filler}</p>" if filler else ""
    html = (
        f"<html><head><title>{title}</title></head>"
        f"<body><h1>{title}</h1>{pad}<noscript>please enable javascript</noscript>"
        f'<script id="js-links" type="application/json">{payload}</script></body></html>'
    )
    return html.encode("utf-8")


def pixels_for(spec: CorpusSpec, image_id: str) -> tuple[np.ndarray, int, int, str]:
    """Pure function (seed, image_id) → (pixels, w, h, fmt). Tests
    recompute reference pixels from here instead of storing rasters."""
    h64 = xxhash64(f"{spec.seed}:{image_id}")
    w = 16 + (h64 % (spec.max_image_side - 15))
    h = 16 + ((h64 >> 8) % (spec.max_image_side - 15))
    fmt = "jpeg" if h64 % 2 else "png"
    rng = np.random.RandomState(h64 % (2**31))
    yy, xx = np.mgrid[0:h, 0:w]
    base = (xx * 255 / max(1, w - 1) * 0.5 + yy * 255 / max(1, h - 1) * 0.5).astype(np.float64)
    wave = 40 * np.sin(xx / 3.0 + (h64 % 7)) * np.cos(yy / 4.0 + (h64 % 5))
    noise = rng.randint(0, 30, size=(h, w))
    chan = np.clip(base + wave + noise, 0, 255).astype(np.uint8)
    pixels = np.stack([chan, np.roll(chan, 3, axis=0), 255 - chan], axis=2)
    return pixels, int(w), int(h), fmt


def caption_for(spec: CorpusSpec, image_id: str) -> str:
    h64 = xxhash64(f"{spec.seed}:cap:{image_id}")
    subjects = ["satellite photo", "office scan", "chart", "map tile", "form page", "seal"]
    return f"{subjects[h64 % len(subjects)]} {image_id} v{h64 % 97}"


def image_id_for(d: int, j: int, mod: int = 3) -> str | None:
    return f"img-{d}-{j}" if j % mod == 0 else None


PAGES_SCHEMA = pa.schema(
    [
        ("url_hash", pa.uint64()),  # xxhash64(url): the fetch-join key
        ("url", pa.string()),
        ("domain", pa.string()),
        ("status", pa.int16()),
        ("content_type", pa.string()),
        ("content_language", pa.string()),
        ("body", pa.binary()),
        ("links", pa.list_(pa.string())),
        ("image_id", pa.string()),
    ]
)

IMG_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("bytes", pa.binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
    ]
)


def _pages_shard(spec: CorpusSpec, kind: str, d: int) -> pa.Table:
    """One domain's pages as a table (pure in (spec, kind, d) — the
    parallel generator's unit of work). ``kind`` picks the plain tree,
    the js-rendered tree, or the whole deny-path /tag/ tail; rows are
    emitted in exactly the sequential generator's order."""
    rows: dict[str, list] = {k: [] for k in PAGES_SCHEMA.names}
    if kind == "plain":
        domain = spec.domains()[d]
        for j in range(spec.pages_in_domain(d)):
            url = page_url(domain, j)
            ctype = page_content_type(j)
            links = page_links(spec, d, j) if ctype == "text/html" else []
            if ctype == "text/html":
                body = render_body(url, f"Page {d}-{j}", links, spec.body_filler)
            elif ctype == "application/pdf":
                body = b"%PDF-1.4 fake " + f"doc {d}-{j}".encode()
            else:
                body = b"\x89PNG fake"
            img = image_id_for(d, j, spec.image_rate_mod)
            rows["url_hash"].append(xxhash64(url))
            rows["url"].append(url)
            rows["domain"].append(domain)
            rows["status"].append(page_status(j))
            rows["content_type"].append(ctype + ("; charset=utf-8" if ctype == "text/html" else ""))
            rows["content_language"].append("en" if j % 2 == 0 else None)
            rows["body"].append(body)
            rows["links"].append(links)
            rows["image_id"].append(img)
    elif kind == "js":
        domain = spec.js_domain_names()[d]
        for j in range(spec.pages_per_domain):
            url = page_url(domain, j)
            ctype = page_content_type(j)
            links = js_page_links(spec, d, j) if ctype == "text/html" else []
            if ctype == "text/html":
                body = render_body_js(url, f"JS Page {d}-{j}", links, spec.body_filler)
            elif ctype == "application/pdf":
                body = b"%PDF-1.4 fake " + f"jsdoc {d}-{j}".encode()
            else:
                body = b"\x89PNG fake"
            img = image_id_for(d, j, spec.image_rate_mod)
            img = f"img-js{d}-{j}" if img is not None else None
            rows["url_hash"].append(xxhash64(url))
            rows["url"].append(url)
            rows["domain"].append(domain)
            rows["status"].append(page_status(j))
            rows["content_type"].append(ctype + ("; charset=utf-8" if ctype == "text/html" else ""))
            rows["content_language"].append("en" if j % 2 == 0 else None)
            rows["body"].append(body)
            rows["links"].append(links)
            rows["image_id"].append(img)
    else:  # deny-path /tag/ pages exist so the deny filter (not 404s) decides
        for dd, domain in enumerate(spec.domains()):
            for t in range(10):
                url = f"https://{domain}/tag/t{t}.html"
                body = render_body(url, f"Tag {t}", [page_url(domain, t)])
                rows["url_hash"].append(xxhash64(url))
                rows["url"].append(url)
                rows["domain"].append(domain)
                rows["status"].append(200)
                rows["content_type"].append("text/html; charset=utf-8")
                rows["content_language"].append("en")
                rows["body"].append(body)
                rows["links"].append([page_url(domain, t)])
                rows["image_id"].append(None)
    return pa.table(rows, schema=PAGES_SCHEMA)


def _images_shard(spec: CorpusSpec, ids: list[str]) -> pa.Table:
    """One chunk of the image table (pure in (spec, ids))."""
    irows: dict[str, list] = {k: [] for k in IMG_SCHEMA.names}
    for image_id in ids:
        pixels, w, h, fmt = pixels_for(spec, image_id)
        data = fake_encode(pixels, fmt)
        decoded, *_ = fake_decode(data)
        irows["image_id"].append(image_id)
        irows["bytes"].append(data)
        irows["w"].append(w)
        irows["h"].append(h)
        irows["fmt"].append(fmt)
        irows["caption"].append(caption_for(spec, image_id))
        # golden phash of the DECODED pixels (lossy loss included),
        # stored as int64 per input_hint (two's-complement of uint64).
        irows["phash"].append(np.uint64(phash64(decoded)).astype(np.int64).item())
    return pa.table(irows, schema=IMG_SCHEMA)


def _ordered_map(ex, fn, jobs: list[tuple], window: int):
    """Yield ``fn(*job)`` results in submission order with a bounded
    in-flight window (``ex is None`` → run inline). Bounding the window
    bounds driver memory to ~window shard tables regardless of how far
    fast workers run ahead."""
    if ex is None:
        for job in jobs:
            yield fn(*job)
        return
    pending: deque = deque()
    i = 0
    while pending or i < len(jobs):
        while i < len(jobs) and len(pending) < window:
            pending.append(ex.submit(fn, *jobs[i]))
            i += 1
        yield pending.popleft().result()


def generate_corpus(
    out_dir: str | Path,
    spec: CorpusSpec | None = None,
    chunk: int = 1_024,
    workers: int | None = None,
) -> dict:
    """Write corpus_pages / corpus_images / robots parquet (+ .lance when
    the lance package exists) and seeds.json under ``out_dir``. Returns
    summary counts. Deterministic in ``spec.seed``.

    Generation is sharded per domain (pages) / id-chunk (images) across
    a spawn-mode process pool — every shard is a pure function of
    (spec, shard key) and results are WRITTEN IN SUBMISSION ORDER, so
    the file contents are row-for-row identical to the sequential path
    (which remains the ``workers=0`` / small-spec route and is pinned
    against the parallel route by a unit test). The bench-scale corpus
    (~2M pages / ~500k images, ~12 GB) drops from ~35 min of one-core
    generation to minutes on an idle box — the turn-key cost any fresh
    machine pays before its first `bench.py --scaling` leg. Spawn (not
    fork) keeps workers free of any live Ray runtime state."""
    spec = spec or CorpusSpec()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    domains = spec.domains()

    total_pages = sum(spec.pages_in_domain(d) for d in range(spec.n_domains))
    total_pages += spec.js_domains * spec.pages_per_domain
    if workers is None:
        # pool spin-up (~1 s) only pays for itself at bench-ish scale
        workers = min(16, os.cpu_count() or 1) if total_pages >= 100_000 else 0
    ex = (
        ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")
        )
        if workers > 1
        else None
    )

    page_jobs: list[tuple] = [(spec, "plain", d) for d in range(spec.n_domains)]
    page_jobs += [(spec, "js", d) for d in range(spec.js_domains)]
    page_jobs += [(spec, "tags", 0)]
    n_pages = 0
    image_ids: list[str] = []
    writer = pq.ParquetWriter(
        out / "corpus_pages.parquet", PAGES_SCHEMA, compression=spec.pages_codec
    )
    try:
        for tab in _ordered_map(ex, _pages_shard, page_jobs, window=(workers or 1) + 2):
            writer.write_table(tab, row_group_size=min(chunk, spec.pages_rg_rows))
            n_pages += tab.num_rows
            image_ids.extend(pc.drop_null(tab["image_id"]).to_pylist())
    finally:
        writer.close()

    # --- corpus_images (Lance-shaped; input_hint schema, exact) ----------
    img_jobs = [
        (spec, image_ids[i : i + 4_096]) for i in range(0, len(image_ids), 4_096)
    ]
    iwriter = pq.ParquetWriter(out / "corpus_images.parquet", IMG_SCHEMA, compression="none")
    try:
        for tab in _ordered_map(ex, _images_shard, img_jobs, window=(workers or 1) + 2):
            iwriter.write_table(tab, row_group_size=spec.image_rg_rows)
    finally:
        iwriter.close()
        if ex is not None:
            ex.shutdown()
    if lance is not None:  # pragma: no cover
        lance.write_dataset(
            pq.read_table(out / "corpus_images.parquet"),
            str(out / "corpus_images.lance"),
            mode="overwrite",
        )

    robots_domains = domains + spec.js_domain_names()
    robots = pa.table(
        {
            "domain": robots_domains,
            "disallow": [["/private"] for _ in robots_domains],
            "crawl_delay": pa.array(
                [[1.0, 0.5, 2.0, None][i % 4] for i in range(len(robots_domains))],
                type=pa.float64(),
            ),
            "sitemap_url": pa.array([None] * len(robots_domains), type=pa.string()),
        }
    )
    pq.write_table(robots, out / "robots.parquet")

    seeds = [
        {
            "name": "plain",
            "allowed_domains": domains[0],
            "starting_urls": page_url(domains[0], 0),
            "depth_limit": 3,
            "output_target": "csv",
        },
        {
            "name": "deep all domains",
            "allowed_domains": ",".join(domains),
            "starting_urls": page_url(domains[0], 0),
            "depth_limit": 20,
            "output_target": "elasticsearch",
        },
        {
            "name": "deny tags",
            "allowed_domains": domains[0],
            "starting_urls": page_url(domains[0], 0),
            "deny_paths": "/tag/",
            "depth_limit": 5,
            "output_target": "endpoint",
        },
        {
            "name": "path scoped",
            "allowed_domains": f"{domains[0]}/sub",
            "starting_urls": page_url(domains[0], 3),
            "depth_limit": 5,
            "output_target": "csv",
        },
        {
            "name": "query ok",
            "allowed_domains": domains[min(1, len(domains) - 1)],
            "starting_urls": page_url(domains[min(1, len(domains) - 1)], 0),
            "allow_query_string": True,
            "depth_limit": 3,
            "output_target": "endpoint",
        },
    ]
    if spec.js_domains:
        seeds.append(
            {
                "name": "js site",
                "allowed_domains": spec.js_domain_names()[0],
                "starting_urls": page_url(spec.js_domain_names()[0], 0),
                "handle_javascript": True,
                "depth_limit": 3,
                "output_target": "csv",
            }
        )
    (out / "seeds.json").write_text(json.dumps(seeds, indent=2))
    return {"pages": n_pages, "images": len(image_ids), "domains": len(domains)}
