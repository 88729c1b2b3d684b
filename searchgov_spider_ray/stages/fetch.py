"""Fetch stage: resolve frontier URLs to responses.

The production implementation is an HTTP actor pool (connection pools
per actor, 15 s timeout, 15 MB cap, no retries — reference
settings.py:38-50). This sandbox has no network, so the SAME stage
interface is backed by the synthetic corpus: a hash join of frontier
URLs against the corpus table (SURVEY.md §2.1 S3/S8 — the reference's
own e2e test replays a committed HTTP cache the same way,
tests/search_gov_spiders/test_full_crawl.py:32-39).

Broadcast, not shuffle: the driver ``ray.put``s ``(corpus Arrow table,
argsort permutation of its uint64 url_hash column)`` ONCE; stage
callables ``ray.get`` it lazily (zero-copy from the local object store
— N workers share one physical copy) and join each batch with a
vectorized ``np.searchsorted`` over the permuted hash array, mapping
hits back through the permutation. The table itself is never
re-ordered: a driver-side ``take`` of a multi-GB string/binary column
overflows 32-bit Arrow offsets, and per-batch takes of a few hundred
scattered rows are cheap. No Python strings in the probe path; matched
rows string-confirm to rule out hash collisions. A fetch miss models a
dead link: status 0, no body, never retried (RETRY_ENABLED=False
parity).

These callables are deliberately TASK-based (instances, not actor
pools): their only state is the read-only broadcast table plus a
payload row-group cache, and lazy zero-copy attach beats paying
actor-pool spin-up every BSP round. On the micro-round path each task
worker deserializes a kernel once and keeps it across tasks and rounds
(``pipelines/frontier.py`` ``_warm_kernel``), so the attach and the
row-group cache outlive the task: actor-like warm state, task
scheduling. The genuinely mutable stages (URL-seen shards, politeness)
are the actor-held state. A real HTTP fetcher would flip back to an actor
pool via ``map_batches(HttpFetcher, concurrency=N)`` with this same
batch contract.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray


class _RowGroupGather:
    """Per-worker payload reader: gathers ONE binary column for global
    row indices by reading only the parquet row groups that contain
    them, with a small LRU group cache.

    This is the streaming half of the fetch join: the object store
    holds only the corpus METADATA index, while payload bytes live in
    the parquet 'network stand-in' and flow through tasks transiently
    (page-cache-served on re-reads). Access patterns cluster by domain
    — the corpus is written domain-contiguous and politeness groups
    frontier rows by domain — so a handful of cached groups covers a
    batch. A warm micro-round kernel keeps its gather, so the cache also
    carries a hot domain's groups from one round's task to the next;
    under the Dataset executor it lives for one task's batches."""

    def __init__(self, path: str, column: str, cache_groups: int = 16):
        self.path = path
        self.column = column
        self.cache_groups = cache_groups
        self._pf: pq.ParquetFile | None = None
        self._starts: np.ndarray | None = None
        self._cache: OrderedDict[int, pa.ChunkedArray] = OrderedDict()

    def _ensure(self) -> None:
        if self._pf is None:
            self._pf = pq.ParquetFile(self.path)
            sizes = [
                self._pf.metadata.row_group(i).num_rows
                for i in range(self._pf.metadata.num_row_groups)
            ]
            self._starts = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)

    def _load_missing(self, gids: list[int]) -> dict[int, pa.Array]:
        """Read the missing groups with CONSECUTIVE RUNS COALESCED into
        single ``read_row_groups`` calls, then slice (zero-copy) back to
        per-group arrays. Dense rounds touch nearly every group in
        order, so small row groups (bounding SPARSE-round decompress
        amplification) would otherwise multiply per-call reader
        overhead ~rows/rg_rows-fold; one call per run keeps the dense
        path at ~one reader open per batch."""
        out: dict[int, pa.Array] = {}
        i = 0
        while i < len(gids):
            j = i
            while j + 1 < len(gids) and gids[j + 1] == gids[j] + 1:
                j += 1
            run = gids[i : j + 1]
            col = (
                self._pf.read_row_groups(run, columns=[self.column])
                .column(0)
                .cast(pa.large_binary())
                .combine_chunks()
            )
            off = 0
            for g in run:
                n = int(self._starts[g + 1] - self._starts[g])
                out[g] = col.slice(off, n)
                off += n
            i = j + 1
        return out

    def gather(self, idx: np.ndarray) -> pa.Array:
        """Arrow array of ``column`` values at global row indices ``idx``
        (same order) — no per-value Python, only arrow takes/concat."""
        self._ensure()
        if len(idx) == 0:
            return pa.array([], type=pa.large_binary())
        gids = np.searchsorted(self._starts, idx, side="right") - 1
        uniq = [int(g) for g in np.unique(gids)]
        loaded = self._load_missing([g for g in uniq if g not in self._cache])
        parts: list[pa.Array] = []
        positions: list[np.ndarray] = []
        for g in uniq:
            col = self._cache.pop(g, None)
            if col is None:
                # not pre-loaded AND not in cache: it was cached when
                # the missing set was computed but evicted by the LRU
                # bound mid-batch — re-read the single group
                col = loaded.get(g)
            if col is None:
                col = self._load_missing([g])[g]
            self._cache[g] = col  # most-recently-used at the end
            while len(self._cache) > self.cache_groups:
                self._cache.popitem(last=False)
            sel = np.flatnonzero(gids == g)
            local = (idx[sel] - self._starts[g]).astype(np.int64)
            parts.append(col.take(pa.array(local)))
            positions.append(sel)
        combined = pa.concat_arrays(parts)
        inv = np.empty(len(idx), dtype=np.int64)
        inv[np.concatenate(positions)] = np.arange(len(idx), dtype=np.int64)
        return combined.take(pa.array(inv))


def broadcastable(table: pa.Table) -> pa.Table:
    """Prepare a table for ``ray.put`` + per-batch ``take``: cast
    string/binary columns to 64-bit-offset (large) types and combine
    chunks. ``take`` on a CHUNKED string column concatenates chunks
    first — with >2 GB of payload that overflows 32-bit offsets and,
    even below it, copies the whole column per batch. Single-chunk
    large-offset columns gather directly."""
    fields = []
    for f in table.schema:
        t = f.type
        if pa.types.is_string(t):
            t = pa.large_string()
        elif pa.types.is_binary(t):
            t = pa.large_binary()
        fields.append(pa.field(f.name, t, nullable=f.nullable))
    # drop pandas schema metadata: its dict payload is unhashable, which
    # defeats Ray Data's per-block schema deduplication (it logs "Failed
    # to hash the schemas" on every task and re-unifies schemas each time)
    return table.cast(pa.schema(fields)).replace_schema_metadata(None).combine_chunks()


def _hash_probe(sorted_hashes: np.ndarray, probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(positions, found-mask) of ``probe`` in the sorted hash column."""
    if len(sorted_hashes) == 0:
        return np.zeros(len(probe), dtype=np.int64), np.zeros(len(probe), dtype=bool)
    pos = np.searchsorted(sorted_hashes, probe)
    pos = np.minimum(pos, len(sorted_hashes) - 1)
    return pos, sorted_hashes[pos] == probe


class CorpusFetcher:
    """map_batches callable: frontier rows (url, url_hash, depth, seq,
    domain) → + (status, content_type, content_language, body,
    image_id).

    ``corpus_ref`` resolves to ``(meta_table, perm, parquet_path)``:
    the broadcast holds only corpus METADATA (~100 B/row); ``body``
    bytes stream from the parquet file via :class:`_RowGroupGather`.
    ``meta_only=True`` skips bodies entirely — the frontier round
    materializes only fetch metadata (order lineage, emit rows, image
    ids) and re-runs the cheap hash join with bodies inside the fully
    fused link-extraction chain, so multi-GB payloads never land in
    the object store."""

    def __init__(self, corpus_ref, meta_only: bool = False):
        self.corpus_ref = corpus_ref
        self.meta_only = meta_only
        self._sorted_hashes: np.ndarray | None = None
        self._perm: np.ndarray | None = None
        self._table: pa.Table | None = None
        self._bodies: _RowGroupGather | None = None

    def _ensure(self) -> None:
        if self._table is None:
            self._table, self._perm, path = ray.get(self.corpus_ref)  # zero-copy
            hashes = self._table["url_hash"].to_numpy(zero_copy_only=False)
            self._sorted_hashes = hashes[self._perm]
            if not self.meta_only:
                self._bodies = _RowGroupGather(path, "body")

    def __call__(self, batch: pa.Table) -> pa.Table:
        self._ensure()
        probe = batch["url_hash"].to_numpy().astype(np.uint64)
        pos, found = _hash_probe(self._sorted_hashes, probe)
        orig_idx = self._perm[pos[found]]
        rows = self._table.take(pa.array(orig_idx, type=pa.int64()))
        # hash-collision guard: confirm url strings on matches only
        if len(rows):
            batch_urls = np.asarray(batch["url"].to_pylist(), dtype=object)[found]
            corpus_urls = np.asarray(rows["url"].to_pylist(), dtype=object)
            confirm = batch_urls == corpus_urls
            if not confirm.all():
                fidx = np.where(found)[0]
                found[fidx[~confirm]] = False
                rows = rows.filter(pa.array(confirm))
                orig_idx = orig_idx[confirm]

        # scatter matched rows back to batch positions with one null-
        # masked take per column — no per-row Python
        n = len(batch)
        take_idx = np.full(n, -1, dtype=np.int64)
        take_idx[np.flatnonzero(found)] = np.arange(len(orig_idx), dtype=np.int64)
        tidx = pa.array(take_idx, type=pa.int64(), mask=take_idx < 0)

        def _scatter(col: pa.ChunkedArray) -> pa.Array:
            return col.combine_chunks().take(tidx)

        out = batch
        out = out.append_column(
            "status",
            pc.fill_null(_scatter(rows["status"]), pa.scalar(0, type=pa.int16())).cast(pa.int16()),
        )
        out = out.append_column(
            "content_type",
            pc.fill_null(_scatter(rows["content_type"]), pa.scalar("")).cast(pa.string()),
        )
        out = out.append_column(
            "content_language", _scatter(rows["content_language"]).cast(pa.string())
        )
        if not self.meta_only:
            out = out.append_column("body", self._bodies.gather(orig_idx).take(tidx))
        out = out.append_column("image_id", _scatter(rows["image_id"]).cast(pa.string()))
        return out


_JS_LINKS_RE = None  # compiled lazily (module import stays light)


def should_abort_request(resource_type: str) -> bool:
    """Playwright subresource filter: abort any request whose resource
    type appears in FILTER_EXTENSIONS (the reference's list mixes file
    extensions and Playwright resource-type words — 'image', 'media',
    'stylesheet', 'font', 'xhr', 'fetch', 'websocket', ... — so the
    same membership test serves both). Reference:
    spiders/domain_spider_js.py:11-14."""
    from .scope import FILTER_EXTENSIONS

    return resource_type in FILTER_EXTENSIONS


def render_js_body(body: bytes) -> bytes:
    """Deterministic stand-in for headless-browser rendering: pages
    built for ``handle_javascript`` sites carry their links in a
    ``<script id="js-links" type="application/json">`` blob that the
    static link extractor cannot see; 'rendering' materializes those
    into anchor tags, exactly what the DOM would contain after the
    page's script ran. Production swaps this for a Playwright actor
    (RealJsRenderer below) — the stage contract (bytes → bytes) and
    everything downstream are unchanged. Non-JS bodies pass through
    untouched."""
    global _JS_LINKS_RE
    import json
    import re

    if _JS_LINKS_RE is None:
        _JS_LINKS_RE = re.compile(
            rb'<script id="js-links" type="application/json">(.*?)</script>', re.DOTALL
        )
    m = _JS_LINKS_RE.search(body)
    if m is None:
        return body
    try:
        links = json.loads(m.group(1).decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return body
    anchors = "".join(f'<a href="{u}">js link {i}</a>' for i, u in enumerate(links))
    return body[: m.start()] + anchors.encode("utf-8") + body[m.end() :]


class RealJsRenderer:  # pragma: no cover - swap-in point, no browser here
    """Interface stub for the production JS fetch path: a Playwright
    chromium page per actor (headless, ``should_abort_request`` wired
    to the route filter — reference domain_spider_js.py:71-86), batch
    contract identical to JsFetcher. Not constructible in this
    container (no browser)."""

    def __init__(self, *_, **__):
        raise NotImplementedError("playwright is not installed in this environment")


class RealHttpFetcher:
    """Interface stub for the production network fetch actor — the
    swap-in replacing :class:`CorpusFetcher`'s corpus hash join with
    real HTTP. The actor-pool contract mirrors the reference downloader
    settings (reference settings.py:38-50):

    - ONE pooled HTTP session per actor, created in ``__init__`` (a
      connection pool amortized across every batch the actor serves —
      never a connection per request);
    - ``DOWNLOAD_TIMEOUT`` = 15 s per request (reference
      settings.py:39 ``DOWNLOAD_TIMEOUT = 15``);
    - ``DOWNLOAD_MAXSIZE`` = 15 MiB response-body cap, enforced by
      streaming reads and aborting past the cap (reference
      settings.py:50 ``DOWNLOAD_MAXSIZE = 15728640``);
    - NO retries — a failed fetch emits a fetch-error row, never a
      re-request (reference settings.py:38 ``RETRY_ENABLED = False``);
    - cookies off (reference settings.py:36 ``COOKIES_ENABLED =
      False``), per-domain concurrency handled UPSTREAM by the
      politeness grant stage — the fetch actor never sees more than
      its granted share of a domain.

    Batch contract is :class:`CorpusFetcher`'s ``__call__``: input
    columns (url, url_hash, depth, seq, domain), output adds (status,
    content_type, body | body_ref, fetch_ms). Not constructible here
    (sandbox has no network)."""

    DOWNLOAD_TIMEOUT_S = 15.0
    DOWNLOAD_MAXSIZE = 15 * 1024 * 1024
    RETRY_ENABLED = False
    COOKIES_ENABLED = False

    def __init__(self, *_, **__):  # pragma: no cover - swap-in point
        raise NotImplementedError("no network access in this environment")

    def __call__(self, batch: pa.Table) -> pa.Table:  # pragma: no cover
        raise NotImplementedError


class JsFetcher(CorpusFetcher):
    """S4: the JS-rendered fetch stage — same batch contract and hash
    join as CorpusFetcher, plus the render step over fetched HTML
    bodies (reference: DomainSpiderJs routes every page through
    Playwright; here the render is the deterministic js-links
    materialization above). Selected per job by the config's
    ``handle_javascript`` flag, exactly like the reference picks
    DomainSpiderJs (sitemap_monitor.py:305, scrapy_scheduler)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = super().__call__(batch)
        if self.meta_only or "body" not in out.column_names:
            return out
        ctypes = out["content_type"].to_pylist()
        bodies = out["body"].to_pylist()
        rendered = [
            render_js_body(b) if b is not None and ct.startswith("text/html") else b
            for b, ct in zip(bodies, ctypes)
        ]
        idx = out.schema.get_field_index("body")
        return out.set_column(idx, "body", pa.array(rendered, type=pa.large_binary()))


class ImageAttach:
    """map_batches callable: emitted rows with ``image_id`` → full
    image+caption corpus rows (image_id, bytes, w, h, fmt, caption,
    phash — the Lance row shape of BASELINE.json input_hint). Rows
    without an image are dropped (they emit to the URL-list sink
    instead). Join key: uint64 ``id_hash`` precomputed by the driver."""

    def __init__(self, images_ref):
        self.images_ref = images_ref
        self._sorted_hashes: np.ndarray | None = None
        self._perm: np.ndarray | None = None
        self._table: pa.Table | None = None
        self._bytes: _RowGroupGather | None = None

    def _ensure(self) -> None:
        if self._table is None:
            self._table, self._perm, path = ray.get(self.images_ref)  # zero-copy meta
            hashes = self._table["id_hash"].to_numpy(zero_copy_only=False)
            self._sorted_hashes = hashes[self._perm]
            self._bytes = _RowGroupGather(path, "bytes", cache_groups=6)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.hashing import xxhash64_array

        self._ensure()
        batch = batch.filter(batch["image_id"].is_valid())
        ids = batch["image_id"].to_pylist()
        probe = xxhash64_array(ids)
        pos, found = _hash_probe(self._sorted_hashes, probe)
        orig_idx = self._perm[pos[found]]
        rows = self._table.take(pa.array(orig_idx, type=pa.int64()))
        # hash-collision guard: confirm image_id strings on matches only
        # (same discipline as CorpusFetcher's URL join above) — a
        # colliding id must drop out as a miss, never attach the wrong
        # image bytes/caption/phash
        if len(rows):
            batch_ids = np.asarray(ids, dtype=object)[found]
            corpus_ids = np.asarray(rows["image_id"].to_pylist(), dtype=object)
            confirm = batch_ids == corpus_ids
            if not confirm.all():
                fidx = np.where(found)[0]
                found[fidx[~confirm]] = False
                rows = rows.filter(pa.array(confirm))
                orig_idx = orig_idx[confirm]
        batch = batch.filter(pa.array(found))
        out = batch.drop_columns(["image_id"])
        for name in ("image_id", "w", "h", "fmt", "caption", "phash"):
            out = out.append_column(name, rows[name])
        return out.append_column("bytes", self._bytes.gather(orig_idx))
