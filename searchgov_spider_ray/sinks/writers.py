"""Output sinks: URL CSV writer with size-targeted rotation, endpoint
batch POST, i14y/ES-shaped bulk sink, sitemap snapshot writer.

Reference (SURVEY.md §2.2):
  K1 CSV w/ 100 KB rotation — pipelines.py:111-141, MAX_URL_BATCH_SIZE_BYTES
  K2 endpoint POST of {"urls": [...]} batches ≥100 KB — pipelines.py:105-170
  K3 Elasticsearch bulk of 50-doc batches — es_batch_upload.py:25-134
  K4 sorted sitemap snapshot per sitemap id — sitemap_monitor.py:151-162
  K5 sitemap CSV report — sitemap_finder.py:16-40

Ray-Data-first: rotation is block-size targeting (write_csv splits per
block), batching is per-batch map with a terminal flush, and the ES
"index" in this engine is the Lance/parquet corpus table. The HTTP
transport is abstracted behind a ``post`` callable (no network in this
sandbox; production injects a requests session per actor).
"""

from __future__ import annotations

import json
from pathlib import Path

import pyarrow as pa
import ray.data as rd

MAX_URL_BATCH_SIZE_BYTES = 100 * 1024  # reference: pipelines.py:34
ES_BATCH_DOCS = 50  # reference: es_batch_upload.py:28


def write_url_csv(ds: rd.Dataset, out_dir: str | Path, target_bytes: int = MAX_URL_BATCH_SIZE_BYTES) -> None:
    """One URL per line, files rotated at ~target_bytes (reference
    rotates at 100 KB by hand; here rotation = row-count targeting per
    output block, assuming ~64 B/URL)."""
    rows_per_file = max(1, target_bytes // 64)
    ds.select_columns(["url"]).write_csv(
        str(out_dir), min_rows_per_file=rows_per_file
    )


class EndpointBatchPoster:
    """map_batches terminal stage: chunk each batch's URLs into
    ≥ max_bytes POSTs of {"urls": [...]} and flush the remainder BEFORE
    returning (reference: SearchGovSpidersPipeline._process_api_item /
    _post_urls, pipelines.py:105-109,143-170). ``post(payload: dict)``
    is injected — production: requests.post(SPIDER_URLS_API, ...).

    Loss-free by construction: Ray clones the instance per task (and
    kills actors without a close hook), so a cross-batch buffer would
    silently drop its tail with the task — the remainder must leave
    with the batch that brought it."""

    def __init__(self, post, max_bytes: int = MAX_URL_BATCH_SIZE_BYTES):
        self.post = post
        self.max_bytes = max_bytes
        self._buf: list[str] = []
        self._size = 0

    def __call__(self, batch: pa.Table) -> pa.Table:
        for url in batch["url"].to_pylist():
            self._buf.append(url)
            self._size += len(url) + 1
            if self._size >= self.max_bytes:
                self.flush()
        self.flush()  # remainder leaves with its batch — see class note
        return batch.select(["url"])

    def flush(self) -> None:
        if self._buf:
            self.post({"urls": self._buf})
            self._buf = []
            self._size = 0


def write_i14y_jsonl(ds: rd.Dataset, out_dir: str | Path, batch_docs: int = ES_BATCH_DOCS) -> None:
    """ES-bulk-shaped sink: docs as JSONL in ~50-doc batches with the
    language-suffixed field names reconstructed (the reference bulk-
    uploads via helpers.bulk; here the 'index' is a partitioned JSONL/
    parquet directory a bulk loader can replay)."""
    from ..stages.docparse import to_i14y_record

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def dump(batch: pa.Table) -> pa.Table:
        docs = [to_i14y_record(d) for d in batch.to_pylist()]
        if docs:
            import hashlib

            # name by the batch's full id set: distinct batches can share
            # a first doc (or its 12-char prefix) — content-keyed names
            # never collide and re-runs overwrite with identical bytes
            tag = hashlib.sha256("\n".join(d["_id"] for d in docs).encode()).hexdigest()[:16]
            name = out / f"bulk_{tag}.jsonl"
            with open(name, "w") as f:
                for d in docs:
                    f.write(json.dumps({k: v for k, v in d.items() if v is not None}) + "\n")
        return batch.select(["doc_id"])

    ds.map_batches(dump, batch_format="pyarrow", batch_size=batch_docs).materialize()


def write_sitemap_snapshot(ds: rd.Dataset, out_dir: str | Path) -> None:
    """Sorted URL snapshot partitioned by sitemap id (reference writes
    ``<md5(sitemap_url)>.txt`` sorted — sitemap_monitor.py:151-162)."""
    import hashlib

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def dump(group: "pd.DataFrame") -> "pd.DataFrame":
        sitemap_url = group["sitemap_url"].iloc[0]
        key = hashlib.md5(str(sitemap_url).encode()).hexdigest()
        path = out / f"{key}.txt"
        existing = path.read_text().splitlines() if path.exists() else []
        merged = sorted(set(existing) | set(group["url"]))
        path.write_text("\n".join(merged) + "\n")
        return group

    # groupby FIRST: one task owns each sitemap's file — a plain
    # map_batches could split one sitemap's rows across concurrent
    # tasks whose read-merge-write cycles race (last writer wins,
    # losing URLs that then resurface as spurious 'new' diffs)
    ds.groupby("sitemap_url").map_groups(dump, batch_format="pandas").materialize()
