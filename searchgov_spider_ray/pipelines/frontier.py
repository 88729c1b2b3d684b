"""The Ray-Data-native crawl frontier: BSP rounds over Dataset stages.

This is the engine's flagship pipeline — the from-scratch replacement
for the reference's Scrapy event loop (SURVEY.md §3.1). Each round:

    frontier_k ──groupby(domain)──▶ politeness grant/carry        (shuffle: domain)
      granted ──map_batches(CorpusFetcher actors)──▶ fetched      (hash join vs corpus)
      fetched ──▶ order lineage ∥ emit rows ∥ link extraction
      emit(w/ image) ──ImageAttach──▶ DecodePHash──▶ corpus sink  (actor pools)
      links ──canonicalize+scope+robots──▶ denied ∥ candidates
      candidates ──FusedDedupRouter(shard actors)──▶ intra-round
                   first-wins + URL-seen novelty in ONE RPC pass
                   (local min-adm_key winners offered to hash-routed
                   shards; multi-offer corrections broadcast back)
                 ──sort(adm_key)──▶ seq assign                    (wide rounds only)
      frontier_{k+1} = carry ∪ novel  ──▶ checkpoint (frontier, shards, manifest)

Ordering equivalence with the single-threaded simulator
(pipelines/simulator.py — the pinned semantics) comes from explicit
(depth, seq) keys, NOT serialized execution: fetch order is
(round, depth, seq); children get seq from per-depth counters laid out
in (parent_depth, parent_seq, link_seq) order via per-parent offsets
(a small driver-side cumsum over one row per fetched page — the
distributed-prefix-sum upgrade path is block-level sums, SURVEY.md §3.1).

Scale notes (the 100 TB story):
* Per-round frontier state lives in parquet/object store, streamed
  through map_batches; nothing materializes the corpus.
* The corpus table is ``ray.put`` ONCE; fetch/attach actors read it
  zero-copy from the object store and join on precomputed uint64 url
  hashes (searchsorted over an Arrow-backed numpy view — no python
  strings in the hot path).
* Mutating stages (FusedDedupRouter) are materialized exactly once
  per round; shard actors memoize (round, batch-digest) → mask so Ray
  task retries replay instead of double-admitting.
* Hot-domain skew: politeness bounds per-domain FETCH by design; the
  CPU-heavy stages after fetch (decode, link parse, dedup) are keyed
  by url_hash / parent, which salt across the cluster regardless of
  domain skew.
"""

from __future__ import annotations

import shutil
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..functions.hashing import sha256_hex, xxhash64, xxhash64_array
from ..functions.urlnorm import canonicalize, canonicalize_batch, host_of
from ..sources.crawl_sites import CrawlSite
from ..stages.dedup import (
    CorrectionFix,
    FusedDedupRouter,
    collect_corrections,
    dump_shards,
    make_shard_pool,
    restore_shards,
)
from ..stages.decode import DecodePHash
from ..stages.fetch import CorpusFetcher, ImageAttach, JsFetcher
from ..stages.links import extract_links_batch
from ..stages.politeness import PolitenessSelect, RobotsRules, robots_reason
from ..stages.scope import (
    DENY_DEPTH,
    DENY_DUPLICATE,
    DENY_ROBOTS,
    KEEP,
    JobScope,
    content_type_mask,
)
from ..state.checkpoint import CheckpointStore

FRONTIER_COLUMNS = ["depth", "seq", "url", "domain", "url_hash"]

_FRONTIER_SCHEMA = pa.schema(
    [
        ("depth", pa.int32()),
        ("seq", pa.int64()),
        ("url", pa.string()),
        ("domain", pa.string()),
        ("url_hash", pa.uint64()),
    ]
)


@dataclass
class CrawlConfig:
    round_seconds: float = 30.0
    num_shards: int = 4
    shard_capacity: int = 1 << 16
    # (No fan-out knob: the payload stages — body gather + links, image
    # attach/decode — size their pieces by one rule in both executors,
    # one piece per stage-specific row quota, capped at two pieces per
    # cluster CPU; see _fan_out.)
    fetch_batch_size: int = 512
    decode_batch_size: int = 64
    link_batch_size: int = 512
    # URL-seen router batches: each batch costs one RPC per touched
    # shard actor, so large batches amortize actor round-trips (rows
    # are ~100 B narrow metadata — 64 k rows ≈ 6 MB per batch)
    dedup_batch_size: int = 65536
    max_rounds: int = 2000
    # Candidate-row count above which the round's seq assignment uses
    # the distributed sort-based path (_assign_seq_wide) instead of the
    # single-block kernel. The narrow kernel wins below this (one task,
    # no sort exchange); the wide path keeps per-task memory bounded on
    # 10^8+-candidate rounds. (Intra+cross dedup no longer dispatches —
    # the fused shard-offer pass is exchange-free at every size.)
    wide_round_rows: int = 4_000_000
    # Coarse politeness partitions (domains hash-bucketed; one
    # vectorized grant kernel per partition — see
    # stages/politeness.py PolitenessSelectPartition)
    politeness_parts: int = 64
    # Frontier-row count up to which the politeness grant runs
    # exchange-free (per-block top-B candidates merged on the driver,
    # broadcast thresholds — stages/politeness.py block_grant_candidates)
    # instead of the groupby(part) exchange. Driver memory for the merge
    # is bounded by this row count.
    politeness_driver_rows: int = 4_000_000
    # Frontier-row count up to which the WHOLE round runs on the
    # micro-round fast path: cheap kernels called directly on driver-
    # side Arrow tables, payload-bound stages (body gather + link
    # extraction, image attach/decode) as raw Ray tasks over table
    # chunks, sinks via direct pq.write_table — ZERO streaming-executor
    # launches. A normal tiny round pays ~9 executor spin-ups
    # (~0.2 s each at 32 CPUs, growing with cluster size) plus their
    # scheduling barriers for milliseconds of real work; the BFS ramp
    # (rounds 0-1) and tail rounds are exactly such rounds
    # (BASELINE.md: ~13 s of the 68 s 32-CPU wall). 0 disables.
    # Row semantics are identical by construction — the same kernel
    # objects run in both paths; parity is pinned by the e2e simulator
    # tests in BOTH modes (tests/test_frontier_e2e.py).
    #
    # Sizing: the payload-bound stages stay parallel (raw tasks over
    # _fan_out chunks, ≤ 2 per cluster CPU), so the bound is DRIVER work —
    # the vectorized cheap kernels plus the fan-out concat/dedup/seq
    # (≤ ~10× rows_in novel candidates, narrow ~100 B rows). 128 k
    # rows_in ≈ a ~1 M-row driver fan-out pass ≈ low single-digit
    # seconds, well under the ~12 executor launches it replaces
    # (measured r4: a 104 k-row round cost 10.4 s on the Dataset path,
    # ~3 s micro). On a multi-node cluster this stays a LATENCY floor
    # optimization: the threshold is absolute rows, not a corpus
    # fraction, so driver heap is bounded regardless of cluster size.
    micro_round_rows: int = 131_072


@dataclass
class CrawlRunResult:
    job_id: str
    rounds: int
    fetched: int
    seen: int
    out_dir: str
    ckpt_dir: str
    per_round_fetched: list[int] = field(default_factory=list)


class _CanonScope:
    """map_batches kernel: extracted links → canonical child rows with
    deny reasons (scope order pinned in stages/scope.py) + robots."""

    def __init__(self, scope: JobScope, robots: RobotsRules):
        self.scope = scope
        self.robots = robots

    def __call__(self, batch: pa.Table) -> pa.Table:
        # Canonicalize/hash each DISTINCT raw URL once per batch — link
        # batches repeat URLs heavily (nav links shared across pages),
        # and canonicalize + pure-Python xxhash64 are the round's
        # hottest per-URL costs.
        raw = np.asarray(batch["url"].to_pylist(), dtype=object)
        uniq, inv = np.unique(raw, return_inverse=True)
        canon_u = canonicalize_batch(uniq)
        hash_u = xxhash64_array(canon_u)
        # canonical form is scheme://host[:port]/... with host already
        # lowercased and dot-stripped — host extraction is one
        # vectorized regex instead of a urlsplit per URL (equivalence
        # with host_of pinned by simulator parity tests).
        host_u = (
            pd.Series(canon_u, dtype="object")
            .str.extract(r"://([^/:?#]*)", expand=False)
            .fillna("")
            .to_numpy(dtype=object)
        )
        # Scope + robots run on the DISTINCT canonical URLs too (the
        # deny reason depends only on the URL, except depth) and the
        # per-unique reason broadcasts back via ``inv``. Precedence
        # stays extension → deny_path → offsite → query → depth →
        # robots: depth is stamped on the full rows BEFORE robots, so a
        # too-deep URL reports "depth" exactly as the all-rows pass did.
        su = pd.Series(canon_u, dtype="object")
        reason_u = self.scope.evaluate(su).to_numpy(dtype=object)
        keep_u = reason_u == KEEP
        robots_bad_u = np.zeros(len(canon_u), dtype=bool)
        if keep_u.any():
            kidx = np.where(keep_u)[0]
            robots_bad_u[kidx[robots_reason(su[keep_u], self.robots)]] = True

        canon = canon_u[inv]
        child_depth = pc.add(batch["parent_depth"], 1).cast(pa.int32())
        reason = reason_u[inv].copy()
        keep = reason == KEEP
        too_deep = child_depth.to_numpy() > self.scope.depth_limit
        reason[too_deep & keep] = DENY_DEPTH
        reason[robots_bad_u[inv] & ~too_deep & keep] = DENY_ROBOTS
        # parent_url is link-extractor lineage nothing downstream reads —
        # dropping it here halves the bytes every candidate exchange
        # (materialize, sort, repartition) moves this round.
        out = batch.drop_columns(
            ["url", "parent_url"] if "parent_url" in batch.column_names else ["url"]
        )
        out = out.append_column("url", pa.array(canon, type=pa.string()))
        out = out.append_column("depth", child_depth)
        out = out.append_column("domain", pa.array(host_u[inv], type=pa.string()))
        out = out.append_column("url_hash", pa.array(hash_u[inv], type=pa.uint64()))
        out = out.append_column("reason", pa.array(reason.astype(str), type=pa.string()))
        return out


def _intra_dedup_kernel(batch: pa.Table) -> pa.Table:
    """Single-pass vectorized intra-round dedup: sort the round's
    candidate table by admission order (parent_depth, parent_seq,
    link_seq), keep the FIRST occurrence of each url_hash, flag losers.

    Retained as the single-block PARITY ORACLE for the runtime path
    (stages/dedup.py FusedDedupRouter + CorrectionFix — local
    first-wins, hash-routed shard offers, deterministic min-adm_key
    corrections); tests run both over the same candidates and compare.
    A per-group ``map_groups`` here would cost one Python call per
    distinct URL and is the difference between 35 and 3000 URLs/s
    (measured)."""
    if len(batch) == 0:
        return batch.append_column("intra_first", pa.array([], type=pa.bool_()))
    d = batch["parent_depth"].to_numpy().astype(np.int64)
    s = batch["parent_seq"].to_numpy().astype(np.int64)
    l = batch["link_seq"].to_numpy().astype(np.int64)
    h = batch["url_hash"].to_numpy().astype(np.uint64)
    order = np.lexsort((l, s, d))  # admission order
    h_ord = h[order]
    _, first_pos = np.unique(h_ord, return_index=True)
    winners = order[first_pos]
    flag = np.zeros(len(batch), dtype=bool)
    flag[winners] = True
    return batch.append_column("intra_first", pa.array(flag))


_ADM_SEQ_BITS = 16
_ADM_DEPTH_SHIFT = 56


def _pack_admission(batch: pa.Table) -> pa.Table:
    """Pack the admission-order triple into one sortable uint64:
    ``depth(8b) | parent_seq(40b) | link_seq(16b)``. Unsigned so all 8
    depth bits are usable (depth ≤ 250 by validation — an int64 pack
    would flip the sign bit at depth ≥ 128 and invert the sort order).
    Raises on overflow (parent_seq < 2^40 covers 10^12 URLs per depth;
    link_seq < 2^16 covers the per-page unique-link cap)."""
    d = batch["parent_depth"].to_numpy().astype(np.uint64)
    s = batch["parent_seq"].to_numpy().astype(np.uint64)
    l = batch["link_seq"].to_numpy().astype(np.uint64)
    if len(d) and (
        int(d.max()) >= 256 or int(s.max()) >= (1 << 40) or int(l.max()) >= (1 << _ADM_SEQ_BITS)
    ):
        raise ValueError("admission key field overflow — widen _pack_admission")
    key = (
        (d << np.uint64(_ADM_DEPTH_SHIFT))
        | (s << np.uint64(_ADM_SEQ_BITS))
        | l
    )
    return batch.append_column("adm_key", pa.array(key, type=pa.uint64()))


def _assign_seq_wide(
    novel: rd.Dataset, depth_counters: dict[int, int], has_adm_key: bool = False
) -> rd.Dataset:
    """Distributed admission-order seq assignment for wide rounds:
    global ``sort(adm_key)``, per-block per-depth counts, driver-side
    cumulative bases (O(#blocks × #depths) rows), then per-block rank
    assignment against the broadcast base table — the block-level
    prefix-sum upgrade of _assign_seq_kernel."""
    # the fused dedup path already carries adm_key; pack only if absent
    if has_adm_key:
        keyed = novel
    else:
        keyed = novel.map_batches(_pack_admission, batch_format="pyarrow")
    s = keyed.sort("adm_key").materialize()

    def summary(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {
                    "block_key": pa.array([], type=pa.uint64()),
                    "depth": pa.array([], type=pa.int32()),
                    "cnt": pa.array([], type=pa.int64()),
                }
            )
        a = t["adm_key"].to_numpy()
        d = t["depth"].to_numpy()
        vals, counts = np.unique(d, return_counts=True)
        return pa.table(
            {
                "block_key": pa.array(np.full(len(vals), int(a.min()), dtype=np.uint64)),
                "depth": pa.array(vals.astype(np.int32)),
                "cnt": pa.array(counts.astype(np.int64)),
            }
        )

    summ_tables = _map_block_refs(s, summary)
    summ = (
        pa.concat_tables(summ_tables).to_pandas()
        if summ_tables
        else pd.DataFrame({"block_key": [], "depth": [], "cnt": []})
    )
    if summ.empty:  # no novel rows this round (all dups)
        return rd.from_arrow(_empty_frontier())
    bases: dict[tuple[int, int], int] = {}
    run = dict(depth_counters)
    for bk in sorted(summ["block_key"].unique()):
        for _, r in summ[summ["block_key"] == bk].iterrows():
            dd = int(r["depth"])
            bases[(int(bk), dd)] = run.get(dd, 0)
            run[dd] = run.get(dd, 0) + int(r["cnt"])
    bases_ref = ray.put(bases)

    class _Assign:
        def __init__(self):
            self._b = None

        def __call__(self, t: pa.Table) -> pa.Table:
            if len(t) == 0:
                return pa.table(
                    {c: pa.array([], type=_FRONTIER_SCHEMA.field(c).type) for c in FRONTIER_COLUMNS}
                )
            if self._b is None:
                self._b = ray.get(bases_ref)
            a = t["adm_key"].to_numpy()
            order = np.argsort(a, kind="stable")
            d = t["depth"].to_numpy()[order]
            bk = int(a.min())
            seq = np.empty(len(order), dtype=np.int64)
            for depth in np.unique(d):
                sel = d == depth
                seq[sel] = self._b[(bk, int(depth))] + np.arange(sel.sum(), dtype=np.int64)
            out = t.take(pa.array(order, type=pa.int64()))
            out = out.append_column("seq", pa.array(seq, type=pa.int64()))
            return out.select(FRONTIER_COLUMNS)

    return s.map_batches(_Assign(), batch_format="pyarrow", batch_size=None)


def _assign_seq_kernel(batch: pa.Table, depth_counters: dict[int, int]) -> pa.Table:
    """Vectorized seq assignment over the round's NOVEL candidates (one
    block): admission-order sort, then per-child-depth dense rank +
    the per-depth counter base. Reproduces FIFO enqueue order without
    serialized execution (SURVEY.md §7.5.1)."""
    if len(batch) == 0:
        return pa.table({c: pa.array([], type=_FRONTIER_SCHEMA.field(c).type) for c in FRONTIER_COLUMNS})
    d = batch["parent_depth"].to_numpy().astype(np.int64)
    s = batch["parent_seq"].to_numpy().astype(np.int64)
    l = batch["link_seq"].to_numpy().astype(np.int64)
    order = np.lexsort((l, s, d))
    child_depth = d[order] + 1  # == batch["depth"] (set by _CanonScope)
    # dense rank within each child depth in admission order
    seq = np.empty(len(order), dtype=np.int64)
    for depth in np.unique(child_depth):
        sel = child_depth == depth
        base = depth_counters.get(int(depth), 0)
        seq[sel] = base + np.arange(sel.sum(), dtype=np.int64)
    out = batch.take(pa.array(order, type=pa.int64()))
    out = out.append_column("seq", pa.array(seq, type=pa.int64()))
    return out.select(FRONTIER_COLUMNS)


class _EmitKernel:
    """Fetched pages → emitted item rows (reference parse_item,
    spiders/domain_spider.py:136-155 + DeDeuplicator is subsumed by
    frontier dedup — each URL is fetched at most once).

    Emits NARROW rows (depth, seq, url_hash, image_id): the url string,
    doc_id (sha256 of the url) and content columns are all derivable
    from the corpus metadata table, so they are reconstructed at READ
    time (:func:`read_emitted`) instead of being computed and shipped
    per row through the sink every round — the byte-bound lineage-sink
    share called out in BASELINE.md's phase decomposition."""

    def __init__(self, output_target: str):
        self.output_target = output_target

    def __call__(self, batch: pa.Table) -> pa.Table:
        ok = pc.equal(batch["status"], pa.scalar(200, type=pa.int16())).to_numpy(zero_copy_only=False)
        ct = pd.Series(batch["content_type"].to_pylist(), dtype="object")
        allowed = content_type_mask(ct, self.output_target)
        batch = batch.filter(pa.array(ok & allowed))
        return batch.select(["depth", "seq", "url_hash", "image_id"])


def _strip_image_id(t: pa.Table) -> pa.Table:
    """Drop the image_id column from the emitted sink if a user emit
    step hasn't already removed it (steps may reshape item rows)."""
    return t.drop_columns(["image_id"]) if "image_id" in t.column_names else t


def _write_round(ds: rd.Dataset, base: Path, round_id: int) -> None:
    # "round-" (not hive-style "round=") so readers don't collide the
    # directory partition with the materialized "round" column.
    out = base / f"round-{round_id:04d}"
    ds.write_parquet(str(out))


def _write_table_round(t: pa.Table, base: Path, round_id: int) -> None:
    """Micro-round sink: one driver-side parquet write, same directory
    layout as :func:`_write_round` (readers glob ``*.parquet``)."""
    out = base / f"round-{round_id:04d}"
    out.mkdir(parents=True, exist_ok=True)
    pq.write_table(t, out / "part-000000.parquet")


_FETCH_META_COLS = [
    "depth", "seq", "url", "url_hash", "domain", "status", "content_type", "image_id"
]


def _order_rows_kernel(t: pa.Table, k: int) -> pa.Table:
    """Order-lineage rows: url_hash + int16 status; the URL string is
    kept ONLY for corpus misses (status 0 — dead links, rare); hit rows
    reconstruct their string from the corpus metadata at read time
    (read_order)."""
    miss = pc.equal(t["status"], pa.scalar(0, type=pa.int16()))
    url_miss = pc.if_else(miss, t["url"], pa.scalar(None, type=pa.string()))
    out = t.select(["depth", "seq", "url_hash", "status"])
    out = out.append_column("url_miss", url_miss)
    return _add_round(out, k)


def _table_chunks(t: pa.Table, n: int) -> list[pa.Table]:
    """Split a table into ≤ n contiguous zero-copy slices."""
    n = max(1, min(n, len(t)))
    bounds = np.linspace(0, len(t), n + 1).astype(np.int64)
    return [t.slice(a, b - a) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _task_slots() -> int:
    """The cluster's CPU task slots (whole CPUs, at least one). A GCS
    round trip, so :meth:`CrawlJobRunner.run` looks it up once."""
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def _fan_out(rows: int, rows_per_task: int, floor: int, slots: int) -> int:
    """Piece count of a payload stage, the one rule both executors use:
    one piece per ``rows_per_task`` rows (at least ``floor``), capped at
    two pieces per task slot. A piece pays a fixed cost (task launch,
    payload row-group reads), so pieces beyond what the cluster can run
    at once only add that cost."""
    return max(1, min(2 * slots, max(floor, rows // rows_per_task)))


def _image_rows(t: pa.Table) -> pa.Table:
    """Emitted rows that carry an image: the image-landing input."""
    return t.filter(pc.is_valid(t["image_id"]))


def _image_count(t: pa.Table) -> int:
    # Ray can emit column-less empty blocks
    return len(_image_rows(t)) if len(t) else 0


class _MicroLinkKernel:
    """Micro-round link chain as one picklable task kernel: body join →
    200 filter → link extraction → canonicalize + scope/robots — the
    same fused chain the Dataset path runs, minus the executor. Shipped
    once via ray.put (the scope/robots tables can be MBs at web
    scale) and deserialized once per worker (:func:`_warm_kernel`)."""

    def __init__(self, corpus_ref, fetcher_cls, scope: JobScope, robots: RobotsRules):
        self.fetcher = fetcher_cls(corpus_ref)
        self.canon = _CanonScope(scope, robots)

    def __call__(self, chunk: pa.Table) -> pa.Table:
        t = self.fetcher(chunk)
        t = t.filter(pc.equal(t["status"], pa.scalar(200, type=pa.int16())))
        return self.canon(extract_links_batch(t))


class _MicroImageKernel:
    """Micro-round image landing as one task kernel: payload attach →
    decode + pHash (same actor-class kernels, called inline)."""

    def __init__(self, images_ref):
        self.attach = ImageAttach(images_ref)
        self.decode = DecodePHash()

    def __call__(self, chunk: pa.Table) -> pa.Table:
        return self.decode(self.attach(chunk))


def _add_round(t: pa.Table, k: int) -> pa.Table:
    return t.append_column("round", pa.array(np.full(len(t), k, dtype=np.int32)))


class _RoundStamp:
    def __init__(self, k: int):
        self.k = k

    def __call__(self, t: pa.Table) -> pa.Table:
        return _add_round(t, self.k)


def _distinct_by_hash(t: pa.Table, extra: str | None = None) -> pa.Table:
    """Per-block distinct on url_hash (and ``extra``): denial lineage is
    consumed as a SET of (url, reason) (:func:`read_denied` / simulator
    parity), and link batches repeat the same target URL heavily (nav
    links), so dropping within-block repeats cuts the sink's string
    traffic by the duplication factor with zero reader change."""
    if len(t) == 0:
        return t
    h = t["url_hash"].to_numpy()
    if extra is None:
        _, first = np.unique(h, return_index=True)
    else:
        codes = pc.dictionary_encode(t[extra].combine_chunks()).indices.to_numpy(
            zero_copy_only=False
        )
        order = np.lexsort((codes, h))
        hs, cs = h[order], codes[order]
        new = np.concatenate(([True], (hs[1:] != hs[:-1]) | (cs[1:] != cs[:-1])))
        first = order[new]
    if len(first) == len(t):
        return t
    return t.take(pa.array(np.sort(first), type=pa.int64()))


class _DeniedKernel:
    def __init__(self, k: int, keep_side: bool):
        self.k = k
        self.keep_side = keep_side

    def __call__(self, t: pa.Table) -> pa.Table:
        mask = pc.equal(t["reason"], KEEP)
        if not self.keep_side:
            sub = t.filter(pc.invert(mask)).select(["url", "url_hash", "reason"])
            sub = _distinct_by_hash(sub, extra="reason").drop_columns(["url_hash"])
            return _add_round(sub, self.k)
        return t.filter(mask).drop_columns(["reason"])


class _DupDeniedKernel:
    def __init__(self, k: int):
        self.k = k

    def __call__(self, t: pa.Table) -> pa.Table:
        sub = t.filter(pc.invert(t["novel"])).select(["url", "url_hash"])
        sub = _distinct_by_hash(sub).drop_columns(["url_hash"])
        sub = sub.append_column("reason", pa.array([DENY_DUPLICATE] * len(sub), type=pa.string()))
        return _add_round(sub, self.k)


class _IntraDupKernel:
    def __init__(self, k: int):
        self.k = k

    def __call__(self, t: pa.Table) -> pa.Table:
        sub = t.filter(pc.invert(t["intra_first"])).select(["url", "url_hash"])
        sub = _distinct_by_hash(sub).drop_columns(["url_hash"])
        sub = sub.append_column("reason", pa.array([DENY_DUPLICATE] * len(sub), type=pa.string()))
        return _add_round(sub, self.k)


def _empty_frontier() -> pa.Table:
    return _FRONTIER_SCHEMA.empty_table()


@ray.remote
def _block_apply(fn, block):
    return fn(block)


# Deserialized micro-round kernels of this worker process, keyed by the
# binary id of the ref each runner ray.puts once per job (so a new
# runner never meets an older runner's kernel), most recently used last.
# Two entries hold one runner's link and image kernels.
_WARM_KERNELS: OrderedDict[bytes, object] = OrderedDict()
_WARM_KERNELS_MAX = 2


def _warm_kernel(boxed_ref: list):
    """The kernel behind ``[ref]``, deserialized once per worker process:
    later tasks reuse its corpus view and payload row-group cache."""
    (ref,) = boxed_ref
    key = ref.binary()
    fn = _WARM_KERNELS.pop(key, None)
    if fn is None:
        fn = ray.get(ref)
    _WARM_KERNELS[key] = fn
    while len(_WARM_KERNELS) > _WARM_KERNELS_MAX:
        _WARM_KERNELS.popitem(last=False)
    return fn


@ray.remote
def _warm_apply(boxed_ref: list, block):
    """Micro-round payload task. The kernel ref arrives boxed, so Ray
    neither fetches nor unpickles it per task; :func:`_warm_kernel`
    does that once per worker."""
    return _warm_kernel(boxed_ref)(block)


def _map_block_refs(ds: rd.Dataset, fn):
    """Run ``fn`` over each materialized block of ``ds`` as raw Ray
    tasks on the block refs and return the results.

    This is the no-executor path for tiny per-block metadata passes
    (per-depth counts, per-block summaries, boundary rows): a full
    ``map_batches(...).to_pandas()`` pays a streaming-executor
    spin-up that measures ~200 ms at 32 CPUs (and grows with cluster
    size) — ~10× the work itself. Blocks stay distributed; only
    ``fn``'s (small) results come back to the driver."""
    refs = []
    for bundle in ds.iter_internal_ref_bundles():
        refs.extend(bundle.block_refs)
    # put the kernel ONCE — fn closures can carry the robots table
    # (per-domain rules, potentially MBs at web scale), and a direct
    # task argument would re-pickle it per block per round
    fn_ref = ray.put(fn)
    return ray.get([_block_apply.remote(fn_ref, b) for b in refs])


def _parquet_rows(path: Path) -> int:
    """Row count of a written parquet directory from file metadata
    (driver-side, no read of data pages, no Ray execution)."""
    total = 0
    for f in Path(path).glob("*.parquet"):
        total += pq.ParquetFile(f).metadata.num_rows
    return total


class CrawlJobRunner:
    """Runs one crawl job (one CrawlSite) over a corpus directory.

    Owns the per-job mutable state: URL-seen shard actors, per-depth
    seq counters, checkpoint store. Ray must already be initialized by
    the caller (driver contract) — this class never calls ray.init.
    """

    def __init__(
        self,
        site: CrawlSite,
        corpus_dir: str | Path,
        out_dir: str | Path,
        cfg: CrawlConfig | None = None,
        emit_steps: list | None = None,
    ):
        self.site = site
        self.cfg = cfg or CrawlConfig()
        # user-extension surface on the emit path (ITEM_PIPELINES
        # analog, reference settings.py:105-108): priority-ordered
        # Table->Table steps applied to emitted item rows on BOTH the
        # Dataset path (stages.steps.compose) and the micro path
        # (apply_steps_table; class steps instantiated once per job,
        # mirroring once-per-actor construction). Steps see item rows
        # only — the crawl frontier, ordering, and dedup state are
        # upstream and unaffected.
        self.emit_steps = list(emit_steps or [])
        self._emit_step_instances: dict = {}
        # micro-path kernel broadcast refs, put lazily once per job
        self._micro_link_kern = None
        self._micro_image_kern = None
        # in-memory frontier handoff between consecutive micro rounds:
        # (round, table) of the LAST checkpoint written from a driver
        # table — the next round reads this instead of re-parsing the
        # parquet it just wrote (the write itself always happens, so
        # resume still reads from disk; the stash is a pure read-back
        # skip and is byte-equivalent to the file)
        self._frontier_stash: tuple[int, pa.Table] | None = None
        self.corpus_dir = Path(corpus_dir)
        self.out_dir = Path(out_dir)
        self.ckpt = CheckpointStore(self.out_dir / "checkpoint")
        self.scope = JobScope(
            allowed_domains=site.allowed_domains,
            deny_paths=site.deny_paths,
            allow_query_string=site.allow_query_string,
            depth_limit=site.depth_limit,
        )
        robots_path = self.corpus_dir / "robots.parquet"
        self.robots = (
            RobotsRules.from_table(pq.read_table(robots_path))
            if robots_path.exists()
            else RobotsRules()
        )
        # Corpus into the object store ONCE (zero-copy for all actors),
        # broadcast as (table, argsort permutation of url_hash): sorting
        # a multi-GB string/binary table with take() would overflow
        # 32-bit Arrow offsets; searchsorted runs over the permuted hash
        # array instead (stages/fetch.py module docstring).
        from ..stages.fetch import broadcastable

        # Broadcast METADATA only (columns pruned at the read — ~100 B/row);
        # body/bytes payloads stream from the parquet files via per-worker
        # row-group gathers (stages/fetch.py _RowGroupGather). The object
        # store never holds the multi-GB payload columns.
        pages_path = self.corpus_dir / "corpus_pages.parquet"
        pages = broadcastable(
            pq.read_table(
                pages_path,
                columns=["url_hash", "url", "domain", "status", "content_type",
                         "content_language", "image_id"],
            )
        )
        page_perm = np.argsort(
            pages["url_hash"].to_numpy(zero_copy_only=False), kind="stable"
        ).astype(np.int64)
        self.corpus_ref = ray.put((pages, page_perm, str(pages_path)))
        images_path = self.corpus_dir / "corpus_images.parquet"
        if images_path.exists():
            images = pq.read_table(
                images_path, columns=["image_id", "w", "h", "fmt", "caption", "phash"]
            )
            id_hash = xxhash64_array(images["image_id"].to_pylist())
            images = images.append_column("id_hash", pa.array(id_hash, type=pa.uint64()))
            images = broadcastable(images)
            img_perm = np.argsort(id_hash, kind="stable").astype(np.int64)
            self.images_ref = ray.put((images, img_perm, str(images_path)))
        else:
            self.images_ref = None
        self.shards = make_shard_pool(self.cfg.num_shards, self.cfg.shard_capacity)
        self.depth_counters: dict[int, int] = {}

    # --- seed admission (round 0 bootstrap; tiny, driver-side) ----------
    def _admit_seeds(self) -> tuple[pa.Table, list[dict]]:
        urls = [canonicalize(u) for u in self.site.starting_urls]
        denied: list[dict] = []
        rows = []
        for i, url in enumerate(urls):
            reason = self.scope.evaluate(pd.Series([url]), np.array([0])).iloc[0]
            if reason == KEEP and not self.robots.allowed(url):
                reason = DENY_ROBOTS
            if reason != KEEP:
                denied.append({"url": url, "reason": reason, "round": -1})
                continue
            rows.append(url)
        hashes = xxhash64_array(rows)
        shard_of = hashes % np.uint64(max(1, self.cfg.num_shards))
        novel = np.zeros(len(rows), dtype=bool)
        for s in np.unique(shard_of):
            idx = np.where(shard_of == s)[0]
            sub = hashes[idx]
            digest = int(xxhash64(sub.tobytes()))
            # seeds arrive pre-deduped in one driver-side call per
            # shard, so the plain provisional mask is already final;
            # log=False keeps the round_id=-1 entries out of the offer
            # log (corrections(-1) is never called)
            novel[idx] = ray.get(
                self.shards[int(s)].offer.remote(
                    -1, digest, sub, np.zeros(len(sub), dtype=np.uint64), log=False
                )
            )
        frontier_rows = {k: [] for k in FRONTIER_COLUMNS}
        seq = 0
        for i, url in enumerate(rows):
            if not novel[i]:
                denied.append({"url": url, "reason": DENY_DUPLICATE, "round": -1})
                continue
            frontier_rows["depth"].append(0)
            frontier_rows["seq"].append(seq)
            frontier_rows["url"].append(url)
            frontier_rows["domain"].append(host_of(url))
            frontier_rows["url_hash"].append(int(hashes[i]))
            seq += 1
        self.depth_counters = {0: seq}
        return pa.table(frontier_rows, schema=_FRONTIER_SCHEMA), denied

    def _write_checkpoint(self, k: int, frontier: rd.Dataset | pa.Table, manifest_extra: dict) -> int:
        fdir = self.ckpt.frontier_dir(k)
        fdir.mkdir(parents=True, exist_ok=True)
        if isinstance(frontier, pa.Table):
            pq.write_table(frontier, fdir / "frontier_0000.parquet")
            n_rows = frontier.num_rows
            self._frontier_stash = (k, frontier)
        else:
            frontier.write_parquet(str(fdir))
            # row count from the written files' footers — a count() on
            # the lazy union would re-run its whole lineage
            n_rows = _parquet_rows(fdir)
        # checkpoint k is taken after round k - 1's last offer
        shard_sizes = dump_shards(self.shards, self.ckpt.shards_dir(k), k - 1)
        manifest = {
            "round": k,
            "job_id": self.site.job_id,
            "frontier_rows": int(n_rows),
            "shard_sizes": [int(x) for x in shard_sizes],
            "depth_counters": {str(d): int(c) for d, c in self.depth_counters.items()},
            **manifest_extra,
        }
        self.ckpt.write_manifest(k, manifest)
        return int(n_rows)

    def _clean_outputs_from(self, k: int) -> None:
        for sub in ("order", "emitted", "corpus", "denied"):
            base = self.out_dir / sub
            if not base.exists():
                continue
            for d in base.glob("**/round-*"):
                tail = d.name.split("-", 1)[1]
                if tail.isdigit() and int(tail) >= k:
                    shutil.rmtree(d)

    def resume_point(self) -> int | None:
        return self.ckpt.latest_complete_round()

    def close(self) -> None:
        """Kill shard actors (frees their CPU/memory reservation).
        Call when done reading state; a new runner restores from
        checkpoint."""
        for s in self.shards:
            ray.kill(s)
        self.shards = []

    def _write_job_meta(self) -> None:
        """Reader-facing pointer to the corpus metadata table: the
        lineage sinks store url_hash only; read_order/read_emitted
        reconstruct strings by joining this table."""
        import json

        self.out_dir.mkdir(parents=True, exist_ok=True)
        (self.out_dir / "job_meta.json").write_text(
            json.dumps(
                {
                    "job_id": self.site.job_id,
                    "corpus_pages": str(self.corpus_dir / "corpus_pages.parquet"),
                }
            )
        )

    def run(self, resume: bool = False) -> CrawlRunResult:
        cfg = self.cfg
        if resume and (k0 := self.resume_point()) is not None:
            manifest = self.ckpt.read_manifest(k0)
            self.depth_counters = {int(d): int(c) for d, c in manifest["depth_counters"].items()}
            # shard count is part of the checkpoint's hash→shard routing
            # (h % S): resuming with a different S would silently route
            # probes to shards holding a different modulus class and
            # re-admit seen URLs — refuse instead
            n_ckpt = len(manifest.get("shard_sizes", self.shards))
            if n_ckpt != len(self.shards):
                raise ValueError(
                    f"checkpoint has {n_ckpt} URL-seen shards but cfg.num_shards="
                    f"{len(self.shards)}; resume with the checkpointed shard count"
                )
            restore_shards(self.shards, self.ckpt.shards_dir(k0))
            self.ckpt.drop_rounds_from(k0 + 1)
            self._clean_outputs_from(k0)
            start_round = k0
        else:
            if self.out_dir.exists():
                shutil.rmtree(self.out_dir)
            self.ckpt = CheckpointStore(self.out_dir / "checkpoint")
            seeds_frontier, seed_denied = self._admit_seeds()
            if seed_denied:
                dtab = pa.table(
                    {
                        "url": [d["url"] for d in seed_denied],
                        "reason": [d["reason"] for d in seed_denied],
                        "round": pa.array([d["round"] for d in seed_denied], type=pa.int32()),
                    }
                )
                seed_dir = self.out_dir / "denied" / "round-seed"
                seed_dir.mkdir(parents=True, exist_ok=True)
                pq.write_table(dtab, seed_dir / "denied_seed.parquet")
            self._write_checkpoint(0, seeds_frontier, {"granted": {}, "phase": "seeded"})
            start_round = 0
        self._write_job_meta()

        total_fetched = 0
        per_round: list[int] = []
        slots = _task_slots()
        k = start_round
        while k < cfg.max_rounds:
            manifest = self.ckpt.read_manifest(k)
            if manifest is None or manifest["frontier_rows"] == 0:
                break
            fetched_count = self._run_round(k, manifest["frontier_rows"], slots)
            per_round.append(fetched_count)
            total_fetched += fetched_count
            k += 1
        seen_total = int(sum(ray.get([s.size.remote() for s in self.shards])))
        return CrawlRunResult(
            job_id=self.site.job_id,
            rounds=k - start_round,
            fetched=total_fetched,
            seen=seen_total,
            out_dir=str(self.out_dir),
            ckpt_dir=str(self.ckpt.root),
            per_round_fetched=per_round,
        )

    # --- one BSP round ---------------------------------------------------
    def _grant_thresholds(self, totals: dict[str, int], candidates_for):
        """Two-phase narrow politeness merge shared by the Dataset and
        micro paths: domains whose global count stays under budget
        grant everything (threshold = UINT64_MAX) without a candidate
        pass; ``candidates_for(over)`` supplies per-block candidate
        packs only for the over-budget domains. Returns the sorted
        (domains, thresholds) broadcast table."""
        from ..stages.politeness import merge_grant_thresholds

        cfg = self.cfg
        over = np.array(
            sorted(
                d for d, n in totals.items()
                if n >= self.robots.budget(d, cfg.round_seconds)
            ),
            dtype=object,
        )
        if len(over):
            dom_o, thr_o = merge_grant_thresholds(
                candidates_for(over), self.robots, cfg.round_seconds
            )
        else:
            dom_o = np.array([], dtype="U")
            thr_o = np.array([], dtype=np.uint64)
        all_doms = np.sort(np.asarray(list(totals.keys()), dtype="U"))
        thr_all = np.full(len(all_doms), np.iinfo(np.uint64).max, dtype=np.uint64)
        if len(dom_o):
            thr_all[np.searchsorted(all_doms, dom_o)] = thr_o
        return all_doms, thr_all

    def _run_round_micro(self, k: int, slots: int) -> int:
        """Micro-round fast path (rows_in ≤ cfg.micro_round_rows): the
        SAME kernel objects as the Dataset path, but cheap stages run
        as direct calls on one driver-side Arrow table and the two
        payload-bound stages (body join + link extraction, image
        attach/decode) run as raw Ray tasks over zero-copy table
        chunks — no streaming-executor launches at all. A normal tiny
        round pays ~9 executor spin-ups (~0.2 s each at 32 CPUs,
        growing with cluster size) for milliseconds of work; the BFS
        ramp and tail rounds are exactly such rounds. Sinks land via
        _write_table_round (same directory layout). Parity with the
        Dataset path is pinned by running the e2e simulator suite in
        BOTH modes (micro_round_rows=0 forces the Dataset path)."""
        cfg = self.cfg
        from ..stages.politeness import (
            TagGrant,
            block_grant_candidates,
            block_grant_counts,
        )

        stash = self._frontier_stash
        if stash is not None and stash[0] == k:
            frontier_tab = stash[1]  # byte-equivalent to the file
        else:
            frontier_tab = pq.read_table(str(self.ckpt.frontier_dir(k)))

        # 1. politeness — the shared two-phase narrow merge, one block
        totals = block_grant_counts()(frontier_tab)
        all_doms, thr_all = self._grant_thresholds(
            totals,
            lambda over: [
                block_grant_candidates(
                    self.robots, cfg.round_seconds, only_domains=over
                )(frontier_tab)
            ],
        )
        # raw tuple, not ray.put: the micro path applies the tag on the
        # driver table directly — no broadcast, no plasma copy
        marked = TagGrant((all_doms, thr_all))(frontier_tab)
        granted = marked.filter(marked["granted"]).drop_columns(["granted"])
        carry = marked.filter(pc.invert(marked["granted"])).drop_columns(["granted"])

        # 2. fetch metadata join (broadcast corpus metadata, no payloads)
        fetched = CorpusFetcher(self.corpus_ref, meta_only=True)(granted).select(
            _FETCH_META_COLS
        )
        n_fetched = len(fetched)

        # 3. order + spent lineage
        _write_table_round(_order_rows_kernel(fetched, k), self.out_dir / "order", k)
        spent = {d: int(c) for d, c in block_grant_counts()(fetched).items()}

        # 4. emit + image landing (payload gathers as chunked raw
        # tasks) — the decode task FUTURES are submitted here but
        # gathered AFTER the link chain below, so the two payload-bound
        # stages overlap on the worker pool instead of paying two
        # serial ray.get barriers
        emit = _add_round(_EmitKernel(self.site.output_target)(fetched), k)
        if self.emit_steps:
            from ..stages.steps import apply_steps_table

            emit = apply_steps_table(emit, self.emit_steps, self._emit_step_instances)
        _write_table_round(_strip_image_id(emit), self.out_dir / "emitted", k)
        img_futs: list = []
        if self.images_ref is not None and "image_id" in emit.column_names:
            img_rows = _image_rows(emit)
        else:
            img_rows = []
        if len(img_rows):
            # round-independent kernel: put once per job, reuse the ref
            # every micro round (serialize + plasma copy paid once)
            kern = self._micro_image_kern
            if kern is None:
                kern = self._micro_image_kern = ray.put(
                    _MicroImageKernel(self.images_ref)
                )
            # only image rows ship, one chunk per 128 of them (_fan_out
            # caps it at 2 per task slot): a warm kernel still pays a
            # task launch and its payload row-group reads per chunk
            chunks = _table_chunks(img_rows, _fan_out(len(img_rows), 128, 1, slots))
            img_futs = [_warm_apply.remote([kern], c) for c in chunks]

        # 5. link chain (body gathers as chunked raw tasks, running
        # concurrently with the image decode tasks submitted above)
        if self.site.prevent_follow:
            scoped = None
        else:
            fetcher_cls = JsFetcher if self.site.handle_javascript else CorpusFetcher
            kern = self._micro_link_kern  # round-independent, put once
            if kern is None:
                kern = self._micro_link_kern = ray.put(
                    _MicroLinkKernel(self.corpus_ref, fetcher_cls, self.scope, self.robots)
                )
            # one chunk per 64 rows, same rule (the link chain is ~ms
            # per row, so a sub-hundred-row task is mostly launch cost,
            # while a single mega-chunk serializes the payload row-group
            # reads)
            chunks = _table_chunks(granted, _fan_out(len(granted), 64, 1, slots))
            parts = [
                p
                for p in ray.get([_warm_apply.remote([kern], c) for c in chunks])
                if len(p)
            ]
            scoped = pa.concat_tables(parts).combine_chunks() if parts else None
        if img_futs:
            img_parts = [p for p in ray.get(img_futs) if len(p)]
            if img_parts:
                _write_table_round(
                    pa.concat_tables(img_parts).combine_chunks(),
                    self.out_dir / "corpus",
                    k,
                )
        if scoped is None or len(scoped) == 0:
            next_tab = pa.concat_tables(
                [carry.select(FRONTIER_COLUMNS).cast(_FRONTIER_SCHEMA)]
            )
            self._write_checkpoint(
                k + 1, next_tab, {"granted": spent, "fetched": n_fetched}
            )
            return n_fetched

        # 6+7. fused intra-round first-wins + URL-seen membership — the
        # identical RPC protocol, one driver-side pass
        denied_tab = _DeniedKernel(k, keep_side=False)(scoped)
        cands = _DeniedKernel(k, keep_side=True)(scoped)
        if len(cands):
            packed = _pack_admission(cands)
            # single-block mode: the whole round is ONE router call, so
            # local first-wins already made every offered hash unique —
            # corrections are empty by construction; skip both the
            # offer log (log=False) and the collect_corrections
            # all-shard barrier (one RPC round-trip saved per round)
            fixed = FusedDedupRouter(self.shards, k, log=False)(packed)
            intra_dups = _IntraDupKernel(k)(fixed)
            marked2 = fixed.filter(fixed["intra_first"])
            dup_denied = _DupDeniedKernel(k)(marked2)
            novel_tab = marked2.filter(marked2["novel"]).drop_columns(
                ["novel", "intra_first"]
            )
            denied_all = pa.concat_tables([denied_tab, intra_dups, dup_denied])
        else:
            novel_tab = _empty_frontier()
            denied_all = denied_tab
        _write_table_round(denied_all, self.out_dir / "denied", k)

        # 8. admission-order seq assignment (always the narrow kernel:
        # novel is bounded by the fan-out of ≤ micro_round_rows pages)
        counters = dict(self.depth_counters)
        if len(novel_tab):
            nf_tab = _assign_seq_kernel(novel_tab.combine_chunks(), counters)
            vals, cnts = np.unique(nf_tab["depth"].to_numpy(), return_counts=True)
            for dd, cnt in zip(vals, cnts):
                self.depth_counters[int(dd)] = self.depth_counters.get(int(dd), 0) + int(cnt)
        else:
            nf_tab = _empty_frontier()
        next_tab = pa.concat_tables(
            [
                carry.select(FRONTIER_COLUMNS).cast(_FRONTIER_SCHEMA),
                nf_tab.select(FRONTIER_COLUMNS).cast(_FRONTIER_SCHEMA),
            ]
        )
        self._write_checkpoint(k + 1, next_tab, {"granted": spent, "fetched": n_fetched})
        return n_fetched

    def _run_round(self, k: int, rows_in: int, slots: int) -> int:
        cfg = self.cfg
        if 0 < cfg.micro_round_rows and rows_in <= cfg.micro_round_rows:
            return self._run_round_micro(k, slots)
        frontier = rd.read_parquet(str(self.ckpt.frontier_dir(k)))

        # 1. politeness grant. Normal rounds: NO exchange — each block
        # surfaces its per-domain top-B (depth, seq) packs via raw
        # block-ref tasks, the driver merges them into one exact
        # threshold per domain, and a broadcast searchsorted tag pass
        # marks grants (grant set identical to the partition kernel —
        # parity pinned in tests). Huge frontiers keep the coarse
        # hash-partition exchange so driver memory stays bounded
        # (candidate lists are O(domains × B × blocks) ≤ frontier rows).
        from ..stages.politeness import (
            TagGrant,
            block_grant_candidates,
            block_grant_counts,
            partition_grant_thresholds,
            politeness_partition_key,
            prune_grant_candidates,
        )

        if rows_in <= cfg.politeness_driver_rows:
            fmat = frontier.materialize()
            # two-phase driver merge: (1) per-domain COUNTS (O(domains)
            # per block); domains under budget grant everything without
            # shipping a pack; (2) candidate packs only for over-budget
            # domains — with generous budgets (long rounds) the driver
            # never sees O(frontier) rows, which kept this path ~flat in
            # CPU count (BASELINE.md politeness 0.9x/4)
            totals: dict[str, int] = {}
            for part in _map_block_refs(fmat, block_grant_counts()):
                for dom, cnt in part.items():
                    totals[dom] = totals.get(dom, 0) + cnt
            all_doms, thr_all = self._grant_thresholds(
                totals,
                lambda over: _map_block_refs(
                    fmat,
                    block_grant_candidates(
                        self.robots, cfg.round_seconds, only_domains=over
                    ),
                ),
            )
            thr_ref = ray.put((all_doms, thr_all))
            marked = fmat.map_batches(TagGrant(thr_ref), batch_format="pyarrow")
        else:
            # huge frontiers: same threshold+tag structure, but the
            # per-block candidate merge happens in a PRUNED exchange
            # instead of on the driver. Only per-batch per-domain top-B
            # (domain, pack) rows shuffle — ≤ B rows per domain per
            # batch, so a 10^9-row hot domain is skew-bounded at the
            # source and the frontier itself never moves. The resulting
            # threshold table is O(domains) and broadcasts like the
            # narrow path's.
            n_parts = cfg.politeness_parts

            def add_part(t: pa.Table) -> pa.Table:
                # dictionary-encode so only DISTINCT domains are hashed —
                # no per-row Python string materialization
                enc = pc.dictionary_encode(t["domain"].combine_chunks())
                part_of = politeness_partition_key(enc.dictionary.to_pylist(), n_parts)
                idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
                return t.append_column("part", pa.array(part_of[idx], type=pa.int32()))

            thr_tab = (
                frontier.map_batches(
                    prune_grant_candidates(self.robots, cfg.round_seconds),
                    batch_format="pyarrow",
                )
                .map_batches(add_part, batch_format="pyarrow")
                .groupby("part")
                .map_groups(
                    partition_grant_thresholds(self.robots, cfg.round_seconds),
                    batch_format="pyarrow",
                )
                .to_pandas()
            )
            dom_np = thr_tab["domain"].to_numpy(dtype="U")
            order = np.argsort(dom_np, kind="mergesort")
            thr_ref = ray.put(
                (dom_np[order], thr_tab["thr"].to_numpy(dtype=np.uint64)[order])
            )
            marked = frontier.map_batches(
                TagGrant(thr_ref), batch_format="pyarrow"
            ).materialize()
        granted = marked.map_batches(
            lambda t: t.filter(t["granted"]).drop_columns(["granted"]),
            batch_format="pyarrow",
        )
        carry = marked.map_batches(
            lambda t: t.filter(pc.invert(t["granted"])).drop_columns(["granted"]),
            batch_format="pyarrow",
        )

        # 2. fetch (task-based hash join vs the broadcast corpus; block
        # count = fetch parallelism, so split wide rounds first)
        if rows_in > 128:
            # each fetch/links task gathers its rows' payload row-groups,
            # so block count = gather parallelism. Sparse rounds touch ~1
            # row group PER ROW (seeds scatter across the corpus), so the
            # quota is 8 rows per block (_fan_out: floor 2, ≤ 2 per task
            # slot) — a 400-seed round 0 otherwise serialized ~67
            # row-group decompressions inside each of 6 tasks.
            granted = granted.repartition(_fan_out(rows_in, 8, 2, slots))
        # granted (narrow frontier rows) is materialized ONCE after its
        # shuffle: the fetch-metadata join and the link chain both read
        # it, and a lazy view would re-run TagGrant + the repartition
        # for each.
        granted = granted.materialize()
        # Only fetch METADATA is materialized from the join; the body
        # join re-runs inside the fused link chain below so multi-GB
        # payloads stream through tasks without ever parking in the
        # object store.
        # The materialized table is NARROW: url and content_language are
        # dropped right after the join (everything downstream keys on
        # url_hash; strings are reconstructed from the corpus metadata
        # only at read time — read_order/read_emitted), so the blocks
        # the order/emit sinks and the image path move are ints + the
        # short domain/content_type strings.
        fetched = granted.map_batches(
            CorpusFetcher(self.corpus_ref, meta_only=True),
            batch_format="pyarrow",
            batch_size=cfg.fetch_batch_size,
        ).map_batches(
            lambda t: t.select(_FETCH_META_COLS), batch_format="pyarrow"
        ).materialize()
        n_fetched = fetched.count()

        # 3. order/lineage sink (fetch order = (round, depth, seq)):
        # url_hash + int16 status per row (see _order_rows_kernel);
        # status stays for the close monitors' HTTP-code budget.
        order = fetched.map_batches(
            lambda t, _k=k: _order_rows_kernel(t, _k), batch_format="pyarrow"
        )
        _write_round(order, self.out_dir / "order", k)

        # spent-per-domain lineage: per-block value_counts over the
        # materialized fetch metadata via raw block-ref tasks (no sink
        # read-back, no extra executor; same kernel as the politeness
        # count pass — one implementation, politeness.block_grant_counts)
        spent: dict[str, int] = {}
        for part in _map_block_refs(fetched, block_grant_counts()):
            for dom, cnt in part.items():
                spent[dom] = spent.get(dom, 0) + cnt

        # 4. emit + image payload landing, then the link chain below;
        # both read the materialized fetch metadata / granted rows.
        def _emit_and_decode() -> None:
            emit = fetched.map_batches(
                _EmitKernel(self.site.output_target), batch_format="pyarrow"
            ).map_batches(_RoundStamp(k), batch_format="pyarrow")
            if self.emit_steps:
                # user emit steps (ITEM_PIPELINES analog) — composed as
                # map_batches stages in (priority, name) order, same
                # semantics as the micro path's apply_steps_table
                from ..stages.steps import compose

                # actor_pools=False: a pinned pool inside this round's
                # executor contends with the shard/decode stages (can
                # starve a small-CPU session); task-based steps share
                # the worker pool with the round.
                # MATERIALIZED once: the image branch below consumes
                # the same lineage, and re-executing arbitrary user
                # steps would run their side effects twice per round
                # (the cheap built-in emit kernels tolerate the re-run;
                # user code must not have to). Emit rows are narrow.
                emit = compose(emit, self.emit_steps, actor_pools=False).materialize()
                _write_round(
                    emit.map_batches(_strip_image_id, batch_format="pyarrow"),
                    self.out_dir / "emitted",
                    k,
                )
                sch = emit.schema()
                if sch is None or "image_id" not in sch.names:
                    # a step reshaped item rows past the image contract
                    # (or dropped every row — schema() is None then):
                    # skip image landing, same as the micro path's guard
                    return
                count_src, count_fn = emit, _image_count
            else:
                # narrow sink: (depth, seq, url_hash, round); url/doc_id/
                # content columns reconstruct at read time (read_emitted)
                _write_round(emit.drop_columns(["image_id"]), self.out_dir / "emitted", k)
                # the count re-runs the cheap emit kernel over the
                # MATERIALIZED fetch metadata
                emit_kern = _EmitKernel(self.site.output_target)
                count_src = fetched

                def count_fn(t: pa.Table) -> int:
                    return _image_count(emit_kern(t)) if len(t) else 0

            if self.images_ref is None:
                return
            # image rows counted by raw block tasks (no executor); a
            # round without any starts no image stage
            n_img = sum(_map_block_refs(count_src, count_fn))
            if n_img == 0:
                return
            # only image rows shuffle, into _fan_out pieces (16 rows
            # each, floor 2): block count = payload-gather parallelism,
            # and sparse rounds inherit very few blocks from the fetch
            # stage, which serializes the per-task image row-group reads
            image_in = emit.map_batches(_image_rows, batch_format="pyarrow").repartition(
                _fan_out(n_img, 16, 2, slots)
            )
            image_rows = image_in.map_batches(
                ImageAttach(self.images_ref),
                batch_format="pyarrow",
                batch_size=cfg.decode_batch_size,
            ).map_batches(
                DecodePHash(),
                batch_format="pyarrow",
                batch_size=cfg.decode_batch_size,
            )
            _write_round(image_rows, self.out_dir / "corpus", k)

        _emit_and_decode()

        # 5. link extraction → canonicalize → scope/robots as one
        # FUSED task chain: body join → 200-filter → extract →
        # canon/scope. Bodies exist only transiently inside each
        # task; what materializes is the narrow scoped-candidate
        # table. (Only 200-status pages parse — non-200 responses
        # yield neither items nor links, reference CrawlSpider
        # semantics.) prevent_follow mode (reference
        # domain_spider.py:74-76) skips the link chain entirely:
        # fetch + emit only, no candidates, no link denials.
        # JS sites route bodies through the render step (reference
        # picks DomainSpiderJs by the handle_javascript flag)
        fetcher_cls = JsFetcher if self.site.handle_javascript else CorpusFetcher
        if self.site.prevent_follow:
            scoped = None
        else:
            scoped = granted.map_batches(
                fetcher_cls(self.corpus_ref),
                batch_format="pyarrow",
                batch_size=cfg.fetch_batch_size,
            ).map_batches(
                lambda t: t.filter(pc.equal(t["status"], pa.scalar(200, type=pa.int16()))),
                batch_format="pyarrow",
            ).map_batches(
                extract_links_batch, batch_format="pyarrow", batch_size=cfg.link_batch_size
            ).map_batches(
                _CanonScope(self.scope, self.robots), batch_format="pyarrow"
            ).materialize()
        # no link candidates (prevent_follow, or nothing scoped): the
        # next frontier is the carry alone. count() on the MATERIALIZED
        # scoped table is free (block metadata); counting the keep-side
        # filter would spin another executor.
        if scoped is None or scoped.count() == 0:
            next_frontier = carry.map_batches(
                lambda t: t.select(FRONTIER_COLUMNS), batch_format="pyarrow"
            )
            self._write_checkpoint(k + 1, next_frontier, {"granted": spent, "fetched": n_fetched})
            return n_fetched
        denied = scoped.map_batches(_DeniedKernel(k, keep_side=False), batch_format="pyarrow")
        cands = scoped.map_batches(_DeniedKernel(k, keep_side=True), batch_format="pyarrow")
        # wide-dispatch decides AFTER the dedup pass on the EXACT novel
        # count (shard-size delta, one RPC per shard — the audit sets
        # count distinct admitted hashes): seq assignment only sorts the
        # novel rows, and dispatching on the scoped count (links, 10-20×
        # larger) forced the sort exchange on rounds whose novel set fits
        # one task's lexsort comfortably.
        seen_before = int(sum(ray.get([s.size.remote() for s in self.shards])))

        # 6+7. FUSED intra-round first-wins + URL-seen membership in ONE
        # RPC pass (no sort exchange): per-batch local first-wins by min
        # adm_key, local winners offered to the shard actors (provisional
        # novelty answered immediately, offers logged), then the shards'
        # multi-offer corrections broadcast back and applied — the
        # deterministic winner of every url_hash is the min-adm_key row,
        # exactly the admission order the old sort-based path produced
        # (parity pinned by the simulator goldens + forced-path tests).
        # Mutating stage — materialized exactly once; the (round,
        # batch-digest) memo covers task retries.
        offered = (
            cands.map_batches(_pack_admission, batch_format="pyarrow")
            .map_batches(
                FusedDedupRouter(self.shards, k),
                batch_format="pyarrow",
                batch_size=cfg.dedup_batch_size,
            )
            .materialize()
        )
        corr_ref = ray.put(collect_corrections(self.shards, k))
        fixed = offered.map_batches(CorrectionFix(corr_ref), batch_format="pyarrow")
        n_novel = int(sum(ray.get([s.size.remote() for s in self.shards]))) - seen_before
        wide = n_novel > cfg.wide_round_rows
        intra_dups = fixed.map_batches(_IntraDupKernel(k), batch_format="pyarrow")
        marked2 = fixed.map_batches(
            lambda t: t.filter(t["intra_first"]), batch_format="pyarrow"
        )
        dup_denied = marked2.map_batches(_DupDeniedKernel(k), batch_format="pyarrow")
        novel = marked2.map_batches(
            lambda t: t.filter(t["novel"]).drop_columns(["novel", "intra_first"]),
            batch_format="pyarrow",
        )

        # one denial-lineage write per round: scope/robots ∪ intra-round
        # dups ∪ cross-round dups (same schema, single sink execution),
        # written before the checkpoint so a completed manifest always
        # implies complete lineage.
        _write_round(denied.union(intra_dups, dup_denied), self.out_dir / "denied", k)

        # 8. admission-order seq assignment
        counters = dict(self.depth_counters)
        if wide:
            # block-level prefix sum over a distributed sort
            new_frontier = _assign_seq_wide(novel, counters, has_adm_key=True).materialize()
            # per-depth counts via raw block-ref tasks (no Aggregate
            # exchange, no executor spin-up)
            def _depth_counts(t: pa.Table) -> dict[int, int]:
                if len(t) == 0:
                    return {}
                vals, cnts = np.unique(t["depth"].to_numpy(), return_counts=True)
                return {int(v): int(c) for v, c in zip(vals, cnts)}

            for part in _map_block_refs(new_frontier, _depth_counts):
                for dd, cnt in part.items():
                    self.depth_counters[dd] = self.depth_counters.get(dd, 0) + cnt
        else:
            # narrow rounds: gather the novel rows (bounded by
            # wide_round_rows) via raw block-ref tasks and run the
            # single-block kernel driver-side — no repartition(1)
            # exchange, no extra executor, and depth counters come
            # straight off the result table
            fix2 = CorrectionFix(corr_ref)

            def _novel_tab(t: pa.Table) -> pa.Table:
                if len(t) == 0:  # Ray can emit column-less empty blocks
                    return t
                ft = fix2(t)
                keep = pc.and_(ft["intra_first"], ft["novel"])
                return ft.filter(keep).drop_columns(["novel", "intra_first"])

            tabs = [t for t in _map_block_refs(offered, _novel_tab) if len(t)]
            if tabs:
                novel_tab = pa.concat_tables(tabs).combine_chunks()
                nf_tab = _assign_seq_kernel(novel_tab, counters)
            else:
                nf_tab = _empty_frontier()
            if len(nf_tab):
                vals, cnts = np.unique(nf_tab["depth"].to_numpy(), return_counts=True)
                for dd, cnt in zip(vals, cnts):
                    self.depth_counters[int(dd)] = self.depth_counters.get(int(dd), 0) + int(cnt)
            new_frontier = rd.from_arrow(nf_tab)

        next_frontier = carry.map_batches(
            lambda t: t.select(FRONTIER_COLUMNS), batch_format="pyarrow"
        ).union(new_frontier)
        self._write_checkpoint(k + 1, next_frontier, {"granted": spent, "fetched": n_fetched})
        return n_fetched


def _corpus_lookup(out_dir: str | Path) -> tuple[np.ndarray, np.ndarray, pa.Table]:
    """(sorted url_hash, argsort permutation, corpus metadata table)
    for string reconstruction in the lineage readers. The corpus path
    comes from the job_meta.json the runner writes next to its sinks."""
    import json

    meta = json.loads((Path(out_dir) / "job_meta.json").read_text())
    tab = pq.read_table(
        meta["corpus_pages"],
        columns=["url_hash", "url", "domain", "status", "content_type", "content_language"],
    )
    hashes = tab["url_hash"].to_numpy(zero_copy_only=False)
    perm = np.argsort(hashes, kind="stable").astype(np.int64)
    return hashes[perm], perm, tab


def _reconstruct(
    df: pd.DataFrame, out_dir: str | Path, cols: list[str]
) -> pd.DataFrame:
    """Attach corpus-derived string columns to url_hash lineage rows.
    Hashes absent from the corpus (possible only for a status-0 grant,
    which the closed corpus never produces) reconstruct as None."""
    sorted_h, perm, tab = _corpus_lookup(out_dir)
    probe = df["url_hash"].to_numpy().astype(np.uint64)
    if len(sorted_h) == 0:
        for c in cols:
            df[c] = None
        return df
    pos = np.minimum(np.searchsorted(sorted_h, probe), len(sorted_h) - 1)
    found = sorted_h[pos] == probe
    idx = pa.array(
        np.where(found, perm[pos], -1), type=pa.int64(), mask=~found
    )
    for c in cols:
        df[c] = tab[c].combine_chunks().take(idx).to_pandas()
    return df


def read_order(out_dir: str | Path) -> pd.DataFrame:
    """Golden-order view: all fetched URLs in global fetch order. The
    sink stores (round, depth, seq, url_hash, status) plus the URL
    string for corpus MISSES only; hit rows reconstruct url/domain from
    the corpus metadata here (the sink never ships them — BASELINE.md
    byte-bound-sink fix)."""
    df = pq.read_table(str(Path(out_dir) / "order")).to_pandas()
    df = _reconstruct(df, out_dir, ["url", "domain"])
    miss = df["url"].isna() & df["url_miss"].notna()
    if miss.any():
        df.loc[miss, "url"] = df.loc[miss, "url_miss"]
        df.loc[miss, "domain"] = [host_of(u) for u in df.loc[miss, "url"]]
    df = df.drop(columns=["url_miss"])
    df = df.sort_values(["round", "depth", "seq"], kind="mergesort").reset_index(drop=True)
    df["rank"] = np.arange(len(df), dtype=np.int64)
    return df


def read_emitted(out_dir: str | Path) -> pd.DataFrame:
    """Emitted-doc view in (round, depth, seq) order: reconstructs url /
    content_type / content_language from the corpus and recomputes
    doc_id = sha256(url) — the sink stores only (round, depth, seq,
    url_hash), and the sha256 runs once per EMITTED row at read time
    instead of once per fetch in the hot path."""
    df = pq.read_table(str(Path(out_dir) / "emitted")).to_pandas()
    df = _reconstruct(df, out_dir, ["url", "content_type", "content_language"])
    df = df.sort_values(["round", "depth", "seq"], kind="mergesort").reset_index(drop=True)
    df["doc_id"] = [sha256_hex(u) if isinstance(u, str) else None for u in df["url"]]
    return df


def read_denied(out_dir: str | Path) -> set[tuple[str, str]]:
    base = Path(out_dir) / "denied"
    if not base.exists():
        return set()
    tab = pq.read_table(str(base))
    return set(zip(tab["url"].to_pylist(), tab["reason"].to_pylist()))


def read_seen(runner: CrawlJobRunner) -> set[int]:
    """URL-seen parity view: union of shard audit sets (hash space)."""
    import ray as _ray

    dumps = _ray.get([s.dump.remote() for s in runner.shards])
    from ..state.cuckoo import UrlSeenShard

    seen: set[int] = set()
    for blob in dumps:
        seen |= UrlSeenShard.load(blob).exact
    return seen
