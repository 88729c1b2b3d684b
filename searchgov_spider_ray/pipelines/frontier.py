"""The crawl frontier: BSP rounds of one stage sequence, run by one of
two executors.

Each round:

    frontier_k ──politeness grant──▶ granted ∥ carry          (per-domain threshold)
      granted ──fetch metadata──▶ fetched ──▶ order sink
      fetched ──emit──▶ emitted sink; image rows ──attach+decode──▶ corpus sink
      granted ──body gather+links+canonicalize/scope/robots──▶ scoped
      scoped ──▶ denied sink (scope, robots, duplicates)
             ──FusedDedupRouter (URL-seen shard actors)──▶ novel
      novel ──seq assignment──▶ frontier_{k+1} = carry ∪ novel ──▶ checkpoint

:meth:`CrawlJobRunner._run_round` states this sequence once and calls
its stages through an executor:

* :class:`_TableRound`, for frontiers of at most ``micro_round_rows``
  rows: a value is one driver-side Arrow table and a cheap kernel one
  direct call on it; the two payload stages (link chain, image landing)
  run as raw Ray tasks over table chunks. No streaming-executor launch.
* :class:`_DatasetRound`, for any size. Ray Data runs the per-row
  work: the frontier read, the payload stages and the URL-seen router
  (an execution costs 75–160 ms of process-tree CPU, a raw task ~6 ms);
  cheap kernels, counts and the four sinks run as raw tasks on the
  materialized block refs. Two scale branches live here:
  above ``politeness_driver_rows`` the grant thresholds come from a
  pruned ``groupby(partition)`` exchange, and above ``wide_round_rows``
  novel rows the seq assignment is a distributed ``sort(adm_key)``.

Ordering equivalence with the single-threaded simulator
(pipelines/simulator.py — the pinned semantics) comes from explicit
(depth, seq) keys, NOT serialized execution: fetch order is
(round, depth, seq); children get seq from per-depth counters laid out
in (parent_depth, parent_seq, link_seq) order.

Scale notes:
* Per-round frontier state lives in parquet; nothing materializes the
  corpus.
* The corpus metadata table is ``ray.put`` ONCE; fetch/attach kernels
  read it zero-copy from the object store and join on precomputed
  uint64 url hashes. Payload bytes stream from the parquet files.
* The mutating stage (FusedDedupRouter) runs exactly once per round;
  shard actors memoize (round, batch-digest) → mask so Ray task
  retries replay instead of double-admitting.
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
from typing import NamedTuple

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
    park_shards,
    restore_shards,
)
from ..stages.decode import DecodePHash
from ..stages.fetch import CorpusFetcher, ImageAttach, JsFetcher
from ..stages.links import extract_links_batch
from ..stages.politeness import RobotsRules, robots_reason
from ..stages.scope import (
    DENY_DUPLICATE,
    DENY_ROBOTS,
    DEPTH_CODE,
    KEEP,
    KEEP_CODE,
    REASONS,
    ROBOTS_CODE,
    JobScope,
    content_type_mask,
)
from ..stages.steps import apply_steps_table
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
    # Dataset-executor batch sizes of the link chain (pages per call)
    # and of image landing (images per call; rows carry image bytes).
    fetch_batch_size: int = 512
    decode_batch_size: int = 64
    # URL-seen router batches on the Dataset executor: each batch costs
    # one RPC per touched shard actor, so large batches amortize actor
    # round-trips (rows are ~100 B narrow metadata).
    dedup_batch_size: int = 65536
    max_rounds: int = 2000
    # Novel-row count above which the Dataset executor assigns seq by a
    # distributed sort(adm_key) and block-level prefix sums
    # (_assign_seq_wide) instead of one driver-side lexsort: it bounds
    # driver and per-task memory on 10^8+-candidate rounds.
    wide_round_rows: int = 4_000_000
    # Coarse politeness partitions of the pruned grant exchange.
    politeness_parts: int = 64
    # Frontier-row count up to which the grant thresholds are merged on
    # the driver from per-block top-B candidates; above it the Dataset
    # executor merges them in a pruned groupby(part) exchange, so driver
    # memory stays bounded.
    politeness_driver_rows: int = 4_000_000
    # Frontier-row count up to which a round runs on the table executor
    # (_TableRound): no streaming-executor launch, whose spin-up and
    # scheduling barriers cost more than a small round's work. The
    # bound is driver memory and driver CPU for the cheap kernels over
    # ≤ ~10× this many narrow candidate rows. 0 runs every round on the
    # Dataset executor.
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


# host of a canonical URL (its scheme, lowercase, may be empty); reason
# names indexed by reason code
_HOST_RE = r"^[a-z0-9+.-]*://(?P<host>[^/:?#]*)"
_REASON_NAMES = pa.array(REASONS.tolist(), type=pa.string())


class _CanonScope:
    """map_batches kernel: extracted links → canonical child rows with
    deny reasons (scope order pinned in stages/scope.py) + robots."""

    def __init__(self, scope: JobScope, robots: RobotsRules):
        self.scope = scope
        self.robots = robots

    def __call__(self, batch: pa.Table) -> pa.Table:
        # Every per-URL step runs once per DISTINCT raw URL of the batch
        # (link batches repeat URLs heavily: nav links shared across
        # pages) and goes back to rows with one take over the dictionary
        # indices. Canonicalize, hash, scope and robots are Arrow
        # passes over the distinct URLs.
        enc = pc.dictionary_encode(batch["url"].combine_chunks())
        idx = enc.indices
        canon_u = canonicalize_batch(enc.dictionary)
        hash_u = xxhash64_array(canon_u)
        # canonical form is scheme://host[:port]/... with host already
        # lowercased and dot-stripped (equivalence with host_of pinned
        # by simulator parity tests)
        host_u = pc.fill_null(pc.struct_field(pc.extract_regex(canon_u, _HOST_RE), "host"), "")
        # The deny reason depends only on the URL, except depth: depth is
        # stamped on the rows BEFORE robots, so precedence stays
        # extension → deny_path → offsite → query → depth → robots.
        code_u = np.searchsorted(REASONS, self.scope.evaluate(canon_u)).astype(np.int8)
        kidx = np.flatnonzero(code_u == KEEP_CODE)
        robots_u = np.zeros(len(canon_u), dtype=bool)
        if len(kidx):
            kept = canon_u.take(pa.array(kidx, type=pa.int64()))
            robots_u[kidx[robots_reason(kept, self.robots)]] = True

        rows = idx.to_numpy(zero_copy_only=False)
        child_depth = pc.add(batch["parent_depth"], 1).cast(pa.int32())
        code = code_u[rows]
        keep = code == KEEP_CODE
        too_deep = child_depth.to_numpy() > self.scope.depth_limit
        code[too_deep & keep] = DEPTH_CODE
        code[robots_u[rows] & ~too_deep & keep] = ROBOTS_CODE
        # parent_url is link-extractor lineage nothing downstream reads —
        # dropping it here halves the bytes every candidate exchange
        # (materialize, sort, repartition) moves this round.
        out = batch.drop_columns(
            ["url", "parent_url"] if "parent_url" in batch.column_names else ["url"]
        )
        out = out.append_column("url", pc.take(canon_u, idx))
        out = out.append_column("depth", child_depth)
        out = out.append_column("domain", pc.take(host_u, idx))
        out = out.append_column("url_hash", pc.take(pa.array(hash_u), idx))
        out = out.append_column("reason", pc.take(_REASON_NAMES, pa.array(code)))
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


def _assign_seq_wide(novel: rd.Dataset, depth_counters: dict[int, int]) -> tuple:
    """Distributed admission-order seq assignment for wide rounds:
    global ``sort(adm_key)``, per-block per-depth counts, driver-side
    cumulative bases (O(#blocks × #depths) rows), then per-block rank
    assignment against the broadcast base table — the block-level
    prefix-sum form of _assign_seq_kernel. Returns a Dataset-executor
    value whose blocks still have the rank assignment to run."""
    s = _materialize(novel.sort("adm_key"))

    def summary(t: pa.Table) -> list[tuple[int, int, int]]:
        if len(t) == 0:
            return []
        vals, counts = np.unique(t["depth"].to_numpy(), return_counts=True)
        bk = int(t["adm_key"].to_numpy().min())
        return [(bk, int(d), int(c)) for d, c in zip(vals, counts)]

    rows = sorted(r for part in _block_results(s, summary) for r in part)
    if not rows:  # no novel rows this round (all dups)
        return _table_value(_empty_frontier())
    bases: dict[tuple[int, int], int] = {}
    run = dict(depth_counters)
    for bk, dd, cnt in rows:  # blocks in sort order, depths within each
        bases[(bk, dd)] = run.get(dd, 0)
        run[dd] = run.get(dd, 0) + cnt
    bases_ref = ray.put(bases)

    class _Assign:
        def __init__(self):
            self._b = None

        def __call__(self, t: pa.Table) -> pa.Table:
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

    ((refs, rows, _),) = s
    return (_Part(refs, rows, (_Assign(),)),)


def _assign_seq_kernel(batch: pa.Table, depth_counters: dict[int, int]) -> pa.Table:
    """Vectorized seq assignment over the round's NOVEL candidates (one
    block): admission-order sort, then per-child-depth dense rank +
    the per-depth counter base. Reproduces FIFO enqueue order without
    serialized execution (SURVEY.md §7.5.1)."""
    if len(batch) == 0:
        return _empty_frontier()
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
    frontier dedup — each URL is fetched at most once), stamped with
    the round, then the job's emit steps.

    Emits NARROW rows (depth, seq, url_hash, image_id, round): the url
    string, doc_id (sha256 of the url) and content columns are all
    derivable from the corpus metadata table, so they are reconstructed
    at READ time (:func:`read_emitted`) instead of being computed and
    shipped per row through the sink every round.

    Emit steps (the ITEM_PIPELINES analog, reference settings.py:105-108)
    are priority-ordered Table→Table functions over item rows only — the
    crawl frontier, ordering and dedup state are upstream and unaffected.
    Class steps are built once per ``instances`` dict: once per job on
    the driver, once per task on the Dataset executor."""

    def __init__(self, output_target: str, k: int, steps: list, instances: dict):
        self.output_target = output_target
        self.k = k
        self.steps = steps
        self.instances = instances

    def __call__(self, batch: pa.Table) -> pa.Table:
        ok = pc.equal(batch["status"], pa.scalar(200, type=pa.int16())).to_numpy(zero_copy_only=False)
        ct = pd.Series(batch["content_type"].to_pylist(), dtype="object")
        allowed = content_type_mask(ct, self.output_target)
        batch = batch.filter(pa.array(ok & allowed))
        out = _add_round(batch.select(["depth", "seq", "url_hash", "image_id"]), self.k)
        return apply_steps_table(out, self.steps, self.instances) if self.steps else out


def _strip_image_id(t: pa.Table) -> pa.Table:
    """Drop the image_id column from the emitted sink if a user emit
    step hasn't already removed it (steps may reshape item rows)."""
    return t.drop_columns(["image_id"]) if "image_id" in t.column_names else t


def _write_round(x: tuple, base: Path, round_id: int) -> None:
    """Dataset-executor sink: one block task per block of ``x``."""
    # "round-" (not hive-style "round=") so readers don't collide the
    # directory partition with the materialized "round" column.
    _write_blocks(x, base / f"round-{round_id:04d}")


def _write_table_round(t: pa.Table, base: Path, round_id: int) -> None:
    """Table-executor sink: one driver-side parquet write, same
    directory layout as :func:`_write_round` (readers glob
    ``*.parquet``)."""
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
    bounds = np.linspace(0, len(t), n + 1).astype(np.int64)
    return [t.slice(a, b - a) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _task_slots() -> int:
    """The cluster's CPU task slots (whole CPUs, at least one). A GCS
    round trip, so :meth:`CrawlJobRunner.run` looks it up once."""
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def _fan_out(rows: int, rows_per_task: int, floor: int, slots: int) -> int:
    """Piece count of a payload stage, the one rule both executors use:
    one piece per ``rows_per_task`` rows (at least ``floor``), capped at
    two pieces per task slot and at one piece per row. A piece pays a
    fixed cost (task launch, payload row-group reads), so pieces beyond
    what the cluster can run at once only add that cost."""
    return max(1, min(2 * slots, rows, max(floor, rows // rows_per_task)))


def _image_rows(t: pa.Table) -> pa.Table:
    """Emitted rows that carry an image: the image-landing input."""
    return t.filter(pc.is_valid(t["image_id"]))


def _image_count(t: pa.Table) -> int:
    # an emit step may drop the image_id column: no image landing then
    return len(_image_rows(t)) if "image_id" in t.column_names else 0


class _LinkKernel:
    """The link chain as one payload kernel: body join → 200 filter →
    link extraction → canonicalize + scope/robots. Bodies exist only
    transiently inside the call; what leaves it is the narrow scoped
    candidate table. (Only 200-status pages parse — non-200 responses
    yield neither items nor links, reference CrawlSpider semantics.)"""

    def __init__(self, corpus_ref, fetcher_cls, scope: JobScope, robots: RobotsRules):
        self.fetcher = fetcher_cls(corpus_ref)
        self.canon = _CanonScope(scope, robots)

    def __call__(self, chunk: pa.Table) -> pa.Table:
        t = self.fetcher(chunk)
        t = t.filter(pc.equal(t["status"], pa.scalar(200, type=pa.int16())))
        return self.canon(extract_links_batch(t))


class _ImageKernel:
    """Image landing as one payload kernel: payload attach → decode +
    pHash."""

    def __init__(self, images_ref):
        self.attach = ImageAttach(images_ref)
        self.decode = DecodePHash()

    def __call__(self, chunk: pa.Table) -> pa.Table:
        return self.decode(self.attach(chunk))


def _add_round(t: pa.Table, k: int) -> pa.Table:
    return t.append_column("round", pa.array(np.full(len(t), k, dtype=np.int32)))


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


def _granted_rows(t: pa.Table) -> pa.Table:
    return t.filter(t["granted"]).drop_columns(["granted"])


def _carried_rows(t: pa.Table) -> pa.Table:
    carry = t.filter(pc.invert(t["granted"]))
    return carry.select(FRONTIER_COLUMNS).cast(_FRONTIER_SCHEMA)


class _DeniedKernel:
    """Scope and robots denials of scoped link rows, distinct per block."""

    def __init__(self, k: int):
        self.k = k

    def __call__(self, t: pa.Table) -> pa.Table:
        sub = t.filter(pc.not_equal(t["reason"], KEEP)).select(["url", "url_hash", "reason"])
        sub = _distinct_by_hash(sub, extra="reason").drop_columns(["url_hash"])
        return _add_round(sub, self.k)


def _candidates(t: pa.Table) -> pa.Table:
    """Scoped link rows that passed scope and robots, keyed for the
    URL-seen offer."""
    return _pack_admission(t.filter(pc.equal(t["reason"], KEEP)).drop_columns(["reason"]))


class _DupDenied:
    """Duplicate denials of offered candidates: the round's intra-round
    losers (``intra_first`` false), then winners an earlier round
    already admitted (``novel`` false), each distinct per block."""

    def __init__(self, k: int):
        self.k = k

    def __call__(self, t: pa.Table) -> pa.Table:
        first = t["intra_first"]
        masks = [pc.invert(first), pc.and_(first, pc.invert(t["novel"]))]
        sub = pa.concat_tables(
            [_distinct_by_hash(t.filter(m).select(["url", "url_hash"])) for m in masks]
        ).drop_columns(["url_hash"])
        sub = sub.append_column("reason", pa.array([DENY_DUPLICATE] * len(sub), type=pa.string()))
        return _add_round(sub, self.k)


def _novel_rows(t: pa.Table) -> pa.Table:
    return t.filter(pc.and_(t["intra_first"], t["novel"])).drop_columns(["novel", "intra_first"])


def _depth_counts(t: pa.Table) -> dict[int, int]:
    vals, cnts = np.unique(t["depth"].to_numpy(), return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, cnts)}


def _sum_counts(parts) -> dict:
    total: dict = {}
    for part in parts:
        for key, n in part.items():
            total[key] = total.get(key, 0) + n
    return total


def _empty_frontier() -> pa.Table:
    return _FRONTIER_SCHEMA.empty_table()


# Deserialized table-executor payload kernels of this worker process,
# keyed by the binary id of the ref each runner ray.puts once per job
# (so a new runner never meets an older runner's kernel), most recently
# used last. Two entries hold one runner's link and image kernels.
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
    """Table-executor payload task. The kernel ref arrives boxed, so Ray
    neither fetches nor unpickles it per task; :func:`_warm_kernel`
    does that once per worker."""
    return _warm_kernel(boxed_ref)(block)


class _Chain:
    """Kernels applied in turn to one block: the pending kernels of a
    Dataset-executor value run as one raw block task (or the router's
    one map_batches stage), so an empty intermediate table keeps its
    columns."""

    def __init__(self, fns: tuple):
        self.fns = fns

    def __call__(self, t: pa.Table):
        for fn in self.fns:
            t = fn(t)
        return t


class _Part(NamedTuple):
    """Blocks of a Dataset-executor value: materialized block refs, the
    row count of each, and the kernels still to run on each of them. A
    value is a tuple of parts (several after a concat)."""

    refs: tuple
    rows: tuple
    fns: tuple = ()


def _value(refs: list, rows: list) -> tuple:
    """One-part value of materialized blocks without its empty blocks,
    unless all are: then one stays, so the value keeps its columns."""
    keep = [i for i, n in enumerate(rows) if n]
    if not keep and rows:
        keep = [0]
    return (_Part(tuple(refs[i] for i in keep), tuple(rows[i] for i in keep)),)


def _chained(x: tuple, *tail):
    """(chain, block ref) of every block of ``x``: its part's kernels,
    then ``tail``, put ONCE per part (kernels can carry the robots table,
    which a direct task argument would re-pickle per block)."""
    for p in x:
        chain = ray.put(_Chain(p.fns + tail))
        for ref in p.refs:
            yield chain, ref


@ray.remote
def _block_apply(chain, block):
    return chain(block)


@ray.remote
def _block_write(chain, block, path: str) -> int:
    t = chain(block)
    if len(t):
        pq.write_table(t, path)
    return len(t)


def _block_results(x: tuple, *tail) -> list:
    """Each block's pending kernels, then ``tail``, as raw tasks on the
    block refs; only the (small) results come back to the driver."""
    return ray.get([_block_apply.remote(c, ref) for c, ref in _chained(x, *tail)])


def _with_rows(t: pa.Table) -> tuple:
    return t, len(t)


def _run_blocks(x: tuple) -> tuple:
    """``x`` with its pending kernels run as raw tasks, as one part.
    Only the row counts come back to the driver."""
    if not any(p.fns for p in x):
        return (_Part(sum((p.refs for p in x), ()), sum((p.rows for p in x), ())),)
    run = _block_apply.options(num_returns=2)
    pairs = [run.remote(c, ref) for c, ref in _chained(x, _with_rows)]
    return _value([t for t, _ in pairs], ray.get([n for _, n in pairs]))


def _write_blocks(x: tuple, out: Path) -> int:
    """Write each non-empty block of ``x``, after its pending kernels,
    from a block task to ``out/part-{i:06d}.parquet``: the index is the
    block's place in ``x``, so a retried task overwrites its own file.
    Returns the rows written."""
    out.mkdir(parents=True, exist_ok=True)
    tasks = [
        _block_write.remote(c, ref, str(out / f"part-{i:06d}.parquet"))
        for i, (c, ref) in enumerate(_chained(x))
    ]
    return sum(ray.get(tasks))


def _materialize(ds: rd.Dataset) -> tuple:
    """``ds`` materialized (one Ray Data execution) as a value."""
    bundles = ds.materialize().iter_internal_ref_bundles()
    blocks = [(ref, m.num_rows) for b in bundles for ref, m in b.blocks]
    return _value([ref for ref, _ in blocks], [n for _, n in blocks])


def _table_value(t: pa.Table) -> tuple:
    """A driver-side table as a one-block value."""
    return (_Part((ray.put(t),), (len(t),)),)


def _dataset(x: tuple) -> rd.Dataset:
    """The non-empty blocks of ``x``, its kernels run, as a Dataset. Ray
    Data maps an empty block to a column-less one, and an operator whose
    column-less block follows one with columns logs a schema warning."""
    ((refs, rows, _),) = _run_blocks(x)
    return rd.from_arrow_refs([ref for ref, n in zip(refs, rows) if n])


class _TableRound:
    """Round executor for small frontiers. A value is one driver-side
    Arrow table and a cheap kernel one direct call on it. Payload stages
    run as raw Ray tasks over ``_fan_out`` table chunks, on kernels
    each worker keeps warm (:func:`_warm_apply`); they return task
    futures that :meth:`materialize` gathers. No streaming-executor
    launch, and no broadcast: driver-local state is passed as is."""

    # every kernel sees the round's whole table in one call
    whole_table = True
    # stage → (rows per task, floor) of _fan_out. The link chain is ~ms
    # per row, so a sub-hundred-row task is mostly launch cost, while a
    # single mega-chunk serializes the payload row-group reads.
    quota = {"links": (64, 1), "images": (128, 1)}

    def __init__(self, runner: CrawlJobRunner, slots: int):
        self.runner = runner
        self.slots = slots

    def read(self, k: int) -> pa.Table:
        stash = self.runner._frontier_stash
        if stash is not None and stash[0] == k:
            return stash[1]  # byte-equivalent to the file
        return pq.read_table(str(self.runner.ckpt.frontier_dir(k)))

    def share(self, obj):
        return obj

    def blocks(self, t: pa.Table, fn) -> list:
        return [fn(t)]

    def map(self, t: pa.Table, fn) -> pa.Table:
        return fn(t)

    def payload(self, t: pa.Table, stage: str, rows: int) -> list:
        refs = self.runner._kernel_refs
        if stage not in refs:  # round-independent: put once per job
            refs[stage] = ray.put(self.runner._kernels[stage])
        chunks = _table_chunks(t, _fan_out(rows, *self.quota[stage], self.slots))
        return [_warm_apply.remote([refs[stage]], c) for c in chunks]

    def materialize(self, x, batch_size: int | None = None) -> pa.Table | None:
        if not isinstance(x, list):
            return x
        parts = [p for p in ray.get(x) if len(p)]
        return pa.concat_tables(parts).combine_chunks() if parts else None

    def count(self, t: pa.Table | None) -> int:
        return 0 if t is None else len(t)

    def table(self, t: pa.Table) -> pa.Table:
        return t.combine_chunks()

    def concat(self, ts: list) -> pa.Table:
        return pa.concat_tables(ts)

    def write(self, x, base: Path, k: int) -> None:
        t = self.materialize(x)
        if t is not None:
            _write_table_round(t, base, k)

    def exchange_thresholds(self, frontier, rows_in: int):
        return None

    def wide_seq(self, novel, depth_counters: dict[int, int]):
        return None


class _DatasetRound:
    """Round executor for frontiers of any size. Ray Data runs only the
    frontier ``read_parquet``, the payload stages (``repartition`` +
    ``map_batches``), the URL-seen router (its Ray Data task retries
    replay through the shards' offer memo) and the two scale switches:
    3 executions a round, 4 with images. An execution costs 75–160 ms
    of process-tree CPU even on a trivial block, a raw task ~6 ms, so a
    value is a tuple of :class:`_Part` and its kernel chains, counts and
    sinks run as one raw task per block; tables stay in the object
    store, and only row counts and small per-block results reach the
    driver."""

    whole_table = False
    # stage → (rows per task, floor) of _fan_out. Sparse rounds touch
    # ~1 payload row group per row, so small pieces keep the per-task
    # row-group reads parallel.
    quota = {"links": (8, 2), "images": (16, 2)}

    def __init__(self, runner: CrawlJobRunner, slots: int):
        self.runner = runner
        self.slots = slots
        cfg = runner.cfg
        self.batch_size = {"links": cfg.fetch_batch_size, "images": cfg.decode_batch_size}

    def read(self, k: int) -> tuple:
        # one block per checkpoint file: the writer already chose the
        # partitioning, and Ray Data's default would split a small file
        fdir = self.runner.ckpt.frontier_dir(k)
        files = len(list(fdir.glob("*.parquet")))
        return _materialize(rd.read_parquet(str(fdir), override_num_blocks=max(1, files)))

    def share(self, obj):
        return ray.put(obj)

    def blocks(self, x, fn) -> list:
        return [fn(x)] if isinstance(x, pa.Table) else _block_results(x, fn)

    def map(self, x: tuple, fn) -> tuple:
        return tuple(p._replace(fns=p.fns + (fn,)) for p in x)

    def payload(self, x: tuple, stage: str, rows: int) -> tuple:
        n = _fan_out(rows, *self.quota[stage], self.slots)
        return _materialize(
            _dataset(x).repartition(n).map_batches(
                self.runner._kernels[stage],
                batch_format="pyarrow",
                batch_size=self.batch_size[stage],
            )
        )

    def materialize(self, x: tuple, batch_size: int | None = None) -> tuple:
        """Run the pending kernels of ``x``: as raw block tasks, or, given
        a ``batch_size`` (the URL-seen router's), as one ``map_batches``
        stage over batches of that size."""
        if batch_size is None:
            return _run_blocks(x)
        ((refs, rows, fns),) = x
        return _materialize(
            _dataset((_Part(refs, rows),)).map_batches(
                _Chain(fns), batch_format="pyarrow", batch_size=batch_size
            )
        )

    def count(self, x: tuple | None) -> int:
        return 0 if x is None else sum(_run_blocks(x)[0].rows)

    def table(self, x: tuple) -> pa.Table:
        parts = [t for t in _block_results(x) if len(t)]
        return pa.concat_tables(parts).combine_chunks() if parts else pa.table({})

    def concat(self, xs: list) -> tuple:
        return sum((_table_value(x) if isinstance(x, pa.Table) else x for x in xs), ())

    def write(self, x: tuple, base: Path, k: int) -> None:
        _write_round(x, base, k)

    def exchange_thresholds(self, frontier, rows_in: int):
        """Grant thresholds of a frontier above ``politeness_driver_rows``
        rows, merged in a PRUNED exchange instead of on the driver: only
        per-batch per-domain top-B (domain, pack) rows shuffle, so a
        10^9-row hot domain is skew-bounded at the source and the
        frontier itself never moves. ``None`` at or below the bound."""
        from ..stages.politeness import (
            partition_grant_thresholds,
            politeness_partition_key,
            prune_grant_candidates,
        )

        cfg = self.runner.cfg
        if rows_in <= cfg.politeness_driver_rows:
            return None
        robots = self.runner.robots

        def add_part(t: pa.Table) -> pa.Table:
            # dictionary-encode so only DISTINCT domains are hashed
            enc = pc.dictionary_encode(t["domain"].combine_chunks())
            part_of = politeness_partition_key(enc.dictionary.to_pylist(), cfg.politeness_parts)
            idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            return t.append_column("part", pa.array(part_of[idx], type=pa.int32()))

        pruned = self.map(frontier, prune_grant_candidates(robots, cfg.round_seconds))
        thr_tab = (
            _dataset(self.map(pruned, add_part))
            .groupby("part")
            .map_groups(
                partition_grant_thresholds(robots, cfg.round_seconds), batch_format="pyarrow"
            )
            .to_pandas()
        )
        dom = thr_tab["domain"].to_numpy(dtype="U")
        order = np.argsort(dom, kind="mergesort")
        return dom[order], thr_tab["thr"].to_numpy(dtype=np.uint64)[order]

    def wide_seq(self, novel, depth_counters: dict[int, int]):
        """Seq assignment of a round with more than ``wide_round_rows``
        novel rows, by a distributed sort (:func:`_assign_seq_wide`);
        ``None`` for narrower rounds."""
        if sum(self.blocks(novel, len)) <= self.runner.cfg.wide_round_rows:
            return None
        return _assign_seq_wide(_dataset(novel), depth_counters)


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
        # user emit steps (see _EmitKernel); class steps built on the
        # driver are kept here for the whole job
        self.emit_steps = list(emit_steps or [])
        self._emit_step_instances: dict = {}
        # in-memory frontier handoff between consecutive table-executor
        # rounds: (round, table) of the LAST checkpoint written from a
        # driver table — the next round reads this instead of re-parsing
        # the parquet it just wrote (the write itself always happens, so
        # resume still reads from disk)
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
        # round-independent payload kernels; JS sites route bodies
        # through the render step (reference picks DomainSpiderJs by the
        # handle_javascript flag)
        fetcher_cls = JsFetcher if site.handle_javascript else CorpusFetcher
        self._kernels = {
            "links": _LinkKernel(self.corpus_ref, fetcher_cls, self.scope, self.robots),
            "images": _ImageKernel(self.images_ref),
        }
        # their table-executor broadcasts, put once per job on first use
        self._kernel_refs: dict[str, ray.ObjectRef] = {}
        self.shards = make_shard_pool(self.cfg.num_shards, self.cfg.shard_capacity)
        # False while a run() is in flight and after one raised: close()
        # then kills the shard actors instead of parking them
        self._parkable = True
        self.depth_counters: dict[int, int] = {}

    # --- seed admission (round 0 bootstrap; tiny, driver-side) ----------
    def _admit_seeds(self) -> tuple[pa.Table, list[dict]]:
        urls = [canonicalize(u) for u in self.site.starting_urls]
        reason = self.scope.evaluate(urls, np.zeros(len(urls), dtype=np.int64))
        kidx = np.flatnonzero(reason == KEEP)
        reason[kidx[robots_reason([urls[i] for i in kidx], self.robots)]] = DENY_ROBOTS
        denied = [
            {"url": u, "reason": str(r), "round": -1} for u, r in zip(urls, reason) if r != KEEP
        ]
        rows = [u for u, r in zip(urls, reason) if r == KEEP]
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
        denied += [
            {"url": u, "reason": DENY_DUPLICATE, "round": -1} for u, n in zip(rows, novel) if not n
        ]
        seeds = [u for u, n in zip(rows, novel) if n]
        self.depth_counters = {0: len(seeds)}
        frontier = {
            "depth": np.zeros(len(seeds), dtype=np.int32),
            "seq": np.arange(len(seeds), dtype=np.int64),
            "url": seeds,
            "domain": [host_of(u) for u in seeds],
            "url_hash": hashes[novel],
        }
        return pa.table(frontier, schema=_FRONTIER_SCHEMA), denied

    def _write_checkpoint(self, k: int, frontier: tuple | pa.Table, manifest_extra: dict) -> int:
        fdir = self.ckpt.frontier_dir(k)
        fdir.mkdir(parents=True, exist_ok=True)
        if isinstance(frontier, pa.Table):
            pq.write_table(frontier, fdir / "frontier_0000.parquet")
            n_rows = frontier.num_rows
            self._frontier_stash = (k, frontier)
        else:
            n_rows = _write_blocks(frontier, fdir)
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
        """Release the shard actors. Call when done reading state; a new
        runner restores from checkpoint.

        Unless a ``run()`` of this runner raised or has not returned,
        the actors are parked for the next runner in this Ray session
        (stages/dedup.py :func:`park_shards`): their state is wiped and
        its memory freed, and each keeps its process and its 0.25-CPU
        reservation. After a fault they are killed, since tasks may
        still be in flight with offers this runner never saw."""
        if self._parkable:
            park_shards(self.shards)
        else:
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
        self._parkable = False
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
        table_ex, dataset_ex = _TableRound(self, slots), _DatasetRound(self, slots)
        k = start_round
        while k < cfg.max_rounds:
            manifest = self.ckpt.read_manifest(k)
            if manifest is None or manifest["frontier_rows"] == 0:
                break
            rows_in = manifest["frontier_rows"]
            micro = 0 < cfg.micro_round_rows and rows_in <= cfg.micro_round_rows
            fetched_count = self._run_round(k, rows_in, table_ex if micro else dataset_ex)
            per_round.append(fetched_count)
            total_fetched += fetched_count
            k += 1
        seen_total = int(sum(ray.get([s.size.remote() for s in self.shards])))
        self._parkable = True
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
        """Two-phase narrow politeness merge: domains whose global count
        stays under budget grant everything (threshold = UINT64_MAX)
        without a candidate pass; ``candidates_for(over)`` supplies
        per-block candidate packs only for the over-budget domains.
        Returns the sorted (domains, thresholds) lookup table."""
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

    def _run_round(self, k: int, rows_in: int, ex: _TableRound | _DatasetRound) -> int:
        """Round k on executor ``ex``; returns the number of fetched rows.
        Sinks are written before the checkpoint, so a complete manifest
        implies complete lineage."""
        from ..stages.politeness import TagGrant, block_grant_candidates, block_grant_counts

        cfg = self.cfg
        frontier = ex.read(k)

        # 1. politeness: granted ⇔ pack(depth, seq) ≤ the domain's
        # threshold. Per-domain COUNTS first (O(domains) per block);
        # domains under budget grant everything without shipping a pack,
        # and only over-budget domains pay the candidate pass.
        thr = ex.exchange_thresholds(frontier, rows_in)
        if thr is None:
            totals = _sum_counts(ex.blocks(frontier, block_grant_counts()))
            thr = self._grant_thresholds(
                totals,
                lambda over: ex.blocks(
                    frontier,
                    block_grant_candidates(self.robots, cfg.round_seconds, only_domains=over),
                ),
            )
        marked = ex.map(frontier, TagGrant(ex.share(thr)))
        # not materialized: re-running the cheap tag pass in the link
        # chain costs less than one more Ray Data execution (~30 MB of
        # peak RSS on the wide_bfs benchmark round)
        granted = ex.map(marked, _granted_rows)

        # 2. fetch METADATA (hash join vs the broadcast corpus metadata;
        # bodies are gathered again inside the link chain, so payloads
        # never park in the object store; content_language is read back
        # from the corpus at read time)
        fetch = CorpusFetcher(self.corpus_ref, meta_only=True)
        fetched = ex.materialize(ex.map(granted, lambda t: fetch(t).select(_FETCH_META_COLS)))
        n_fetched = ex.count(fetched)

        # 3. order lineage (fetch order = (round, depth, seq)) and the
        # spent-per-domain manifest record
        ex.write(ex.map(fetched, lambda t: _order_rows_kernel(t, k)), self.out_dir / "order", k)
        spent = _sum_counts(ex.blocks(fetched, block_grant_counts()))

        # 4. emit, then image landing for the emitted rows that carry an
        # image; a round without any starts no image stage
        emit = ex.materialize(
            ex.map(
                fetched,
                _EmitKernel(self.site.output_target, k, self.emit_steps, self._emit_step_instances),
            )
        )
        ex.write(ex.map(emit, _strip_image_id), self.out_dir / "emitted", k)
        n_img = sum(ex.blocks(emit, _image_count)) if self.images_ref is not None else 0
        images = ex.payload(ex.map(emit, _image_rows), "images", n_img) if n_img else None

        # 5. link chain. The table executor's image tasks are already
        # running: they overlap the link tasks and are gathered at the
        # corpus write. prevent_follow (reference domain_spider.py:74-76)
        # fetches and emits only: no candidates, no link denials.
        scoped = None if self.site.prevent_follow else ex.materialize(
            ex.payload(granted, "links", n_fetched)
        )
        if images is not None:
            ex.write(images, self.out_dir / "corpus", k)

        next_parts = [ex.map(marked, _carried_rows)]
        if ex.count(scoped):
            # 6. fused intra-round first-wins + URL-seen novelty in ONE
            # RPC pass: per-batch local first-wins by min adm_key, local
            # winners offered to the shard actors; with several batches,
            # the shards' multi-offer corrections are broadcast back so
            # each url_hash's winner is its min-adm_key row. One call
            # over the whole round offers unique hashes only: no offer
            # log, no corrections. Runs once per round; the (round,
            # batch-digest) memo covers task retries.
            router = FusedDedupRouter(self.shards, k, log=not ex.whole_table)
            offered = ex.materialize(
                ex.map(ex.map(scoped, _candidates), router), batch_size=cfg.dedup_batch_size
            )
            if not ex.whole_table:
                corr_ref = ray.put(collect_corrections(self.shards, k))
                offered = ex.map(offered, CorrectionFix(corr_ref))
            ex.write(
                ex.concat([ex.map(scoped, _DeniedKernel(k)), ex.map(offered, _DupDenied(k))]),
                self.out_dir / "denied",
                k,
            )

            # 7. admission-order seq assignment of the novel rows
            novel = ex.map(offered, _novel_rows)
            new = ex.wide_seq(novel, self.depth_counters)
            if new is None:
                new = _assign_seq_kernel(ex.table(novel), self.depth_counters)
            for d, c in _sum_counts(ex.blocks(new, _depth_counts)).items():
                self.depth_counters[d] = self.depth_counters.get(d, 0) + c
            next_parts.append(new)

        next_frontier = ex.concat(next_parts)
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
    from ..state.cuckoo import UrlSeenShard

    dumps = ray.get([s.dump.remote() for s in runner.shards])
    seen: set[int] = set()
    for blob in dumps:
        seen |= UrlSeenShard.load(blob).exact
    return seen
