"""Outside-in layer tracer for the crawl engine.

:func:`install` wraps the public entry points of each engine layer in the
calling process; :func:`worker_setup`, run at interpreter start by
``crawlbench/boot/sitecustomize.py``, does the same in every Ray task and
actor process. A wrapper records one span
per call: (layer, start, end, self seconds, pid, nesting depth, counters).
Self time is the span minus the spans nested in it on the same thread.

Wrappers record only while the switch file ``ON`` exists in the trace
directory (``$CRAWLBENCH_TRACE_DIR``), so one Ray session can run both
untraced and traced crawls. The main process keeps its spans in memory; a
worker appends its spans to ``spans-<pid>.jsonl`` after each outermost
call, since Ray worker processes are killed without running exit hooks.

:func:`layer_metrics` turns the spans of one crawl, its round windows and
the files it wrote into the per-layer table.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np

ENV_DIR = "CRAWLBENCH_TRACE_DIR"
_SWITCH = "ON"

_spans: list[list] = []
_local = threading.local()
_in_worker = False
_installed = False


def _active() -> bool:
    d = os.environ.get(ENV_DIR)
    return d is not None and os.path.exists(os.path.join(d, _SWITCH))


def _call(layer, fn, count, args, kwargs):
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    stack.append(0.0)  # time of spans nested in this one
    t0 = time.time()
    try:
        out = fn(*args, **kwargs)
    finally:
        t1 = time.time()
        child = stack.pop()
        if stack:
            stack[-1] += t1 - t0
    name = layer(args) if callable(layer) else layer
    counters = count(args, out) if count else {}
    _spans.append([name, t0, t1, t1 - t0 - child, os.getpid(), len(stack), counters])
    if _in_worker and not stack:
        _flush()
    return out


def _wrap(fn, layer, count=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not _active():
            return fn(*args, **kwargs)
        return _call(layer, fn, count, args, kwargs)

    return traced


def _wrap_factory(factory, layer):
    """Wrap a kernel factory so the kernels it returns are traced."""

    @functools.wraps(factory)
    def make(*args, **kwargs):
        return _wrap(factory(*args, **kwargs), layer)

    return make


def _flush() -> None:
    d = os.environ.get(ENV_DIR)
    if not d or not _spans:
        return
    with open(os.path.join(d, f"spans-{os.getpid()}.jsonl"), "a") as f:
        f.writelines(json.dumps(s) + "\n" for s in _spans)
    _spans.clear()


# --- counters: (call args, return value) -> {name: int} ------------------


def _n_arg0(args, out):
    return {"n": len(args[0])}


def _n_arg1(args, out):
    return {"n": len(args[1])}


def _tag_grant(args, out):
    import pyarrow.compute as pc

    return {"n": len(out), "granted": int(pc.sum(out["granted"]).as_py() or 0)}


def _merge(args, out):
    return {"over_budget": int(np.count_nonzero(out[1] != np.iinfo(np.uint64).max))}


def _fetch_layer(args):
    return "fetch.meta" if args[0].meta_only else "fetch.body"


def _fetch(args, out):
    import pyarrow.compute as pc

    c = {"n": len(out), "misses": int(pc.sum(pc.equal(out["status"], 0)).as_py() or 0)}
    if "body" in out.column_names:
        c["bytes"] = int(pc.sum(pc.binary_length(out["body"])).as_py() or 0)
    return c


def _links(args, out):
    return {"pages": len(args[0]), "n": len(out)}


def _scope(args, out):
    return {"n": len(args[1]), "kept": int((out == "").sum())}


def _attach(args, out):
    import pyarrow.compute as pc

    return {"n": len(out), "bytes": int(pc.sum(pc.binary_length(out["bytes"])).as_py() or 0)}


def _offer(args, out):
    return {"n": len(args[3]), "novel": int(np.count_nonzero(out))}


def _corrections(args, out):
    return {"corrections": len(out[0])}


def _patch(obj, name: str, layer, count=None, factory: bool = False) -> None:
    fn = getattr(obj, name)
    if getattr(fn, "_crawlbench", False):
        return
    traced = _wrap_factory(fn, layer) if factory else _wrap(fn, layer, count)
    traced._crawlbench = True
    setattr(obj, name, traced)


def _patch_links(m):
    _patch(m, "extract_links_batch", "links", _links)


def _patch_urlnorm(m):
    _patch(m, "canonicalize_batch", "canon", _n_arg0)


def _patch_hashing(m):
    _patch(m, "xxhash64_array", "hash", _n_arg0)


def _patch_scope(m):
    _patch(m.JobScope, "evaluate", "scope", _scope)


def _patch_politeness(m):
    _patch(m, "robots_reason", "robots", _n_arg0)
    _patch(m, "merge_grant_thresholds", "politeness", _merge)
    _patch(m, "block_grant_counts", "politeness", factory=True)
    _patch(m, "block_grant_candidates", "politeness", factory=True)
    _patch(m.TagGrant, "__call__", "politeness", _tag_grant)


def _patch_fetch(m):
    _patch(m.CorpusFetcher, "__call__", _fetch_layer, _fetch)
    _patch(m.ImageAttach, "__call__", "image.attach", _attach)


def _patch_decode(m):
    _patch(m.DecodePHash, "__call__", "image.decode", _n_arg1)


def _patch_dedup(m):
    _patch(m, "collect_corrections", "dedup.router", _corrections)
    _patch(m, "dump_shards", "checkpoint")
    _patch(m, "restore_shards", "checkpoint.restore")
    _patch(m.FusedDedupRouter, "__call__", "dedup.router", _n_arg1)
    _patch(m.CorrectionFix, "__call__", "dedup.router")
    # the class Ray exports to actor processes: its methods carry Ray's own
    # wrappers, so patch it rather than the decorated source class
    _patch(m.DedupShardActor.__ray_metadata__.modified_class, "offer", "dedup.offer", _offer)


def _patch_checkpoint(m):
    _patch(m.CheckpointStore, "write_manifest", "checkpoint")


def _patch_frontier(m):
    # names frontier imported from the modules patched above
    from searchgov_spider_ray.functions import hashing, urlnorm
    from searchgov_spider_ray.stages import dedup, links, politeness

    for src, name in [
        (links, "extract_links_batch"),
        (urlnorm, "canonicalize_batch"),
        (hashing, "xxhash64_array"),
        (politeness, "robots_reason"),
        (dedup, "collect_corrections"),
        (dedup, "dump_shards"),
        (dedup, "restore_shards"),
    ]:
        setattr(m, name, getattr(src, name))
    _patch(m, "_write_table_round", "sink")
    # writing a Dataset-path round executes its lazy Dataset, so this span
    # is the Dataset executor's, not only the sink's
    _patch(m, "_write_round", "dataset")
    _patch(m._CanonScope, "__call__", "canon")
    _patch(m.CrawlJobRunner, "_write_checkpoint", "checkpoint")


# module -> patcher; frontier last, after the modules it imports from
_PATCHERS = {
    f"searchgov_spider_ray.{k}": v
    for k, v in [
        ("stages.links", _patch_links),
        ("functions.urlnorm", _patch_urlnorm),
        ("functions.hashing", _patch_hashing),
        ("stages.scope", _patch_scope),
        ("stages.politeness", _patch_politeness),
        ("stages.fetch", _patch_fetch),
        ("stages.decode", _patch_decode),
        ("stages.dedup", _patch_dedup),
        ("state.checkpoint", _patch_checkpoint),
        ("pipelines.frontier", _patch_frontier),
    ]
}


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Patch a traced module right after its first import, so a worker
    process imports only the engine modules its tasks use."""

    def find_spec(self, fullname, path, target=None):
        patch = _PATCHERS.get(fullname)
        if patch is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def install() -> None:
    """Trace this process: patch the engine modules already imported now
    and the others when they are first imported (idempotent).

    Module functions are replaced in their defining module and where
    ``pipelines.frontier`` imported them by name. The URL-seen shard
    actor's class is patched before its first export, so actor processes
    receive the traced ``offer``."""
    global _installed
    if _installed:
        return
    _installed = True
    sys.meta_path.insert(0, _PatchOnImport())
    for name, patch in _PATCHERS.items():
        if name in sys.modules:
            patch(sys.modules[name])


def worker_setup() -> None:
    """Trace this Ray worker process (called at its interpreter start)."""
    global _in_worker
    _in_worker = True
    install()


def set_active(trace_dir: Path, on: bool) -> None:
    switch = trace_dir / _SWITCH
    if on:
        switch.touch()
    else:
        switch.unlink(missing_ok=True)


def reset(trace_dir: Path) -> None:
    """Drop every span recorded so far (in memory and in worker files)."""
    _spans.clear()
    for f in trace_dir.glob("spans-*.jsonl"):
        f.unlink()


def collect(trace_dir: Path) -> list[list]:
    """All spans: this process's, then every worker file's."""
    spans = list(_spans)
    for f in sorted(trace_dir.glob("spans-*.jsonl")):
        spans.extend(json.loads(line) for line in f.read_text().splitlines() if line)
    return spans


# --- the per-layer table --------------------------------------------------

# Denial reasons these workloads produce (their jobs set no deny_paths and a
# depth limit no crawl reaches, so "deny_path" and "depth" never occur).
DENY_REASONS = ("extension", "offsite", "query_string", "robots", "duplicate")

# Per-layer metric -> unit, in report order (BENCHMARK.json per_layer).
PER_LAYER_UNITS = {
    "frontier.rounds": "count",
    "frontier.micro_rounds": "count",
    "frontier.dataset_rounds": "count",
    "frontier.max_rows_in": "rows",
    "frontier.carried_rows": "rows",
    "frontier.round_self_s": "s",
    "frontier.dataset_self_s": "s",
    "politeness.busy_s": "s",
    "politeness.rows_in": "rows",
    "politeness.granted": "rows",
    "politeness.over_budget_domains": "count",
    "fetch.meta_busy_s": "s",
    "fetch.body_busy_s": "s",
    "fetch.rows": "rows",
    "fetch.misses": "rows",
    "fetch.body_bytes": "bytes",
    "links.busy_s": "s",
    "links.pages": "count",
    "links.extracted": "count",
    "links.ns_per_link": "ns",
    "canon.busy_s": "s",
    "canon.urls": "count",
    "canon.unique_frac": "fraction",
    "hash.busy_s": "s",
    "scope.busy_s": "s",
    "scope.kept_frac": "fraction",
    "robots.busy_s": "s",
    **{f"denied.{r}": "rows" for r in DENY_REASONS},
    "dedup.router_busy_s": "s",
    "dedup.offer_busy_s": "s",
    "dedup.offered": "rows",
    "dedup.novel": "rows",
    "dedup.novel_frac": "fraction",
    "dedup.rpcs": "count",
    "dedup.corrections": "rows",
    "shard.keys": "count",
    "shard.bytes_per_key": "bytes",
    "image.attach_busy_s": "s",
    "image.decode_busy_s": "s",
    "image.rows": "count",
    "image.payload_bytes": "bytes",
    "image.ms_per_image": "ms",
    "checkpoint.busy_s": "s",
    "checkpoint.bytes_per_round": "bytes",
    "checkpoint.last_over_first": "ratio",
    "checkpoint.restore_s": "s",
    "sink.busy_s": "s",
    "sink.order_bytes": "bytes",
    "sink.emitted_bytes": "bytes",
    "sink.corpus_bytes": "bytes",
    "sink.denied_bytes": "bytes",
    "trace.overhead_frac": "fraction",
}


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[list], main_pid: int) -> list[float]:
    """Self seconds of each span: its duration minus the union of the
    spans it caused. Those are the spans nested in it on the same thread,
    and the outermost spans of downstream processes (main process -> task
    workers -> shard actors) that ran while it waited on them."""

    def rank(s) -> int:
        return 0 if s[4] == main_pid else 2 if s[0] == "dedup.offer" else 1

    tops: dict[int, list] = {}
    by_pid: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        by_pid.setdefault(s[4], []).append(i)
        if s[5] == 0:
            tops.setdefault(rank(s), []).append((s[1], s[2]))
    tops_arr = {r: np.array(sorted(v)) for r, v in tops.items()}
    longest = {r: float((a[:, 1] - a[:, 0]).max()) for r, a in tops_arr.items()}
    children: list[list] = [[] for _ in spans]
    for idx in by_pid.values():
        idx.sort(key=lambda i: (spans[i][1], spans[i][5]))
        stack: list[int] = []
        for i in idx:
            depth = spans[i][5]
            while stack and spans[stack[-1]][5] >= depth:
                stack.pop()
            if stack and spans[stack[-1]][5] == depth - 1:
                children[stack[-1]].append((spans[i][1], spans[i][2]))
            stack.append(i)
    out = []
    for i, s in enumerate(spans):
        a, b = s[1], s[2]
        kids = children[i]
        for r, arr in tops_arr.items():
            if r > rank(s):
                lo = np.searchsorted(arr[:, 0], a - longest[r])
                hi = np.searchsorted(arr[:, 0], b)
                kids = kids + [(max(x0, a), min(x1, b)) for x0, x1 in arr[lo:hi] if x1 > a]
        out.append(b - a - _union_length(kids))
    return out


def layer_metrics(
    spans: list[list], windows: list[tuple[int, float, float]], disk: dict
) -> tuple[dict, dict]:
    """(per-layer metrics, self-time share per layer group) of one crawl.

    ``windows``: (round, start, end) wall-clock windows of the crawl's
    rounds; spans starting outside every window (runner construction)
    are ignored. ``disk``: counts read from the crawl's files — see
    ``crawlbench/run.py`` ``disk_counts``."""
    starts = np.array([w[1] for w in windows])
    ends = np.array([w[2] for w in windows])

    def round_of(t: float) -> int:
        i = int(np.searchsorted(starts, t, side="right")) - 1
        return i if i >= 0 and t < ends[i] else -1

    own = self_times(spans, os.getpid())
    inside = [s[:3] + [x] + s[4:] for s, x in zip(spans, own) if round_of(s[1]) >= 0]
    self_s: dict[str, float] = {}
    cnt: dict[str, dict[str, int]] = {}
    calls: dict[str, int] = {}
    ckpt_per_round = np.zeros(len(windows))
    for layer, t0, _t1, s, _pid, _depth, counters in inside:
        self_s[layer] = self_s.get(layer, 0.0) + s
        calls[layer] = calls.get(layer, 0) + 1
        c = cnt.setdefault(layer, {})
        for k, v in counters.items():
            c[k] = c.get(k, 0) + v
        if layer == "checkpoint":
            ckpt_per_round[round_of(t0)] += s

    # orchestration: round wall not covered by any outermost span
    round_self = 0.0
    for _k, a, b in windows:
        cover = [(max(s[1], a), min(s[2], b)) for s in spans if s[5] == 0 and s[1] < b and s[2] > a]
        round_self += (b - a) - _union_length(cover)

    def busy(*layers: str) -> float:
        return sum(self_s.get(x, 0.0) for x in layers)

    def c(layer: str, key: str = "n") -> int:
        return cnt.get(layer, {}).get(key, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    q = max(1, len(windows) // 4)
    image_rows = c("image.decode")
    m = {
        "frontier.rounds": len(windows),
        "frontier.micro_rounds": disk["micro_rounds"],
        "frontier.dataset_rounds": len(windows) - disk["micro_rounds"],
        "frontier.max_rows_in": disk["max_rows_in"],
        "frontier.carried_rows": disk["carried_rows"],
        "frontier.round_self_s": round_self,
        "frontier.dataset_self_s": busy("dataset"),
        "politeness.busy_s": busy("politeness"),
        "politeness.rows_in": c("politeness"),
        "politeness.granted": c("politeness", "granted"),
        "politeness.over_budget_domains": c("politeness", "over_budget"),
        "fetch.meta_busy_s": busy("fetch.meta"),
        "fetch.body_busy_s": busy("fetch.body"),
        "fetch.rows": c("fetch.meta"),
        "fetch.misses": c("fetch.meta", "misses"),
        "fetch.body_bytes": c("fetch.body", "bytes"),
        "links.busy_s": busy("links"),
        "links.pages": c("links", "pages"),
        "links.extracted": c("links"),
        "links.ns_per_link": ratio(busy("links") * 1e9, c("links")),
        "canon.busy_s": busy("canon"),
        "canon.urls": c("canon"),
        "canon.unique_frac": ratio(c("canon"), c("links")),
        "hash.busy_s": busy("hash"),
        "scope.busy_s": busy("scope"),
        "scope.kept_frac": ratio(c("scope", "kept"), c("scope")),
        "robots.busy_s": busy("robots"),
        **{f"denied.{r}": disk["denied"].get(r, 0) for r in DENY_REASONS},
        "dedup.router_busy_s": busy("dedup.router"),
        "dedup.offer_busy_s": busy("dedup.offer"),
        "dedup.offered": c("dedup.offer"),
        "dedup.novel": c("dedup.offer", "novel"),
        "dedup.novel_frac": ratio(c("dedup.offer", "novel"), c("dedup.offer")),
        "dedup.rpcs": calls.get("dedup.offer", 0),
        "dedup.corrections": c("dedup.router", "corrections"),
        "shard.keys": disk["shard_keys"],
        "shard.bytes_per_key": ratio(disk["shard_bytes"], disk["shard_keys"]),
        "image.attach_busy_s": busy("image.attach"),
        "image.decode_busy_s": busy("image.decode"),
        "image.rows": image_rows,
        "image.payload_bytes": c("image.attach", "bytes"),
        "image.ms_per_image": ratio(busy("image.attach", "image.decode") * 1e3, image_rows),
        "checkpoint.busy_s": busy("checkpoint", "checkpoint.restore"),
        "checkpoint.bytes_per_round": ratio(disk["checkpoint_bytes"], len(windows) + 1),
        "checkpoint.last_over_first": ratio(ckpt_per_round[-q:].mean(), ckpt_per_round[:q].mean()),
        "checkpoint.restore_s": busy("checkpoint.restore"),
        "sink.busy_s": busy("sink"),
        **{f"sink.{k}_bytes": disk["sink_bytes"][k] for k in ("order", "emitted", "corpus", "denied")},
    }
    groups = {
        "frontier": round_self + busy("dataset"),
        "politeness": busy("politeness"),
        "fetch": busy("fetch.meta", "fetch.body"),
        "links": busy("links"),
        "canon+hash+scope+robots": busy("canon", "hash", "scope", "robots"),
        "dedup": busy("dedup.router", "dedup.offer"),
        "image": busy("image.attach", "image.decode"),
        "checkpoint": busy("checkpoint", "checkpoint.restore"),
        "sink": busy("sink"),
    }
    total = sum(groups.values())
    shares = {k: ratio(v, total) for k, v in groups.items()}
    return {k: float(v) for k, v in m.items()}, shares
