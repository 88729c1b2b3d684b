"""Crawl-frontier benchmark: one seeded workload per invocation.

    python3 crawlbench/run.py --workload wide_bfs --seed 42 --seconds 10 --trace 0

Run from the repository root. The seed generates the workload's corpus
(cached under ``.crawlbench/corpora``), then the crawl engine is driven
through its public API only: ``CrawlJobRunner(...)``, ``.run()``,
``.run(resume=True)``, ``.close()`` and the ``read_*`` lineage readers.

Load model: one crawl job at a time from this one process (a closed loop
with one client). Ray gets one task slot per core: 2 URL-seen shard
actors at 0.25 CPU each, plus ``nproc`` CPUs for tasks.

Each invocation:

1. makes one uninterrupted reference crawl (also the warm-up), whose
   order / URL-seen / denied digests every later crawl must reproduce;
2. repeats the timed crawl until ``--seconds`` have passed (at least
   once): the job stops at the barrier of its middle round
   (``max_rounds``), ``close()``s, and a fresh runner resumes it to the
   end. Every crawl's output is checked (``crawlbench/checks.py``).

With ``--trace 0`` the result holds the end-to-end metrics, medians over
the run's crawls unless noted:

* ``crawl_cpu_ms_per_url``: CPU milliseconds (user + system, this process
  and every Ray process) per fetched URL over the whole stopped-and-resumed
  crawl;
* ``setup_s``: CPU seconds of this process (all its threads) in
  ``CrawlJobRunner(...)`` (corpus metadata read, hash argsort, object-store
  broadcast, shard-actor spawn). The constructor is CPU-bound, so this is
  its wall time less the time stolen from it. Median over
  ``SETUP_SAMPLES`` runners made (and closed) after the crawls;
* ``peak_rss_mb``: peak summed RSS of the process tree while timing.

CPU time rather than wall time carries the bounds because wall time moves
more with the CPU time the hypervisor steals from a shared virtual
machine: on a 4-vCPU guest whose stolen share rose from 3% to 30%,
``wide_bfs`` crawl wall time grew 2.8x and CPU time per URL 1.7x. The
report line holds, unbounded, the wall-clock figures (URLs/s, round
p50/p90, resume and set-up seconds), ``resume_cpu_s`` (CPU seconds from
constructing the fresh runner to the manifest of its first resumed round:
too short a window to hold a bound on such a guest) and the stolen share
(``steal_frac``); compare runs only at a similar ``steal_frac``.

With ``--trace 1`` untraced and traced crawls alternate and the result
holds the per-layer metrics (``crawlbench/trace.py``). The report line,
with the window context, the corpus and every crawl, precedes the result
line, which is the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".crawlbench"
DEFAULT_SEED = 42
NUM_SHARDS = 2
OBJECT_STORE_BYTES = 512 << 20
# setup_s is the median of this many runner constructions per run
SETUP_SAMPLES = 11
# Every invocation ends within this many seconds, result printed.
HARD_LIMIT_S = 165.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# --- window context -------------------------------------------------------


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def nproc() -> int:
    """CPU count as the ``nproc`` command reports it (it honors
    OMP_NUM_THREADS), falling back to the scheduler affinity."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True, timeout=10).stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return len(os.sched_getaffinity(0))


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs since boot, from /proc/stat."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    return ticks[7], sum(ticks)


def source_digest() -> str:
    """sha256 over the engine's source files (the checkout may hold no
    git metadata, so this identifies the code measured)."""
    h = hashlib.sha256()
    pkg = ROOT / "searchgov_spider_ray"
    for f in sorted(pkg.rglob("*.py")):
        h.update(str(f.relative_to(pkg)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


# --- memory and CPU of this process and every process it started --------


def _descendants(root: int) -> set[int]:
    children: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(d))
    out, todo = {root}, [root]
    while todo:
        for c in children.get(todo.pop(), []):
            if c not in out:
                out.add(c)
                todo.append(c)
    return out


class TreeMeter:
    """Samples this process tree (this process, Ray's daemons, workers and
    actors) every 20 ms in a daemon thread: the peak of its summed RSS,
    and its CPU seconds (user + system).

    Ray's raylet does not account the CPU time of workers it reaps, so
    each process's CPU time is kept at the last value seen. Time the
    hypervisor stole from this guest is not CPU time: CPU metrics stay
    put while wall time swings with the host's load."""

    def __init__(self):
        self.peak_rss = 0
        self.watch_cpu: float | None = None
        self._watch: Path | None = None
        self._cpu_ticks: dict[tuple[int, str], int] = {}
        self._pids: set[int] = set()
        self._rescan = 0.0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "TreeMeter":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def cpu_s(self) -> float:
        """CPU seconds the tree has used, sampled now."""
        with self._lock:
            return self._sample(rescan=True)

    def watch(self, path: Path) -> None:
        """Record ``cpu_s()`` in ``watch_cpu`` once ``path`` exists."""
        with self._lock:
            self._watch, self.watch_cpu = path, None

    def _sample(self, rescan: bool) -> float:
        if rescan or time.monotonic() >= self._rescan:  # processes come and go
            self._pids = _descendants(os.getpid())
            self._rescan = time.monotonic() + 0.5
        rss = 0
        for pid in self._pids:
            try:
                with open(f"/proc/{pid}/stat") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue
            # keyed by (pid, start time): a pid may be reused within a run
            self._cpu_ticks[pid, fields[19]] = int(fields[11]) + int(fields[12])  # utime + stime
            rss += int(fields[21])
        self.peak_rss = max(self.peak_rss, rss * os.sysconf("SC_PAGE_SIZE"))
        return sum(self._cpu_ticks.values()) / os.sysconf("SC_CLK_TCK")

    def _run(self) -> None:
        while not self._stop.wait(0.02):
            with self._lock:
                self._sample(rescan=False)
                if self._watch is not None and self._watch.exists():
                    self.watch_cpu = self._sample(rescan=True)
                    self._watch = None


# --- one crawl and its output ---------------------------------------------


@dataclass
class Context:
    """One run's crawl job, its corpus-side check inputs and output dirs."""

    corpus: Path
    site: object
    cfg: object
    out: Path
    trace_dir: Path | None
    robots: object = None
    golden_images: object = None
    page_image: object = None
    budgets: dict = field(default_factory=dict)

    def budget(self, domain: str) -> int:
        if domain not in self.budgets:
            self.budgets[domain] = self.robots.budget(domain, self.cfg.round_seconds)
        return self.budgets[domain]


def load_context(ctx: Context) -> None:
    """Corpus-side inputs of the output checks (read once per run)."""
    import pyarrow.parquet as pq

    from searchgov_spider_ray.pipelines.simulator import RobotsRules

    ctx.robots = RobotsRules.from_table(pq.read_table(ctx.corpus / "robots.parquet"))
    ctx.golden_images = pq.read_table(
        ctx.corpus / "corpus_images.parquet", columns=["image_id", "caption", "phash"]
    ).to_pandas()
    pages = pq.read_table(ctx.corpus / "corpus_pages.parquet", columns=["url_hash", "image_id"])
    pages = pages.filter(pages["image_id"].is_valid()).to_pandas()
    ctx.page_image = pages.set_index("url_hash")["image_id"]


def read_manifests(out: Path) -> list[tuple[dict, float]]:
    """(manifest, mtime) of every checkpoint round, in round order."""
    found = []
    for p in (out / "checkpoint").glob("round_*/manifest.json"):
        found.append((int(p.parent.name.split("_")[1]), p))
    return [(json.loads(p.read_text()), p.stat().st_mtime_ns / 1e9) for _, p in sorted(found)]


def inspect_crawl(ctx: Context, out: Path, seen: set[int], fetched: int) -> dict:
    """Run output checks 1-4 and compute the check-5 digests."""
    import pyarrow.parquet as pq

    from crawlbench import checks
    from searchgov_spider_ray.pipelines.frontier import read_denied, read_emitted, read_order

    order = read_order(out)
    emitted = read_emitted(out)
    denied = read_denied(out)
    manifests = read_manifests(out)
    fails = checks.check_fetch_once(order, seen, fetched, manifests[-1][0]["frontier_rows"])
    fails += checks.check_politeness(
        order, ctx.budget, ctx.robots.allowed, ctx.site.depth_limit
    )
    fails += checks.check_emitted(emitted, order)
    if (out / "corpus").exists():
        landed = pq.read_table(
            out / "corpus", columns=["image_id", "caption", "phash_computed"]
        ).to_pandas()
    else:
        landed = ctx.golden_images.iloc[:0].rename(columns={"phash": "phash_computed"})
    expected = set(ctx.page_image.reindex(emitted["url_hash"].to_numpy()).dropna())
    fails += checks.check_images(landed, ctx.golden_images, expected)
    digests = {
        "order": checks.digest_order(order),
        "seen": checks.digest_seen(seen),
        "denied": checks.digest_denied(denied),
    }
    return {"fails": fails, "digests": digests, "manifests": manifests, "fetched": fetched}


def construct(ctx: Context, out: Path, cfg):
    """A runner and the (wall, process CPU) seconds of its construction."""
    from searchgov_spider_ray.pipelines.frontier import CrawlJobRunner

    t0, cpu0 = time.perf_counter(), time.process_time()
    runner = CrawlJobRunner(ctx.site, ctx.corpus, out, cfg)
    return runner, (time.perf_counter() - t0, time.process_time() - cpu0)


def reference_crawl(ctx: Context) -> dict:
    from searchgov_spider_ray.pipelines.frontier import read_seen

    out = ctx.out / "reference"
    runner, setup = construct(ctx, out, ctx.cfg)
    try:
        t0 = time.perf_counter()
        res = runner.run()
        wall = time.perf_counter() - t0
        seen = read_seen(runner)
    finally:
        runner.close()
    rec = inspect_crawl(ctx, out, seen, res.fetched)
    rec.update(rounds=res.rounds, wall_s=wall, setup=setup)
    return rec


def shard_bytes(runner) -> int:
    """In-memory bytes of the URL-seen shards: cuckoo buckets plus the
    exact audit set and its int objects, rebuilt from the shard dumps."""
    import ray

    from searchgov_spider_ray.state.cuckoo import UrlSeenShard

    total = 0
    for blob in ray.get([s.dump.remote() for s in runner.shards]):
        shard = UrlSeenShard.load(blob)
        total += shard.filter.buckets.nbytes + sys.getsizeof(shard.exact)
        total += sum(map(sys.getsizeof, shard.exact))
    return total


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) if path.exists() else 0


def disk_counts(ctx: Context, out: Path, manifests: list, shard_mem: int) -> dict:
    """Per-layer counts read from the files one crawl wrote."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    rows = [m["frontier_rows"] for m, _ in manifests[:-1]]
    fetched = [m.get("fetched", 0) for m, _ in manifests[1:]]
    reasons = pc.value_counts(pq.read_table(out / "denied", columns=["reason"])["reason"])
    return {
        "micro_rounds": sum(r <= ctx.cfg.micro_round_rows for r in rows),
        "max_rows_in": max(rows),
        "carried_rows": sum(r - f for r, f in zip(rows, fetched)),
        "denied": {x["values"]: x["counts"] for x in reasons.to_pylist()},
        "shard_keys": sum(manifests[-1][0]["shard_sizes"]),
        "shard_bytes": shard_mem,
        "checkpoint_bytes": dir_bytes(out / "checkpoint"),
        "sink_bytes": {k: dir_bytes(out / k) for k in ("order", "emitted", "corpus", "denied")},
    }


def resumed_crawl(
    ctx: Context, stop_round: int, reference: dict, meter: TreeMeter, traced: bool
) -> dict:
    """The timed crawl: stop at the barrier of ``stop_round``, close, and
    resume with a fresh runner. Returns its metrics and check failures."""
    from crawlbench import checks, trace
    from searchgov_spider_ray.pipelines.frontier import read_seen

    out = ctx.out / "crawl"
    if traced:
        trace.reset(ctx.trace_dir)
        trace.set_active(ctx.trace_dir, True)
    try:
        first, setup_a = construct(ctx, out, replace(ctx.cfg, max_rounds=stop_round))
        cpu_run = meter.cpu_s()
        t_run = time.time()
        try:
            res_a = first.run()
        finally:
            first.close()
        meter.watch(out / "checkpoint" / f"round_{stop_round + 1:04d}" / "manifest.json")
        cpu_resume = meter.cpu_s()
        t_resume = time.time()
        second, setup_b = construct(ctx, out, ctx.cfg)
        try:
            t_second = time.time()
            res_b = second.run(resume=True)
            t_end = time.time()
            cpu_end = meter.cpu_s()
            seen = read_seen(second)
            shard_mem = shard_bytes(second) if traced else 0
        finally:
            second.close()
    finally:
        if traced:
            trace.set_active(ctx.trace_dir, False)
    rec = inspect_crawl(ctx, out, seen, res_a.fetched + res_b.fetched)
    rec["fails"] += checks.check_digests(rec["digests"], reference["digests"])
    mtimes = [t for _, t in rec["manifests"]]
    # round k runs between manifests k and k+1; the resumed round starts
    # when the fresh runner's run() does, so the resume gap is excluded
    windows = [
        (k, t_second if k == stop_round else mtimes[k], mtimes[k + 1])
        for k in range(len(mtimes) - 1)
    ]
    rec.update(
        traced=traced,
        rounds=len(windows),
        setup=[setup_a, setup_b],
        cpu_ms_per_url=(cpu_end - cpu_run) * 1e3 / rec["fetched"],
        resume_cpu_s=(meter.watch_cpu or cpu_end) - cpu_resume,
        wall_s=t_end - t_run,
        urls_per_s=rec["fetched"] / (t_end - t_run),
        round_s=[b - a for k, a, b in windows if k != stop_round],
        resume_s=mtimes[stop_round + 1] - t_resume,
    )
    if traced:
        disk = disk_counts(ctx, out, rec["manifests"], shard_mem)
        rec["layers"], rec["shares"] = trace.layer_metrics(
            trace.collect(ctx.trace_dir), windows, disk
        )
    return rec


# --- the run ----------------------------------------------------------------

CRAWL_REPORT = (
    "traced", "fetched", "rounds", "setup", "cpu_ms_per_url", "resume_cpu_s",
    "wall_s", "urls_per_s", "resume_s", "round_s",
)


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline(f"no result within {HARD_LIMIT_S:.0f} s")


def init_ray(ray_cpus: int, trace_dir: Path | None) -> None:
    import ray

    # workers import the engine (and, traced, the tracer's start-up hook)
    # from the checkout
    paths = [str(ROOT)] + ([str(ROOT / "crawlbench" / "boot")] if trace_dir else [])
    paths += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    kwargs = dict(
        address="local",
        num_cpus=ray_cpus,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        # No prestarted idle workers: every shard actor starts a process of
        # its own, so every crawl pays the same start-up CPU. A prestarted
        # worker would otherwise host one actor of the first timed crawl
        # only (about 0.8 s of CPU less than later crawls).
        _system_config={"enable_worker_prestart": False, "prestart_worker_first_driver": False},
    )
    # Ray's socket paths must stay under the AF_UNIX limit (107 bytes):
    # keep its session files in the checkout only when the path is short.
    ray_tmp = WORK / "ray"
    if len(str(ray_tmp)) <= 40:
        kwargs["_temp_dir"] = str(ray_tmp)
    if trace_dir is not None:
        os.environ["CRAWLBENCH_TRACE_DIR"] = str(trace_dir)
    ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    for name in ("ray", "ray.data"):
        logging.getLogger(name).setLevel(logging.ERROR)


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def end_to_end(crawls: list[dict], setups: list[tuple[float, float]], peak_rss: int) -> dict:
    return {
        "crawl_cpu_ms_per_url": (median([c["cpu_ms_per_url"] for c in crawls]), "ms"),
        "setup_s": (median([cpu for _wall, cpu in setups]), "s"),
        "peak_rss_mb": (peak_rss / (1 << 20), "MB"),
    }


def unbounded(crawls: list[dict], setups: list[tuple[float, float]]) -> dict:
    """End-to-end figures reported without a bound: wall-clock ones, which
    move with the CPU time the hypervisor steals (see ``steal_frac``),
    and ``resume_cpu_s``."""
    import numpy as np

    # every crawl of a run does the same rounds: take each round's median
    # latency over the crawls, then percentiles over the rounds
    per_round = np.median(np.array([c["round_s"] for c in crawls]), axis=0)
    named = {
        "crawl_urls_per_s": (median([c["urls_per_s"] for c in crawls]), "URL/s"),
        "round_p50_s": (float(np.percentile(per_round, 50)), "s"),
        "round_p90_s": (float(np.percentile(per_round, 90)), "s"),
        "resume_s": (median([c["resume_s"] for c in crawls]), "s"),
        "resume_cpu_s": (median([c["resume_cpu_s"] for c in crawls]), "s"),
        "setup_wall_s": (median([wall for wall, _cpu in setups]), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in named.items()}


def per_layer(crawls: list[dict]) -> dict:
    from crawlbench.trace import PER_LAYER_UNITS

    traced = [c for c in crawls if c["traced"]]
    plain = [c for c in crawls if not c["traced"]]
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name == "trace.overhead_frac":
            # CPU per URL, which moves less than wall time with steal
            v = median([c["cpu_ms_per_url"] for c in traced]) / median([c["cpu_ms_per_url"] for c in plain]) - 1
        else:
            v = median([c["layers"][name] for c in traced])
        out[name] = (v, unit)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "searchgov_spider_ray" / "pipelines" / "frontier.py").is_file():
        print(f"crawlbench: no crawl engine (searchgov_spider_ray/) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from crawlbench.workloads import WORKLOADS, crawl_job, ensure_corpus, spec_key, corpus_spec

    if args.workload not in WORKLOADS:
        print(f"crawlbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    t_start = time.monotonic()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(int(HARD_LIMIT_S))
    wl = WORKLOADS[args.workload]
    n_cpu = nproc()
    # one task slot per CPU beside the shard actors' 0.25-CPU reservations
    ray_cpus = n_cpu + math.ceil(NUM_SHARDS * 0.25)
    window = {
        "nproc": n_cpu,
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "ray_cpus": ray_cpus,
        "loadavg_1m": os.getloadavg()[0],
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    corpus, gen_s = ensure_corpus(WORK / "corpora", wl, args.seed)
    site, cfg = crawl_job(wl, args.seed, NUM_SHARDS)
    run_dir = WORK / "runs" / f"{wl.name}-{os.getpid()}"
    trace_dir = run_dir / "trace" if args.trace else None
    if trace_dir is not None:
        trace_dir.mkdir(parents=True)
    ctx = Context(corpus, site, cfg, run_dir, trace_dir)
    load_context(ctx)

    import ray

    from crawlbench import checks

    crawls: list[dict] = []
    errors: list[str] = []
    attempted = failed = 0
    reference = None
    setups: list[tuple[float, float]] = []
    meter = TreeMeter()
    try:
        init_ray(ray_cpus, trace_dir)
        if trace_dir is not None:
            from crawlbench import trace

            trace.install()
        attempted += 1
        try:
            reference = reference_crawl(ctx)
            fails = reference["fails"]
        except Exception as e:  # reported as a failed run
            fails = [f"reference crawl: {type(e).__name__}: {e}"]
        if reference is not None and args.seed == DEFAULT_SEED:
            golden = json.loads((Path(__file__).parent / "golden.json").read_text()).get(wl.name)
            if golden is None or golden["spec_key"] != spec_key(corpus_spec(wl, args.seed)):
                fails.append("check5: no golden digests for this workload's corpus spec")
            else:
                fails += checks.check_digests(reference["digests"], golden, "golden values")
        if fails:
            failed += 1
            errors += fails
        t_measure = time.monotonic()
        steal0, total0 = cpu_ticks()
        with meter:
            while reference is not None:
                traced = bool(args.trace) and len(crawls) % 2 == 1
                attempted += 1
                t0 = time.monotonic()
                try:
                    stop_round = max(1, reference["rounds"] // 2)
                    rec = resumed_crawl(ctx, stop_round, reference, meter, traced)
                    fails = rec["fails"]
                except Deadline:
                    failed += 1
                    errors.append(f"crawl {attempted}: timed out")
                    break
                except Exception as e:  # a failed crawl is counted, not fatal
                    fails = [f"{type(e).__name__}: {e}"]
                if fails:
                    failed += 1
                    errors += [f"crawl {attempted}: {f}" for f in fails]
                else:
                    crawls.append(rec)
                now = time.monotonic()
                kinds = {c["traced"] for c in crawls}
                done = now - t_measure >= args.seconds and (not args.trace or len(kinds) == 2)
                if done or now + 1.25 * (now - t0) > t_start + HARD_LIMIT_S:
                    break
        steal1, total1 = cpu_ticks()
        # share of CPU time the hypervisor gave to other guests meanwhile
        window["steal_frac"] = (steal1 - steal0) / max(1, total1 - total0)
        # a set-up takes ~0.04 s: time many, after the crawls so that the
        # CPU meter's sampling thread (in this process) has stopped
        while crawls and len(setups) < SETUP_SAMPLES:
            runner, setup = construct(ctx, ctx.out / "setup", ctx.cfg)
            runner.close()
            setups.append(setup)
    except Deadline:
        failed += 1
        errors.append("run timed out")
    finally:
        signal.alarm(0)
        ray.shutdown()
    has_metrics = bool(setups) and (not args.trace or len({c["traced"] for c in crawls}) == 2)
    metrics = {}
    if has_metrics:
        if args.trace:
            named = per_layer(crawls)
        else:
            named = end_to_end(crawls, setups, meter.peak_rss)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
    report = {
        "window": {**window, "runs": attempted},
        "corpus": {"dir": corpus.name, "generated_s": gen_s, "cached": gen_s is None},
        "reference": None
        if reference is None
        else {k: reference[k] for k in ("digests", "fetched", "rounds", "wall_s", "setup")},
        "crawls": [
            {k: c[k] for k in CRAWL_REPORT}
            | ({"self_time_share": c["shares"]} if c["traced"] else {})
            for c in crawls
        ],
        "unbounded": unbounded(crawls, setups) if setups else None,
        "error_rate": failed / attempted,
        "errors": errors,
    }
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"crawlbench": report}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if has_metrics else 1


if __name__ == "__main__":
    sys.exit(main())
