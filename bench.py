"""Bench harness: headline crawl-frontier throughput + representative
operator pipelines over $GRAFT_SF_DIR (default /root/testdata/sf0.1).

Prints ONE JSON line:
  {"metric": "...", "value": <total sec>, "unit": "sec",
   "queries": {...per-pipeline sec...}, "sf": ..., "num_cpus": N,
   "crawl_urls_per_sec": ...}

--scaling: run bench.py twice in fresh processes at num_cpus=8 and 32
on the same inputs, print throughputs + scaling efficiency
(BASELINE.md records the result — the sandbox evidence for the N vs 4N
cluster criterion).

--kernels: the link chain's kernels in isolation, no Ray (see
run_kernel_bench); one JSON line.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# Sinks land on tmpfs when available: on a real cluster the output
# store (S3/Lance on distributed FS) scales with nodes, while this
# sandbox's single local disk does not — writing goldens/corpus rows to
# RAM keeps the scaling measurement about the data plane, not one
# disk's bandwidth. (/tmp stays the default for the corpus INPUT,
# which the page cache already serves at RAM speed after first read.)
BENCH_OUT = os.environ.get(
    "GRAFT_BENCH_OUT",
    "/dev/shm/searchgov_ray_bench_out" if os.path.isdir("/dev/shm") else "/tmp/searchgov_ray_bench_out",
)

# bench corpus: ~1M pages across 400 domains (hot domain 3×), 6 KB HTML
# bodies, ~250k images at up to 192 px. branching=20 keeps the BFS
# wavefront at ~4 rounds so the measurement is sustained compute +
# shuffle, not the per-round orchestration floor of ramp-up rounds.
BENCH_SPEC = dict(
    seed=42,
    n_domains=400,
    pages_per_domain=5000,
    branching=20,
    hot_domain_factor=3,
    body_filler=6000,
    image_rate_mod=4,
    max_image_side=192,
    # zstd pages (images stay raw): ~40x smaller page payload stream;
    # spec key change re-keys the corpus cache dir
    pages_codec="zstd",
    # small image row groups bound sparse-round payload-gather read
    # amplification (was ~500 rows ≈ 12 MB per 25 KB image hit)
    image_rg_rows=64,
    # same lesson for page bodies: ramp rounds hit a few leading pages
    # of all 400 domains, each hit decompressing its whole zstd group —
    # 256-row groups cut that ~4× while dense rounds still stream
    pages_rg_rows=256,
)

# corpus cache dir is keyed by the spec so a spec change regenerates
_SPEC_TAG = __import__("hashlib").md5(
    json.dumps(BENCH_SPEC, sort_keys=True).encode()
).hexdigest()[:8]
BENCH_CORPUS = os.environ.get(
    "GRAFT_BENCH_CORPUS", f"/tmp/searchgov_ray_bench_corpus_{_SPEC_TAG}"
)


def ensure_bench_corpus() -> str:
    from searchgov_spider_ray.sources.corpusgen import CorpusSpec, generate_corpus

    marker = Path(BENCH_CORPUS) / "seeds.json"
    if marker.exists():
        # refresh the idle clock: gc_tmp_caches sweeps by newest mtime,
        # and a cached corpus is only ever READ after generation
        os.utime(marker, None)
    else:
        generate_corpus(BENCH_CORPUS, CorpusSpec(**BENCH_SPEC))
    # warm the page cache (untimed): payload row-group gathers during the
    # crawl read these files; a cold single disk would otherwise bill its
    # seek time to round 0 at either CPU count
    for f in Path(BENCH_CORPUS).glob("*.parquet"):
        with open(f, "rb") as fh:
            while fh.read(1 << 24):
                pass
    return BENCH_CORPUS


def make_bench_job():
    """(site, cfg, corpus_dir) for the headline crawl — shared by
    run_crawl_bench and scripts/resume_receipt.py so the receipt runs
    the exact benchmarked configuration."""
    from searchgov_spider_ray.pipelines.frontier import CrawlConfig
    from searchgov_spider_ray.sources.corpusgen import page_url
    from searchgov_spider_ray.sources.crawl_sites import CrawlSite

    cdir = ensure_bench_corpus()
    domains = [f"site{i}.example.gov" for i in range(BENCH_SPEC["n_domains"])]
    site = CrawlSite(
        name="bench crawl",
        allowed_domains=domains,
        starting_urls=[page_url(d, 0) for d in domains],
        depth_limit=30,
        output_target="elasticsearch",
    )
    cfg = CrawlConfig(
        round_seconds=3600.0,
        num_shards=NUM_CPUS,  # URL-seen shard actors scale with the cluster
        shard_capacity=1 << 19,
        fetch_batch_size=2048,
        decode_batch_size=256,
        wide_round_rows=2_000_000,
    )
    return site, cfg, cdir


def run_crawl_bench() -> tuple[float, int]:
    """Headline: URLs fetched+deduped/sec on the synthetic frontier over
    the image+caption corpus (all domains, politeness 1 h virtual
    rounds → few, wide BSP rounds)."""
    import shutil

    from searchgov_spider_ray.pipelines.frontier import CrawlConfig, CrawlJobRunner
    from searchgov_spider_ray.sources.corpusgen import page_url
    from searchgov_spider_ray.sources.crawl_sites import CrawlSite

    site, cfg, cdir = make_bench_job()
    domains = list(site.allowed_domains)
    out = BENCH_OUT
    shutil.rmtree(out, ignore_errors=True)
    # Untimed warmup: a 2-domain depth-1 job through the same operator
    # paths (politeness groupby, fused fetch/link chain, image
    # attach/decode, checkpoint sinks, shard actors). First-use costs —
    # worker imports, operator JIT/plan caches, actor startup — are
    # cluster bring-up, not steady-state throughput; both CPU levels of
    # --scaling run the same warmup in their fresh processes.
    warm_site = CrawlSite(
        name="bench warmup",
        allowed_domains=domains[:2],
        starting_urls=[page_url(d, 0) for d in domains[:2]],
        depth_limit=1,
        output_target="elasticsearch",
    )
    shutil.rmtree(out + "_warm", ignore_errors=True)
    warm = CrawlJobRunner(
        warm_site, cdir, out + "_warm", CrawlConfig(round_seconds=60.0, num_shards=4)
    )
    warm.run()
    warm.close()
    shutil.rmtree(out + "_warm", ignore_errors=True)

    runner = CrawlJobRunner(site, cdir, out, cfg)
    t0 = time.time()
    res = runner.run()
    wall = time.time() - t0
    runner.close()
    return wall, res.fetched


def run_compute_probe() -> float:
    """CPU-bound scaling probe: link extraction + canonicalize/scope
    over one broadcast row-group of real pages, replicated across
    tasks — zero storage reads, zero sinks. On a real N→4N NODE
    cluster every stage gets 4× memory/storage bandwidth along with 4×
    CPUs; this sandbox shares one box's bus between both "cluster
    sizes", so the crawl's byte-bound stages cap at the same aggregate
    rate at either CPU count. The probe isolates what the sandbox CAN
    multiply (CPUs) and reports pages/s for the crawl's dominant
    compute chain."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import numpy as np
    import ray
    import ray.data as rd

    from searchgov_spider_ray.pipelines.frontier import _CanonScope
    from searchgov_spider_ray.pipelines.simulator import RobotsRules
    from searchgov_spider_ray.stages.links import extract_links_batch
    from searchgov_spider_ray.stages.scope import JobScope

    cdir = ensure_bench_corpus()
    pf = pq.ParquetFile(cdir + "/corpus_pages.parquet")
    # a fixed PAGE COUNT, not "row group 0": the probe's workload must
    # be independent of the corpus's parquet layout (pages_rg_rows
    # shrank 1,024→256 in round 5, and a 256-page rep quadruples the
    # per-task fixed-cost share — probe pages/s halved spuriously)
    probe_rows = 1_024
    n_groups = 0
    rows = 0
    while rows < probe_rows and n_groups < pf.metadata.num_row_groups:
        rows += pf.metadata.row_group(n_groups).num_rows
        n_groups += 1
    pages = pf.read_row_groups(
        list(range(n_groups)), columns=["url", "status", "content_type", "body"]
    ).replace_schema_metadata(None)
    pages = pages.filter(pc.equal(pages["status"], 200))
    pages = pages.add_column(
        pages.num_columns, "seq", pa.array(np.arange(len(pages), dtype=np.int64))
    )
    pages = pages.add_column(
        pages.num_columns, "depth", pa.array(np.zeros(len(pages), dtype=np.int32))
    )
    ref = ray.put(pages)
    domains = [f"site{i}.example.gov" for i in range(BENCH_SPEC["n_domains"])]
    scope = JobScope(allowed_domains=domains, depth_limit=30)
    robots = RobotsRules.from_table(pq.read_table(cdir + "/robots.parquet"))
    canon = _CanonScope(scope, robots)
    reps = 256  # ~256k page-extractions of fixed work

    def work(_batch: pa.Table) -> pa.Table:
        tab = ray.get(ref)
        out = canon(extract_links_batch(tab))
        return pa.table({"n": pa.array([len(out)], type=pa.int64())})

    ds = rd.range(reps, override_num_blocks=reps).map_batches(
        work, batch_format="pyarrow", batch_size=1
    )
    ds.materialize()  # untimed warmup (worker imports, ref fetch)
    t0 = time.time()
    ds.materialize()
    wall = time.time() - t0
    return round(reps * len(pages) / wall, 1)


def run_query_bench() -> dict[str, float]:
    from searchgov_spider_ray.pipelines import queries as q

    timings: dict[str, float] = {}
    bench_queries = [
        "doc_dedup_summary",
        "doc_token_counts",
        "doc_minhash_near_dup",
        "doc_dup_clusters",
        "doc_curation_pipeline",
        "doc_top_terms",
        "doc_pack_windows",
        # round-3 late-wave training-data flagships
        "doc_bpe_pair_counts",
        "doc_unigram_perplexity",
        "doc_containment_near_dup",
        # round-3 retrieval/drift wave (the image-axis queries run over
        # the small fixed query corpus — benching them would time pure
        # overhead, so they stay out of the sf-scaled list)
        "doc_bm25_topk",
        "doc_ks_drift",
        # DSIR importance weighting (hashed-unigram two-pass flagship)
        "doc_dsir_weights",
        # curriculum NTILE
        "doc_curriculum_manifest",
        # RAG chunk expansion, Gopher gates
        "doc_chunk_overlap",
        "doc_gopher_quality_gates",
    ]
    for name in bench_queries:
        t0 = time.time()
        result = q.QUERIES[name](SF_DIR)
        # consume lazily-built datasets fully
        import ray.data as rd

        if isinstance(result, rd.Dataset):
            result.to_pandas()
        timings[name] = round(time.time() - t0, 3)
    return timings


def main() -> None:
    import logging

    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        # the broadcast corpus (pages+images, ~20 GB at the bench spec)
        # plus round intermediates must fit without spill-thrash; the
        # default 30%-of-RAM store is too tight on this 128 GB box
        object_store_memory=int(os.environ.get("GRAFT_OBJ_STORE_GB", "40")) * (1 << 30),
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    # warm the page cache: one untimed read of the sf table the queries read
    import pyarrow.parquet as pq

    pq.read_table(f"{SF_DIR}/documents.parquet")

    # warm the Ray worker pool (cold process spin-up is a fixed cost
    # that lands on round 0 otherwise; a real long-lived cluster is warm)
    import ray.data as _rd

    _rd.range(NUM_CPUS * 4, override_num_blocks=NUM_CPUS * 4).map_batches(
        lambda b: b, batch_format="pyarrow"
    ).materialize()

    crawl_wall, crawl_fetched = run_crawl_bench()
    compute_pages_per_sec = run_compute_probe()
    # --scaling --reps N: repetitions 2..N re-measure only the verdict
    # quantities (crawl throughput + compute probe) — the query suite
    # wall comes from repetition 1's full run
    crawl_only = os.environ.get("GRAFT_BENCH_CRAWL_ONLY") == "1"
    timings = {} if crawl_only else run_query_bench()
    timings["crawl_frontier"] = round(crawl_wall, 3)
    total = round(sum(timings.values()), 3)
    print(
        json.dumps(
            {
                "metric": "URLs fetched+deduped/sec on the synthetic frontier over the image+caption corpus; plus operator pipeline wall times",
                "value": total,
                "unit": "sec",
                "queries": timings,
                "sf": SF_DIR,
                "num_cpus": NUM_CPUS,
                "crawl_urls_per_sec": round(crawl_fetched / crawl_wall, 1),
                "crawl_fetched": crawl_fetched,
                "compute_probe_pages_per_sec": compute_pages_per_sec,
            }
        )
    )
    ray.shutdown()


# --kernels: pages per link-chain call, and the kernels it reports
KERNEL_BATCH_PAGES = (16, 64, 512, 4096)
KERNEL_STAGES = ("extract", "canon", "hash", "scope", "robots")


def run_kernel_bench(reps: int = 3) -> dict:
    """Thread-CPU ns per extracted link of each link-chain kernel, at
    each of ``KERNEL_BATCH_PAGES`` pages per call, over one fixed page
    sample: the first 4,096 200-status pages of the ``wide_bfs``
    crawlbench corpus at seed 42 (cached under ``.crawlbench/corpora``),
    scoped as that workload's job. Runs in this process, no Ray.

    The chain is ``extract_links_batch`` then ``_CanonScope``, called as
    the crawl calls them. ``hash``/``scope``/``robots`` are the
    inclusive times of ``xxhash64_array``/``JobScope.evaluate``/
    ``robots_reason``; ``canon`` is the rest of ``_CanonScope``
    (canonicalize, distinct-URL encoding, the row takes). Each figure is
    the median over ``reps`` passes over the whole sample."""
    import functools

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from crawlbench.workloads import WORKLOADS, crawl_job, ensure_corpus
    from searchgov_spider_ray.pipelines import frontier
    from searchgov_spider_ray.pipelines.simulator import RobotsRules
    from searchgov_spider_ray.stages.links import extract_links_batch
    from searchgov_spider_ray.stages.scope import JobScope

    wl = WORKLOADS["wide_bfs"]
    root = Path(__file__).resolve().parent
    cdir, _ = ensure_corpus(root / ".crawlbench" / "corpora", wl, 42)
    site, _ = crawl_job(wl, 42, num_shards=2)
    pages = pq.read_table(
        cdir / "corpus_pages.parquet", columns=["url", "status", "content_type", "body"]
    )
    pages = pages.filter(pc.equal(pages["status"], 200)).slice(0, max(KERNEL_BATCH_PAGES))
    n = len(pages)
    pages = pages.append_column("seq", pa.array(np.arange(n, dtype=np.int64)))
    pages = pages.append_column("depth", pa.array(np.ones(n, dtype=np.int32)))
    scope = JobScope(
        allowed_domains=site.allowed_domains,
        deny_paths=site.deny_paths,
        allow_query_string=site.allow_query_string,
        depth_limit=site.depth_limit,
    )
    chain = frontier._CanonScope(scope, RobotsRules.from_table(pq.read_table(cdir / "robots.parquet")))

    spent = dict.fromkeys(KERNEL_STAGES + ("chain",), 0)

    def timed(fn, stage):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            t0 = time.thread_time_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[stage] += time.thread_time_ns() - t0

        return call

    # the names _CanonScope calls, timed in place for this process
    frontier.xxhash64_array = timed(frontier.xxhash64_array, "hash")
    frontier.robots_reason = timed(frontier.robots_reason, "robots")
    JobScope.evaluate = timed(JobScope.evaluate, "scope")
    extract = timed(extract_links_batch, "extract")
    run_chain = timed(chain, "chain")

    ns_per_link: dict[str, dict[str, float]] = {}
    links = 0
    for size in KERNEL_BATCH_PAGES:
        runs = []
        for _ in range(reps):
            for k in spent:
                spent[k] = 0
            links = 0
            for a in range(0, n, size):
                batch = extract(pages.slice(a, size))
                links += len(batch)
                run_chain(batch)
            spent["canon"] = spent["chain"] - spent["hash"] - spent["scope"] - spent["robots"]
            runs.append({k: spent[k] / links for k in KERNEL_STAGES + ("chain",)})
        ns_per_link[str(size)] = {
            k: round(float(np.median([r[k] for r in runs])), 1) for k in runs[0]
        }
    return {
        "metric": "link-chain thread-CPU ns per extracted link, by kernel and pages per call",
        "pages": n,
        "links": links,
        "reps": reps,
        "ns_per_link": ns_per_link,
    }


def _drop_page_cache() -> bool:
    """Best-effort OS page-cache drop so a --scaling leg starts with
    COLD corpus I/O. Within one invocation the low-CPU leg runs first
    and warms the cache for the high leg (inflating efficiency);
    across back-to-back invocations both legs run warm (the constant
    single-box I/O term then depresses it — see BASELINE.md's
    artifact notes). Dropping before EACH leg gives the symmetric
    cold/cold measurement. Needs a writable /proc/sys/vm/drop_caches
    (privileged sandbox); returns whether the drop happened."""
    try:
        os.sync()
        with open("/proc/sys/vm/drop_caches", "w") as f:
            f.write("3")
        return True
    except OSError:
        return False


SCALING_BAR = 0.8  # BASELINE.json: >=0.8 throughput efficiency N -> 4N
IDLE_LOADAVG = 0.5  # a leg that starts above this is a polluted window
IDLE_WAIT_MAX = 420.0  # bounded wait; then annotate-and-proceed
# legs whose cold-disk probes differ by more than this are an
# asymmetric-window flag (one leg ran against a measurably different
# disk than the other — the #r5-1 pollution mode)
DISK_SYMMETRY_MIN = 0.7


def _disk_probe(path: str, budget_bytes: int = 256 << 20) -> float:
    """Sequential read bandwidth (MB/s) over the corpus input file.
    Called right after a cache drop and followed by ANOTHER drop, so
    the probe measures the window's actual cold-disk speed without
    leaving warm pages behind for the leg. Annotating this per leg
    makes the #r4-12/#r5-1 pollution mode (high-leg compression under
    a degraded disk) measurable in the receipt itself instead of
    inferred post-hoc from family walls."""
    t0 = time.time()
    n = 0
    with open(path, "rb") as fh:
        while n < budget_bytes:
            b = fh.read(1 << 24)
            if not b:
                break
            n += len(b)
    return round(n / max(time.time() - t0, 1e-6) / 1e6, 1)


def _wait_for_idle(
    threshold: float = IDLE_LOADAVG, max_wait: float = IDLE_WAIT_MAX
) -> dict:
    """Idle-gate a scaling leg (r4 verdict #1: turn-key receipts, no
    manual window-picking): poll the 1-minute loadavg until it decays
    below ``threshold`` — the documented pollution mode is the LOW
    leg's own drain still showing in the HIGH leg's start window — or
    ``max_wait`` elapses, then proceed either way with the evidence
    annotated (wait seconds, loadavg seen, whether the gate was met)."""
    t0 = time.time()
    while True:
        la = os.getloadavg()[0]
        waited = time.time() - t0
        if la < threshold:
            return {"loadavg": round(la, 2), "idle_wait_sec": round(waited, 1), "idle": True}
        if waited >= max_wait:
            return {"loadavg": round(la, 2), "idle_wait_sec": round(waited, 1), "idle": False}
        time.sleep(5.0)


def _scaling_attempt(
    cpu_lo: int, cpu_hi: int, drop_caches: bool, cdir: str, reps: int = 1
) -> dict:
    """One full 2-leg pair: idle-gate → (drop caches → disk probe →
    re-drop) → leg, for each CPU count, then the efficiency arithmetic
    and a machine-readable verdict row.

    ``reps > 1`` is the DIRECTION-NEUTRAL variance reducer for the
    documented ambient volatility (the ledger's #r5-6/#r5-7 evidence:
    the box's cold-disk probe swings 69–2,400 MB/s and the @16 crawl
    ±30% between attempts minutes apart, in BOTH directions): each
    leg's crawl is measured ``reps`` times — every repetition its own
    fresh process with its own idle gate, cache drop and disk probe —
    and the verdict uses the per-leg MEDIAN crawl throughput (and
    median probe), so a single compressed OR inflated window on either
    leg cannot decide the ratio either way. Every repetition's numbers
    and ambient context are printed in the receipt. Repetition 1 runs
    the full bench (suite wall for the ledger); repetitions 2..N
    re-measure only crawl + probe (GRAFT_BENCH_CRAWL_ONLY=1)."""
    import statistics

    dropped = True
    legs: list[dict] = []

    def run(ncpu: int) -> dict:
        """One leg = ``reps`` measured repetitions; returns the leg's
        median verdict quantities + repetition-1's full-bench wall."""
        nonlocal dropped
        ctxs: list[dict] = []
        outs: list[dict] = []
        for rep in range(reps):
            gate = _wait_for_idle()
            ctx = {"rep": rep + 1, **gate}
            if drop_caches:
                dropped = _drop_page_cache() and dropped
                ctx["disk_mb_s"] = _disk_probe(
                    os.path.join(cdir, "corpus_images.parquet")
                )
                dropped = _drop_page_cache() and dropped
            env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
            # repetition 1 always runs the full bench, whatever the
            # caller's environment holds
            env.pop("GRAFT_BENCH_CRAWL_ONLY", None)
            if rep > 0:
                env["GRAFT_BENCH_CRAWL_ONLY"] = "1"
            out = subprocess.run(
                [sys.executable, __file__],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            o = json.loads(out.strip().splitlines()[-1])
            ctx["crawl_urls_per_sec"] = o["crawl_urls_per_sec"]
            ctx["compute_probe_pages_per_sec"] = o["compute_probe_pages_per_sec"]
            ctxs.append(ctx)
            outs.append(o)
        disk = [c["disk_mb_s"] for c in ctxs if "disk_mb_s" in c]
        leg = {
            "cpus": ncpu,
            # leg-level ambient summary = the MEDIAN repetition's view
            "loadavg": round(statistics.median(c["loadavg"] for c in ctxs), 2),
            "idle_wait_total_sec": round(sum(c["idle_wait_sec"] for c in ctxs), 1),
            # the median absorbs a minority of polluted repetitions, so
            # the leg counts as idle-gated when most repetitions were
            "idle": sum(c["idle"] for c in ctxs) * 2 > len(ctxs),
        }
        if disk:
            leg["disk_mb_s"] = round(statistics.median(disk), 1)
        if reps > 1:
            leg["repetitions"] = ctxs
        legs.append(leg)
        return {
            "value": outs[0]["value"],
            "crawl_urls_per_sec": round(
                statistics.median(o["crawl_urls_per_sec"] for o in outs), 1
            ),
            "compute_probe_pages_per_sec": round(
                statistics.median(o["compute_probe_pages_per_sec"] for o in outs), 1
            ),
        }

    lo, hi = run(cpu_lo), run(cpu_hi)
    t_lo, t_hi = lo["value"], hi["value"]
    eff = (t_lo / t_hi) / (cpu_hi / cpu_lo)
    ratio = cpu_hi / cpu_lo
    crawl_eff = (hi["crawl_urls_per_sec"] / lo["crawl_urls_per_sec"]) / ratio
    probe_eff = (
        hi["compute_probe_pages_per_sec"] / lo["compute_probe_pages_per_sec"]
    ) / ratio
    disk = [l["disk_mb_s"] for l in legs if "disk_mb_s" in l]
    disk_symmetric = (
        (min(disk) / max(disk) >= DISK_SYMMETRY_MIN) if disk and max(disk) > 0 else True
    )
    window_clean = all(l["idle"] for l in legs) and disk_symmetric
    return {
        f"sec_{cpu_lo}": t_lo,
        f"sec_{cpu_hi}": t_hi,
        "scaling_efficiency": round(eff, 3),
        f"crawl_urls_per_sec_{cpu_lo}": lo["crawl_urls_per_sec"],
        f"crawl_urls_per_sec_{cpu_hi}": hi["crawl_urls_per_sec"],
        "crawl_scaling_efficiency": round(crawl_eff, 3),
        f"compute_probe_pages_per_sec_{cpu_lo}": lo["compute_probe_pages_per_sec"],
        f"compute_probe_pages_per_sec_{cpu_hi}": hi["compute_probe_pages_per_sec"],
        "compute_probe_scaling_efficiency": round(probe_eff, 3),
        "legs": legs,
        **({"reps_per_leg": reps, "leg_stat": "median"} if reps > 1 else {}),
        **({"cold_cache_legs": dropped} if drop_caches else {}),
        "verdict": {
            "bar": SCALING_BAR,
            "crawl_scaling_efficiency": round(crawl_eff, 3),
            "pass": bool(crawl_eff >= SCALING_BAR),
            "probe_scaling_efficiency": round(probe_eff, 3),
            # crawl/probe coupling: <1 means the crawl lost
            # MORE than the box's own per-window compression
            "coupling": round(crawl_eff / probe_eff, 2) if probe_eff else None,
            "idle_gated_legs": all(l["idle"] for l in legs),
            "disk_symmetric": disk_symmetric,
            "window_clean": window_clean,
        },
    }


def scaling(
    cpu_lo: int = 8,
    cpu_hi: int = 32,
    drop_caches: bool = False,
    retries: int = 1,
    reps: int = 1,
) -> None:
    """Default pair 8→32 (the driver's invocation). A supplementary
    pair can be requested as `--scaling --cpus 4 16`: same 4× ratio,
    but the high leg leaves headroom on the shared 32-vCPU box so the
    measurement isolates the ENGINE's scaling from the box's own
    oversubscription (ambient tenants compress exactly the leg the
    efficiency ratio divides by — see BASELINE.md run ledger).
    `--drop-caches` cold-starts the page cache before each leg for a
    symmetric cold/cold comparison.

    Each leg is IDLE-GATED (bounded wait for loadavg < 0.5, then
    annotate-and-proceed) and DISK-PROBED (cold sequential MB/s,
    re-dropped after), and the output carries a machine-readable
    verdict row against the 0.8 bar with the probe efficiency and both
    legs' ambient context inline — an unattended invocation is a
    complete ledger entry by itself.

    Window-clean retry, DIRECTION-NEUTRAL: if a pair's window was NOT
    clean (a non-idle leg, or cold-disk probes asymmetric beyond 30%),
    the pair reruns up to ``retries`` times — regardless of whether the
    polluted attempt passed or failed, so pollution can neither
    manufacture a pass nor stand as a fail. ALL attempts are printed;
    the last attempt (the first clean window, if one materialized) is
    the verdict. A clean-window fail is a fail — symmetric box-wide
    slowness is never retried away.

    `--reps N` measures each leg's crawl N times (median decides; see
    _scaling_attempt) — the statistical answer to ambient volatility,
    complementing the retry policy's categorical one."""
    cdir = ensure_bench_corpus()  # build once, outside timing
    attempts = [_scaling_attempt(cpu_lo, cpu_hi, drop_caches, cdir, reps)]
    while not attempts[-1]["verdict"]["window_clean"] and len(attempts) <= retries:
        attempts.append(_scaling_attempt(cpu_lo, cpu_hi, drop_caches, cdir, reps))
    final = dict(attempts[-1])
    if len(attempts) > 1:
        final["retried_attempts"] = attempts[:-1]
    print(json.dumps(final))


if __name__ == "__main__":
    if "--kernels" in sys.argv:
        print(json.dumps(run_kernel_bench()))
    elif "--scaling" in sys.argv:
        drop = "--drop-caches" in sys.argv
        retries = (
            int(sys.argv[sys.argv.index("--retries") + 1])
            if "--retries" in sys.argv
            else 1
        )
        reps = (
            int(sys.argv[sys.argv.index("--reps") + 1])
            if "--reps" in sys.argv
            else 1
        )
        if "--cpus" in sys.argv:
            i = sys.argv.index("--cpus")
            scaling(
                int(sys.argv[i + 1]), int(sys.argv[i + 2]),
                drop_caches=drop, retries=retries, reps=reps,
            )
        else:
            scaling(drop_caches=drop, retries=retries, reps=reps)
    else:
        main()
