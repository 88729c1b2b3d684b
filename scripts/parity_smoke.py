"""Driver-style parity smoke: pipeline vs simulator on a small corpus.

Usage: python scripts/parity_smoke.py [job_name] [round_seconds] [micro|dataset]

``micro`` (the default) runs every round of this small corpus on the
table executor; ``dataset`` sets ``micro_round_rows=0``, so every round
runs on the Dataset executor.
"""
import sys, time, shutil
sys.path.insert(0, __file__.rsplit("/", 2)[0])
import ray
import pyarrow.parquet as pq

ray.init(address="local", num_cpus=8, include_dashboard=False,
         ignore_reinit_error=True, logging_level="ERROR")
from ray.data import DataContext
ctx = DataContext.get_current()
ctx.enable_progress_bars = False

from searchgov_spider_ray.sources.corpusgen import generate_corpus, CorpusSpec
from searchgov_spider_ray.sources.crawl_sites import CrawlSites
from searchgov_spider_ray.pipelines.frontier import (
    CrawlJobRunner, CrawlConfig, read_order, read_denied, read_seen)
from searchgov_spider_ray.pipelines.simulator import (
    simulate_crawl, load_corpus_dict, RobotsRules)
from searchgov_spider_ray.functions.hashing import xxhash64

job = sys.argv[1] if len(sys.argv) > 1 else "plain"
rsec = float(sys.argv[2]) if len(sys.argv) > 2 else 10.0
executor = sys.argv[3] if len(sys.argv) > 3 else "micro"
if executor not in ("micro", "dataset"):
    sys.exit(f"executor must be micro or dataset, not {executor!r}")
micro_kw = {"micro_round_rows": 0} if executor == "dataset" else {}
cdir = "/tmp/smoke_corpus"
import os
if not os.path.exists(cdir + "/seeds.json"):
    generate_corpus(cdir, CorpusSpec(seed=42, n_domains=3, pages_per_domain=40))
sites = {s.name: s for s in CrawlSites.from_file(cdir + "/seeds.json").sites}
site = sites[job]
t0 = time.time()
shutil.rmtree("/tmp/smoke_out", ignore_errors=True)
runner = CrawlJobRunner(site, cdir, "/tmp/smoke_out", CrawlConfig(round_seconds=rsec, num_shards=4, **micro_kw))
res = runner.run()
wall = time.time() - t0
print(f"pipeline ({executor}): rounds={res.rounds} fetched={res.fetched} seen={res.seen} wall={wall:.1f}s")

corpus = load_corpus_dict(pq.read_table(cdir + "/corpus_pages.parquet"))
robots = RobotsRules.from_table(pq.read_table(cdir + "/robots.parquet"))
images = pq.read_table(cdir + "/corpus_images.parquet").to_pylist()
captions = {r["image_id"]: r["caption"] for r in images}
sim = simulate_crawl(site, corpus, robots, captions, round_seconds=rsec)
print(f"sim: order={len(sim.order)} seen={len(sim.seen)} rounds={sim.rounds}")

order = read_order("/tmp/smoke_out")
pipe_urls = order["url"].tolist()
sim_urls = [u for _, u, _ in sim.order]
ok_order = pipe_urls == sim_urls
seen_pipe = read_seen(runner)
seen_sim = {xxhash64(u) for u in sim.seen}
ok_seen = seen_pipe == seen_sim
den_pipe = read_denied("/tmp/smoke_out")
ok_denied = den_pipe == sim.denied
print(f"order_match={ok_order} seen_match={ok_seen} denied_match={ok_denied}")
if not ok_order:
    for i, (a, b) in enumerate(zip(pipe_urls, sim_urls)):
        if a != b:
            print("first diff at", i, a, "|", b)
            break
    print("len", len(pipe_urls), len(sim_urls))
if not ok_denied:
    print("pipe-sim:", list(den_pipe - sim.denied)[:6])
    print("sim-pipe:", list(sim.denied - den_pipe)[:6])
ray.shutdown()
sys.exit(0 if (ok_order and ok_seen and ok_denied) else 1)
