"""Bench-scale kill-and-resume receipt (north_rule: resume from
checkpoint via a fresh runner without re-fetching or reordering).

Runs the exact benchmarked crawl job three ways on the shared bench
corpus:
  1. uninterrupted reference run,
  2. the same job stopped at the round-N barrier (cfg.max_rounds=N —
     the checkpoint for round N is written, the process then "dies"),
  3. a FRESH CrawlJobRunner resuming from that checkpoint.

Receipt = the resumed run's fetch order is byte-identical to the
uninterrupted run (same rows, same (round, depth, seq) keys — zero
URLs fetched twice, zero reordering). Prints one JSON line.

Usage: RAY_GRAFT_CPUS=32 python scripts/resume_receipt.py [kill_round]
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import bench  # noqa: E402


def main() -> None:
    import logging

    import ray

    kill_round = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    ray.init(
        address="local",
        num_cpus=bench.NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from searchgov_spider_ray.pipelines.frontier import (
        CrawlJobRunner,
        read_order,
    )

    site, cfg, cdir = bench.make_bench_job()

    out_full = bench.BENCH_OUT + "_receipt_full"
    out_res = bench.BENCH_OUT + "_receipt_resume"
    for p in (out_full, out_res):
        shutil.rmtree(p, ignore_errors=True)

    t0 = time.time()
    full = CrawlJobRunner(site, cdir, out_full, cfg)
    res_full = full.run()
    full.close()
    t_full = time.time() - t0

    # partial run: stop at the kill_round barrier (checkpoint written)
    t1 = time.time()
    part = CrawlJobRunner(site, cdir, out_res, replace(cfg, max_rounds=kill_round))
    res_part = part.run()
    part.close()  # the "killed" process: state wiped; only disk state left
    t_part = time.time() - t1

    t2 = time.time()
    resumed = CrawlJobRunner(site, cdir, out_res, cfg)
    rp = resumed.resume_point()
    res_resumed = resumed.run(resume=True)
    resumed.close()
    t_resume = time.time() - t2

    of = read_order(out_full)
    orr = read_order(out_res)
    cols = ["round", "depth", "seq", "url"]
    identical = len(of) == len(orr) and all(
        of[c].tolist() == orr[c].tolist() for c in cols
    )
    refetched = int(len(orr) - orr["url"].nunique())
    print(
        json.dumps(
            {
                "kill_round": kill_round,
                "resume_point": rp,
                "full_fetched": res_full.fetched,
                "partial_fetched": res_part.fetched,
                "resumed_fetched": res_resumed.fetched,
                "order_rows_full": len(of),
                "order_rows_resumed": len(orr),
                "order_byte_identical": bool(identical),
                "urls_fetched_twice": refetched,
                "wall_full_s": round(t_full, 1),
                "wall_partial_s": round(t_part, 1),
                "wall_resume_s": round(t_resume, 1),
            }
        ),
        flush=True,
    )
    for p in (out_full, out_res):
        shutil.rmtree(p, ignore_errors=True)
    ray.shutdown()
    sys.exit(0 if identical and refetched == 0 else 1)


if __name__ == "__main__":
    main()
