"""Crawl-frontier benchmark: seeded crawl workloads driven through the
engine's public API, output checks on every run, and an outside-in layer
tracer. Entry point: ``python3 crawlbench/run.py --help``."""
