"""Output checks run on every crawl the benchmark makes.

The single-threaded simulator is the engine's pinned oracle but is far too
slow to replay each run, so each crawl is checked for invariants that hold
for any correct BFS crawl, plus digests compared against an uninterrupted
reference crawl of the same corpus:

1. No URL is fetched twice; fetched == URL-seen set == distinct order
   hashes; the frontier drained.
2. Politeness: per (round, domain), fetches <= the robots budget; no
   fetched URL is robots-disallowed or deeper than the depth limit.
3. Every emitted row was fetched with status 200.
4. Every landed image row's pHash and caption equal the corpus golden
   columns, and every emitted page with an image landed it.
5. Digests of the fetch order, the URL-seen set and the denied set equal
   the reference's.

Each ``check_*`` function is pure and returns a list of failure messages
(empty when the check passes).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable

import numpy as np
import pandas as pd

DIGEST_KEYS = ("order", "seen", "denied")


def digest_order(order: pd.DataFrame) -> str:
    """sha256 of the url_hash sequence in (round, depth, seq) order."""
    o = order.sort_values(["round", "depth", "seq"], kind="mergesort")
    return hashlib.sha256(o["url_hash"].to_numpy().astype("<u8").tobytes()).hexdigest()


def digest_seen(seen: Iterable[int]) -> str:
    arr = np.sort(np.fromiter(seen, dtype=np.uint64))
    return hashlib.sha256(arr.astype("<u8").tobytes()).hexdigest()


def digest_denied(denied: Iterable[tuple[str, str]]) -> str:
    lines = sorted(f"{url}\t{reason}" for url, reason in denied)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def check_fetch_once(
    order: pd.DataFrame, seen: set[int], fetched: int, last_frontier_rows: int
) -> list[str]:
    fails = []
    hashes = order["url_hash"].to_numpy().astype(np.uint64)
    distinct = len(np.unique(hashes))
    if distinct != len(hashes):
        fails.append(f"check1: {len(hashes) - distinct} URLs fetched more than once")
    if fetched != len(hashes):
        fails.append(f"check1: run() reported {fetched} fetched, order sink has {len(hashes)}")
    if set(hashes.tolist()) != seen:
        fails.append(
            f"check1: URL-seen set ({len(seen)}) differs from fetched hashes ({distinct})"
        )
    if last_frontier_rows != 0:
        fails.append(f"check1: frontier not drained ({last_frontier_rows} rows left)")
    return fails


def check_politeness(
    order: pd.DataFrame,
    budget: Callable[[str], int],
    allowed: Callable[[str], bool],
    depth_limit: int,
) -> list[str]:
    fails = []
    counts = order.groupby(["round", "domain"], sort=False).size()
    over = [(r, d, int(n)) for (r, d), n in counts.items() if n > budget(d)]
    if over:
        r, d, n = over[0]
        fails.append(
            f"check2: {len(over)} (round, domain) grants over budget, "
            f"e.g. round {r} {d}: {n} > {budget(d)}"
        )
    bad = [u for u in order["url"] if not allowed(u)]
    if bad:
        fails.append(f"check2: {len(bad)} robots-disallowed URLs fetched, e.g. {bad[0]}")
    deep = int((order["depth"] > depth_limit).sum())
    if deep:
        fails.append(f"check2: {deep} URLs fetched deeper than depth_limit={depth_limit}")
    return fails


def check_emitted(emitted: pd.DataFrame, order: pd.DataFrame) -> list[str]:
    status = pd.Series(order["status"].to_numpy(), index=order["url_hash"].to_numpy())
    status = status[~status.index.duplicated()]  # double fetches are check 1's
    got = status.reindex(emitted["url_hash"].to_numpy())
    fails = []
    if got.isna().any():
        fails.append(f"check3: {int(got.isna().sum())} emitted rows were never fetched")
    if (got.dropna() != 200).any():
        fails.append(f"check3: {int((got.dropna() != 200).sum())} emitted rows not status 200")
    if emitted["url_hash"].duplicated().any():
        fails.append("check3: an emitted URL appears twice")
    return fails


def check_images(
    landed: pd.DataFrame, golden: pd.DataFrame, expected_ids: set[str]
) -> list[str]:
    """``landed``: image_id, caption, phash_computed (uint64) from the
    corpus sink; ``golden``: image_id, caption, phash (int64) from the
    corpus image table; ``expected_ids``: images of emitted pages."""
    fails = []
    g = golden.set_index("image_id")
    ids = landed["image_id"].to_numpy()
    missing = ~pd.Index(ids).isin(g.index)
    if missing.any():
        fails.append(f"check4: {int(missing.sum())} landed images not in the corpus")
        landed = landed[~missing]
        ids = landed["image_id"].to_numpy()
    want_phash = g["phash"].reindex(ids).to_numpy().astype(np.int64).view(np.uint64)
    got_phash = landed["phash_computed"].to_numpy().astype(np.uint64)
    if (want_phash != got_phash).any():
        fails.append(f"check4: {int((want_phash != got_phash).sum())} landed pHash values differ")
    want_cap = g["caption"].reindex(ids).to_numpy()
    if (want_cap != landed["caption"].to_numpy()).any():
        fails.append("check4: landed caption differs from the corpus")
    landed_ids = set(ids.tolist())
    if landed_ids != expected_ids or len(landed_ids) != len(ids):
        fails.append(
            f"check4: {len(ids)} landed rows for {len(expected_ids)} emitted images"
        )
    return fails


def check_digests(got: dict, reference: dict, label: str = "reference") -> list[str]:
    return [
        f"check5: {k} digest differs from the {label}"
        for k in DIGEST_KEYS
        if got[k] != reference[k]
    ]
