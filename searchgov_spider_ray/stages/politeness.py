"""Politeness + robots enforcement.

Reference semantics: 1 concurrent request per domain with a 1 s delay
(CONCURRENT_REQUESTS_PER_DOMAIN=1, DOWNLOAD_DELAY=1,
/root/reference/search_gov_crawler/search_gov_spiders/settings.py:44-47)
and RobotsTxtMiddleware per-domain rule cache (settings.py:31).

In the BSP frontier model (SURVEY.md §3.1) politeness becomes a
per-round, per-domain fetch BUDGET: ``max(1, floor(round_seconds /
crawl_delay))`` URLs per domain per round, granted in (depth, seq)
order; ungranted rows carry over with their (depth, seq) unchanged.
Hot domains therefore serialize across rounds — that is the reference
semantics, not a bug (SURVEY.md §4 skew row). The same
:class:`searchgov_spider_ray.pipelines.simulator.RobotsRules` model
backs the golden simulator, so compliance is checkable exactly.

Pieces:
* ``PolitenessSelect`` — the per-domain ``groupby(domain).map_groups``
  grant kernel: the reference the threshold kernels below are tested
  against.
* per-domain grant thresholds (per-block top-B candidates, a driver or
  exchange merge, the ``TagGrant`` tag pass) — what the crawl runs.
* ``robots_reason`` — vectorized robots disallow check used during
  admission (denied URLs never enter the frontier or the seen set —
  pinned in simulator.py).

Budget replay on resume: grants are per-round functions of the robots
table and the checkpointed frontier; the lineage manifest records
spent-per-domain per round, so a resumed run re-derives clocks without
bursting a domain (SURVEY.md §7.5.3).
"""

from __future__ import annotations


import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.urlnorm import string_array
from ..pipelines.simulator import DEFAULT_CRAWL_DELAY, RobotsRules

# scheme://netloc then path (up to query/fragment) in one RE2 pass
_NETLOC_PATH_OF = r"^[a-z][a-z0-9+.-]*://(?P<netloc>[^/?#]*)(?P<path>[^?#]*)"


class PolitenessSelect:
    """map_groups kernel over ``groupby("domain")``: sort the group by
    (depth, seq), grant the first ``budget`` rows. Construct per round
    with the (small, broadcast) robots rules."""

    def __init__(self, robots: RobotsRules, round_seconds: float):
        self.robots = robots
        self.round_seconds = round_seconds

    def __call__(self, group: pd.DataFrame) -> pd.DataFrame:
        domain = group["domain"].iloc[0]
        budget = self.robots.budget(domain, self.round_seconds)
        group = group.sort_values(["depth", "seq"], kind="mergesort")
        granted = np.zeros(len(group), dtype=bool)
        granted[:budget] = True
        group = group.assign(granted=granted)
        return group


# --- politeness as a per-domain threshold (per-block top-B candidates) ---
#
# Grant rule per domain: sort by (depth, seq), grant the first
# B = budget(domain) rows. Because (depth, seq) is unique per frontier
# row, "granted" ⇔ pack(depth, seq) ≤ the B-th smallest pack within
# the domain. B is SMALL (≈ round_seconds / crawl_delay), so each
# block only needs to surface its per-domain B smallest packs, and
# merging those candidate lists gives the exact threshold; a tag pass
# then marks grants. Up to ``politeness_driver_rows`` frontier rows the
# driver merges the lists (memory O(Σ_blocks Σ_domains min(B, rows))
# ≤ frontier rows), on either executor. Above it the Dataset executor
# merges them in a pruned groupby(partition) exchange
# (prune_grant_candidates → partition_grant_thresholds), which moves
# only the candidates, never the frontier.

_GRANT_SEQ_BITS = 56


def pack_depth_seq(depth: np.ndarray, seq: np.ndarray) -> np.ndarray:
    """uint64 pack of (depth, seq): depth(8b) | seq(56b) — unsigned and
    collision-free (depth ≤ 250 by validation, seq < 2^56 guarded)."""
    d = depth.astype(np.uint64)
    s = seq.astype(np.uint64)
    if len(d) and (int(d.max()) >= 256 or int(s.max()) >= (1 << _GRANT_SEQ_BITS)):
        raise ValueError("grant key field overflow — widen pack_depth_seq")
    return (d << np.uint64(_GRANT_SEQ_BITS)) | s


def block_grant_counts():
    """Block-ref kernel: per-domain row count — the CHEAP first pass of
    the two-phase driver merge. A domain whose global count is under
    its budget grants everything (threshold = UINT64_MAX) without ever
    shipping a candidate pack, so with generous budgets (long rounds)
    the driver merge handles O(domains) counts instead of O(frontier)
    packs; only over-budget domains pay the candidate pass."""

    def kernel(t) -> dict[str, int]:
        if len(t) == 0:
            return {}
        import pyarrow.compute as _pc

        vc = _pc.value_counts(t["domain"].combine_chunks())
        return {str(x["values"]): int(x["counts"]) for x in vc.to_pylist()}

    return kernel


def block_grant_candidates(
    robots: RobotsRules, round_seconds: float, only_domains: np.ndarray | None = None
):
    """Block-ref kernel: per domain in the block, the min(B, count)
    smallest (depth, seq) packs — the only rows that can influence the
    domain's global grant threshold. ``only_domains`` (a numpy object
    array) restricts the scan to the over-budget domains found by the
    count pass (vectorized membership, no per-row Python)."""

    def kernel(t) -> dict[str, np.ndarray]:
        if len(t) == 0:
            return {"domain": np.array([], dtype=object), "pack": np.array([], dtype=np.uint64)}
        dom = np.asarray(t["domain"].to_pylist(), dtype=object)
        pack = pack_depth_seq(t["depth"].to_numpy(), t["seq"].to_numpy())
        if only_domains is not None:
            sel = np.isin(dom, only_domains)
            if not sel.any():
                return {"domain": np.array([], dtype=object), "pack": np.array([], dtype=np.uint64)}
            dom, pack = dom[sel], pack[sel]
        order = np.lexsort((pack, pd.util.hash_array(dom, categorize=True)))
        # hash order groups equal domains; runs detected on the sorted values
        dom_s, pack_s = dom[order], pack[order]
        new = np.concatenate(([True], dom_s[1:] != dom_s[:-1]))
        seg = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        budgets = np.fromiter(
            (robots.budget(d, round_seconds) for d in dom_s[starts]),
            dtype=np.int64,
            count=len(starts),
        )
        rank = np.arange(len(dom_s), dtype=np.int64) - starts[seg]
        keep = rank < budgets[seg]
        return {"domain": dom_s[keep], "pack": pack_s[keep]}

    return kernel


def merge_grant_thresholds(
    parts: list[dict], robots: RobotsRules, round_seconds: float
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-block candidate lists into one exact grant threshold
    per domain: the B-th smallest pack (UINT64_MAX when the domain has
    fewer than B rows — grant everything). Returns (sorted domain
    array, threshold array) for searchsorted lookup in the tag pass."""
    doms = np.concatenate([p["domain"] for p in parts]) if parts else np.array([], dtype=object)
    packs = (
        np.concatenate([p["pack"] for p in parts]) if parts else np.array([], dtype=np.uint64)
    )
    if len(doms) == 0:
        return np.array([], dtype=object), np.array([], dtype=np.uint64)
    order = np.lexsort((packs, doms.astype("U")))
    dom_s, pack_s = doms[order], packs[order]
    new = np.concatenate(([True], dom_s[1:] != dom_s[:-1]))
    seg = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, len(dom_s)))
    uniq = dom_s[starts]
    budgets = np.fromiter(
        (robots.budget(d, round_seconds) for d in uniq), dtype=np.int64, count=len(uniq)
    )
    thr = np.full(len(uniq), np.iinfo(np.uint64).max, dtype=np.uint64)
    # cap at counts >= budgets, not >: per-block pruning emits exactly B
    # candidates when a block alone holds more than B rows of a domain,
    # so merged counts == B is AMBIGUOUS between "exactly B rows total"
    # and "truncated". Capping is correct in both: the B-th smallest
    # candidate is the B-th smallest row globally (pruned ⊇ global
    # top-B), and when the domain has exactly B rows that threshold is
    # its max pack — granting all B, identical to the uncapped MAX.
    capped = counts >= budgets
    thr_idx = starts + np.minimum(budgets, counts) - 1
    thr[capped] = pack_s[thr_idx[capped]]
    return uniq.astype("U"), thr


class TagGrant:
    """map_batches tag pass: granted ⇔ pack(depth, seq) ≤ the domain's
    broadcast threshold (guarded searchsorted lookup). The frontier-loop
    invariant says every batch domain contributed candidates, but the
    lookup is defensive anyway: a domain absent from the threshold table
    is DENIED (granted=False) rather than crashing on idx==len(thr) or
    silently reading a neighbouring domain's threshold."""

    def __init__(self, thr_ref):
        # an ObjectRef broadcast (Dataset path) or the raw (domains,
        # thresholds) tuple (micro path: driver-local, no plasma copy)
        self.thr_ref = thr_ref
        self._tab = None

    def __call__(self, t):
        import pyarrow as pa
        import ray

        if self._tab is None:
            r = self.thr_ref
            self._tab = ray.get(r) if isinstance(r, ray.ObjectRef) else r
        dom_sorted, thr = self._tab
        if len(t) == 0:
            return t.append_column("granted", pa.array([], type=pa.bool_()))
        dom = np.asarray(t["domain"].to_pylist(), dtype="U")
        pack = pack_depth_seq(t["depth"].to_numpy(), t["seq"].to_numpy())
        if len(dom_sorted) == 0:
            granted = np.zeros(len(dom), dtype=bool)
        else:
            idx = np.minimum(np.searchsorted(dom_sorted, dom), len(dom_sorted) - 1)
            granted = (dom_sorted[idx] == dom) & (pack <= thr[idx])
        return t.append_column("granted", pa.array(granted))


def prune_grant_candidates(robots: RobotsRules, round_seconds: float):
    """map_batches kernel for the PRUNED wide politeness exchange: emit
    only each batch's per-domain min(B, count) smallest packs as narrow
    (domain, pack) rows. The union over batches contains every row that
    can set a domain's global threshold, so the shuffle moves at most
    B × batches rows per domain — never the frontier. A hot domain with
    10^9 frontier rows contributes ≤ B rows per batch (skew bounded at
    the source)."""
    kernel = block_grant_candidates(robots, round_seconds)

    def prune(t: pa.Table) -> pa.Table:
        d = kernel(t)
        return pa.table(
            {
                "domain": pa.array(d["domain"], type=pa.string()),
                "pack": pa.array(d["pack"], type=pa.uint64()),
            }
        )

    return prune


def partition_grant_thresholds(robots: RobotsRules, round_seconds: float):
    """map_groups kernel over one coarse partition of PRUNED candidate
    rows: exact per-domain grant threshold (B-th smallest pack, or
    UINT64_MAX when under budget) — merge_grant_thresholds semantics,
    one vectorized call per partition."""

    def kernel(part: pa.Table) -> pa.Table:
        d = {
            "domain": np.asarray(part["domain"].to_pylist(), dtype=object),
            "pack": part["pack"].to_numpy(zero_copy_only=False).astype(np.uint64),
        }
        uniq, thr = merge_grant_thresholds([d], robots, round_seconds)
        out = pa.table(
            {
                "domain": pa.array(uniq.astype(object), type=pa.string()),
                "thr": pa.array(thr, type=pa.uint64()),
            }
        )
        return out.replace_schema_metadata(None)

    return kernel


def politeness_partition_key(domains, n_parts: int) -> np.ndarray:
    """int32 coarse-partition key per domain string (vectorized cython
    hash; each domain's rows land wholly in one partition)."""
    arr = np.asarray(domains, dtype=object)
    h = pd.util.hash_array(arr, categorize=True, hash_key="0123456789123456")
    return (h % np.uint64(n_parts)).astype(np.int32)


def robots_reason(urls, robots: RobotsRules) -> np.ndarray:
    """Boolean mask: True where robots DISALLOWS the URL.

    ``urls`` is an Arrow string array or any sequence of str. One RE2
    pass extracts netloc+path for the whole batch (``host_of`` /
    ``path_of`` on canonical URLs — parity pinned by the simulator
    goldens); only the batch's hosts that have rules are then checked,
    each with one ``starts_with`` pass per rule over its own rows."""
    urls = pc.fill_null(string_array(urls), "")
    denied = np.zeros(len(urls), dtype=bool)
    ruled = [h for h, rules in robots.disallow.items() if rules]
    if not ruled or len(urls) == 0:
        return denied
    parts = pc.extract_regex(urls, _NETLOC_PATH_OF)
    hosts = pc.fill_null(pc.struct_field(parts, "netloc"), "")
    # host_of parity: strip userinfo/port, lowercase, strip trailing
    # dots — Python only on the rare netloc that needs it
    odd = pc.match_substring_regex(hosts, r"[@:A-Z]|\.$|[^\x00-\x7f]")
    if pc.any(odd).as_py():
        fixed = [
            h.rsplit("@", 1)[-1].split(":", 1)[0].lower().rstrip(".")
            for h in hosts.filter(odd).to_pylist()
        ]
        hosts = pc.replace_with_mask(hosts, odd, pa.array(fixed, type=pa.string()))
    rows = np.flatnonzero(pc.is_in(hosts, value_set=pa.array(ruled)).to_numpy(zero_copy_only=False))
    if not len(rows):
        return denied
    take = pa.array(rows, type=pa.int64())
    enc = pc.dictionary_encode(hosts.take(take))
    code = enc.indices.to_numpy(zero_copy_only=False)
    # path_of parity: an empty path reads as "/"
    paths = pc.fill_null(pc.struct_field(parts, "path"), "").take(take)
    paths = pc.if_else(pc.equal(paths, ""), "/", paths)
    for j, host in enumerate(enc.dictionary.to_pylist()):
        sel = np.flatnonzero(code == j)
        sub = paths.take(pa.array(sel, type=pa.int64()))
        bad = np.zeros(len(sel), dtype=bool)
        for prefix in robots.disallow[host]:
            bad |= pc.starts_with(sub, prefix).to_numpy(zero_copy_only=False)
        denied[rows[sel]] = bad
    return denied


__all__ = [
    "PolitenessSelect",
    "politeness_partition_key",
    "robots_reason",
    "RobotsRules",
    "DEFAULT_CRAWL_DELAY",
]
