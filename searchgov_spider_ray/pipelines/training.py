"""Training-data curation operators over Ray Datasets: MinHash-LSH /
SimHash near-dup, n-gram Jaccard verification, duplicate clusters,
sampling, deterministic shuffling, language ID and sequence packing.

These are the large-scale additions beyond the reference's operator
set (the reference dedups exactly and only — SURVEY.md §2.4); they
follow the public constructions (Broder MinHash, Charikar SimHash,
LSH banding per Mining of Massive Datasets ch.3) implemented
Ray-Data-first: vectorized per-batch kernels, explicit groupby shuffles
for candidate buckets, broadcast (ray.put) for small sides.

Scale notes: every stage has a narrow path (single-block vectorized
kernel / broadcast lookup — wins below ``WIDE_DOC_ROWS`` because it
pays no exchange) and a wide path (coarse hash-partitioned kernels +
a hash-partitioned verify join — bounded per-task memory at any
scale). Dispatch is a row-count threshold, exactly like the crawl
frontier's ``wide_round_rows`` (pipelines/frontier.py); forced-wide
parity is pinned in tests/test_training.py.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..functions.simdedup import (
    MinHasher,
    containment,
    hamming64,
    jaccard,
    shingle_hash_sets,
    simhash_batch,
)
from ..functions.textstats import fingerprint

# --------------------------------------------------------------------------
# MinHash-LSH near-dup
# --------------------------------------------------------------------------


class _MinHashBands:
    """Per-batch: doc → (band_id, band_key, doc_id) exploded rows."""

    def __init__(self, num_perm: int, bands: int, shingle_k: int, text_col: str, id_col: str):
        self.mh = MinHasher(num_perm=num_perm)
        self.bands = bands
        self.k = shingle_k
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pylist()
        ids = batch[self.id_col].to_pylist()
        sets = shingle_hash_sets(texts, self.k)
        n = len(ids)
        keys = np.empty((n, self.bands), dtype=np.uint64)
        for i in range(n):
            keys[i] = self.mh.band_keys(self.mh.signature(sets[i]), self.bands)
        return pa.table(
            {
                "band_id": pa.array(np.tile(np.arange(self.bands, dtype=np.int32), n)),
                "band_key": pa.array(keys.reshape(-1)),
                "doc_id": pa.array(np.repeat(np.asarray(ids), self.bands)),
            }
        )


def _pairs_from_bands(t: pa.Table) -> pa.Table:
    """All candidate pairs from the full band table in one vectorized
    pass: lexsort by (band_id, band_key), detect bucket runs, emit
    upper-triangle pairs per run (star-capped at 200 docs/bucket), then
    dedupe pairs across bands with one np.unique.

    Runs over the whole band table as a single block (repartition(1)
    upstream): band rows are 20 bytes each, so this holds to ~1e8 docs
    × bands per job. Past that, switch to the bucket-sharded
    ``groupby(band_id, band_key).map_groups(_bucket_pairs)`` path —
    same semantics, pays the exchange."""
    empty = pa.table({"doc_a": pa.array([], type=pa.int64()), "doc_b": pa.array([], type=pa.int64())})
    if len(t) == 0:
        return empty
    bid = t["band_id"].to_numpy()
    key = t["band_key"].to_numpy()
    doc = t["doc_id"].to_numpy(zero_copy_only=False)
    order = np.lexsort((doc, key, bid))
    bid, key, doc = bid[order], key[order], doc[order]
    new = np.empty(len(bid), dtype=bool)
    new[0] = True
    new[1:] = (bid[1:] != bid[:-1]) | (key[1:] != key[:-1])
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], len(bid))
    a_parts, b_parts = [], []
    for s, e in zip(starts, ends):
        n = e - s
        if n < 2:
            continue
        ids = doc[s:e]
        if n > 200:
            # degenerate bucket: star to the min id; connected
            # components downstream still link the cluster
            a_parts.append(np.full(n - 1, ids[0]))
            b_parts.append(ids[1:])
        else:
            iu, ju = np.triu_indices(n, 1)
            a_parts.append(ids[iu])
            b_parts.append(ids[ju])
    if not a_parts:
        return empty
    pairs = np.unique(np.stack([np.concatenate(a_parts), np.concatenate(b_parts)], axis=1), axis=0)
    return pa.table(
        {"doc_a": pa.array(pairs[:, 0], type=pa.int64()), "doc_b": pa.array(pairs[:, 1], type=pa.int64())}
    )


# ---- wide-path machinery: coarse hash partitioning ----------------------
#
# The wide paths never run a per-bucket or per-pair Python call and
# never hold the whole table in one task. Instead rows are hashed into
# ``n_parts`` COARSE partitions (a few per cluster core) such that
# every LSH bucket / every duplicate pair lands wholly inside one
# partition, then the same vectorized run-detection kernels that serve
# the narrow path run once per partition via groupby(part).map_groups
# — one Python call per PARTITION, not per bucket.

WIDE_DOC_ROWS = 200_000  # docs above this: partitioned kernels + join
_PART_SALT = np.uint64(0x9E3779B97F4A7C15)


def _n_parts_default() -> int:
    return 64


def _add_bucket_part(t: pa.Table, n_parts: int) -> pa.Table:
    """Partition key that is a pure function of (band_id, band_key), so
    each LSH bucket is complete within one partition."""
    key = t["band_key"].to_numpy().astype(np.uint64)
    bid = t["band_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    part = ((key ^ (bid * _PART_SALT)) % np.uint64(n_parts)).astype(np.int32)
    return t.append_column("part", pa.array(part))


def _pair_part_of(a: np.ndarray, b: np.ndarray, n_parts: int) -> np.ndarray:
    """Partition key that is a pure function of the (a, b) pair, so all
    cross-band copies of a pair land in one partition (exact distinct)."""
    from ..functions.simdedup import _avalanche

    mixed = _avalanche(a.astype(np.uint64) * _PART_SALT + b.astype(np.uint64))
    return (mixed % np.uint64(n_parts)).astype(np.int32)


def _distinct_pairs_wide(
    pairs: rd.Dataset, cols: list[str], n_parts: int, keep: list[str] | None = None
) -> rd.Dataset:
    """Exact distinct over pair rows at any scale: coarse-partition by
    pair hash (all copies of a pair share a partition), then one
    vectorized drop_duplicates per partition. ``cols`` is the dedup key;
    ``keep`` names carried-along columns excluded from the key (first
    occurrence wins), for payloads like float scores that may differ by
    an ulp between copies of the same logical pair."""
    keep = keep or []

    def add_part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["part"] = _pair_part_of(
            df[cols[0]].to_numpy(np.int64), df[cols[1]].to_numpy(np.int64), n_parts
        )
        return df

    def dedup(group: pd.DataFrame) -> pd.DataFrame:
        return group.drop_duplicates(cols)[cols + keep]

    return pairs.map_batches(add_part, batch_format="pandas").groupby("part").map_groups(
        dedup, batch_format="pandas"
    )


def _derive_bands(num_perm: int, threshold: float) -> int:
    """Pick the band count whose LSH s-curve threshold (1/b)^(1/r),
    r = num_perm/b, sits safely BELOW the verification threshold, so
    pairs at the threshold are caught with high probability (missed
    candidates are silent false negatives; the exact-Jaccard verify
    step removes any false positives for free)."""
    best = num_perm  # r=1 catches everything
    for b in (2, 4, 8, 16, 32, 64, 128, 256):
        if b > num_perm or num_perm % b:
            continue
        r = num_perm // b
        if (1.0 / b) ** (1.0 / r) <= 0.9 * threshold:
            return b
    return best


def _explode_pair_sides(t: pa.Table) -> pa.Table:
    """Candidate pairs → two side rows each, keyed by the member doc_id
    (the join key for the hash-partitioned text attach)."""
    a = pc.cast(t["doc_a"], pa.int64()).to_numpy(zero_copy_only=False)
    b = pc.cast(t["doc_b"], pa.int64()).to_numpy(zero_copy_only=False)
    n = len(a)
    return pa.table(
        {
            "doc_id": pa.array(np.concatenate([a, b]), type=pa.int64()),
            "doc_a": pa.array(np.concatenate([a, a]), type=pa.int64()),
            "doc_b": pa.array(np.concatenate([b, b]), type=pa.int64()),
            "side": pa.array(
                np.concatenate([np.zeros(n, np.int8), np.ones(n, np.int8)]), type=pa.int8()
            ),
            "text": pa.nulls(2 * n, type=pa.string()),
        }
    )


def _attach_texts_group(group: pd.DataFrame) -> pd.DataFrame:
    """One hash partition of (doc rows ∪ pair-side rows): attach each
    side row its member's text via a partition-local dict."""
    is_doc = group["side"].isna()
    docs = group[is_doc]
    sides = group[~is_doc]
    if sides.empty:
        return pd.DataFrame(
            {
                "doc_a": pd.Series([], dtype="int64"),
                "doc_b": pd.Series([], dtype="int64"),
                "side": pd.Series([], dtype="int8"),
                "text": pd.Series([], dtype="object"),
            }
        )
    m = dict(zip(docs["doc_id"], docs["text"]))
    return pd.DataFrame(
        {
            "doc_a": sides["doc_a"].astype("int64"),
            "doc_b": sides["doc_b"].astype("int64"),
            "side": sides["side"].astype("int8"),
            "text": sides["doc_id"].map(m).fillna(""),
        }
    )


def _verified_pairs_wide(
    uniq: rd.Dataset,
    docs: rd.Dataset,
    id_col: str,
    text_col: str,
    k: int,
    threshold: float,
    n_parts: int,
    metric: str = "jaccard",
) -> rd.Dataset:
    """Hash-partitioned candidate ⨝ docs verify (the 100-TB path): no
    driver-side text materialization, no broadcast. Two exchanges —
    partition by member doc_id to attach texts, then by pair to bring
    both sides together — each followed by a vectorized per-partition
    kernel."""

    def doc_rows(t: pa.Table) -> pa.Table:
        ids = pc.cast(t[id_col], pa.int64())
        n = len(t)
        return pa.table(
            {
                "doc_id": ids,
                "doc_a": pa.nulls(n, type=pa.int64()),
                "doc_b": pa.nulls(n, type=pa.int64()),
                "side": pa.nulls(n, type=pa.int8()),
                "text": pc.cast(t[text_col], pa.string()),
            }
        )

    def add_doc_part(df: pd.DataFrame) -> pd.DataFrame:
        from ..functions.simdedup import hash_part

        df = df.copy()
        df["part"] = hash_part(df["doc_id"].to_numpy(np.int64), n_parts)
        return df

    tagged = docs.map_batches(doc_rows, batch_format="pyarrow").union(
        uniq.map_batches(_explode_pair_sides, batch_format="pyarrow")
    )
    sided = (
        tagged.map_batches(add_doc_part, batch_format="pandas")
        .groupby("part")
        .map_groups(_attach_texts_group, batch_format="pandas")
    )

    def add_pair_part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["part"] = _pair_part_of(
            df["doc_a"].to_numpy(np.int64), df["doc_b"].to_numpy(np.int64), n_parts
        )
        return df

    score_fn = containment if metric == "containment" else jaccard

    def verify_group(group: pd.DataFrame) -> pd.DataFrame:
        a_rows = group[group["side"] == 0]
        b_rows = group[group["side"] == 1]
        merged = a_rows.merge(b_rows, on=["doc_a", "doc_b"], suffixes=("_a", "_b"))
        if merged.empty:
            return pd.DataFrame(
                {
                    "doc_a": pd.Series([], dtype="int64"),
                    "doc_b": pd.Series([], dtype="int64"),
                    metric: pd.Series([], dtype="float64"),
                }
            )
        a_sets = shingle_hash_sets(merged["text_a"].tolist(), k)
        b_sets = shingle_hash_sets(merged["text_b"].tolist(), k)
        jac = np.fromiter(
            (score_fn(sa, sb) for sa, sb in zip(a_sets, b_sets)),
            dtype=np.float64,
            count=len(merged),
        )
        out = pd.DataFrame(
            {
                "doc_a": merged["doc_a"].astype("int64"),
                "doc_b": merged["doc_b"].astype("int64"),
                metric: jac,
            }
        )
        return out[out[metric] >= threshold]

    return (
        sided.map_batches(add_pair_part, batch_format="pandas")
        .groupby("part")
        .map_groups(verify_group, batch_format="pandas")
    )


def minhash_lsh_pairs(
    ds: rd.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_perm: int = 128,
    bands: int | None = None,
    shingle_k: int = 5,
    threshold: float = 0.8,
    texts_ref=None,
    wide_doc_rows: int = WIDE_DOC_ROWS,
    n_parts: int | None = None,
    metric: str = "jaccard",
) -> rd.Dataset:
    """MinHash → LSH band buckets → candidate pairs → exact n-gram
    verification ≥ threshold. ``metric`` picks the verify score:
    symmetric ``"jaccard"`` (default) or asymmetric ``"containment"``
    (max(|∩|/|a|, |∩|/|b|) — catches subset duplication; note the LSH
    banding itself is Jaccard-tuned, so high-containment/low-Jaccard
    pairs surface only when banding catches them, the standard
    MinHash-LSH recall caveat). ``bands=None`` derives the band count
    from the threshold (see ``_derive_bands``).

    Narrow/wide dispatch on the doc count (``wide_doc_rows``, same
    pattern as frontier.py's ``wide_round_rows``): below it, pair
    generation runs as one single-block vectorized kernel and
    verification reads texts from a broadcast dict (``texts_ref``
    optionally pre-supplied as a ``ray.put`` of {id: text}); above it,
    pairs come from coarse hash-partitioned bucket kernels and
    verification is a hash-partitioned join against the doc table —
    nothing driver-side, nothing broadcast. Forced-wide parity is
    pinned in tests/test_training.py."""
    if bands is None:
        bands = _derive_bands(num_perm, threshold)
    docs = ds.select_columns([id_col, text_col])
    n_docs = docs.count()
    wide = n_docs > wide_doc_rows
    n_parts = n_parts or _n_parts_default()

    bands_ds = ds.map_batches(
        _MinHashBands(num_perm, bands, shingle_k, text_col, id_col),
        batch_format="pyarrow",
    )
    if wide:
        uniq = _distinct_pairs_wide(
            bands_ds.map_batches(
                lambda t: _add_bucket_part(t, n_parts), batch_format="pyarrow"
            )
            .groupby("part")
            .map_groups(_pairs_from_bands, batch_format="pyarrow"),
            ["doc_a", "doc_b"],
            n_parts,
        )
        return _verified_pairs_wide(
            uniq, docs, id_col, text_col, shingle_k, threshold, n_parts, metric
        )

    # narrow: one vectorized pass generates + dedupes candidate pairs
    uniq = bands_ds.repartition(1).map_batches(
        _pairs_from_bands, batch_format="pyarrow", batch_size=None
    )
    if texts_ref is None:
        proj = docs.to_pandas()
        texts_ref = ray.put(dict(zip(proj[id_col], proj[text_col])))

    k = shingle_k

    score_fn = containment if metric == "containment" else jaccard

    class _Verify:
        def __init__(self, ref):
            self.ref = ref
            self._texts = None

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            if self._texts is None:
                self._texts = ray.get(self.ref)
            a_sets = shingle_hash_sets([self._texts.get(a, "") for a in batch["doc_a"]], k)
            b_sets = shingle_hash_sets([self._texts.get(b, "") for b in batch["doc_b"]], k)
            jac = np.fromiter(
                (score_fn(sa, sb) for sa, sb in zip(a_sets, b_sets)),
                dtype=np.float64,
                count=len(batch),
            )
            batch[metric] = jac
            return batch[batch[metric] >= threshold]

    return uniq.map_batches(_Verify(texts_ref), batch_format="pandas")


# --------------------------------------------------------------------------
# SimHash near-dup
# --------------------------------------------------------------------------


def add_simhash(ds: rd.Dataset, id_col: str = "doc_id", text_col: str = "text", k: int = 3) -> rd.Dataset:
    def kernel(batch: pa.Table) -> pa.Table:
        out = simhash_batch(batch[text_col].to_pylist(), k)
        return batch.select([id_col]).append_column("simhash", pa.array(out, type=pa.uint64()))

    return ds.map_batches(kernel, batch_format="pyarrow")


def _simhash_pairs_kernel(t: pa.Table, max_hamming: int) -> pa.Table:
    """Vectorized bucket-run pair generation + Hamming verify +
    cross-band pair dedup over one table of band rows (the whole round
    in the narrow path, one coarse hash partition in the wide path —
    buckets are complete within a partition by construction)."""
    empty = pa.table(
        {
            "doc_a": pa.array([], type=pa.int64()),
            "doc_b": pa.array([], type=pa.int64()),
            "hamming": pa.array([], type=pa.int64()),
        }
    )
    if len(t) == 0:
        return empty
    bid = t["band_id"].to_numpy()
    key = t["band_key"].to_numpy()
    doc = t["doc_id"].to_numpy(zero_copy_only=False)
    hs = t["simhash"].to_numpy().astype(np.uint64)
    order = np.lexsort((doc, key, bid))
    bid, key, doc, hs = bid[order], key[order], doc[order], hs[order]
    new = np.empty(len(bid), dtype=bool)
    new[0] = True
    new[1:] = (bid[1:] != bid[:-1]) | (key[1:] != key[:-1])
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], len(bid))
    rows = []
    for s, e in zip(starts, ends):
        n = e - s
        if n < 2:
            continue
        if n > 200:
            # degenerate bucket (201+ hashes sharing a 16-bit band —
            # identical logos / solid-color templates): all-pairs is
            # O(n²), so verify members against the min-id hub instead.
            # True near-dup clusters stay CONNECTED through the hub for
            # downstream connected components; the direct (a, b) pair
            # between two non-hub members is not emitted (documented
            # kernel↔oracle divergence — the SQL replay has no cap and
            # the fixtures stay under it).
            d = hamming64(np.full(n - 1, hs[s], dtype=np.uint64), hs[s + 1 : e])
            ok = d <= max_hamming
            if ok.any():
                rows.append(
                    np.stack(
                        [np.full(int(ok.sum()), doc[s]), doc[s + 1 : e][ok], d[ok]], axis=1
                    ).astype(np.int64)
                )
            continue
        iu, ju = np.triu_indices(n, 1)
        d = hamming64(hs[s:e][iu], hs[s:e][ju])
        ok = d <= max_hamming
        if ok.any():
            rows.append(
                np.stack([doc[s:e][iu[ok]], doc[s:e][ju[ok]], d[ok]], axis=1).astype(np.int64)
            )
    if not rows:
        return empty
    uniq = np.unique(np.concatenate(rows), axis=0)
    return pa.table(
        {
            "doc_a": pa.array(uniq[:, 0], type=pa.int64()),
            "doc_b": pa.array(uniq[:, 1], type=pa.int64()),
            "hamming": pa.array(uniq[:, 2], type=pa.int64()),
        }
    )


def hash64_pairs(
    ds: rd.Dataset,
    id_col: str = "doc_id",
    hash_col: str = "simhash",
    max_hamming: int = 3,
    wide_doc_rows: int = WIDE_DOC_ROWS,
    n_parts: int | None = None,
    n_rows: int | None = None,
) -> rd.Dataset:
    """Near-dup pairs over ANY 64-bit hash column (SimHash, image
    pHash, audio fingerprint): band into 4×16-bit chunks (pigeonhole:
    any pair within Hamming ≤ 3 shares ≥1 exact chunk), bucket-group,
    verify Hamming distance. ``id_col`` must be int64 (callers with
    string ids hash them first and join names back). Narrow/wide
    dispatch as in ``minhash_lsh_pairs``: one single-block kernel below
    ``wide_doc_rows`` rows, coarse hash-partitioned bucket kernels +
    partitioned pair distinct above it. ``n_rows``: pass the known row
    count when ``ds`` already has map stages applied — ``.count()`` on
    a mapped dataset executes the whole lineage just to count."""
    n_docs = n_rows if n_rows is not None else ds.count()
    wide = n_docs > wide_doc_rows
    n_parts = n_parts or _n_parts_default()

    def explode(batch: pa.Table) -> pa.Table:
        h = batch[hash_col].to_numpy().astype(np.uint64)
        ids = batch[id_col].to_pylist()
        rows_band, rows_key, rows_id, rows_hash = [], [], [], []
        for b in range(4):
            chunk = (h >> np.uint64(16 * b)) & np.uint64(0xFFFF)
            rows_band.extend([b] * len(h))
            rows_key.extend(int(c) for c in chunk)
            rows_id.extend(ids)
            rows_hash.extend(int(x) for x in h)
        return pa.table(
            {
                "band_id": pa.array(rows_band, type=pa.int32()),
                "band_key": pa.array(rows_key, type=pa.int32()),
                "doc_id": pa.array(rows_id),
                "simhash": pa.array(np.asarray(rows_hash, dtype=np.uint64)),
            }
        )

    band_rows = ds.map_batches(explode, batch_format="pyarrow")
    if wide:
        pairs = (
            band_rows.map_batches(lambda t: _add_bucket_part(t, n_parts), batch_format="pyarrow")
            .groupby("part")
            .map_groups(
                lambda t, _m=max_hamming: _simhash_pairs_kernel(t, _m), batch_format="pyarrow"
            )
        )
        return _distinct_pairs_wide(pairs, ["doc_a", "doc_b", "hamming"], n_parts)
    return band_rows.repartition(1).map_batches(
        lambda t, _m=max_hamming: _simhash_pairs_kernel(t, _m),
        batch_format="pyarrow",
        batch_size=None,
    )


def simhash_pairs(
    ds: rd.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_hamming: int = 3,
    wide_doc_rows: int = WIDE_DOC_ROWS,
    n_parts: int | None = None,
) -> rd.Dataset:
    """SimHash text near-dup: hash docs then run the generic 64-bit
    banded pair search (``hash64_pairs``)."""
    n_docs = ds.count()
    sh = add_simhash(ds, id_col, text_col)
    return hash64_pairs(
        sh,
        id_col=id_col,
        hash_col="simhash",
        max_hamming=max_hamming,
        wide_doc_rows=wide_doc_rows,
        n_parts=n_parts,
        n_rows=n_docs,
    )


# --------------------------------------------------------------------------
# duplicate-cluster assignment (connected components over near-dup pairs)
# --------------------------------------------------------------------------


def _cc_kernel(t: pa.Table) -> pa.Table:
    """Single-block connected components over one table of vertex rows
    (src, NULL dst) ∪ symmetric edge rows (src, dst): vectorized
    min-label propagation — ``np.minimum.at`` per sweep, O(E) a sweep,
    sweeps bounded by component diameter (near-dup clusters are
    near-cliques, so 2-3 sweeps in practice)."""
    # split edge rows from vertex rows in ARROW: to_numpy on a nullable
    # int64 column null-pads through float64, corrupting ids >= 2^53 —
    # filter on is_valid first so dst stays exact int64
    src = pc.cast(t["src"], pa.int64()).to_numpy(zero_copy_only=False)
    edge_tab = t.filter(pc.is_valid(t["dst"]))
    e_src = pc.cast(edge_tab["src"], pa.int64()).to_numpy(zero_copy_only=False)
    e_dst = pc.cast(edge_tab["dst"], pa.int64()).to_numpy(zero_copy_only=False)
    verts = np.unique(np.concatenate([src, e_dst]))
    labels = verts.copy()
    a = np.searchsorted(verts, e_src)
    b = np.searchsorted(verts, e_dst)
    while True:
        prev = labels.copy()
        m = np.minimum(labels[a], labels[b])
        np.minimum.at(labels, a, m)
        np.minimum.at(labels, b, m)
        # pointer halving: chase one level of indirection per sweep so
        # chains collapse in O(log diameter) sweeps
        labels = np.minimum(labels, labels[np.searchsorted(verts, labels)])
        if np.array_equal(labels, prev):
            break
    return pa.table(
        {
            "doc_id": pa.array(verts, type=pa.int64()),
            "cluster_id": pa.array(labels, type=pa.int64()),
        }
    )


def connected_components(
    pairs: rd.Dataset,
    vertices: rd.Dataset,
    id_col: str = "doc_id",
    wide_doc_rows: int = WIDE_DOC_ROWS,
    n_parts: int | None = None,
    max_iters: int = 64,
) -> rd.Dataset:
    """(doc_id, cluster_id) for every vertex, cluster_id = min doc_id
    reachable through the pair graph (singletons map to themselves).
    The dedup-cluster step that follows pair generation: pick one
    representative per cluster, drop the rest.

    Narrow/wide dispatch like the pair kernels: below ``wide_doc_rows``
    vertices, one single-block vectorized min-label kernel; above it,
    distributed hash-partitioned min-label message passing — per
    iteration, edge messages carry each endpoint's current label to the
    other endpoint (partition by src to attach, partition by dst to
    combine), converging in O(log diameter) iterations with per-round
    early exit. Nothing is materialized on the driver; each iteration
    is two coarse exchanges over (vertex, label) rows."""
    n_parts = n_parts or _n_parts_default()

    def vert_rows(t: pa.Table) -> pa.Table:
        ids = pc.cast(t[id_col], pa.int64())
        return pa.table({"src": ids, "dst": pa.nulls(len(t), type=pa.int64())})

    def edge_rows(t: pa.Table) -> pa.Table:
        a = pc.cast(t["doc_a"], pa.int64()).to_numpy(zero_copy_only=False)
        b = pc.cast(t["doc_b"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b]), type=pa.int64()),
                "dst": pa.array(np.concatenate([b, a]), type=pa.int64()),
            }
        )

    graph = vertices.map_batches(vert_rows, batch_format="pyarrow").union(
        pairs.map_batches(edge_rows, batch_format="pyarrow")
    )
    n_verts = vertices.count()
    if n_verts <= wide_doc_rows:
        return graph.repartition(1).map_batches(
            _cc_kernel, batch_format="pyarrow", batch_size=None
        )

    # ---- wide path: distributed min-label message passing ----
    def part_of(v: np.ndarray) -> np.ndarray:
        from ..functions.simdedup import hash_part

        return hash_part(v, n_parts)

    edges = pairs.map_batches(edge_rows, batch_format="pyarrow").materialize()
    labels = vertices.map_batches(
        lambda t: pa.table(
            {
                "v": pc.cast(t[id_col], pa.int64()),
                "lbl": pc.cast(t[id_col], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    def tag_label(t: pa.Table) -> pa.Table:
        v = t["v"].to_numpy()
        return pa.table(
            {
                "part": pa.array(part_of(v)),
                "v": t["v"],
                "lbl": t["lbl"],
                "dst": pa.nulls(len(t), type=pa.int64()),
            }
        )

    def tag_edge(t: pa.Table) -> pa.Table:
        s = t["src"].to_numpy()
        return pa.table(
            {
                "part": pa.array(part_of(s)),
                "v": t["src"],
                "lbl": pa.nulls(len(t), type=pa.int64()),
                "dst": t["dst"],
            }
        )

    def attach(group: pd.DataFrame) -> pd.DataFrame:
        lab = group[group["dst"].isna()]
        edg = group[~group["dst"].isna()]
        if edg.empty:
            return pd.DataFrame({"v": pd.Series([], dtype="int64"), "lbl": pd.Series([], dtype="int64")})
        m = dict(zip(lab["v"], lab["lbl"]))
        # an endpoint absent from ``vertices`` self-labels (narrow-path
        # parity: _cc_kernel unions edge endpoints into the vertex set)
        return pd.DataFrame(
            {
                "v": edg["dst"].astype("int64"),
                "lbl": edg["v"].map(m).fillna(edg["v"]).astype("int64"),
            }
        )

    def combine(group: pd.DataFrame) -> pd.DataFrame:
        incumbent = group[group["is_lab"] == 1].set_index("v")["lbl"]
        out = group.groupby("v", sort=False)["lbl"].min().reset_index()
        out["changed"] = (out["v"].map(incumbent) != out["lbl"]).astype("int8")
        return out

    for _ in range(max_iters):
        tagged = labels.map_batches(tag_label, batch_format="pyarrow").union(
            edges.map_batches(tag_edge, batch_format="pyarrow")
        )
        msgs = tagged.groupby("part").map_groups(attach, batch_format="pandas")

        def tag_v(t: pa.Table, is_lab: int) -> pa.Table:
            v = t["v"].to_numpy()
            return pa.table(
                {
                    "part": pa.array(part_of(v)),
                    "v": t["v"],
                    "lbl": t["lbl"],
                    "is_lab": pa.array(np.full(len(t), is_lab, dtype=np.int8)),
                }
            )

        merged = (
            labels.map_batches(lambda t: tag_v(t, 1), batch_format="pyarrow")
            .union(msgs.map_batches(lambda t: tag_v(t, 0), batch_format="pyarrow"))
            .groupby("part")
            .map_groups(combine, batch_format="pandas")
            .materialize()
        )
        n_changed = int(merged.sum("changed") or 0)  # tiny vectorized aggregate, no per-row Python
        labels = merged.drop_columns(["changed"]).materialize()
        if n_changed == 0:
            break

    return labels.map_batches(
        lambda t: pa.table(
            {"doc_id": t["v"], "cluster_id": pc.cast(t["lbl"], pa.int64())}
        ),
        batch_format="pyarrow",
    )


def sample_stratified(
    ds: rd.Dataset,
    strata_col: str = "lang",
    key_col: str = "doc_id",
    rate_micros: dict[str, int] | None = None,
    default_micros: int = 1_000_000,
) -> rd.Dataset:
    """Deterministic hash-stratified sampling: keep a row iff
    ``avalanche(key * SALT) % 1e6 < rate_micros[stratum]`` — the
    training-data rebalancing sampler. Embarrassingly parallel: no
    shuffle, no RNG state, the same rows survive under any
    partitioning, resume, or cluster size; rates are exact in
    expectation per stratum. SQL-replayable (pipelines/queries.py
    replays the avalanche bit-exactly)."""
    from ..functions.simdedup import _avalanche

    rates = rate_micros or {}

    def kernel(t: pa.Table) -> pa.Table:
        keys = pc.cast(t[key_col], pa.int64()).to_numpy(zero_copy_only=False)
        h = _avalanche(keys.astype(np.uint64) * _PART_SALT) % np.uint64(1_000_000)
        strata = t[strata_col].to_pandas().map(rates).fillna(default_micros).to_numpy(np.uint64)
        return t.filter(pa.array(h < strata))

    return ds.map_batches(kernel, batch_format="pyarrow")


_QUOTA_SALT = np.uint64(0xFF51AFD7ED558CCD)  # MurmurHash3 fmix64 constant


def quota_sample(
    ds: rd.Dataset,
    quotas: dict[str, int],
    group_col: str = "source",
    key_col: str = "doc_id",
    default_quota: int = 0,
) -> rd.Dataset:
    """Exact deterministic quota sampling — the data-mixing primitive:
    keep EXACTLY min(quota, |group|) rows per group, chosen as the
    smallest ``avalanche(key * SALT)`` hashes (ties by key). Unlike
    sample_stratified's rate thresholds (exact only in expectation),
    quotas are hit exactly — mixture weights for a training run.
    Distributed top-k-by-hash: each batch forwards at most
    groups-in-batch × max(quota) rows (vectorized sort + grouped head),
    the group-keyed groupby finishes the selection; no full-group
    materialization anywhere, and the result is invariant to
    partitioning/resume because the hash order is. SQL-replayable
    (avalanche + ROW_NUMBER; pipelines/queries.py)."""
    from ..functions.simdedup import _avalanche

    qmax = max([*quotas.values(), default_quota, 0])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        keys = df[key_col].to_numpy(np.int64)
        df = df.assign(_h=_avalanche(keys.astype(np.uint64) * _QUOTA_SALT))
        df = df.sort_values([group_col, "_h", key_col], kind="mergesort")
        return df.groupby(group_col, sort=False).head(qmax)[
            [key_col, group_col, "_h"]
        ]

    def final(g: pd.DataFrame) -> pd.DataFrame:
        q = int(quotas.get(g[group_col].iloc[0], default_quota))
        g = g.sort_values(["_h", key_col], kind="mergesort").head(q)
        return g[[key_col, group_col]]

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby(group_col)
        .map_groups(final, batch_format="pandas")
    )


def top_distinctive_terms(
    ds: rd.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 3,
    n_parts: int | None = None,
    broadcast_df: bool | None = None,
    broadcast_df_rows: int = 2_000_000,
) -> rd.Dataset:
    """Per-doc top-k distinctive terms: rank by (tf DESC, df ASC, term
    ASC) — the integer-exact core of TF-IDF (max term frequency, min
    corpus document frequency) with no float scoring, so the DuckDB
    oracle replays it bit-for-bit. The (doc, term, tf) explosion is
    pre-aggregated inside map_batches so no shuffle ever carries one
    row per token.

    DF attachment dispatches on vocabulary size (``broadcast_df=None``
    auto-detects from the per-batch DF-partial row count; True/False
    force a path for tests):

    - **broadcast-DF** (vocabulary fits ``broadcast_df_rows`` partial
      rows): per-batch (term, partial_df) partials combine into one
      vocabulary table broadcast via ``ray.put``; each doc-partition
      attaches DF with a searchsorted lookup. ONE exchange (by doc) and
      — critically — immune to stopword skew: a term in every doc never
      co-locates its rows anywhere.
    - **co-partition** (unbounded vocabulary): hash-partition by term
      to attach corpus DF, then by doc to rank — two exchanges. A
      stopword-grade term concentrates its rows in one term-partition;
      bounded by the pre-aggregation (rows per term ≤ docs containing
      it)."""
    from ..functions.simdedup import _tokenize

    n_parts = n_parts or _n_parts_default()

    def tf_rows(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch[id_col].to_numpy()
        toks = [_tokenize(t) for t in batch[text_col].fillna("")]
        lens = np.fromiter((len(w) for w in toks), dtype=np.int64, count=len(toks))
        if lens.sum() == 0:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "term": pd.Series([], dtype="object"),
                    "tf": pd.Series([], dtype="int64"),
                }
            )
        flat = pd.DataFrame(
            {
                "doc_id": np.repeat(ids, lens).astype(np.int64),
                "term": np.concatenate([np.asarray(w, dtype=object) for w in toks if w]),
            }
        )
        out = flat.groupby(["doc_id", "term"], sort=False).size().reset_index(name="tf")
        out["tf"] = out["tf"].astype("int64")
        return out

    def topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(
            ["doc_id", "tf", "df", "term"],
            ascending=[True, False, True, True],
            kind="mergesort",
        )
        g = g.groupby("doc_id", sort=False).head(k).copy()
        g["rank"] = (g.groupby("doc_id", sort=False).cumcount() + 1).astype("int64")
        return g[["doc_id", "term", "tf", "df", "rank"]]

    def df_partial_rows(g: pd.DataFrame) -> pd.DataFrame:
        # per-batch DF partial: each (doc, term) row is globally unique,
        # so summing these per-term sizes gives the exact corpus DF
        return (
            g.groupby("term", sort=False)
            .size()
            .reset_index(name="pdf")
            .astype({"pdf": "int64"})
        )

    # materialize the narrow pre-aggregated (doc, term, tf) table once:
    # both the DF pass and the rank pass consume it
    tf = ds.map_batches(tf_rows, batch_format="pandas").materialize()

    if broadcast_df is None:
        # partial row count ≤ vocabulary × batches — a cheap cardinality proxy
        df_partial = tf.map_batches(df_partial_rows, batch_format="pandas").materialize()
        broadcast_df = df_partial.count() <= broadcast_df_rows
    else:
        df_partial = None

    if broadcast_df:
        if df_partial is None:
            df_partial = tf.map_batches(df_partial_rows, batch_format="pandas")
        vocab = df_partial.to_pandas().groupby("term", sort=False)["pdf"].sum()
        ref = ray.put(vocab)

        def attach_topk(group: pd.DataFrame) -> pd.DataFrame:
            vocab_ = ray.get(ref)
            group = group.copy()
            # Series.map = vectorized hash lookup; every group term is in
            # the vocabulary by construction
            group["df"] = group["term"].map(vocab_).astype("int64")
            return topk(group)

        def doc_part(g: pd.DataFrame) -> pd.DataFrame:
            from ..functions.simdedup import hash_part

            g = g.copy()
            g["part"] = hash_part(g["doc_id"].to_numpy(np.int64), n_parts)
            return g

        return (
            tf.map_batches(doc_part, batch_format="pandas")
            .groupby("part")
            .map_groups(attach_topk, batch_format="pandas")
        )

    def term_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["part"] = (
            pd.util.hash_array(g["term"].to_numpy(), categorize=True) % np.uint64(n_parts)
        ).astype(np.int32)
        return g

    def attach_df(group: pd.DataFrame) -> pd.DataFrame:
        group = group.copy()
        group["df"] = group.groupby("term", sort=False)["doc_id"].transform("size").astype("int64")
        from ..functions.simdedup import hash_part

        group["part"] = hash_part(group["doc_id"].to_numpy(np.int64), n_parts)
        return group

    with_df = (
        tf.map_batches(term_part, batch_format="pandas")
        .groupby("part")
        .map_groups(attach_df, batch_format="pandas")
    )
    return with_df.groupby("part").map_groups(topk, batch_format="pandas")




def dup_clusters(
    ds: rd.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    threshold: float = 0.8,
    nodes: rd.Dataset | None = None,
    **kwargs,
) -> rd.Dataset:
    """MinHash near-dup pairs → connected components: every doc mapped
    to its duplicate-cluster representative (min doc_id). Exact dups
    are subsumed: identical texts share all MinHash bands, so they are
    always candidate pairs with Jaccard 1.0. ``nodes`` optionally
    supplies the id universe (callers that already hold a narrow
    materialized id table avoid one extra pass over ``ds``)."""
    pairs = minhash_lsh_pairs(ds, id_col=id_col, text_col=text_col, threshold=threshold)
    node_ids = nodes if nodes is not None else ds.select_columns([id_col])
    return connected_components(
        pairs.select_columns(["doc_a", "doc_b"]), node_ids, id_col, **kwargs
    )


# --------------------------------------------------------------------------
# deterministic global shuffle
# --------------------------------------------------------------------------


SHUFFLE_SALT = np.uint64(0x9E3779B97F4A7C15)  # splitmix64 golden gamma (public)


def global_shuffle_rank(
    ds: rd.Dataset,
    id_col: str = "doc_id",
    part_bits: int = 12,
) -> rd.Dataset:
    """Deterministic global shuffle — the training-data ordering
    primitive: every row gets a contiguous 0..n-1 ``shuffle_rank`` in
    avalanche-hash order, so the "shuffled" epoch order is stable
    across runs, partitioning, and resumes (no RNG, no seed state).

    Scale shape: the total order is (h, id) where h = avalanche(id *
    SHUFFLE_SALT), and the partition key p = top ``part_bits`` bits of
    h — a CONTIGUOUS hash range, so ranks are partition offset + local
    sort index. Pass 1 streams per-partition row counts (only the
    2^part_bits-row partial table reaches the driver for an O(P)
    exclusive cumsum); pass 2 is one groupby(p) exchange and a
    vectorized lexsort per partition. No global sort operator, no
    driver materialization; the SQL oracle replays the identical hash
    chain and ROW_NUMBER order."""
    from ..functions.simdedup import _avalanche

    shift = np.uint64(64 - part_bits)

    def hash_kernel(t: pa.Table) -> pa.Table:
        ids = pc.cast(t[id_col], pa.int64()).to_numpy(zero_copy_only=False)
        h = _avalanche(ids.astype(np.uint64) * SHUFFLE_SALT)
        return pa.table(
            {
                id_col: pa.array(ids),
                "h": pa.array(h),
                "p": pa.array((h >> shift).astype(np.int64)),
            }
        )

    hashed = ds.map_batches(hash_kernel, batch_format="pyarrow").materialize()

    def count_partial(t: pa.Table) -> pa.Table:
        p = t["p"].to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(p, return_counts=True)
        return pa.table({"p": pa.array(uniq), "n": pa.array(cnt.astype(np.int64))})

    parts = hashed.map_batches(count_partial, batch_format="pyarrow").to_pandas()
    totals = parts.groupby("p", sort=True)["n"].sum()
    offs = totals.cumsum() - totals  # exclusive prefix per hash range
    off_ref = ray.put((totals.index.to_numpy(np.int64), offs.to_numpy(np.int64)))

    def rank_kernel(g: pd.DataFrame) -> pd.DataFrame:
        keys, vals = ray.get(off_ref)
        h = g["h"].to_numpy().astype(np.uint64)
        ids = g[id_col].to_numpy(np.int64)
        order = np.lexsort((ids, h))
        base = vals[np.searchsorted(keys, int(g["p"].iloc[0]))]
        rank = np.empty(len(g), dtype=np.int64)
        rank[order] = base + np.arange(len(g), dtype=np.int64)
        return pd.DataFrame({id_col: ids, "shuffle_rank": rank})

    return hashed.groupby("p").map_groups(rank_kernel, batch_format="pandas")


# --------------------------------------------------------------------------
# text analysis stages
# --------------------------------------------------------------------------


class LangIdStage:
    """Actor-shaped language-ID stage (profiles built once per worker;
    here the 'model' is the trigram profile table). The whole batch is
    scored in one vectorized pass (packed-trigram lexsort + profile
    matmul), bit-identical to the scalar detect_lang per row."""

    def __init__(self):
        from ..functions import textstats as _ts

        self._detect = _ts.detect_lang_batch

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        batch["lang_pred"] = self._detect(batch["text"])
        return batch


def doc_fingerprints(ds: rd.Dataset, id_col: str = "doc_id", text_col: str = "text") -> rd.Dataset:
    from ..functions.textstats import fingerprint_batch

    def kernel(batch: pa.Table) -> pa.Table:
        fps = fingerprint_batch(batch[text_col].to_pylist())
        return batch.select([id_col]).append_column("fingerprint", pa.array(fps, type=pa.uint64()))

    return ds.map_batches(kernel, batch_format="pyarrow")


# --------------------------------------------------------------------------
# sequence packing (concat-and-chunk into fixed token windows)
# --------------------------------------------------------------------------


def pack_windows(
    ds: rd.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    capacity: int = 512,
    part_size: int = 4096,
) -> rd.Dataset:
    """Pack the corpus into fixed ``capacity``-token context windows the
    way LLM pre-training does: concatenate documents in deterministic
    ``id_col`` order and cut every ``capacity`` whitespace tokens, so a
    document may span windows. Emits one row per (doc, window) span:
    ``(doc_id, window_id, tok_start, n_toks)`` where ``tok_start`` is
    the offset of the span inside the document. Zero-token docs emit
    nothing.

    Distributed as a classic two-pass prefix sum — no all-corpus sort,
    no driver materialization of doc data:

    1. one streaming pass computes per-RANGE-partition token totals
       (``p = doc_id // part_size``) via in-batch partial sums; only
       the tiny (n_docs/part_size)-row partial table reaches the
       driver, where exclusive partition offsets are an O(P) cumsum
       (at 10^10 docs raise ``part_size`` so P stays ~10^5-10^6);
    2. a ``groupby(p)`` exchange co-locates each contiguous id range,
       and ONE vectorized kernel per partition (never per doc) turns
       local cumsums + the broadcast partition offset into window
       spans by integer arithmetic (exact — replayable in SQL, see
       the doc_pack_windows oracle in pipelines/queries.py).
    """
    from ..functions.textstats import _WS_TOKEN as ws  # shared ASCII tokenizer

    def tok_kernel(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch[id_col].astype("int64")
        return pd.DataFrame(
            {
                id_col: ids,
                "t": batch[text_col].fillna("").str.count(ws).astype("int64"),
                "p": ids // part_size,
            }
        )

    # materialize the NARROW (id, t, p) table once — both the partial
    # pass and the groupby consume it, and 24 B/row beats re-tokenizing
    # the text column a second time at any scale
    toks = ds.map_batches(tok_kernel, batch_format="pandas").materialize()
    return _pack_spans(toks, id_col, id_col, capacity)


def _pack_spans(
    toks: rd.Dataset, id_col: str, order_col: str, capacity: int
) -> rd.Dataset:
    """Shared two-pass prefix-sum span packer over a narrow
    (``id_col``, ``t``, ``order_col``, ``p``) table, where ``p`` is a
    CONTIGUOUS range of ``order_col`` (p = order // part_size): pass 1
    streams per-partition token totals to an O(P) driver cumsum, pass 2
    is one groupby(p) exchange + a vectorized kernel per partition (see
    pack_windows for the full algorithm notes)."""

    def part_partials(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby("p", sort=False)["t"].sum()
        return pd.DataFrame({"p": g.index.astype("int64"), "part_t": g.to_numpy()})

    partials = toks.map_batches(part_partials, batch_format="pandas").to_pandas()
    totals = partials.groupby("p", sort=True)["part_t"].sum()
    offsets = totals.cumsum() - totals  # exclusive prefix per partition
    off_keys = offsets.index.to_numpy(dtype=np.int64)
    off_vals = offsets.to_numpy(dtype=np.int64)
    off_ref = ray.put((off_keys, off_vals))
    cap = int(capacity)

    def span_kernel(group: pd.DataFrame) -> pd.DataFrame:
        keys, vals = ray.get(off_ref)
        g = group.sort_values(order_col, kind="mergesort")
        t = g["t"].to_numpy(dtype=np.int64)
        base = vals[np.searchsorted(keys, int(g["p"].iloc[0]))]
        s = base + np.cumsum(t) - t  # global token start per doc
        keep = t > 0
        t, s, ids = t[keep], s[keep], g[id_col].to_numpy(dtype=np.int64)[keep]
        first_w = s // cap
        n_spans = (s + t - 1) // cap - first_w + 1
        doc_rep = np.repeat(np.arange(len(ids)), n_spans)
        local = np.arange(int(n_spans.sum())) - np.repeat(np.cumsum(n_spans) - n_spans, n_spans)
        win = first_w[doc_rep] + local
        tok_start = np.maximum(win * cap - s[doc_rep], 0)
        n_toks = np.minimum((win + 1) * cap, (s + t)[doc_rep]) - np.maximum(win * cap, s[doc_rep])
        return pd.DataFrame(
            {
                id_col: ids[doc_rep],
                "window_id": win,
                "tok_start": tok_start,
                "n_toks": n_toks,
            }
        )

    return toks.groupby("p").map_groups(span_kernel, batch_format="pandas")


def pack_windows_shuffled(
    ds: rd.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    capacity: int = 512,
    part_size: int = 4096,
) -> rd.Dataset:
    """Sequence packing in DETERMINISTIC SHUFFLE order — the composed
    epoch-construction pipeline LLM pre-training actually runs: docs
    are concatenated in ``global_shuffle_rank`` order (avalanche-hash,
    RNG-free, partition/resume-invariant) instead of id order, then cut
    into fixed ``capacity``-token windows. Three exchanges total: the
    shuffle-rank prefix sum, one hash join landing each doc's rank next
    to its token count, and the pack prefix sum over contiguous RANK
    ranges — text is tokenized exactly once and never moves."""
    from ..functions.textstats import _WS_TOKEN as ws
    from .relational import hash_join

    def tok_kernel(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                id_col: batch[id_col].astype("int64"),
                "t": batch[text_col].fillna("").str.count(ws).astype("int64"),
            }
        )

    toks = ds.map_batches(tok_kernel, batch_format="pandas")
    ranks = global_shuffle_rank(ds.select_columns([id_col]), id_col)

    def add_p(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["p"] = df["shuffle_rank"].astype("int64") // part_size
        return df

    narrow = hash_join(toks, ranks, on=id_col, post=add_p).materialize()
    return _pack_spans(narrow, id_col, "shuffle_rank", capacity)
