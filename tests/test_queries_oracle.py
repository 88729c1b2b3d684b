"""Every SQL-expressible ``queries()`` entry vs its DuckDB oracle at
sf0.001 — the same compare the driver runs (row-count, column names,
order-insensitive value hash). Mirrors the reference's oracle-style
full-crawl goldens (/root/reference/tests/search_gov_spiders/
test_full_crawl.py:53-119) for the query surface."""

from __future__ import annotations

import hashlib

import duckdb
import pandas as pd
import pytest

TABLES = ["documents"]


def _to_df(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd

    if isinstance(result, rd.Dataset):
        df = result.to_pandas()
        if len(df.columns) == 0:  # empty datasets lose their schema
            df = pd.DataFrame({n: [] for n in result.schema().names})
        return df
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return pd.DataFrame(result)


def _value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        col = df[c]
        if pd.api.types.is_datetime64_any_dtype(col):
            df[c] = col.astype("datetime64[us]").astype(str)
        elif pd.api.types.is_float_dtype(col):
            df[c] = col.round(6).astype(str)
        else:
            df[c] = col.astype(str)
    if len(df) == 0:
        return hashlib.sha256(b"").hexdigest()
    rows = sorted("\x1f".join(v) for v in df.itertuples(index=False, name=None))
    return hashlib.sha256("\x1e".join(rows).encode()).hexdigest()


@pytest.fixture(scope="module")
def oracle_con(sf_dir):
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")
    return con


def _oracle_names():
    import __ray_entry__ as e

    return sorted(e.oracle_sql().keys())


@pytest.mark.parametrize("name", _oracle_names())
def test_query_matches_oracle(name, ray_session, sf_dir, oracle_con):
    import __ray_entry__ as e

    mine = _to_df(e.queries()[name](sf_dir))
    theirs = oracle_con.execute(e.oracle_sql()[name]).fetchdf()
    assert len(mine) == len(theirs), f"rows {len(mine)} vs {len(theirs)}"
    assert sorted(mine.columns) == sorted(theirs.columns)
    assert _value_hash(mine) == _value_hash(theirs)


def test_driver_window_is_oracle_backed():
    """The driver samples the first 50 queries() keys for its oracle
    compare, so each of them must have an oracle_sql() entry."""
    import __ray_entry__ as e

    head = list(e.queries())[:50]
    assert len(head) == 50
    oracles = e.oracle_sql()
    assert [n for n in head if n not in oracles] == []


class TestForcedWideDispatch:
    """Queries with a narrow (broadcast) / wide (hash-partitioned join)
    dispatch must produce identical results on both paths — the same
    contract tests/test_training.py pins for the dedup kernels."""

    def test_doc_minhash_eval_wide(self, ray_session, sf_dir, oracle_con):
        from searchgov_spider_ray.pipelines import queries as q
        import __ray_entry__ as e

        wide = _to_df(q.doc_minhash_eval(sf_dir, wide_doc_rows=0))
        theirs = oracle_con.execute(e.oracle_sql()["doc_minhash_eval"]).fetchdf()
        assert len(wide) == len(theirs) == 1
        assert _value_hash(wide) == _value_hash(theirs)

    def test_doc_passage_dedup_wide(self, ray_session, sf_dir, oracle_con):
        from searchgov_spider_ray.pipelines import queries as q
        import __ray_entry__ as e

        wide = _to_df(q.doc_passage_dedup(sf_dir, wide_doc_rows=0))
        theirs = oracle_con.execute(e.oracle_sql()["doc_passage_dedup"]).fetchdf()
        assert len(wide) == len(theirs) and len(wide) > 0
        assert _value_hash(wide) == _value_hash(theirs)

    def test_doc_bigram_topk_wide(self, ray_session, sf_dir, oracle_con):
        from searchgov_spider_ray.pipelines import queries as q
        import __ray_entry__ as e

        wide = _to_df(q.doc_bigram_topk(sf_dir, wide_doc_rows=0))
        theirs = oracle_con.execute(e.oracle_sql()["doc_bigram_topk"]).fetchdf()
        assert len(wide) == len(theirs) and len(wide) > 0
        assert _value_hash(wide) == _value_hash(theirs)


def test_image_phash_near_dup_planted(ray_session, sf_dir):
    """Every planted perturbed image (1-in-PHASH_PLANT_MOD, +2
    brightness, PNG re-encode — a DC-only pHash perturbation) must pair
    with its original at Hamming ≤ 3; no pair may exceed the
    threshold."""
    from searchgov_spider_ray.pipelines import queries as q

    df = q.image_phash_near_dup(sf_dir)
    assert len(df) > 0
    assert int(df["hamming"].max()) <= q.PHASH_MAX_HAMMING
    planted = df[df["image_b"] == df["image_a"] + "~dup"]
    # count how many dups were planted, independently of the pair search
    import numpy as np
    import ray.data as rd

    from searchgov_spider_ray.functions.hashing import xxhash64_array
    from searchgov_spider_ray.pipelines.queries import PHASH_PLANT_MOD, _crawl_corpus_dir

    ids = rd.read_parquet(
        _crawl_corpus_dir() + "/corpus_images.parquet", columns=["image_id"]
    ).to_pandas()["image_id"]
    n_planted = int((xxhash64_array(ids.tolist()) % np.uint64(PHASH_PLANT_MOD) == 0).sum())
    assert n_planted > 0
    assert len(planted) == n_planted


def test_image_dup_clusters_planted(ray_session, sf_dir):
    """Every planted "X~dup" clone must land in X's cluster, clusters
    must cover every image exactly once, and each representative must
    be a member of its own cluster."""
    from searchgov_spider_ray.pipelines import queries as q

    df = q.image_dup_clusters(sf_dir)
    cluster_of = dict(zip(df["image_id"], df["cluster_image"]))
    dups = [i for i in cluster_of if i.endswith("~dup")]
    assert dups
    for d in dups:
        assert cluster_of[d] == cluster_of[d[: -len("~dup")]]
    assert len(df) == len(cluster_of)  # one label per image
    for rep in set(df["cluster_image"]):
        assert cluster_of[rep] == rep  # representative is its own label


def test_ngram_jaccard_kernel_bounded_on_large_source():
    """A single large source must NOT trigger an O(k^2) all-pairs scan:
    5000 gram-disjoint docs plus two planted dup pairs complete in
    seconds (the old per-pair intersect1d loop took minutes here), and
    only the planted pairs surface."""
    import time

    import pandas as pd

    from searchgov_spider_ray.pipelines.queries import _ngram_jaccard_pairs

    n = 5000
    ids = list(range(n)) + [90001, 90002, 90003, 90004]
    texts = [f"alpha{i} beta{i} gamma{i} delta{i}" for i in range(n)] + [
        "the quick brown fox jumps over dogs",
        "the quick brown fox jumps over dogs",
        "lorem ipsum dolor sit amet consectetur adipiscing",
        "lorem ipsum dolor sit amet consectetur elit",
    ]
    group = pd.DataFrame({"doc_id": ids, "source": "s0", "text": texts})
    t0 = time.time()
    out = _ngram_jaccard_pairs(group)
    wall = time.time() - t0
    assert wall < 10.0, f"kernel took {wall:.1f}s on a 5k-doc source"
    got = sorted(zip(out["doc_a"], out["doc_b"], out["jaccard_micros"]))
    # exact dup: jaccard 1.0; lorem pair: 4 shared of 6 union grams = 2/3
    assert got == [(90001, 90002, 1_000_000), (90003, 90004, 666667)]


class TestRowsOnlyValuePins:
    """The rows-only driver entries get value checks here: any codec,
    hash, or feature regression fails these, not just a row count."""

    def test_crawl_image_corpus_invariants_all_true(self, ray_session):
        from searchgov_spider_ray.pipelines.queries import crawl_image_corpus

        df = crawl_image_corpus("")
        assert len(df) > 0
        for col in ("phash_match", "decode_ok", "psnr_pass", "caption_match"):
            assert df[col].all(), f"{col} not all True"

    def test_multimodal_image_feature_count(self, ray_session):
        from searchgov_spider_ray.pipelines.queries import multimodal_image_pipeline
        from searchgov_spider_ray.stages.multimodal import ImageFeatures

        df = multimodal_image_pipeline("")
        assert len(df) > 0
        assert (df["n_features"] == ImageFeatures.DIM).all()
        assert df["decode_ok"].all()


def test_char_entropy_forced_chunking_parity(ray_session, sf_dir, monkeypatch):
    """The skew guard (length-sorted greedy chunks under the cell
    budget) must be exact: forcing a tiny budget so every batch splits
    into many view chunks yields bit-identical entropies."""
    import searchgov_spider_ray.pipelines.queries as q

    base = _to_df(q.doc_char_entropy(sf_dir)).sort_values("doc_id").reset_index(drop=True)
    monkeypatch.setattr(q, "_ENTROPY_CELL_BUDGET", 4096)  # ~8 docs per chunk
    forced = _to_df(q.doc_char_entropy(sf_dir)).sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(base, forced)


def test_image_keep_best_prefers_original(ray_session, sf_dir):
    """Keep-best dedup must keep the ORIGINAL of every planted clone
    pair (same dims, lexicographic tiebreak) and account for every
    cluster member."""
    import searchgov_spider_ray.pipelines.queries as q

    out = q.image_dedup_keep_best(sf_dir)
    assert len(out) > 0
    assert not out["keep_image"].str.contains("~dup").any()
    planted = out[out["n_members"] > 1]
    assert len(planted) > 0  # the planted clones produce real clusters
    members = q.image_dup_clusters(sf_dir)
    assert int(out["n_members"].sum()) == len(members)  # every member accounted


def test_image_resolution_buckets_and_caption_stats(ray_session, sf_dir):
    """Bucket snap (64-px floor grid) and caption token/char counts
    must match a direct pandas replay over the same corpus."""
    import ray.data as rd

    import searchgov_spider_ray.pipelines.queries as q

    cdir = q._crawl_corpus_dir()
    raw = rd.read_parquet(cdir + "/corpus_images.parquet").to_pandas()
    buckets = q.image_resolution_buckets(sf_dir)
    want = (
        pd.DataFrame(
            {
                "bucket_w": (raw["w"] // 64 * 64).clip(lower=64),
                "bucket_h": (raw["h"] // 64 * 64).clip(lower=64),
            }
        )
        .groupby(["bucket_w", "bucket_h"], as_index=False)
        .size()
    )
    assert int(buckets["n_images"].sum()) == len(raw)
    assert len(buckets) == len(want)
    caps = q.caption_token_stats(sf_dir)
    assert len(caps) == len(raw)
    row = caps.iloc[0]
    cap0 = raw.sort_values("image_id")["caption"].fillna("").iloc[0]
    assert row["cap_chars"] == len(cap0)
    assert row["cap_tokens"] == len([w for w in cap0.split() if w])


def test_image_curation_pipeline_invariants(ray_session, sf_dir):
    """Every kept row must satisfy each gate; pHash unique after dedup;
    the winner is the lexicographically-first filtered image_id of its
    hash group; n_dups accounts for every filtered image — replayed
    directly over the same corpus parquet."""
    import ray.data as rd

    import searchgov_spider_ray.pipelines.queries as q

    kept = q.image_curation_pipeline(sf_dir)
    cdir = q._crawl_corpus_dir()
    raw = rd.read_parquet(cdir + "/corpus_images.parquet").to_pandas()
    mn = raw[["w", "h"]].min(axis=1)
    mx = raw[["w", "h"]].max(axis=1)
    toks = raw["caption"].fillna("").str.count(r"[^ \t\n\r\f\v]+")
    want = raw[
        (mn >= q.CURATION_MIN_SIDE)
        & (2 * mn >= mx)
        & (toks >= q.CURATION_MIN_CAP_TOKENS)
    ]
    assert len(want) > 0 and len(want) < len(raw)  # the gates actually bite
    assert kept["phash"].is_unique
    assert int(kept["n_dups"].sum()) == len(want)
    winners = want.groupby("phash")["image_id"].min()
    assert sorted(kept["image_id"]) == sorted(winners)
    assert (kept[["w", "h"]].min(axis=1) >= q.CURATION_MIN_SIDE).all()
    assert (2 * kept[["w", "h"]].min(axis=1) >= kept[["w", "h"]].max(axis=1)).all()
    assert (kept["cap_tokens"] >= q.CURATION_MIN_CAP_TOKENS).all()


def test_image_caption_alignment_scalar_golden(ray_session, sf_dir):
    """align_dot must equal the scalar recompute (pHash ±1 bits dotted
    with the sign of summed token hash projections) for every image,
    and the keep gate must bite both ways."""
    import numpy as np

    import searchgov_spider_ray.pipelines.queries as q
    from searchgov_spider_ray.functions.hashing import xxhash64
    import ray.data as rd

    out = q.image_caption_alignment(sf_dir)
    cdir = q._crawl_corpus_dir()
    raw = (
        rd.read_parquet(cdir + "/corpus_images.parquet")
        .to_pandas()
        .sort_values("image_id")
        .reset_index(drop=True)
    )
    assert list(out["image_id"]) == list(raw["image_id"])
    for i in range(len(raw)):
        ph = np.int64(raw["phash"][i]).view(np.uint64)
        img = np.array([1 if (int(ph) >> b) & 1 else -1 for b in range(64)])
        acc = np.zeros(64, dtype=np.int64)
        for t in raw["caption"][i].lower().split():
            hv = xxhash64(t)
            acc += np.array([1 if (hv >> b) & 1 else -1 for b in range(64)])
        cap = np.where(acc >= 0, 1, -1)
        assert int(out["align_dot"][i]) == int((img * cap).sum())
        assert int(out["keep"][i]) == int(int(out["align_dot"][i]) >= q.ALIGN_KEEP_DOT)
    assert 0 < int(out["keep"].sum()) < len(out)


def test_image_hamming_topk_matches_brute_force(ray_session, sf_dir):
    """The distributed partial-top-k merge must equal a single-process
    brute-force Hamming scan for every query (ties by neighbor_id)."""
    import numpy as np
    import ray.data as rd

    import searchgov_spider_ray.pipelines.queries as q
    from searchgov_spider_ray.functions.hashing import xxhash64

    out = q.image_hamming_topk(sf_dir)
    cdir = q._crawl_corpus_dir()
    raw = rd.read_parquet(cdir + "/corpus_images.parquet").to_pandas()
    ids = raw["image_id"].to_numpy(dtype=object)
    ph = raw["phash"].to_numpy(np.int64).view(np.uint64)
    queries = sorted(
        i for i in ids if xxhash64(i) % q.HAMMING_QUERY_MOD == 0
    )
    assert len(queries) > 0
    assert sorted(out["query_id"].unique()) == queries
    for qid in queries:
        qph = int(ph[list(ids).index(qid)])
        dists = [
            (bin(int(p) ^ qph).count("1"), i)
            for p, i in zip(ph, ids)
            if i != qid
        ]
        want = sorted(dists)[: q.HAMMING_TOPK_K]
        got = out[out["query_id"] == qid].sort_values("rank")
        assert list(got["neighbor_id"]) == [i for _, i in want]
        assert list(got["hamming"]) == [d for d, _ in want]
        assert list(got["rank"]) == list(range(1, len(want) + 1))


def test_image_training_manifest_full_replay(ray_session, sf_dir):
    """The composed manifest must equal a direct single-process replay
    of its stages (gates → alignment → first-wins dedup → bucket/shard)
    over the same corpus parquet."""
    import numpy as np
    import ray.data as rd

    import searchgov_spider_ray.pipelines.queries as q
    from searchgov_spider_ray.functions.hashing import xxhash64

    got = q.image_training_manifest(sf_dir)
    cdir = q._crawl_corpus_dir()
    raw = rd.read_parquet(cdir + "/corpus_images.parquet").to_pandas()

    def align_dot(phash, caption):
        img = np.array([1 if (int(np.int64(phash).view(np.uint64)) >> b) & 1 else -1 for b in range(64)])
        acc = np.zeros(64, dtype=np.int64)
        for t in caption.lower().split():
            hv = xxhash64(t)
            acc += np.array([1 if (hv >> b) & 1 else -1 for b in range(64)])
        return int((img * np.where(acc >= 0, 1, -1)).sum())

    rows = []
    for _, r in raw.iterrows():
        mn, mx = min(r["w"], r["h"]), max(r["w"], r["h"])
        toks = len([t for t in (r["caption"] or "").split() if t])
        if mn < q.CURATION_MIN_SIDE or 2 * mn < mx or toks < q.CURATION_MIN_CAP_TOKENS:
            continue
        d = align_dot(r["phash"], r["caption"])
        if d < q.ALIGN_KEEP_DOT:
            continue
        rows.append((r["image_id"], r["w"], r["h"], toks, r["phash"], d))
    import pandas as pd

    surv = pd.DataFrame(
        rows, columns=["image_id", "w", "h", "cap_tokens", "phash", "align_dot"]
    )
    assert 0 < len(surv) < len(raw)
    winners = surv.sort_values("image_id").groupby("phash", as_index=False).first()
    ndups = surv.groupby("phash").size()
    want = winners.assign(
        n_dups=ndups.reindex(winners["phash"]).to_numpy(),
        bucket_w=(winners["w"] // 16 * 16).clip(lower=16),
        bucket_h=(winners["h"] // 16 * 16).clip(lower=16),
        shard=[xxhash64(i) % q.MANIFEST_SHARDS for i in winners["image_id"]],
    ).sort_values("image_id").reset_index(drop=True)
    assert list(got["image_id"]) == list(want["image_id"])
    for c in ("bucket_w", "bucket_h", "cap_tokens", "align_dot", "n_dups", "shard"):
        assert list(got[c]) == list(want[c]), c


def test_doc_bpe_tokenize_scalar_replay(ray_session, sf_dir):
    """Learn + encode must equal an independent single-process replay:
    merges re-derived from a pandas word-frequency table, every doc
    re-encoded with bpe_encode_word, counts compared row-by-row."""
    import numpy as np
    import pandas as pd

    import searchgov_spider_ray.pipelines.queries as q

    got = (
        _to_df(q.doc_bpe_tokenize(sf_dir))
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    words = (
        docs["text"].fillna("").str.lower().str.split(r"[ \t\n\r\f\v]+", regex=True)
    )
    ex = words.explode()
    ex = ex[ex.notna() & (ex != "")]
    wf = ex.value_counts()
    merges = q._bpe_learn(
        wf.index.to_numpy(dtype=object), wf.to_numpy(np.int64), q.BPE_NUM_MERGES
    )
    assert len(merges) == q.BPE_NUM_MERGES
    # merged symbols must be multi-char (the loop actually merged)
    assert all(len(a + b) >= 2 for a, b in merges)
    docs = docs.sort_values("doc_id").reset_index(drop=True)
    assert list(got["doc_id"]) == list(docs["doc_id"])
    memo = {}
    for i in range(len(docs)):
        total, seen = 0, set()
        for w in (docs["text"][i] or "").lower().split():
            if w not in memo:
                memo[w] = q.bpe_encode_word(w, merges)
            total += len(memo[w])
            seen.update(memo[w])
        assert int(got["n_bpe_tokens"][i]) == total, i
        assert int(got["n_distinct_tokens"][i]) == len(seen), i
    # merging strictly compresses: BPE count <= character count
    n_chars = docs["text"].fillna("").str.replace(r"[ \t\n\r\f\v]+", "", regex=True).str.len()
    assert (got["n_bpe_tokens"].to_numpy() <= n_chars.to_numpy()).all()
    assert (got["n_bpe_tokens"].to_numpy() < n_chars.to_numpy()).any()


def test_inverted_index_postings_sorted_and_df_consistent(ray_session, sf_dir):
    from searchgov_spider_ray.pipelines.queries import doc_inverted_index

    out = _to_df(doc_inverted_index(sf_dir))
    assert len(out) > 0
    for _, row in out.head(50).iterrows():
        ids = [int(x) for x in row["postings"].split(",")]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids)) == row["df"] >= 20


def test_curriculum_partition_invariance(ray_session, sf_dir):
    """The curriculum manifest must not depend on the range-partition
    width: a single-partition run (part_width=10^9) and a many-
    partition run (part_width=2) must produce identical (pos, stage)
    for every doc — the two-pass prefix-sum offsets are exact."""
    import searchgov_spider_ray.pipelines.queries as q

    wide = (
        _to_df(q.doc_curriculum_manifest(sf_dir, part_width=2))
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    one = (
        _to_df(q.doc_curriculum_manifest(sf_dir, part_width=10**9))
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(wide) == len(one) > 0
    for c in ["doc_id", "n_tokens", "pos", "stage"]:
        assert list(wide[c]) == list(one[c]), c
    # positions are a permutation of 1..N and stages are DuckDB tiles
    n = len(wide)
    assert sorted(wide["pos"]) == list(range(1, n + 1))
    sizes = wide.groupby("stage")["pos"].count()
    assert sizes.max() - sizes.min() <= 1


def test_hamming_banded_matches_exact(ray_session, sf_dir):
    """The banded scale path must return EXACTLY the brute-force top-k
    for every query (candidate-resolved and fallback queries alike)."""
    import searchgov_spider_ray.pipelines.queries as q

    exact = _to_df(q.image_hamming_topk(sf_dir)).reset_index(drop=True)
    banded = _to_df(q.image_hamming_topk_banded(sf_dir)).reset_index(drop=True)
    assert len(exact) == len(banded) > 0
    for c in ["query_id", "rank", "neighbor_id", "hamming"]:
        assert list(exact[c]) == list(banded[c]), c


def test_hamming_banded_forced_every_image_a_query(ray_session, sf_dir):
    """Forced-wide pin: with query_mod=1 EVERY corpus image is a query,
    so the band join, the distributed resolve, and the fallback all run
    at their densest — banded must still equal exact row-for-row, and
    every image must appear as a query."""
    import ray.data as rd

    import searchgov_spider_ray.pipelines.queries as q

    exact = _to_df(q.image_hamming_topk(sf_dir, query_mod=1)).reset_index(drop=True)
    banded = _to_df(
        q.image_hamming_topk_banded(sf_dir, query_mod=1)
    ).reset_index(drop=True)
    n_images = rd.read_parquet(
        q._crawl_corpus_dir() + "/corpus_images.parquet", columns=["image_id"]
    ).count()
    assert exact["query_id"].nunique() == n_images
    assert len(exact) == len(banded) > 0
    for c in ["query_id", "rank", "neighbor_id", "hamming"]:
        assert list(exact[c]) == list(banded[c]), c


def test_hamming_banded_hot_band_chunked(ray_session, sf_dir, monkeypatch):
    """Hot-band guard: with a tiny pair budget every collide merge runs
    through the key-slice / corpus-chunk paths — the result must still
    equal the exact scan row-for-row (the guard bounds memory, never
    changes semantics)."""
    import searchgov_spider_ray.pipelines.queries as q

    monkeypatch.setenv("GRAFT_HAMMING_PAIR_BUDGET", "8")
    exact = _to_df(q.image_hamming_topk(sf_dir, query_mod=1)).reset_index(drop=True)
    banded = _to_df(
        q.image_hamming_topk_banded(sf_dir, query_mod=1)
    ).reset_index(drop=True)
    assert len(exact) == len(banded) > 0
    for c in ["query_id", "rank", "neighbor_id", "hamming"]:
        assert list(exact[c]) == list(banded[c]), c


def test_hamming_topk_zero_queries_is_empty(ray_session, sf_dir):
    """A query selector that picks nothing must yield an empty typed
    result, not a concat crash (ADVICE r3: the exact path raised
    ValueError('No objects to concatenate'))."""
    import searchgov_spider_ray.pipelines.queries as q

    # a modulus far above the fixture corpus size selects zero images
    # unless a hash lands exactly on 0 — then relax (deterministic)
    out = _to_df(q.image_hamming_topk(sf_dir, query_mod=1_000_003))
    assert list(out.columns) == ["query_id", "rank", "neighbor_id", "hamming"]
    banded = _to_df(q.image_hamming_topk_banded(sf_dir, query_mod=1_000_003))
    assert list(banded.columns) == ["query_id", "rank", "neighbor_id", "hamming"]
    assert len(out) == len(banded)


def test_phash_band_pigeonhole():
    """Pigeonhole completeness: any two 64-bit hashes within Hamming
    <= 3 share at least one 16-bit band (randomized over 500 cases)."""
    import numpy as np

    from searchgov_spider_ray.pipelines.queries import _phash_bands

    rng = np.random.default_rng(7)
    base = rng.integers(0, 2**63, size=500, dtype=np.int64).view(np.uint64)
    n_flips = rng.integers(0, 4, size=500)
    flipped = base.copy()
    for i in range(500):
        for b in rng.choice(64, size=n_flips[i], replace=False):
            flipped[i] ^= np.uint64(1) << np.uint64(b)
    b1, b2 = _phash_bands(base), _phash_bands(flipped)
    assert ((b1 == b2).any(axis=1)).all()


def test_doc_bpe_pack_windows_replay(ray_session, sf_dir):
    """BPE-count packing must equal a single-process replay: per-doc
    BPE counts from the pinned tokenize query, then the concat-and-cut
    window arithmetic in plain Python."""
    import numpy as np
    import pandas as pd

    import searchgov_spider_ray.pipelines.queries as q

    got = (
        _to_df(q.doc_bpe_pack_windows(sf_dir))
        .sort_values(["doc_id", "window_id"])
        .reset_index(drop=True)
    )
    counts = (
        _to_df(q.doc_bpe_tokenize(sf_dir)).sort_values("doc_id").reset_index(drop=True)
    )
    cap = q.BPE_PACK_CAPACITY
    rows = []
    s = 0
    for did, t in zip(counts["doc_id"], counts["n_bpe_tokens"]):
        t = int(t)
        if t == 0:
            continue
        for win in range(s // cap, (s + t - 1) // cap + 1):
            tok_start = max(win * cap - s, 0)
            n_toks = min((win + 1) * cap, s + t) - max(win * cap, s)
            rows.append((int(did), win, tok_start, n_toks))
        s += t
    want = pd.DataFrame(rows, columns=["doc_id", "window_id", "tok_start", "n_toks"])
    want = want.sort_values(["doc_id", "window_id"]).reset_index(drop=True)
    assert len(got) == len(want) > 0
    for c in want.columns:
        assert list(got[c].astype(np.int64)) == list(want[c].astype(np.int64)), c
    # windows tile the corpus: every window except the last is full
    per_win = got.groupby("window_id")["n_toks"].sum()
    assert (per_win.iloc[:-1] == cap).all()


def test_hamming_banded_hot_band_salted_degenerate_corpus(
    ray_session, tmp_path, monkeypatch
):
    """r4 verdict #3: a degenerate corpus (many identical pHashes — the
    flat-image flood) must SALT the hot band keys across >1 partition
    and still match the exact scan row-for-row. The salt plan is
    asserted structurally with the operator's own helpers: the flooded
    band keys get n_salts > 1 and their salted sub-keys hash to more
    than one of the 64 coarse partitions."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    import searchgov_spider_ray.pipelines.queries as q
    from searchgov_spider_ray.functions.simdedup import hash_part

    # 30 flat images share pHash 0 (all four 16-bit bands collide);
    # 10 distinct ones keep the non-degenerate path alive alongside
    ids = [f"img{i:03d}" for i in range(40)]
    ph = np.zeros(40, dtype=np.int64)
    rng = np.random.RandomState(7)
    ph[30:] = rng.randint(1, 1 << 62, size=10).astype(np.int64)
    df = pd.DataFrame({"image_id": ids, "phash": ph})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   tmp_path / "corpus_images.parquet")
    monkeypatch.setattr(q, "_crawl_corpus_dir", lambda: str(tmp_path))
    monkeypatch.setenv("GRAFT_HAMMING_PAIR_BUDGET", "100")

    # the salt plan the operator derives: band keys flooded by the 30
    # flat images are hot (est 30*30=900 > 100) and spread over >1 part
    bands = q._phash_bands(ph.view(np.uint64))
    bk = ((np.arange(4, dtype=np.int64)[None, :] << 16) | bands).ravel()
    cu, cc = np.unique(bk, return_counts=True)
    counts = pd.DataFrame({"band_key": cu, "c_cnt": cc, "q_cnt": cc})  # query_mod=1
    hot = q._hot_band_salts(counts, 100)
    flooded = [int(p) << 16 for p in range(4)]  # band value 0 in all 4 positions
    for key in flooded:
        assert hot.get(key, 1) > 1, key
        subkeys = np.array(
            [key | ((s + 1) << 18) for s in range(hot[key])], dtype=np.int64
        )
        assert len(np.unique(hash_part(subkeys, 64))) > 1, key

    exact = _to_df(q.image_hamming_topk(str(tmp_path), k=5, query_mod=1)).reset_index(
        drop=True
    )
    banded = _to_df(
        q.image_hamming_topk_banded(str(tmp_path), k=5, query_mod=1)
    ).reset_index(drop=True)
    assert len(exact) == len(banded) > 0
    for c in ["query_id", "rank", "neighbor_id", "hamming"]:
        assert list(exact[c]) == list(banded[c]), c


def test_hot_band_salts_plan():
    """Unit pin of the salt-plan math: within-budget keys get no entry
    (layout unchanged), over-budget keys get ceil(est/budget) salts
    (>=2, capped), and the estimate is float-safe at 10^10-row scale."""
    import pandas as pd

    import searchgov_spider_ray.pipelines.queries as q

    counts = pd.DataFrame(
        {
            "band_key": [1, 2, 3, 4],
            "c_cnt": [100, 100_000, 10_000_000_000, 50],
            "q_cnt": [100, 1_000, 10_000_000_000, 0],
        }
    )
    plan = q._hot_band_salts(counts, 4_000_000)
    assert 1 not in plan                       # 10_000 pairs: within budget
    assert plan[2] == 25                       # ceil(1e8 / 4e6)
    assert plan[3] == q._HOT_BAND_SALT_CAP     # 1e20 pairs: float-safe, capped
    assert 4 not in plan                       # zero queries -> zero est
    assert q._hot_band_salts(counts, 10**21) == {}
