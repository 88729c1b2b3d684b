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


