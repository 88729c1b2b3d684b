"""Training-data operator tests: exact dedup, MinHash-LSH, SimHash,
ANN (brute + IVF recall), embedding near-dup, text stats — semantics
pinned on planted fixtures; the driver's rows-only checks lean on
these."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import ray
import ray.data as rd

from searchgov_spider_ray.pipelines import training


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    base = "the quick brown fox jumps over the lazy dog and runs far away into the woods "
    rows = []
    for i in range(20):
        rows.append({"doc_id": i, "text": f"unique document number {i} about topic {i*7} " * 10})
    # planted near-dup cluster: 20/21/22 nearly identical
    rows.append({"doc_id": 20, "text": base * 8})
    rows.append({"doc_id": 21, "text": base * 8 + "with a tiny tail"})
    rows.append({"doc_id": 22, "text": base * 8 + "with another small suffix here"})
    # planted exact dup of doc 5
    rows.append({"doc_id": 23, "text": f"unique document number 5 about topic 35 " * 10})
    return rd.from_pandas(pd.DataFrame(rows))


@pytest.fixture(scope="module")
def emb_ds(ray_session):
    rng = np.random.RandomState(0)
    vecs = rng.randn(200, 16).astype(np.float32)
    vecs[50] = vecs[10] + rng.randn(16).astype(np.float32) * 0.01  # planted near-dup
    df = pd.DataFrame({"vec_id": np.arange(200, dtype=np.int64), "embedding": list(vecs)})
    return rd.from_pandas(df)


class TestExactDedup:
    def test_first_wins(self, docs_ds):
        out = training.dedup_exact_first(docs_ds).to_pandas()
        ids = set(out["doc_id"])
        assert 5 in ids and 23 not in ids  # min-id wins
        assert len(ids) == 23  # 24 docs, one exact dup collapsed

    def test_case_whitespace_normalized(self, ray_session):
        ds = rd.from_pandas(pd.DataFrame({"doc_id": [1, 2], "text": ["A  b C", "a b c"]}))
        out = training.dedup_exact_first(ds).to_pandas()
        assert out["doc_id"].tolist() == [1]


class TestMinHashLSH:
    def test_finds_planted_cluster(self, docs_ds):
        pairs = training.minhash_lsh_pairs(docs_ds, threshold=0.6).to_pandas()
        got = {tuple(sorted((a, b))) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
        assert (20, 21) in got and (20, 22) in got
        # no false positives among the unique docs
        assert not any(a < 20 and b < 20 and a != 5 and b != 23 for a, b in got)
        assert (pairs["jaccard"] >= 0.6).all()


class TestSimHash:
    def test_finds_planted_cluster(self, docs_ds):
        pairs = training.simhash_pairs(docs_ds, max_hamming=6).to_pandas()
        got = {tuple(sorted((a, b))) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
        assert (20, 21) in got or (20, 22) in got or (21, 22) in got
        assert (5, 23) in got  # exact dup → hamming 0


class TestANN:
    def test_brute_matches_numpy(self, emb_ds):
        out = training.ann_brute_topk(emb_ds, query_ids=[10], k=5).to_pandas()
        df = emb_ds.to_pandas()
        mat = np.vstack(df["embedding"].to_numpy()).astype(np.float64)
        matn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        sims = matn @ matn[10]
        sims[10] = -np.inf
        expect = set(np.argsort(-sims, kind="stable")[:5].tolist())
        assert set(out["neighbor_id"]) == expect
        assert 50 in expect  # the planted near-dup is the top neighbor

    def test_ivf_recall(self, emb_ds):
        brute = training.ann_brute_topk(emb_ds, query_ids=[1, 2, 3], k=10).to_pandas()
        ivf = training.ann_ivf_topk(emb_ds, query_ids=[1, 2, 3], k=10, n_centroids=8, n_probe=4).to_pandas()
        recall = 0.0
        for q in (1, 2, 3):
            b = set(brute[brute["query_id"] == q]["neighbor_id"])
            v = set(ivf[ivf["query_id"] == q]["neighbor_id"])
            recall += len(b & v) / len(b)
        assert recall / 3 >= 0.5  # probing half the centroids

    def test_ivf_kmeans_beats_or_matches_first_n(self, emb_ds):
        """Sample-trained spherical k-means centroids should give recall
        at least as good as the naive first-N pick at the same probe
        budget, and k-means itself must be deterministic."""
        brute = training.ann_brute_topk(emb_ds, query_ids=[1, 2, 3], k=10).to_pandas()

        def recall(centroids: str) -> float:
            ivf = training.ann_ivf_topk(
                emb_ds, query_ids=[1, 2, 3], k=10, n_centroids=8, n_probe=4,
                centroids=centroids,
            ).to_pandas()
            r = 0.0
            for q in (1, 2, 3):
                b = set(brute[brute["query_id"] == q]["neighbor_id"])
                v = set(ivf[ivf["query_id"] == q]["neighbor_id"])
                r += len(b & v) / len(b)
            return r / 3

        assert recall("kmeans") >= recall("first") - 1e-9
        c1 = training.kmeans_centroids(emb_ds, 8)
        c2 = training.kmeans_centroids(emb_ds, 8)
        assert (c1 == c2).all()

    def test_embedding_near_dup(self, emb_ds):
        pairs = training.embedding_near_dup_pairs(emb_ds, threshold=0.99).to_pandas()
        got = {tuple(sorted((int(a), int(b)))) for a, b in zip(pairs["vec_a"], pairs["vec_b"])}
        assert (10, 50) in got


class TestTextStages:
    def test_text_stats(self, docs_ds):
        out = training.text_stats(docs_ds).to_pandas()
        assert len(out) == 24
        assert (out["ws_tokens"] > 0).all()
        assert (out["n_chars"] >= out["n_words"]).all()

    def test_lang_id_stage(self, ray_session):
        ds = rd.from_pandas(
            pd.DataFrame(
                {
                    "doc_id": [1, 2],
                    "text": [
                        "the cat is in the house and the dog is near the door of the barn",
                        "la casa de los niños es muy grande y el perro vive en el jardín",
                    ],
                }
            )
        )
        out = ds.map_batches(training.LangIdStage, batch_format="pandas", concurrency=1).to_pandas()
        assert out.sort_values("doc_id")["lang_pred"].tolist() == ["en", "es"]

    def test_fingerprints_deterministic(self, docs_ds):
        a = training.doc_fingerprints(docs_ds).to_pandas().sort_values("doc_id")
        b = training.doc_fingerprints(docs_ds).to_pandas().sort_values("doc_id")
        assert a["fingerprint"].tolist() == b["fingerprint"].tolist()
        # exact dup docs share fingerprints
        f = dict(zip(a["doc_id"], a["fingerprint"]))
        assert f[5] == f[23]


class TestForcedWideParity:
    """wide_doc_rows=0 forces the coarse hash-partitioned pair kernels
    and the hash-partitioned verify join — results must be identical to
    the narrow (single-block + broadcast) path, same contract as
    tests/test_frontier_wide.py pins for the frontier."""

    def test_minhash_wide_matches_narrow(self, docs_ds):
        narrow = training.minhash_lsh_pairs(docs_ds, threshold=0.6).to_pandas()
        wide = training.minhash_lsh_pairs(
            docs_ds, threshold=0.6, wide_doc_rows=0, n_parts=5
        ).to_pandas()
        key = lambda df: sorted(
            (int(a), int(b), round(float(j), 9))
            for a, b, j in zip(df["doc_a"], df["doc_b"], df["jaccard"])
        )
        assert len(wide) > 0
        assert key(narrow) == key(wide)

    def test_containment_wide_matches_narrow(self, docs_ds):
        narrow = training.minhash_lsh_pairs(
            docs_ds, threshold=0.6, metric="containment"
        ).to_pandas()
        wide = training.minhash_lsh_pairs(
            docs_ds, threshold=0.6, metric="containment", wide_doc_rows=0, n_parts=5
        ).to_pandas()
        key = lambda df: sorted(
            (int(a), int(b), round(float(j), 9))
            for a, b, j in zip(df["doc_a"], df["doc_b"], df["containment"])
        )
        assert len(wide) > 0
        assert key(narrow) == key(wide)
        # containment dominates jaccard on every pair by definition
        jac = training.minhash_lsh_pairs(docs_ds, threshold=0.6).to_pandas()
        jmap = {(a, b): j for a, b, j in zip(jac["doc_a"], jac["doc_b"], jac["jaccard"])}
        cmap = {
            (a, b): c
            for a, b, c in zip(narrow["doc_a"], narrow["doc_b"], narrow["containment"])
        }
        shared = set(jmap) & set(cmap)
        assert shared and all(cmap[p] >= jmap[p] for p in shared)

    def test_simhash_wide_matches_narrow(self, docs_ds):
        narrow = training.simhash_pairs(docs_ds, max_hamming=6).to_pandas()
        wide = training.simhash_pairs(
            docs_ds, max_hamming=6, wide_doc_rows=0, n_parts=5
        ).to_pandas()
        key = lambda df: sorted(
            (int(a), int(b), int(h)) for a, b, h in zip(df["doc_a"], df["doc_b"], df["hamming"])
        )
        assert len(wide) > 0
        assert key(narrow) == key(wide)

    def test_connected_components_wide_matches_narrow(self, ray_session):
        # a path graph (1-2-3-4), a separate pair, and singletons —
        # exercises multi-hop propagation, not just cliques
        pairs = rd.from_pandas(
            pd.DataFrame({"doc_a": [1, 2, 3, 10], "doc_b": [2, 3, 4, 11]})
        )
        verts = rd.from_pandas(pd.DataFrame({"doc_id": list(range(1, 15))}))
        narrow = training.connected_components(pairs, verts).to_pandas()
        wide = training.connected_components(
            pairs, verts, wide_doc_rows=0, n_parts=5
        ).to_pandas()
        key = lambda df: sorted(
            (int(v), int(c)) for v, c in zip(df["doc_id"], df["cluster_id"])
        )
        expect = [(i, 1 if i in (1, 2, 3, 4) else (10 if i in (10, 11) else i)) for i in range(1, 15)]
        assert key(narrow) == sorted(expect)
        assert key(wide) == key(narrow)

    def test_dup_clusters_planted(self, docs_ds):
        out = training.dup_clusters(docs_ds, threshold=0.6).to_pandas()
        lbl = dict(zip(out["doc_id"].astype(int), out["cluster_id"].astype(int)))
        assert lbl[20] == lbl[21] == lbl[22] == 20  # near-dup cluster
        assert lbl[23] == lbl[5] == 5  # exact dup subsumed
        assert lbl[0] == 0 and lbl[7] == 7  # singletons

    def test_embedding_near_dup_wide_matches_narrow(self, emb_ds):
        narrow = training.embedding_near_dup_pairs(emb_ds, threshold=0.99, n_tables=4).to_pandas()
        wide = training.embedding_near_dup_pairs(
            emb_ds, threshold=0.99, n_tables=4, wide_doc_rows=0, n_parts=5
        ).to_pandas()
        key = lambda df: sorted((int(a), int(b)) for a, b in zip(df["vec_a"], df["vec_b"]))
        assert (10, 50) in key(wide)
        assert key(narrow) == key(wide)


class TestHashJoin:
    """pipelines/relational.hash_join: large-large equi-join semantics —
    inner match, 1:N fan-out, disjoint-column guard, post combiner."""

    def test_inner_join_and_post(self, ray_session):
        from searchgov_spider_ray.pipelines.relational import hash_join

        left = rd.from_pandas(
            pd.DataFrame({"k": pd.Series([1, 1, 2, 3], dtype="int64"),
                          "lv": pd.Series([10, 11, 20, 30], dtype="int64")})
        )
        right = rd.from_pandas(
            pd.DataFrame({"k": pd.Series([1, 2, 2, 4], dtype="int64"),
                          "rv": pd.Series([100, 200, 201, 400], dtype="int64")})
        )
        out = hash_join(left, right, on="k", n_parts=3).to_pandas()
        got = sorted(map(tuple, out[["k", "lv", "rv"]].to_numpy()))
        # k=1: 2x1 fan-out; k=2: 1x2; k=3/4 unmatched dropped
        assert got == [(1, 10, 100), (1, 11, 100), (2, 20, 200), (2, 20, 201)]

        agg = hash_join(
            left, right, on="k", n_parts=3,
            post=lambda df: df.groupby("k", as_index=False).agg(s=("rv", "sum")),
        ).to_pandas()
        assert sorted(map(tuple, agg[["k", "s"]].to_numpy())) == [(1, 200), (2, 401)]

    def test_int64_above_2_53_survives_exactly(self, ray_session):
        """Payload int64s must never round-trip through float64 (the
        union's null padding used to do that): hash ids >= 2^53 would be
        silently corrupted."""
        from searchgov_spider_ray.pipelines.relational import hash_join

        big = np.array([2**53 + 1, 2**62 + 12345, 7], dtype=np.int64)
        left = rd.from_pandas(pd.DataFrame({"k": [1, 2, 3], "big": big}))
        right = rd.from_pandas(pd.DataFrame({"k": [1, 2, 3], "tag": ["a", "b", "c"]}))
        out = hash_join(left, right, on="k").to_pandas().sort_values("k")
        assert out["big"].tolist() == big.tolist()

    def test_column_clash_raises(self, ray_session):
        from searchgov_spider_ray.pipelines.relational import hash_join

        a = rd.from_pandas(pd.DataFrame({"k": [1], "v": [2]}))
        b = rd.from_pandas(pd.DataFrame({"k": [1], "v": [3]}))
        with pytest.raises(ValueError, match="clash"):
            hash_join(a, b, on="k")


class TestPackWindows:
    def test_invariants_and_partitioning(self, ray_session):
        rng = np.random.RandomState(11)
        n = 300
        texts = [" ".join(f"w{j}" for j in range(rng.randint(0, 120))) for _ in range(n)]
        df = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64), "text": texts})
        out = (
            training.pack_windows(rd.from_pandas(df), capacity=64, part_size=37)
            .to_pandas()
            .sort_values(["doc_id", "window_id"])
            .reset_index(drop=True)
        )
        toks = df["text"].str.count(r"[^ \t\n\r\f\v]+").astype(np.int64)
        # every nonzero-token doc appears; zero-token docs don't
        assert set(out["doc_id"]) == set(df.loc[toks > 0, "doc_id"])
        # per-doc spans reassemble the doc exactly, in order, no overlap
        for d, g in out.groupby("doc_id"):
            assert g["tok_start"].iloc[0] == 0
            assert (g["tok_start"].to_numpy()[1:] ==
                    (g["tok_start"] + g["n_toks"]).to_numpy()[:-1]).all()
            assert g["n_toks"].sum() == toks[d]
        # every window except the last is exactly full
        per_win = out.groupby("window_id")["n_toks"].sum()
        assert (per_win.iloc[:-1] == 64).all()
        assert per_win.sum() == toks.sum()
        # concat order is doc_id order: each doc's global start (= total
        # tokens of smaller ids) falls inside its first span's window
        firsts = out.loc[out.groupby("doc_id")["window_id"].idxmin()].sort_values("doc_id")
        exp = np.concatenate(([0], np.cumsum(toks[toks > 0].to_numpy())[:-1]))
        w0 = firsts["window_id"].to_numpy()
        assert ((exp >= w0 * 64) & (exp < w0 * 64 + 64)).all()

    def test_sparse_noncontiguous_ids(self, ray_session):
        """Range partitioning by doc_id // part_size must handle gaps
        and partitions with a single doc."""
        ids = np.array([3, 7, 1000, 1001, 50_000, 123_456], dtype=np.int64)
        df = pd.DataFrame({"doc_id": ids, "text": ["w " * (i + 1) * 10 for i in range(len(ids))]})
        out = (
            training.pack_windows(rd.from_pandas(df), capacity=32, part_size=100)
            .to_pandas()
            .sort_values(["doc_id", "window_id"])
        )
        toks = df.set_index("doc_id")["text"].str.count(r"[^ \t\n\r\f\v]+")
        assert out.groupby("doc_id")["n_toks"].sum().to_dict() == toks.to_dict()
        # windows still form one global contiguous stream
        per_win = out.groupby("window_id")["n_toks"].sum()
        assert (per_win.iloc[:-1] == 32).all()


class TestTopTermsDFDispatch:
    """broadcast-DF vs term-co-partition DF attachment must agree —
    the stopword-skew hardening path (training.top_distinctive_terms)."""

    def test_forced_paths_agree(self, docs_ds):
        key = lambda df: sorted(
            zip(df["doc_id"], df["term"], df["tf"], df["df"], df["rank"])
        )
        bcast = training.top_distinctive_terms(docs_ds, broadcast_df=True).to_pandas()
        copart = training.top_distinctive_terms(docs_ds, broadcast_df=False).to_pandas()
        auto = training.top_distinctive_terms(docs_ds).to_pandas()
        assert len(bcast) > 0
        assert key(bcast) == key(copart) == key(auto)

    def test_auto_falls_back_on_huge_vocab(self, docs_ds):
        # a 0-row broadcast budget forces the co-partition path; results
        # still agree with the broadcast path
        wide = training.top_distinctive_terms(docs_ds, broadcast_df_rows=0).to_pandas()
        bcast = training.top_distinctive_terms(docs_ds, broadcast_df=True).to_pandas()
        key = lambda df: sorted(
            zip(df["doc_id"], df["term"], df["tf"], df["df"], df["rank"])
        )
        assert key(wide) == key(bcast)


def test_simhash_pairs_kernel_oversized_bucket_stays_connected():
    """A 250-member identical-hash bucket (logo/boilerplate shape) must
    not vanish: the kernel emits verified hub pairs (min-id star with
    Hamming check) instead of skipping — or the O(n^2) all-pairs set."""
    import numpy as np
    import pyarrow as pa

    from searchgov_spider_ray.pipelines.training import _simhash_pairs_kernel

    n = 250
    h = np.uint64(0xDEADBEEFCAFE1234)
    t = pa.table(
        {
            "band_id": pa.array(np.zeros(n, dtype=np.int32)),
            "band_key": pa.array(np.full(n, int(h & np.uint64(0xFFFF)), dtype=np.int32)),
            "doc_id": pa.array(np.arange(100, 100 + n, dtype=np.int64)),
            "simhash": pa.array(np.full(n, h, dtype=np.uint64)),
        }
    )
    out = _simhash_pairs_kernel(t, max_hamming=3)
    assert len(out) == n - 1  # hub (min id 100) to every other member
    assert set(out["doc_a"].to_pylist()) == {100}
    assert set(out["hamming"].to_pylist()) == {0}


class TestKnnSelfJoin:
    def test_matches_numpy_and_excludes_self(self, emb_ds):
        out = training.knn_self_join(emb_ds, k=3).to_pandas()
        assert len(out) == 200 * 3
        assert (out["query_id"] != out["neighbor_id"]).all()
        df = emb_ds.to_pandas().sort_values("vec_id")
        mat = np.vstack(df["embedding"].to_numpy()).astype(np.float64)
        matn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        sims = matn @ matn.T
        np.fill_diagonal(sims, -np.inf)
        for q in (0, 10, 50, 199):
            expect = np.lexsort((np.arange(200), -sims[q]))[:3]
            got = out[out["query_id"] == q].sort_values("nn_rank")["neighbor_id"].to_numpy()
            assert got.tolist() == expect.tolist(), q
        # the planted near-dup pair must be mutual rank-1 neighbors
        r1 = out[(out["query_id"] == 10) & (out["nn_rank"] == 1)]["neighbor_id"].item()
        r2 = out[(out["query_id"] == 50) & (out["nn_rank"] == 1)]["neighbor_id"].item()
        assert (r1, r2) == (50, 10)

    def test_cosine_ties_break_by_neighbor_id(self, ray_session):
        # three identical vectors + one orthogonal: for query 7 the two
        # clones tie at cosine 1.0 -> smaller id first
        vecs = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0]]
        df = pd.DataFrame(
            {"vec_id": np.array([7, 3, 5, 9], dtype=np.int64), "embedding": [np.array(v, dtype=np.float32) for v in vecs]}
        )
        out = training.knn_self_join(rd.from_pandas(df), k=3).to_pandas()
        got = out[out["query_id"] == 7].sort_values("nn_rank")["neighbor_id"].tolist()
        assert got == [3, 9, 5]

    def test_forced_wide_matches_broadcast(self, emb_ds):
        """Above broadcast_rows the join must DISPATCH to the chunked
        scan, not refuse — and the chunked result must be row-identical
        to the broadcast path (same per-pair dot products, same
        (-cosine, neighbor_id) tie order)."""
        narrow = (
            training.knn_self_join(emb_ds, k=3)
            .to_pandas()
            .sort_values(["query_id", "nn_rank"])
            .reset_index(drop=True)
        )
        wide = (
            training.knn_self_join(emb_ds, k=3, broadcast_rows=10, chunk_rows=37)
            .to_pandas()
            .sort_values(["query_id", "nn_rank"])
            .reset_index(drop=True)
        )
        assert len(narrow) == len(wide) == 200 * 3
        for c in ["query_id", "neighbor_id", "nn_rank"]:
            assert narrow[c].tolist() == wide[c].tolist(), c

    def test_forced_wide_tie_break(self, ray_session):
        # the clone-tie fixture through the chunked path: ties at
        # cosine 1.0 must still break by neighbor_id across chunks
        vecs = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0]]
        df = pd.DataFrame(
            {
                "vec_id": np.array([7, 3, 5, 9], dtype=np.int64),
                "embedding": [np.array(v, dtype=np.float32) for v in vecs],
            }
        )
        out = training.knn_self_join(
            rd.from_pandas(df), k=3, broadcast_rows=0, chunk_rows=2
        ).to_pandas()
        got = out[out["query_id"] == 7].sort_values("nn_rank")["neighbor_id"].tolist()
        assert got == [3, 9, 5]

    def test_tiny_corpus_n_below_k_both_paths(self, ray_session):
        """ADVICE r4: a corpus with fewer than k rows must degrade to
        k_eff = n-1 neighbors per query on BOTH paths (no shape crash,
        no self-sentinel rows leaking), and the paths must match."""
        vecs = [[1.0, 0.0], [0.8, 0.6], [0.0, 1.0]]
        df = pd.DataFrame(
            {
                "vec_id": np.array([2, 5, 9], dtype=np.int64),
                "embedding": [np.array(v, dtype=np.float32) for v in vecs],
            }
        )
        cols = ["query_id", "neighbor_id", "nn_rank"]
        narrow = (
            training.knn_self_join(rd.from_pandas(df), k=5)
            .to_pandas()
            .sort_values(["query_id", "nn_rank"])
            .reset_index(drop=True)
        )
        wide = (
            training.knn_self_join(
                rd.from_pandas(df), k=5, broadcast_rows=0, chunk_rows=2
            )
            .to_pandas()
            .sort_values(["query_id", "nn_rank"])
            .reset_index(drop=True)
        )
        assert len(narrow) == len(wide) == 3 * 2  # n-1 = 2 neighbors each
        assert (narrow["query_id"] != narrow["neighbor_id"]).all()
        for c in cols:
            assert narrow[c].tolist() == wide[c].tolist(), c

        # single-row corpus: no neighbors at all, empty on both paths
        one = df.iloc[:1]
        for kw in ({}, {"broadcast_rows": 0, "chunk_rows": 1}):
            out = training.knn_self_join(
                rd.from_pandas(one), k=3, **kw
            ).to_pandas()
            assert len(out) == 0


class TestCovariancePCA:
    def test_distributed_cov_is_exact_and_supports_pca(self, ray_session, sf_dir):
        import pyarrow.parquet as pq

        from searchgov_spider_ray.pipelines.queries import embedding_covariance
        from searchgov_spider_ray.pipelines.training import _as_matrix

        out = embedding_covariance(sf_dir)
        mat = _as_matrix(pq.read_table(f"{sf_dir}/embeddings.parquet")["embedding"])
        q = np.floor(mat * 1000.0 + 0.5).astype(np.int64)
        n, d = q.shape
        want = n * (q.T @ q) - np.outer(q.sum(0), q.sum(0))
        tri = np.zeros((d, d), dtype=np.int64)
        tri[out["i"].to_numpy(), out["j"].to_numpy()] = out["cov_num"].to_numpy()
        full = tri + tri.T - np.diag(np.diag(tri))
        assert np.array_equal(full, want)  # distributed == single-machine, exact
        # PCA on the distributed covariance matches local full-batch PCA
        _, v1 = np.linalg.eigh(full.astype(np.float64))
        _, v2 = np.linalg.eigh(np.cov(mat.T, bias=True))
        assert abs(float(v1[:, -1] @ v2[:, -1])) > 0.99


class TestShuffledPack:
    def test_spans_cover_docs_and_fill_windows(self, ray_session):
        import ray.data as rd
        from searchgov_spider_ray.pipelines import training

        rng = np.random.RandomState(7)
        texts = [" ".join(["w"] * rng.randint(0, 40)) for _ in range(200)]
        df = pd.DataFrame({"doc_id": np.arange(200, dtype=np.int64), "text": texts})
        out = training.pack_windows_shuffled(
            rd.from_pandas(df), capacity=64, part_size=32
        ).to_pandas()
        want = {i: len(t.split()) for i, t in enumerate(texts) if t.split()}
        got = out.groupby("doc_id")["n_toks"].sum().to_dict()
        assert got == want  # every token packed exactly once
        per_win = out.groupby("window_id")["n_toks"].sum()
        assert (per_win.drop(per_win.index.max()) == 64).all()  # full windows
        # shuffle order differs from id order: doc 0 is not first
        first_doc = out.sort_values(["window_id", "tok_start"]).iloc[0]["doc_id"]
        by_rank = training.global_shuffle_rank(
            rd.from_pandas(df[["doc_id"]])
        ).to_pandas()
        rank_of = dict(zip(by_rank["doc_id"], by_rank["shuffle_rank"]))
        nonzero = [i for i in want]
        assert first_doc == min(nonzero, key=lambda i: rank_of[i])


class TestGlobalShuffle:
    def test_rank_is_permutation_and_partition_invariant(self, ray_session):
        import ray.data as rd
        from searchgov_spider_ray.pipelines import training

        ids = np.arange(500, dtype=np.int64) * 7 + 3  # sparse, non-contiguous
        df = pd.DataFrame({"doc_id": ids})
        one = (
            training.global_shuffle_rank(rd.from_pandas(df))
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        many = (
            training.global_shuffle_rank(rd.from_pandas(df).repartition(13))
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert sorted(one["shuffle_rank"]) == list(range(500))  # contiguous 0..n-1
        pd.testing.assert_frame_equal(one, many)  # block layout can't change order
        # the order is actually shuffled, not id order
        by_rank = one.sort_values("shuffle_rank")["doc_id"].to_numpy()
        assert not np.array_equal(by_rank, np.sort(by_rank))


class TestCentroidAssign:
    def test_centroids_self_assign_and_cover(self, ray_session):
        import ray.data as rd
        from searchgov_spider_ray.pipelines import training

        rng = np.random.RandomState(11)
        vecs = rng.randn(60, 8)
        df = pd.DataFrame(
            {"vec_id": np.arange(60, dtype=np.int64), "embedding": list(vecs)}
        )
        ds = rd.from_pandas(df)
        out = training.centroid_assign(ds, centroid_ids=[0, 1, 2, 3]).to_pandas()
        assert len(out) == 60
        got = dict(zip(out["vec_id"], out["cluster_id"]))
        for c in (0, 1, 2, 3):
            assert got[c] == c  # a centroid is its own nearest centroid
        assert set(out["cluster_id"]).issubset({0, 1, 2, 3})

    def test_tie_breaks_to_lowest_centroid_id(self, ray_session):
        import ray.data as rd
        from searchgov_spider_ray.pipelines import training

        # two identical centroids: every vector ties, lowest id must win
        base = np.array([1.0, 0.0, 0.0])
        df = pd.DataFrame(
            {
                "vec_id": np.array([5, 9, 42], dtype=np.int64),
                "embedding": [base, base, np.array([1.0, 0.1, 0.0])],
            }
        )
        cent = pd.DataFrame(
            {
                "vec_id": np.array([5, 9], dtype=np.int64),
                "embedding": [base, base],
            }
        )
        ds = rd.from_pandas(pd.concat([df], ignore_index=True))
        out = training.centroid_assign(ds, centroid_ids=[5, 9]).to_pandas()
        assert (out["cluster_id"] == 5).all()


class TestQuotaSample:
    def test_exact_quotas_and_cap(self, ray_session):
        df = pd.DataFrame(
            {
                "doc_id": np.arange(100, dtype=np.int64),
                "source": ["a"] * 50 + ["b"] * 30 + ["c"] * 20,
            }
        )
        out = training.quota_sample(
            rd.from_pandas(df), {"a": 10, "b": 99}, default_quota=3
        ).to_pandas()
        got = out["source"].value_counts().to_dict()
        assert got == {"b": 30, "a": 10, "c": 3}  # b capped at |group|

    def test_invariant_under_partitioning(self, ray_session):
        df = pd.DataFrame(
            {
                "doc_id": np.arange(200, dtype=np.int64),
                "source": (["x", "y"] * 100),
            }
        )
        one = training.quota_sample(
            rd.from_pandas(df), {"x": 7, "y": 5}
        ).to_pandas()
        many = training.quota_sample(
            rd.from_pandas(df).repartition(13), {"x": 7, "y": 5}
        ).to_pandas()
        key = lambda d: sorted(map(tuple, d[["doc_id", "source"]].to_numpy()))
        assert key(one) == key(many)
        assert len(one) == 12
