"""Training-data operator tests: MinHash-LSH, SimHash, duplicate
clusters, language ID, fingerprints, packing, shuffling and sampling —
semantics pinned on planted fixtures; the driver's rows-only checks
lean on these."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
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


class TestTextStages:
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
