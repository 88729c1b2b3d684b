"""Unit tests for the pure-function layer: hashing, urlnorm, content,
textstats, simdedup. Mirrors the reference's table-driven operator
tests (SURVEY.md §5.2)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from searchgov_spider_ray.functions import content, simdedup, textstats, urlnorm
from searchgov_spider_ray.functions.hashing import (
    sha256_hex,
    shake_id,
    xxhash64,
    xxhash64_array,
)


class TestXXHash64:
    # Published xxHash64 test vectors (xxHash repo / python-xxhash docs).
    def test_known_vectors(self):
        assert xxhash64(b"") == 0xEF46DB3751D8E999
        assert xxhash64(b"a") == 0xD24EC4F1A98C6E5B
        assert xxhash64(b"abc") == 0x44BC2CF5AD770999
        assert xxhash64(b"Nobody inspects the spammish repetition") == 0xFBCEA83C8A378BF1

    def test_seed_changes_hash(self):
        assert xxhash64(b"abc", 1) != xxhash64(b"abc", 0)

    def test_str_equals_utf8_bytes(self):
        assert xxhash64("héllo") == xxhash64("héllo".encode("utf-8"))

    def test_array_matches_scalar(self):
        urls = ["", "a", "https://example.gov/x?a=1", "x" * 100]
        arr = xxhash64_array(urls)
        assert arr.dtype == np.uint64
        assert [int(v) for v in arr] == [xxhash64(u) for u in urls]

    def test_array_matches_scalar_all_tail_classes(self):
        # every length 0..96 hits every (stripe, 8-byte, 4-byte, 1-byte)
        # tail combination of the spec; mixed lengths exercise the
        # length-sorted lockstep prefixes and the un-permute
        import random

        rng = random.Random(123)
        vals = [bytes(rng.randrange(256) for _ in range(n)) for n in range(97)]
        vals += [bytes(rng.randrange(256) for _ in range(n)) for n in (255, 256, 4096, 4097)]
        rng.shuffle(vals)
        for seed in (0, 7, 2**64 - 1):
            arr = xxhash64_array(vals, seed)
            assert [int(v) for v in arr] == [xxhash64(v, seed) for v in vals]

    def test_ids(self):
        assert sha256_hex("abc") == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )
        assert len(shake_id("job", "x")) == 10
        assert shake_id("a") != shake_id("b")


class TestCanonicalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("HTTP://Example.GOV/Path", "http://example.gov/Path"),
            ("https://example.gov:443/a", "https://example.gov/a"),
            ("https://example.gov:8443/a", "https://example.gov:8443/a"),
            ("https://example.gov", "https://example.gov/"),
            ("https://example.gov/a/../b/./c", "https://example.gov/b/c"),
            ("https://example.gov/a#frag", "https://example.gov/a"),
            ("https://example.gov/a?b=2&a=1", "https://example.gov/a?a=1&b=2"),
            ("https://example.gov/a%7Eb", "https://example.gov/a~b"),
            ("https://example.gov/a%2fb", "https://example.gov/a%2Fb"),
            ("https://example.gov/dir/", "https://example.gov/dir/"),
            ("  https://example.gov/a\n", "https://example.gov/a"),
        ],
    )
    def test_cases(self, raw, expected):
        assert urlnorm.canonicalize(raw) == expected

    def test_idempotent(self):
        urls = [
            "https://Example.gov:443/a/../b?z=1&a=&a=2#f",
            "http://sub.agency.example.gov/path/file.PDF?x=%7e",
        ]
        for u in urls:
            once = urlnorm.canonicalize(u)
            assert urlnorm.canonicalize(once) == once

    def test_surt_sorts_by_domain(self):
        s1 = urlnorm.surt("https://a.example.gov/z")
        s2 = urlnorm.surt("https://b.example.gov/a")
        s3 = urlnorm.surt("https://example.com/a")
        # example.gov hosts group together under sort, before/after .com block
        assert s1.startswith("gov,example,a)") and s2.startswith("gov,example,b)")
        assert sorted([s3, s1, s2]) == [s3, s1, s2]

    def test_parts(self):
        u = "https://www.example.gov/docs/Report.PDF?x=1"
        assert urlnorm.host_of(u) == "www.example.gov"
        assert urlnorm.path_of(u) == "/docs/Report.PDF"
        assert urlnorm.query_of(u) == "x=1"
        assert urlnorm.basename_extension(u) == ("Report.PDF", ".pdf")
        assert urlnorm.ensure_http_prefix("example.gov/a") == "https://example.gov/a"
        assert urlnorm.ensure_http_prefix("http://x.gov") == "http://x.gov"
        assert urlnorm.join_url("https://a.gov/dir/page.html", "../other") == "https://a.gov/other"

    def test_separate_file_name(self):
        assert urlnorm.separate_file_name("myFile_name2023v1") == "my File name 2023 v 1"


class TestContent:
    def test_sanitize_text(self):
        assert content.sanitize_text("a\x00b&nbsp;c   d\n\n\n") == "ab c d"
        assert content.sanitize_text("   \n\x07  ") is None
        assert content.sanitize_text(None) is None

    def test_sanitize_series_matches_scalar_on_simple_text(self):
        s = pd.Series(["a&nbsp;b   c", "x\x01y"])
        out = content.sanitize_series(s)
        assert out.tolist() == ["a b c", "xy"]

    def test_decode_body(self):
        assert content.decode_body("héllo".encode("utf-8")) == "héllo"
        # bare UTF-16 BOM: detection chain decodes it to empty text
        # (reference chain: utf-8 fails -> detect utf-16 -> decode)
        assert content.decode_body(b"\xff\xfe") == ""
        # detection miss falls through to latin-1 (total fallback)
        assert content.decode_body(b"\xff\xfe\xfd" * 2) != ""

    def test_detect_encoding_viscii_remap(self, monkeypatch):
        # reference encoding.py:15-17 — python lacks VISCII, use cp1258
        monkeypatch.setattr(content, "_detect_raw", lambda data: "VISCII")
        assert content.detect_encoding(b"xin chao") == "cp1258"
        monkeypatch.setattr(content, "_detect_raw", lambda data: None)
        assert content.detect_encoding(b"") is None

    def test_decode_http_response_chain(self, monkeypatch):
        # utf-8 first (encoding.py:25-26)
        assert content.decode_http_response("héllo".encode("utf-8")) == "héllo"
        # detected-encoding branch (encoding.py:27-30)
        monkeypatch.setattr(content, "_detect_raw", lambda data: "cp1252")
        assert content.decode_http_response("café".encode("cp1252")) == "café"
        # total fallback = str(bytes) repr, reference encoding.py:31-32
        monkeypatch.setattr(content, "_detect_raw", lambda data: None)
        assert content.decode_http_response(b"\xff\xfe") == str(b"\xff\xfe")

    def test_language_code(self):
        assert content.get_language_code("en-US") == "en"
        assert content.get_language_code("FR") == "fr"
        assert content.get_language_code("") is None
        assert content.get_language_code("1x") is None


class TestTextStats:
    def test_detect_lang(self):
        en = "The quick brown fox jumps over the lazy dog and the cat is in the house"
        es = "la casa de los niños es muy grande y el perro que vive allí también"
        assert textstats.detect_lang(en) == "en"
        assert textstats.detect_lang(es) == "es"
        assert textstats.detect_lang("") is None

    def test_token_counts(self):
        out = textstats.token_counts(pd.Series(["a b  c", "hello, world!", ""]))
        assert out["ws_tokens"].tolist() == [3, 2, 0]
        assert out["bpe_tokens"].tolist() == [3, 4, 0]

    def test_quality_scores(self):
        out = textstats.quality_scores(pd.Series(["The cat sat on the mat."]))
        row = out.iloc[0]
        assert row["n_words"] == 6
        assert row["stopword_ratio"] == pytest.approx(3 / 6)
        assert 0 < row["punct_ratio"] < 0.1

    def test_fingerprint_and_hashes(self):
        a = "word " * 100
        b = "word " * 100 + "tail"
        assert textstats.fingerprint(a) == textstats.fingerprint(a)
        h = textstats.content_hashes(pd.Series(["A  b", "a b", "c"]))
        assert h[0] == h[1] != h[2]


class TestSimDedup:
    def test_minhash_similar_docs_agree(self):
        mh = simdedup.MinHasher(num_perm=128)
        base = "the quick brown fox jumps over the lazy dog " * 20
        near = base + "extra tail words here"
        far = "completely different content about tax forms " * 20
        s1 = mh.signature(simdedup.shingle_hashes(base))
        s2 = mh.signature(simdedup.shingle_hashes(near))
        s3 = mh.signature(simdedup.shingle_hashes(far))
        sim12 = (s1 == s2).mean()
        sim13 = (s1 == s3).mean()
        assert sim12 > 0.6 > sim13

    def test_band_keys_lsh(self):
        mh = simdedup.MinHasher(num_perm=128)
        sig = mh.signature(simdedup.shingle_hashes("a b c d e f g h i j"))
        keys = mh.band_keys(sig, bands=16)
        assert len(keys) == 16
        # identical docs share all bands
        assert np.array_equal(keys, mh.band_keys(sig, bands=16))

    def test_simhash_hamming(self):
        a = simdedup.simhash("the quick brown fox jumps over the lazy dog " * 10)
        b = simdedup.simhash("the quick brown fox jumps over the lazy cat " * 10)
        c = simdedup.simhash("totally unrelated text about something else " * 10)
        d_ab = simdedup.hamming64(np.array([a], dtype=np.uint64), np.array([b], dtype=np.uint64))[0]
        d_ac = simdedup.hamming64(np.array([a], dtype=np.uint64), np.array([c], dtype=np.uint64))[0]
        assert d_ab < d_ac

    def test_jaccard(self):
        a = np.array([1, 2, 3, 4], dtype=np.uint64)
        b = np.array([3, 4, 5, 6], dtype=np.uint64)
        assert simdedup.jaccard(a, b) == pytest.approx(2 / 6)
        assert simdedup.jaccard(a, a) == 1.0


class TestStratifiedSample:
    """sample_stratified is a pure function of (key, stratum): identical
    survivors under any partitioning, exact per-row predicate."""

    def test_partition_invariance(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from searchgov_spider_ray.pipelines.training import sample_stratified

        df = pd.DataFrame(
            {
                "doc_id": pd.Series(range(1000), dtype="int64"),
                "lang": ["en" if i % 3 == 0 else "de" for i in range(1000)],
            }
        )
        rates = {"en": 200_000}
        one = sample_stratified(
            rd.from_pandas(df).repartition(1), rate_micros=rates, default_micros=800_000
        ).to_pandas()
        many = sample_stratified(
            rd.from_pandas(df).repartition(13), rate_micros=rates, default_micros=800_000
        ).to_pandas()
        assert sorted(one["doc_id"]) == sorted(many["doc_id"])
        # rough rate sanity: strata land near their targets
        en = one[one["lang"] == "en"]
        de = one[one["lang"] == "de"]
        assert 0.1 < len(en) / 334 < 0.3
        assert 0.7 < len(de) / 666 < 0.9


class TestTopTerms:
    def test_tf_then_df_then_term(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from searchgov_spider_ray.pipelines.training import top_distinctive_terms

        docs = rd.from_pandas(
            pd.DataFrame(
                {
                    "doc_id": pd.Series([0, 1, 2], dtype="int64"),
                    "text": [
                        "apple apple banana cherry",  # tf: apple 2 wins; banana/cherry tie on tf
                        "banana banana cherry",
                        "cherry date",
                    ],
                }
            )
        )
        out = top_distinctive_terms(docs, k=2).to_pandas()
        d0 = out[out["doc_id"] == 0].sort_values("rank")
        # rank 1: apple (tf 2); rank 2: banana (tf 1, df 2) beats cherry (df 3)
        assert d0["term"].tolist() == ["apple", "banana"]
        assert d0["tf"].tolist() == [2, 1]
        assert d0["df"].tolist() == [1, 2]
        d2 = out[out["doc_id"] == 2].sort_values("rank")
        # date (df 1) outranks cherry (df 3) at equal tf
        assert d2["term"].tolist() == ["date", "cherry"]


def test_xxhash_array_multi_block(monkeypatch):
    """Force the length-sorted lockstep path to split across several
    padded-matrix blocks; hashes must be identical to single-block."""
    import searchgov_spider_ray.functions.hashing as H

    vals = [("x%d" % i) * (i % 37 + 1) for i in range(500)] + ["y" * 5000]
    expect = H.xxhash64_array(vals)
    monkeypatch.setattr(H, "_BLOCK_BYTES", 4096)  # tiny budget -> many blocks
    got = H.xxhash64_array(vals)
    assert (got == expect).all()


class TestCanonicalizeTotal:
    def test_malformed_urls_never_raise(self):
        bad = [
            "http://h:8o80/x",      # non-numeric port
            "http://[x",            # unbalanced IPv6 bracket
            "https://example.gov:99999999999999999999/x",
        ]
        for u in bad:
            out = urlnorm.canonicalize(u)
            assert out.startswith("invalid://"), out
        # batch path routes the same inputs through the scalar fallback
        outs = urlnorm.canonicalize_batch(np.array(bad, dtype=object)).to_pylist()
        assert all(o.startswith("invalid://") for o in outs)

    def test_invalid_form_is_offsite_denied(self):
        from searchgov_spider_ray.stages.scope import JobScope

        scope = JobScope(allowed_domains=["example.gov"])
        canon = urlnorm.canonicalize("http://h:8o80/x")
        reason = scope.evaluate(pd.Series([canon], dtype="object"))[0]
        assert reason == "offsite"


