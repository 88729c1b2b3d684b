"""Property-based tests (hypothesis) for the parity-critical pure
functions: the invariants the oracle/golden comparisons rely on must
hold for ARBITRARY inputs, not just the fixtures."""

from __future__ import annotations

import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from searchgov_spider_ray.functions import textstats, urlnorm
from searchgov_spider_ray.functions.hashing import xxhash64, xxhash64_array

# URL-ish text: printable ASCII + some unicode, occasionally malformed
_urlish = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF),
    max_size=120,
)
_anytext = st.text(max_size=300)


class TestCanonicalizeProperties:
    @settings(max_examples=300, deadline=None)
    @given(_urlish)
    def test_total_and_idempotent(self, raw):
        """canonicalize never raises, and canonicalizing a canonical
        form is a fixed point (the dedup key must be stable)."""
        once = urlnorm.canonicalize("https://example.gov/" + raw)
        assert isinstance(once, str)
        assert urlnorm.canonicalize(once) == once

    @settings(max_examples=200, deadline=None)
    @given(_urlish)
    def test_total_on_arbitrary_scheme_junk(self, raw):
        out = urlnorm.canonicalize(raw)
        assert isinstance(out, str)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_urlish, max_size=30))
    def test_batch_matches_scalar(self, raws):
        urls = ["https://a.gov/" + r for r in raws]
        batch = urlnorm.canonicalize_batch(np.array(urls, dtype=object))
        assert batch.to_pylist() == [urlnorm.canonicalize(u) for u in urls]


class TestHashProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.binary(max_size=300), max_size=40), st.integers(0, 2**64 - 1))
    def test_array_matches_scalar(self, vals, seed):
        got = xxhash64_array(vals, seed)
        assert [int(v) for v in got] == [xxhash64(v, seed) for v in vals]


class TestTextKernelProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_anytext, max_size=20))
    def test_lang_batch_matches_scalar(self, texts):
        got = textstats.detect_lang_batch(pd.Series(texts, dtype=object))
        assert list(got) == [textstats.detect_lang(t) for t in texts]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_anytext, max_size=20))
    def test_fingerprint_batch_matches_scalar(self, texts):
        got = textstats.fingerprint_batch(texts)
        exp = [textstats.fingerprint(t) for t in texts]
        assert [int(v) for v in got] == exp


class TestDsirHashProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.text(min_size=1, max_size=60), min_size=1, max_size=40))
    def test_bucket_matches_scalar_polynomial(self, tokens):
        """The padded-UTF32-view matmul bucket kernel must equal the
        per-token scalar polynomial (Σ (cp_k & 255)·131^k mod 2^31−1,
        first 32 codepoints, mod 4096) — the contract the DuckDB
        replay's pw-table join implements."""
        from searchgov_spider_ray.pipelines.queries import (
            _DSIR_BUCKETS,
            _DSIR_MAXLEN,
            _DSIR_MOD,
            _dsir_buckets,
        )

        got = _dsir_buckets(np.array(tokens, dtype=object))
        for tok, b in zip(tokens, got):
            h = 0
            v = 1
            for ch in tok[:_DSIR_MAXLEN]:
                h = (h + (ord(ch) & 255) * v) % _DSIR_MOD
                v = (v * 131) % _DSIR_MOD
            assert int(b) == h % _DSIR_BUCKETS, tok

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(min_size=1, max_size=60), min_size=1, max_size=12))
    def test_bucket_independent_of_batch_padding(self, tokens):
        """A token's bucket must not depend on the OTHER tokens in its
        batch (the padded view width varies with the batch's longest
        token — padding must contribute nothing)."""
        from searchgov_spider_ray.pipelines.queries import _dsir_buckets

        batch = _dsir_buckets(np.array(tokens, dtype=object))
        for tok, b in zip(tokens, batch):
            solo = _dsir_buckets(np.array([tok], dtype=object))
            assert int(solo[0]) == int(b), tok
