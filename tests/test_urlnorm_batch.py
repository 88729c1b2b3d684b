"""canonicalize_batch fast path must agree with scalar canonicalize on
every URL — fast-path-eligible, tricky, and malformed alike."""

from __future__ import annotations

import numpy as np

from searchgov_spider_ray.functions.urlnorm import canonicalize, canonicalize_batch

CASES = [
    # fast-path eligible (already canonical)
    "https://site0.example.gov/p0.html",
    "http://a.gov/",
    "https://a-b.example.gov/path/to/page,v=2",
    "https://a.gov/x/y/z/",
    "https://a.gov/p!$&'()*+;=:@x",
    # slow path: needs normalization
    "HTTPS://A.Gov/p0.html",
    "https://a.gov",                       # empty path
    "https://a.gov:443/x",                 # default port strip
    "https://a.gov:8080/x",                # non-default port kept
    "https://user:pw@a.gov/x",             # credentials strip
    "https://a.gov/x/../y",                # dot segments
    "https://a.gov/x/./y",
    "https://a.gov//x",
    "https://a.gov/x/.",
    "https://a.gov/x/..",
    "https://a.gov/x?b=2&a=1",             # query sort
    "https://a.gov/x?",
    "https://a.gov/x#frag",
    "https://a.gov./x",                    # trailing-dot host
    "https://a..gov/x",                    # empty label host
    "https://a.gov/%7Euser/%2fesc%41",     # pct-normalization
    "https://a.gov/sp ace",
    "ftp://a.gov/x",
    "https://a.gov/ümlaut",
    "  https://a.gov/x\t",                 # whitespace strip
    "https://a.gov/x\n",                   # trailing newline strip
    "https://a.gov/x/\n",
    "",
]


def test_batch_matches_scalar():
    got = canonicalize_batch(np.array(CASES, dtype=object)).to_pylist()
    want = [canonicalize(u) for u in CASES]
    for u, g, w in zip(CASES, got, want):
        assert g == w, f"{u!r}: batch={g!r} scalar={w!r}"


def test_empty():
    assert len(canonicalize_batch(np.array([], dtype=object))) == 0
