"""Per-job URL scope filtering: extension deny, deny-path regexes,
offsite host+path, query-string, depth limit.

Reference semantics (pinned by tests in
/root/reference/tests/search_gov_spiders/test_middlewares.py:15-43):
  - extension deny list FILTER_EXTENSIONS
    (helpers/domain_spider.py:10-27) applied at link extraction;
  - deny_paths regex fragments unioned with a global set
    (helpers/domain_spider.py:57-60);
  - offsite = host must match an allowed domain (host or subdomain,
    middlewares.py:147-153) AND the full URL must match the escaped
    path-scoped entries regex (middlewares.py:168-195) — entries that
    are URLs or carry ports are ignored with a warning;
  - query-string requests dropped unless ``allow_query_string``
    (middlewares.py:92-110);
  - depth limited to ``depth_limit`` (settings.py:58,
    spiders/domain_spider.py:121-134).

``JobScope`` compiles all patterns ONCE per job; ``evaluate`` runs over
a URL batch as ``pyarrow.compute`` passes and returns the deny reason
per URL (feeds ``golden_denied`` parity, FIXTURES.md §5). Deny reasons
are assigned in the fixed order extension → deny_path → offsite →
query_string → depth, mirroring where each filter sits in the reference
pipeline (extraction → middleware → scheduler). Inside the link chain a
reason travels as an int8 code (its index in ``REASONS``).
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.urlnorm import string_array

FILTER_EXTENSIONS = [
    # archives
    "7z", "7zip", "bz2", "rar", "tar", "tar.gz", "xz", "zip", "gz",
    # images
    "mng", "pct", "bmp", "gif", "jpg", "jpeg", "png", "pst", "psp", "image",
    "tif", "tiff", "ai", "drw", "dxf", "eps", "ps", "svg", "cdr", "ico",
    # audio
    "mp3", "wma", "ogg", "wav", "ra", "aac", "mid", "au", "aiff", "media",
    # video
    "3gp", "asf", "asx", "avi", "mov", "mp4", "mpg", "qt", "rm", "swf",
    "wmv", "m4a", "m4v", "flv", "webm",
    # office suites (html/pdf/doc/xls stay fetchable)
    "ppt", "pptx", "pps", "odt", "ods", "odg", "odp",
    # other
    "css", "exe", "bin", "rss", "dmg", "iso", "apk", "js", "xml", "ibooks",
    "ics", "nc", "nc4", "prj", "sfx", "eventsource", "fetch", "stylesheet",
    "websocket", "xhr", "font", "manifest", "hdf", "geojson",
]

_URL_ENTRY = re.compile(r"^https?://.*$")
_PORT_ENTRY = re.compile(r":\d+$")
# RE2 patterns: the host (up to a port) of scheme://netloc/path, and the
# prefix of a URL whose path follows
_SCHEME = r"^[a-z][a-z0-9+.-]*://"
_HOST_OF = _SCHEME + r"(?P<host>[^/:?#]*)"
_PATH_START = _SCHEME + r"[^/?#]*/"

KEEP = ""
DENY_EXTENSION = "extension"
DENY_PATH = "deny_path"
DENY_OFFSITE = "offsite"
DENY_QUERY = "query_string"
DENY_DEPTH = "depth"
DENY_ROBOTS = "robots"
DENY_DUPLICATE = "duplicate"

# Every reason, sorted: a reason's int8 code is its index here, so
# ``REASONS[codes]`` names codes and ``np.searchsorted(REASONS, names)``
# codes names.
REASONS = np.array(
    sorted(
        [KEEP, DENY_EXTENSION, DENY_PATH, DENY_OFFSITE, DENY_QUERY, DENY_DEPTH, DENY_ROBOTS,
         DENY_DUPLICATE]
    )
)
KEEP_CODE, EXTENSION_CODE, PATH_CODE, OFFSITE_CODE, QUERY_CODE, DEPTH_CODE, ROBOTS_CODE = (
    np.int8(np.searchsorted(REASONS, r))
    for r in (KEEP, DENY_EXTENSION, DENY_PATH, DENY_OFFSITE, DENY_QUERY, DENY_DEPTH, DENY_ROBOTS)
)


def _stamp(codes: np.ndarray, hit, code: np.int8) -> None:
    """Set ``code`` on the rows of ``hit`` (a boolean numpy or Arrow
    array) that are still in scope."""
    codes[np.asarray(hit) & (codes == KEEP_CODE)] = code


def _search_rows(rx: re.Pattern, urls: pa.Array, rows: np.ndarray) -> np.ndarray:
    """Rows of ``rows`` whose URL ``rx`` searches successfully (Python
    ``re``: user regexes keep their Python meaning)."""
    sub = urls.take(pa.array(rows, type=pa.int64())).to_pylist()
    return rows[np.fromiter((rx.search(u) is not None for u in sub), bool, len(rows))]


@dataclass
class JobScope:
    """Compiled scope for one crawl job. Construct once (per job / per
    actor), call :meth:`evaluate` per batch."""

    allowed_domains: list[str]
    deny_paths: list[str] = field(default_factory=list)
    allow_query_string: bool = False
    depth_limit: int = 3

    def __post_init__(self):
        hosts = []
        raw_hosts = []
        path_scoped = []
        for entry in self.allowed_domains or []:
            if entry is None:
                continue
            if _URL_ENTRY.match(entry):
                warnings.warn(f"allowed_domains accepts domains, not URLs; ignoring {entry}")
                continue
            host = entry.split("/", 1)[0]
            if _PORT_ENTRY.search(host):
                warnings.warn(f"allowed_domains accepts domains without ports; ignoring {entry}")
                continue
            hosts.append(re.escape(host))
            raw_hosts.append(host)
            path_scoped.append(re.escape(entry))
        self._host_re = re.compile(rf"^(.*\.)?({'|'.join(hosts)})$") if hosts else None
        # exact-host fast path: the common case is a direct host match;
        # the alternation regex only runs on hosts outside the exact set
        # (subdomains, junk)
        self._hosts = pa.array(raw_hosts, type=pa.string())
        # full-URL contains over ALL entries (middlewares.py:168-195).
        # When NO entry carries a path component the pass is skipped
        # entirely (None): a URL whose host matched necessarily CONTAINS
        # that host string, so bare-host entries make it a tautology.
        self._path_re = (
            re.compile("|".join(path_scoped))
            if any("/" in (e or "") for e in (self.allowed_domains or []))
            else None
        )
        deny = [d for d in (self.deny_paths or []) if d]
        self._deny_re = re.compile("|".join(deny)) if deny else None
        # the path (up to a query or fragment) ends in a denied extension
        exts = "|".join(re.escape(e) for e in FILTER_EXTENSIONS)
        self._ext_re = _PATH_START + rf"[^?#]*\.(?i:{exts})(?:[?#]|$)"

    def evaluate(self, urls, depths=None) -> np.ndarray:
        """Deny reason per URL ("" = in scope) as a numpy str array.

        ``urls`` is an Arrow string array or any sequence of str (a
        pandas Series too); ``depths`` the URLs' depths, if the depth
        limit applies. The fixed patterns (extension, host, query) are
        RE2 passes over the whole batch, so their ``$`` is the end of the
        URL, never before a final newline (canonical URLs hold none).
        The user's ``deny_paths`` regexes, path-scoped
        ``allowed_domains`` entries and subdomain hosts keep Python
        ``re`` and run on the rows still in scope only."""
        urls = pc.fill_null(string_array(urls), "")
        codes = np.full(len(urls), KEEP_CODE, dtype=np.int8)
        if len(urls) == 0:
            return REASONS[codes]
        _stamp(codes, pc.match_substring_regex(urls, self._ext_re), EXTENSION_CODE)

        if self._deny_re is not None:
            rows = np.flatnonzero(codes == KEEP_CODE)
            codes[_search_rows(self._deny_re, urls, rows)] = PATH_CODE

        if self._host_re is not None:
            hosts = pc.fill_null(pc.struct_field(pc.extract_regex(urls, _HOST_OF), "host"), "")
            host_ok = pc.is_in(hosts, value_set=self._hosts).to_numpy(zero_copy_only=False)
            miss = np.flatnonzero(~host_ok & (codes == KEEP_CODE))
            if len(miss):
                sub = hosts.take(pa.array(miss, type=pa.int64())).to_pylist()
                host_ok[miss] = np.fromiter(
                    (self._host_re.match(h) is not None for h in sub), bool, len(miss)
                )
            if self._path_re is not None:
                path_ok = np.zeros(len(urls), dtype=bool)
                keep = np.flatnonzero(host_ok & (codes == KEEP_CODE))
                path_ok[_search_rows(self._path_re, urls, keep)] = True
                host_ok &= path_ok
            _stamp(codes, ~host_ok, OFFSITE_CODE)

        if not self.allow_query_string:
            _stamp(codes, pc.match_substring(urls, "?"), QUERY_CODE)

        if depths is not None:
            _stamp(codes, np.asarray(depths) > self.depth_limit, DEPTH_CODE)
        return REASONS[codes]


ALLOWED_CONTENT_TYPE = [
    "text/html",
    "text/plain",
    "application/msword",
    "application/pdf",
    "application/vnd.ms-excel",
    "application/vnd.openxmlformats-officedocument.wordprocessingml.document",
    "application/vnd.openxmlformats-officedocument.spreadsheetml.sheet",
]
ES_ALLOWED_CONTENT_TYPE = ["text/html", "application/pdf"]
ALLOWED_CONTENT_TYPE_OUTPUT_MAP = {
    "csv": ALLOWED_CONTENT_TYPE,
    "endpoint": ALLOWED_CONTENT_TYPE,
    "elasticsearch": ES_ALLOWED_CONTENT_TYPE,
}


def content_type_mask(content_types: pd.Series, output_target: str) -> np.ndarray:
    """Vectorized content-type allowlist filter (reference:
    is_valid_content_type, helpers/domain_spider.py:30-50,77-85 —
    header like ``text/html; charset=utf-8`` matches on the media
    type)."""
    allowed = ALLOWED_CONTENT_TYPE_OUTPUT_MAP.get(output_target, ALLOWED_CONTENT_TYPE)
    simple = content_types.astype("string").fillna("").str.split(";").str[0].str.strip().str.lower()
    return simple.isin(allowed).to_numpy(dtype=bool)


def simple_content_type(content_types: pd.Series) -> pd.Series:
    """Raw header → simple media type (reference:
    get_simple_content_type, helpers/domain_spider.py:88-96)."""
    return content_types.astype("string").fillna("").str.split(";").str[0].str.strip().str.lower()
