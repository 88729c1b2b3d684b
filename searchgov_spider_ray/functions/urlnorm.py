"""URL canonicalization, SURT form, and URL part extraction.

Reference semantics: the link extractor + scrapy-redis request
fingerprint canonicalize URLs via w3lib before dedup (implicit
dependency, /root/reference/search_gov_crawler/requirements.txt:19-21);
URL part helpers live at
/root/reference/search_gov_crawler/elasticsearch/i14y_helper.py:145-180.

This module is the single source of truth for canonical forms: the Ray
pipeline, the reference simulator (goldens) and the checkpoint audit
tables all import these functions, so the URL-seen set is
well-defined independent of execution strategy.

Canonicalization (RFC 3986 normalization, w3lib-compatible in spirit):
  - lowercase scheme and host; strip credentials; strip default ports
  - strip fragment
  - remove dot-segments from the path; empty path -> "/"
  - uppercase retained percent-escapes, decode unreserved octets
  - sort query parameters by (key, value), keep blank values
SURT (Sort-friendly URI Reordering Transform, public Heritrix/web-archive
form): ``gov,usa,search)/path?query`` — host labels reversed and
comma-joined, scheme dropped, so per-domain ranges are contiguous under
a plain string sort (this is what makes ``sort(surt)`` group domains).
"""

from __future__ import annotations

import posixpath
import re
import string
from urllib.parse import quote, urlsplit

import pyarrow as pa
import pyarrow.compute as pc

_DEFAULT_PORTS = {"http": "80", "https": "443", "ftp": "21"}
_UNRESERVED = set(string.ascii_letters + string.digits + "-._~")
# sub-delims / valid literal chars we keep un-encoded per component.
_SAFE_PATH = set("/:@!$&'()*+,;=")
_SAFE_QUERY = set(":@!$&'()*+,;/?")
_WS_RE = re.compile(r"[\r\n\t]")
_HEX = set(string.hexdigits)


def _norm_pct(component: str, safe: set[str]) -> str:
    """RFC 3986 percent-normalization: decode escapes of UNRESERVED
    octets, uppercase the hex of retained escapes, percent-encode raw
    chars outside (unreserved ∪ safe). Reserved escapes like %2F stay
    encoded — decoding them would change path semantics."""
    out: list[str] = []
    i, n = 0, len(component)
    while i < n:
        c = component[i]
        if c == "%" and i + 2 < n and component[i + 1] in _HEX and component[i + 2] in _HEX:
            h = component[i + 1 : i + 3]
            ch = chr(int(h, 16))
            out.append(ch if ch in _UNRESERVED else "%" + h.upper())
            i += 3
        elif c in _UNRESERVED or c in safe:
            out.append(c)
            i += 1
        else:
            out.append(quote(c, safe=""))
            i += 1
    return "".join(out)


def canonicalize(url: str) -> str:
    """Canonical URL form used for dedup fingerprints and frontier keys.

    TOTAL function: a URL the stdlib cannot parse (bad port digits,
    unbalanced IPv6 bracket, …) canonicalizes to a deterministic
    ``invalid://`` form instead of raising — one malformed href on one
    page must never wedge the crawl (map_batches task crashes are
    deterministic across retries AND across checkpoint resume, so an
    exception here would be a permanent wedge; the reference's
    w3lib-based extractor tolerates these). ``invalid`` never matches
    an allowed domain, so the child flows through lineage as an offsite
    denial."""
    url = _WS_RE.sub("", url.strip())
    try:
        parts = urlsplit(url)
        scheme = parts.scheme.lower()
        host = (parts.hostname or "").lower().rstrip(".")
        port = parts.port
    except ValueError:
        return "invalid://" + quote(url, safe="")
    netloc = host
    if port is not None and str(port) != _DEFAULT_PORTS.get(scheme, ""):
        netloc = f"{host}:{port}"
    path = _norm_pct(parts.path, _SAFE_PATH)
    if path:
        # remove dot segments; posixpath.normpath collapses // too, keep that.
        trailing = path.endswith("/") and path != "/"
        path = posixpath.normpath(path)
        if path == ".":
            path = ""
        elif trailing and not path.endswith("/"):
            path += "/"
    if not path:
        path = "/"
    query = ""
    if parts.query:
        pairs = []
        for piece in parts.query.split("&"):
            if not piece:
                continue
            k, _, v = piece.partition("=")
            pairs.append((_norm_pct(k, _SAFE_QUERY), _norm_pct(v, _SAFE_QUERY)))
        pairs.sort()
        query = "&".join(f"{k}={v}" for k, v in pairs)
    out = f"{scheme}://{netloc}{path}"
    if query:
        out += f"?{query}"
    return out


# A URL already in canonical form: lowercase http(s) scheme; a bare
# lowercase host of dot-separated non-empty labels (no port, userinfo or
# trailing dot); a path of unreserved + sub-delim chars, no percent
# escapes, whose segments are neither empty (but the last) nor "." or
# ".." — so no "//", "/./" or "/../" and no "/." or "/.." ending; no
# query or fragment. Such a URL is a fixed point of ``canonicalize``.
# RE2 syntax (``$`` is the end of text, not before a final newline).
_PCHAR = "A-Za-z0-9\\-_~:@!$&'()*+,;="  # path-segment chars but "."
_SEG = rf"(?:[{_PCHAR}]|\.[{_PCHAR}]|\.\.[{_PCHAR}.])[{_PCHAR}.]*"
_CANONICAL_RE = rf"^https?://[a-z0-9\-]+(?:\.[a-z0-9\-]+)*/(?:{_SEG}/)*(?:{_SEG})?$"


def string_array(values) -> pa.Array:
    """``values`` (an Arrow string array, chunked or not, or any sequence
    of str/None) as one Arrow string array."""
    if isinstance(values, pa.ChunkedArray):
        return values.combine_chunks()
    if isinstance(values, pa.Array):
        return values
    return pa.array(values, type=pa.string(), from_pandas=True)


def canonicalize_batch(urls) -> pa.Array:
    """``canonicalize`` over an array of URLs, as an Arrow string array.

    Fast path: a URL that matches ``_CANONICAL_RE`` is provably a fixed
    point of ``canonicalize`` and passes through unchanged; the test is
    one RE2 pass in ``pyarrow.compute``. Only the residue pays the
    per-URL Python normalization, spliced back with one
    ``replace_with_mask``. Extracted web links are overwhelmingly
    already canonical, so this removes the hottest per-URL cost of the
    link chain (equality with the scalar path is pinned by tests)."""
    arr = string_array(urls)
    slow = pc.invert(pc.match_substring_regex(arr, _CANONICAL_RE))
    if not pc.any(slow).as_py():
        return arr
    fixed = [canonicalize(u) for u in arr.filter(slow).to_pylist()]
    return pc.replace_with_mask(arr, slow, pa.array(fixed, type=pa.string()))


def surt(url: str) -> str:
    """SURT form of an (already canonical) URL — the frontier sort key."""
    parts = urlsplit(url)
    host = (parts.hostname or "").lower().rstrip(".")
    labels = ",".join(reversed(host.split("."))) if host else ""
    out = labels + ")" + (parts.path or "/")
    if parts.query:
        out += "?" + parts.query
    return out


def host_of(url: str) -> str:
    """Lowercased registered host (reference: get_domain_name,
    i14y_helper.py:158-163)."""
    return (urlsplit(url).hostname or "").lower().rstrip(".")


def path_of(url: str) -> str:
    return urlsplit(url).path or "/"


def query_of(url: str) -> str:
    return urlsplit(url).query


def basename_extension(url: str) -> tuple[str, str]:
    """(basename, lowercased extension-with-dot) of the URL path
    (reference: get_base_extension, i14y_helper.py:150-156)."""
    path = urlsplit(url).path
    base = posixpath.basename(path)
    _, dot, ext = base.rpartition(".")
    return base, ("." + ext.lower()) if dot and ext else ""


def ensure_http_prefix(url: str) -> str:
    """Prefix https:// when scheme missing (reference: i14y_helper.py:176-180)."""
    if not url:
        return url
    if not re.match(r"^[a-zA-Z][a-zA-Z0-9+.-]*://", url):
        return "https://" + url
    return url


def join_url(base: str, link: str) -> str:
    """Resolve a possibly-relative link against its page URL."""
    from urllib.parse import urljoin

    return urljoin(base, link)


def separate_file_name(file_name: str) -> str:
    """Split camelCase / snake / digit boundaries into words
    (reference: separate_file_name, i14y_helper.py:136-142)."""
    s = re.sub(r"[_\-]+", " ", file_name)
    s = re.sub(r"(?<=[a-z])(?=[A-Z])", " ", s)
    s = re.sub(r"(?<=[A-Za-z])(?=[0-9])", " ", s)
    s = re.sub(r"(?<=[0-9])(?=[A-Za-z])", " ", s)
    return re.sub(r"\s+", " ", s).strip()
