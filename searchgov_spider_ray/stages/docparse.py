"""Document parsing: HTML → structured doc, PDF → structured doc
(stubbed extraction), i14y-shaped record assembly, extractive
summary/keywords, date parsing.

Reference operators covered (SURVEY.md §2.3):
  M11 convert_html (elasticsearch/convert_html_i14y.py:18-82)
  M12 fallback meta/content parser (elasticsearch/parse_html_scrapy.py:4-77)
  M13 convert_pdf (elasticsearch/convert_pdf_i14y.py:77-140) — pypdf is
      not installed here, so PDF text extraction is a CLEARLY-MARKED
      stub: real parse raises NotImplementedError; the deterministic
      fallback handles the synthetic corpus' fake-PDF bodies so the
      Ray-side plumbing (schema, batching, doc assembly) is exercised.
  M14 sanitizer (via functions.content)
  M15 language detection (functions.textstats trigram heuristic in
      place of langdetect)
  M16 parse_date_safely (i14y_helper.py:32-57) + PDF D:-dates
      (convert_pdf_i14y.py:184-229)
  M17/M18 URL part extraction + filename splitting (functions.urlnorm)
  A7  top-3-sentence summary + top-10 keywords (i14y_helper.py:78-133)

The reference emits ES docs with language-SUFFIXED field names
(title_en, content_zh, … — i14y_helper.py:16-27); we normalize to
fixed ``title/description/content`` columns + a ``language`` column
(SURVEY.md §1.1) and reconstruct suffixes only at the sink boundary
(:func:`to_i14y_record`).

Parsing is per-row (regex over one document) inside a batched stage —
there is no vectorized HTML parser; the stage class compiles patterns
once per worker.
"""

from __future__ import annotations

import re

import pandas as pd
import pyarrow as pa

from ..functions.content import decode_body, get_language_code, sanitize_text
from ..functions.hashing import sha256_hex
from ..functions.textstats import detect_lang
from ..functions.urlnorm import basename_extension, host_of, path_of, separate_file_name

_TITLE = re.compile(r"<title[^>]*>(.*?)</title>", re.IGNORECASE | re.DOTALL)
_HTML_LANG = re.compile(r"<html\b[^>]*\blang=[\"']?([A-Za-z-]+)", re.IGNORECASE)
# attribute values are quote-MATCHED (\"...\" | '...'), not a shared
# [^"'] class — content=\"Biden's plan\" must not truncate at the
# apostrophe
_Q = "(?:\"([^\"]*)\"|'([^']*)')"
_META = re.compile(
    rf"<meta\b[^>]*(?:name|property)={_Q}[^>]*content={_Q}",
    re.IGNORECASE,
)
_META_REV = re.compile(
    rf"<meta\b[^>]*content={_Q}[^>]*(?:name|property)={_Q}",
    re.IGNORECASE,
)


def _q(a: str | None, b: str | None) -> str:
    return a if a is not None else (b or "")
_TAGS = re.compile(r"<[^>]+>")
# the lazy block scan is LENGTH-BOUNDED: an unclosed <a>/<script> would
# otherwise make every occurrence scan to end-of-document (measured
# O(n^2): 7.2 s on a 184 KB page of unclosed anchors). Blocks longer
# than the bound keep their tail text — bounded loss on malformed HTML
# beats wedging the parse actor.
_DROP_BLOCKS = re.compile(
    r"<(script|style|button)\b.{0,20000}?</\1\s*>|<a\b.{0,2000}?</a\s*>",
    re.IGNORECASE | re.DOTALL,
)
_WORD = re.compile(r"[A-Za-z']+")
_SENT_SPLIT = re.compile(r"(?<=[.!?])\s+")
_STOP = frozenset(
    "the of and a to in is was he for it with as his on be at by i this had not are but "
    "from or have an they which one you were her all she there would their we him been "
    "has when who will more no if out so said what its about into than them can only".split()
)


def parse_date_safely(value) -> str | None:
    """Best-effort parse to ISO '%Y-%m-%dT%H:%M:%S' string or None
    (reference: i14y_helper.py:32-57 uses fuzzy dateutil; we accept the
    formats its tests exercise)."""
    if value is None:
        return None
    s = str(value).strip()
    if not s:
        return None
    m = re.match(r"^D:(\d{4})(\d{2})?(\d{2})?(\d{2})?(\d{2})?(\d{2})?", s)
    if m:  # PDF D:YYYYMMDDHHmmSS (convert_pdf_i14y.py:184-229)
        parts = [m.group(i) or ("01" if i in (2, 3) else "00") for i in range(1, 7)]
        try:
            ts = pd.Timestamp(
                year=int(parts[0]), month=int(parts[1]), day=int(parts[2]),
                hour=int(parts[3]), minute=int(parts[4]), second=int(parts[5]),
            )
        except ValueError:
            return None
        return ts.strftime("%Y-%m-%dT%H:%M:%S")
    try:
        ts = pd.Timestamp(s)
    except (ValueError, TypeError):
        return None
    if pd.isna(ts):  # pd.Timestamp("NaT") SUCCEEDS; strftime would raise
        return None
    if ts.tz is not None:
        ts = ts.tz_convert("UTC").tz_localize(None)
    return ts.strftime("%Y-%m-%dT%H:%M:%S")


def extract_meta(html: str) -> dict[str, str]:
    """name/property → content for both attribute orders."""
    out: dict[str, str] = {}
    for n1, n2, c1, c2 in _META.findall(html):
        out.setdefault(_q(n1, n2).lower(), _q(c1, c2))
    for c1, c2, n1, n2 in _META_REV.findall(html):
        out.setdefault(_q(n1, n2).lower(), _q(c1, c2))
    return out


def extract_article_content(html: str) -> str:
    """Visible text excluding script/style/button/anchor blocks
    (reference: parse_html_scrapy.extract_article_content :4-21)."""
    body = _DROP_BLOCKS.sub(" ", html)
    text = _TAGS.sub(" ", body)
    return sanitize_text(text) or ""


def summarize_text(text: str) -> tuple[str | None, str | None]:
    """Top-3 sentences by summed word frequency + top-10 keywords by
    frequency excluding stopwords (reference: summarize_text,
    i14y_helper.py:78-133; nltk replaced by regex tokenization)."""
    if not text:
        return None, None
    words = [w.lower() for w in _WORD.findall(text)]
    freq: dict[str, int] = {}
    for w in words:
        if w not in _STOP and len(w) > 2:
            freq[w] = freq.get(w, 0) + 1
    if not freq:
        return None, None
    sentences = _SENT_SPLIT.split(text)
    scored = []
    for i, s in enumerate(sentences):
        sw = [w.lower() for w in _WORD.findall(s)]
        if sw:
            scored.append((sum(freq.get(w, 0) for w in sw) / len(sw), -i, s.strip()))
    top_sent = [s for _, _, s in sorted(scored, reverse=True)[:3]]
    # keep document order within the summary (reference joins top
    # sentences in original order)
    # dedupe while keeping document order: a repeated top sentence
    # (boilerplate/nav text) must fill ONE slot, not displace the
    # 2nd/3rd-ranked sentences
    top_set = set(top_sent)
    ordered, seen_s = [], set()
    for s in (x.strip() for x in sentences):
        if s in top_set and s not in seen_s:
            seen_s.add(s)
            ordered.append(s)
    keywords = [w for w, _ in sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:10]]
    return " ".join(ordered[:3]) or None, ",".join(keywords) or None


def convert_html(body: bytes, url: str, response_language: str | None = None) -> dict | None:
    """HTML → normalized doc dict (reference convert_html,
    convert_html_i14y.py:18-82; title/description fallback chains via
    the meta parser)."""
    html = decode_body(body) if isinstance(body, (bytes, bytearray)) else body
    meta = extract_meta(html)
    m = _TITLE.search(html)
    title = sanitize_text(m.group(1)) if m else None
    if not title:
        title = meta.get("og:title") or None
    content = extract_article_content(html)
    if not title and not content:
        return None
    lang = (
        response_language
        or get_language_code((_HTML_LANG.search(html) or [None, ""])[1])
        or detect_lang(content)
        or "en"
    )
    description = meta.get("description") or meta.get("og:description") or None
    summary, keywords = summarize_text(content)
    tags = meta.get("keywords") or meta.get("article:tag") or keywords
    created = parse_date_safely(
        meta.get("article:published_time") or meta.get("dc.date") or meta.get("dcterms.created")
    )
    changed = parse_date_safely(meta.get("article:modified_time"))
    return _doc(url, "text/html", lang, title, description or summary, content, tags, created, changed)


class PdfExtractStub:
    """Swap-in point for pypdf text extraction (convert_pdf_i14y.py:143-159)
    — NOT installed in this container."""

    def extract(self, body: bytes):  # pragma: no cover - explicit stub
        raise NotImplementedError("pypdf is not installed in this environment")


def convert_pdf(body: bytes, url: str, response_language: str | None = None) -> dict | None:
    """PDF → doc dict. Real extraction is stubbed (see PdfExtractStub);
    the deterministic fallback reads the synthetic corpus' fake-PDF
    payloads (``%PDF-1.4 fake <text>``) so batching/assembly is real."""
    if not body or not bytes(body).startswith(b"%PDF"):
        return None
    text = bytes(body).decode("latin-1")
    content = sanitize_text(text[text.find("fake") + 4 :]) if "fake" in text else None
    base, ext = basename_extension(url)
    title = separate_file_name(base[: -len(ext)] if ext and base.endswith(ext) else base) or base
    lang = response_language or detect_lang(content or "") or "en"
    summary, keywords = summarize_text(content or "")
    return _doc(url, "application/pdf", lang, title, summary, content, keywords, None, None)


def _doc(url, mime, lang, title, description, content, tags, created, changed) -> dict:
    base, ext = basename_extension(url)
    return {
        "doc_id": sha256_hex(url),
        "url": url,
        "path": url,
        "url_path": path_of(url),
        "domain_name": host_of(url),
        "basename": base,
        "extension": ext.lstrip("."),
        "mime_type": mime,
        "language": lang,
        "title": title,
        "description": description,
        "content": content,
        "tags": tags if isinstance(tags, str) else (",".join(tags) if tags else None),
        "created_at": created,
        "changed": changed,
    }


# Language codes the reference supports as field suffixes
# (i14y_helper.py:16-27 lists 45; the mechanism is what matters).
SUFFIX_LANGS = (
    "ar bg bn ca cs da de el en es et fa fi fr ga gu he hi hr hu hy id it ja ka km ko "
    "lt lv mk mr ms nl no pa pl pt ro ru sk sl sq sr sv th tr uk ur vi zh"
).split()


def to_i14y_record(doc: dict) -> dict:
    """Sink-boundary reconstruction of the reference's dynamic
    language-suffixed field names (title_en, content_zh, …)."""
    lang = doc.get("language") or "en"
    suffix = lang if lang in SUFFIX_LANGS else "en"
    out = {k: v for k, v in doc.items() if k not in ("title", "description", "content")}
    out[f"title_{suffix}"] = doc.get("title")
    out[f"description_{suffix}"] = doc.get("description")
    out[f"content_{suffix}"] = doc.get("content")
    out["_id"] = doc["doc_id"]
    return out


class DocParser:
    """Actor-pool map_batches stage: fetched pages → doc rows.
    Patterns/profiles set up once per actor (the reference loads nltk +
    newspaper models once per process — i14y_helper.py:11-13)."""

    DOC_COLUMNS = [
        "doc_id", "url", "path", "url_path", "domain_name", "basename", "extension",
        "mime_type", "language", "title", "description", "content", "tags",
        "created_at", "changed",
    ]

    def __init__(self):
        self._convert_html = convert_html
        self._convert_pdf = convert_pdf

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        bodies = batch["body"].to_pylist()
        ctypes = batch["content_type"].to_pylist()
        langs = (
            batch["content_language"].to_pylist()
            if "content_language" in batch.column_names
            else [None] * len(batch)
        )
        docs: list[dict] = []
        for url, body, ctype, lang in zip(urls, bodies, ctypes, langs):
            if body is None:
                continue
            simple = (ctype or "").split(";")[0].strip().lower()
            lang2 = get_language_code(lang)
            if simple == "text/html":
                doc = self._convert_html(body, url, lang2)
            elif simple == "application/pdf":
                doc = self._convert_pdf(body, url, lang2)
            else:
                doc = None
            if doc is not None:
                docs.append(doc)
        cols = {c: [d.get(c) for d in docs] for c in self.DOC_COLUMNS}
        return pa.table({c: pa.array(v, type=pa.string()) for c, v in cols.items()})
