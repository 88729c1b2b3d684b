"""Text-analysis kernels for the training-data pipeline surface:
language ID (n-gram heuristic), quality scoring, token counting,
document fingerprinting (rolling hash).

These are the large-scale-pipeline additions layered over the
reference's per-document text handling (language detection at
/root/reference/search_gov_crawler/elasticsearch/i14y_helper.py:60-75,
summary/keyword stats at i14y_helper.py:78-133). All kernels are
vectorized over pandas Series / numpy so they run inside
``map_batches`` without per-row Python in the hot path (token counts,
char classes), or use tight loops only over the short profile prefix
(language ID).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

from .hashing import xxhash64, xxhash64_array

# --- language ID: cosine over character-trigram profiles ------------------
# Tiny deterministic profiles for the languages present in the synthetic
# corpus; a real deployment swaps in fastText — this is a stub-free
# heuristic, not a model load.
_LANG_PROFILES = {
    "en": " th the he  an and  of ing ion to  is  in  it tio ent for  re",
    "es": " de  la  el en  que  y  a  los ión de  es  en ent aci os  del",
    "fr": " de  le la  les  et ent  des  la de  ion  un  en que  du tion",
    "de": " de der  di die  un und en  ein ich  sc sch cht  ge gen  be",
    "zh": "的 了 是 我 不 在 有 人 这 他 中 大 来 上 国 个",
}
_TRI = 3


def _profile(text: str) -> dict[str, int]:
    text = text.lower()
    grams: dict[str, int] = {}
    for i in range(len(text) - _TRI + 1):
        g = text[i : i + _TRI]
        grams[g] = grams.get(g, 0) + 1
    return grams


_LANG_VECS = {lang: _profile(p) for lang, p in _LANG_PROFILES.items()}


def detect_lang(text: str | None, prefix: int = 256) -> str | None:
    """Best-cosine language over char trigrams of the first ``prefix``
    chars; None for empty/too-short text (reference detect_lang uses the
    first 64 chars, i14y_helper.py:60-75)."""
    if not text or len(text) < 8:
        return None
    grams = _profile(text[:prefix])
    best, best_score = None, 0.0
    norm = sum(v * v for v in grams.values()) ** 0.5 or 1.0
    for lang, vec in _LANG_VECS.items():
        dot = sum(c * vec.get(g, 0) for g, c in grams.items())
        vnorm = sum(v * v for v in vec.values()) ** 0.5
        score = dot / (norm * vnorm)
        if score > best_score:
            best, best_score = lang, score
    return best if best_score > 0.05 else None


# Vectorized batch variant of detect_lang. Trigrams are packed into a
# single uint64 key per gram (three codepoints, 21 bits each — max
# codepoint 0x10FFFF < 2^21), counted with one lexsort + run-length pass
# over the whole batch. All dot products and squared norms are exact
# integer sums far below 2^53, and the score uses the identical
# ``dot / (norm * vnorm)`` double expression with first-profile
# tie-breaking (np.argmax returns the first max, matching the scalar
# ``score > best_score`` loop) — so results are bit-identical to
# detect_lang and to the DuckDB oracle that replays it.
_LANG_NAMES = list(_LANG_VECS)
_LANG_VNORMS = np.array(
    [sum(v * v for v in vec.values()) ** 0.5 for vec in _LANG_VECS.values()], dtype=np.float64
)


def _prof_tables() -> tuple[np.ndarray, np.ndarray]:
    keys = sorted({g for vec in _LANG_VECS.values() for g in vec})
    karr = np.empty(len(keys), dtype=np.uint64)
    for i, g in enumerate(keys):
        c = np.frombuffer(g.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
        karr[i] = (c[0] << np.uint64(42)) | (c[1] << np.uint64(21)) | c[2]
    order = np.argsort(karr)
    karr = karr[order]
    mat = np.zeros((len(keys), len(_LANG_NAMES)), dtype=np.int64)
    for r, i in enumerate(order):
        for j, vec in enumerate(_LANG_VECS.values()):
            mat[r, j] = vec.get(keys[i], 0)
    return karr, mat


_PROF_KEYS, _PROF_MAT = _prof_tables()


def detect_lang_batch(texts: pd.Series, prefix: int = 256) -> np.ndarray:
    """Vectorized detect_lang over a Series: object array of 2-letter
    codes / None, bit-identical to the scalar function per row.

    One pass: dictionary-encode codepoints through a dense LUT (max
    codepoint is 0x10FFFF, so the LUT is at most ~9 MB and never needs a
    sort), form trigram ids by slice-shift arithmetic (< K^3), then ONE
    np.sort of ``doc_idx * K^3 + gram_id`` yields per-(doc, gram) counts
    by run-length — no lexsort, no gathers in the hot path."""
    raw = texts.to_numpy(dtype=object)
    n_docs = len(raw)
    out = np.full(n_docs, None, dtype=object)
    eligible = np.fromiter(
        (isinstance(t, str) and len(t) >= 8 for t in raw), dtype=bool, count=n_docs
    )
    if not eligible.any():
        return out
    # prefix FIRST, then lower() — str.lower can change length (e.g. İ),
    # and the scalar kernel + SQL oracle both slice before lowering.
    el = np.flatnonzero(eligible)
    lowered = [raw[i][:prefix].lower() for i in el]
    lens = np.fromiter((len(t) for t in lowered), dtype=np.int64, count=len(lowered))
    joined = "".join(lowered)
    codes = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
    n = len(codes)
    # dense codepoint dictionary: rank in sorted distinct-codepoint order
    present = np.zeros(int(codes.max()) + 1, dtype=bool)
    present[codes] = True
    uc = np.flatnonzero(present)
    k = len(uc)
    if len(lowered) * k * k * k >= 2**63:  # combined key would overflow (needs
        # ~50k distinct codepoints AND ~75k docs in one batch) — scalar fallback
        out[el] = [detect_lang(raw[i], prefix) for i in el]
        return out
    lut = np.zeros(len(present), dtype=np.int64)
    lut[uc] = np.arange(k)
    cr = lut[codes]
    # trigram ids at every position, minus the 2 positions per doc that
    # straddle a boundary (lens >= 8 always: len(text) >= 8 pre-slice and
    # str.lower never maps one char to zero)
    gram = (cr[: n - 2] * k + cr[1 : n - 1]) * k + cr[2:]
    ends = np.cumsum(lens)
    valid = np.ones(n - 2, dtype=bool)
    valid[ends[:-1] - 1] = False
    valid[ends[:-1] - 2] = False
    doc_idx = np.repeat(np.arange(len(lowered)), lens)[: n - 2][valid]
    combined = np.sort(doc_idx * (k * k * k) + gram[valid])
    total = len(combined)
    new = np.empty(total, dtype=bool)
    new[0] = True
    np.not_equal(combined[1:], combined[:-1], out=new[1:])
    run_idx = np.flatnonzero(new)
    cnts = np.diff(np.append(run_idx, total))
    run_docs = combined[run_idx] // (k * k * k)
    run_grams = combined[run_idx] % (k * k * k)
    norm = np.sqrt(np.bincount(run_docs, weights=(cnts * cnts).astype(np.float64), minlength=len(lowered)))
    norm[norm == 0.0] = 1.0
    # profile grams re-encoded into this batch's dictionary (a gram whose
    # codepoint is absent from the batch can never match — dropped)
    prof_rows = []
    prof_ids = []
    for r, key in enumerate(_PROF_KEYS):
        c0, c1, c2 = int(key >> np.uint64(42)), int((key >> np.uint64(21)) & np.uint64(0x1FFFFF)), int(key & np.uint64(0x1FFFFF))
        if c0 < len(present) and c1 < len(present) and c2 < len(present) and present[c0] and present[c1] and present[c2]:
            prof_ids.append((lut[c0] * k + lut[c1]) * k + lut[c2])
            prof_rows.append(r)
    scores = np.zeros((len(lowered), len(_LANG_NAMES)), dtype=np.float64)
    if prof_ids:
        pid = np.array(prof_ids, dtype=np.int64)
        order = np.argsort(pid)
        pid, prow = pid[order], np.array(prof_rows, dtype=np.int64)[order]
        p = np.searchsorted(pid, run_grams)
        p_c = np.minimum(p, len(pid) - 1)
        hit = pid[p_c] == run_grams
        dots = np.zeros_like(scores)
        np.add.at(dots, run_docs[hit], cnts[hit, None].astype(np.float64) * _PROF_MAT[prow[p_c[hit]]])
        scores = dots / (norm[:, None] * _LANG_VNORMS[None, :])
    best = np.argmax(scores, axis=1)
    best_score = scores[np.arange(len(lowered)), best]
    names = np.array(_LANG_NAMES, dtype=object)
    picked = np.where(best_score > 0.05, names[best], None)
    out[el] = picked
    return out


# --- token counting -------------------------------------------------------
_WS_TOKEN = re.compile(r"[^ \t\n\r\f\v]+")  # explicit ASCII: matches RE2 \S
# BPE-ish pre-tokenizer: letter runs / digit runs / single non-space
# symbols (the GPT-2 pre-tokenizer shape, public) — digit RUNS, matching
# the doc_token_counts kernel and its DuckDB oracle (queries.py) exactly.
_BPE_TOKEN = re.compile(r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9 \t\n\r\f\v]")


def token_counts(texts: pd.Series) -> pd.DataFrame:
    """Whitespace and BPE-ish token counts per document (vectorized)."""
    return pd.DataFrame(
        {
            "ws_tokens": texts.str.count(_WS_TOKEN).fillna(0).astype("int64"),
            "bpe_tokens": texts.str.count(_BPE_TOKEN).fillna(0).astype("int64"),
        }
    )


# --- quality scoring ------------------------------------------------------
_STOPWORDS = (
    "the of and a to in is was he for it with as his on be at by i this had "
    "not are but from or have an they which one you were her all she there "
    "would their we him been has when who will more no if out so said what"
).split()
_STOP_RE = re.compile(r"\b(?:" + "|".join(_STOPWORDS) + r")\b", re.IGNORECASE)
_PUNCT_RE = re.compile(r"[^A-Za-z0-9_ \t\n\r\f\v]")  # explicit ASCII \w/\s
_ALPHA_RE = re.compile(r"[A-Za-z]")


def quality_scores(texts: pd.Series) -> pd.DataFrame:
    """Heuristic quality features per document, all vectorized:
    n_chars, n_words, mean word length, punctuation ratio, stopword
    ratio, alpha ratio. Downstream filters threshold these (C4/Gopher
    style rules)."""
    n_chars = texts.str.len().fillna(0).astype("int64")
    n_words = texts.str.count(_WS_TOKEN).fillna(0).astype("int64")
    n_punct = texts.str.count(_PUNCT_RE).fillna(0)
    n_stop = texts.str.count(_STOP_RE).fillna(0)
    n_alpha = texts.str.count(_ALPHA_RE).fillna(0)
    denom_c = n_chars.clip(lower=1).astype("float64")
    denom_w = n_words.clip(lower=1).astype("float64")
    return pd.DataFrame(
        {
            "n_chars": n_chars,
            "n_words": n_words,
            "mean_word_len": (n_chars - n_words + 1).clip(lower=0) / denom_w,
            "punct_ratio": n_punct / denom_c,
            "stopword_ratio": n_stop / denom_w,
            "alpha_ratio": n_alpha / denom_c,
        }
    )


# --- document fingerprinting ---------------------------------------------
# Winnowing fingerprint over a Karp-Rabin polynomial rolling hash:
#   h(s) = sum_j code(s_j) * B^(m-1-j)  mod P,  code(c) = ord(c) & 255
# P = 2^31-1 (Mersenne) and code < 2^8 keep every partial product < 2^39,
# so a 64-char window sums exactly in int64 with a single final mod —
# which makes the definition expressible verbatim in ANSI SQL (the DuckDB
# oracle in pipelines/queries.py replays it with a recursive power table).
_FP_P = 2147483647  # 2^31 - 1
_FP_B = 131
_FP_WINDOW = 64
_FP_POWS = np.empty(_FP_WINDOW, dtype=np.int64)
_FP_POWS[0] = 1
for _k in range(1, _FP_WINDOW):
    _FP_POWS[_k] = (_FP_POWS[_k - 1] * _FP_B) % _FP_P
del _k


def _fp_pows(window: int) -> np.ndarray:
    if window == _FP_WINDOW:
        return _FP_POWS
    # non-default window: build the power table on the fly. Guard the
    # exact-int64 bound: sum of window terms < P * 2^8 * window must
    # stay below 2^63 (holds to window ≈ 2^23).
    if window < 1 or window >= (1 << 23):
        raise ValueError(f"fingerprint window out of range: {window}")
    pows = np.empty(window, dtype=np.int64)
    pows[0] = 1
    for k in range(1, window):
        pows[k] = (pows[k - 1] * _FP_B) % _FP_P
    return pows


def fingerprint(text: str, window: int = _FP_WINDOW) -> int:
    """Winnowing-style fingerprint: min Karp-Rabin hash over sliding
    windows of ``window`` chars stepping by window/2 (one representative
    hash per doc; identical regions of near-dup docs collide). Falls back
    to the whole-text hash for short docs. Vectorized per doc: codepoints
    via utf-32 view, all windows hashed in one strided matmul mod P."""
    n = len(text)
    if n == 0:
        return 0
    pows = _fp_pows(window)
    codes = (np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32) & 255).astype(np.int64)
    if n <= window:
        return int(codes @ pows[n - 1 :: -1] % _FP_P)
    step = max(1, window // 2)
    win = np.lib.stride_tricks.sliding_window_view(codes, window)[::step]
    h = win @ pows[::-1] % _FP_P
    return int(h.min())


def fingerprint_batch(texts) -> np.ndarray:
    """Vectorized winnowing fingerprints for a sequence of texts —
    bit-identical to ``fingerprint`` per row. All docs' codepoints are
    concatenated once; short docs (≤64 chars) become right-aligned rows
    of one zero-padded matrix (a leading zero contributes 0 to the
    polynomial, preserving the exact hash); long docs' windows are rows
    of a global sliding view gathered at per-doc strided starts. One
    matmul mod P each, then per-doc min via ``np.minimum.reduceat``."""
    n_docs = len(texts)
    out = np.zeros(n_docs, dtype=np.uint64)
    strs = [t if isinstance(t, str) else "" for t in texts]
    lens = np.fromiter((len(t) for t in strs), dtype=np.int64, count=n_docs)
    if not lens.any():
        return out
    joined = "".join(strs)
    codes = (np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32) & 255).astype(np.int64)
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    short = np.flatnonzero((lens > 0) & (lens <= _FP_WINDOW))
    if len(short):
        mat = np.zeros((len(short), _FP_WINDOW), dtype=np.int64)
        # right-align each short doc so code[j] pairs with B^(n-1-j)
        cols = np.arange(_FP_WINDOW)[None, :]
        mask = cols >= (_FP_WINDOW - lens[short])[:, None]
        flat = np.concatenate([codes[starts[i] : starts[i] + lens[i]] for i in short])
        mat[mask] = flat
        out[short] = (mat @ _FP_POWS[::-1] % _FP_P).astype(np.uint64)
    long = np.flatnonzero(lens > _FP_WINDOW)
    if len(long):
        step = _FP_WINDOW // 2
        view = np.lib.stride_tricks.sliding_window_view(codes, _FP_WINDOW)
        nwin = (lens[long] - _FP_WINDOW) // step + 1
        doc_rep = np.repeat(np.arange(len(long)), nwin)
        local = np.arange(int(nwin.sum())) - np.repeat(np.cumsum(nwin) - nwin, nwin)
        win_starts = starts[long][doc_rep] + local * step
        h = view[win_starts] @ _FP_POWS[::-1] % _FP_P
        bounds = np.concatenate(([0], np.cumsum(nwin)[:-1]))
        out[long] = np.minimum.reduceat(h, bounds).astype(np.uint64)
    return out


def content_hashes(texts: pd.Series) -> np.ndarray:
    """Exact-dedup key: xxhash64 of whitespace-normalized lowercase text."""
    norm = texts.fillna("").str.lower().str.replace(r"[ \t\n\r\f\v]+", " ", regex=True).str.strip()
    return xxhash64_array(norm.to_numpy(dtype=object))
