"""Text analysis stages over the documents table.

All kernels are vectorized: pandas `.str` ops (C-level regex loops) and
NumPy — no per-row Python lambdas in the hot path. Regexes are compiled
once per actor in __init__ — the stateful-stage pattern. Token count
uses a simple whitespace rule intentionally reproducible in SQL
(length - length(replace(s,' ','')) + 1) so DuckDB oracles can verify
it, plus a BPE-ish regex count as the richer variant.
"""

from __future__ import annotations

import numpy as np

from proj_ray.exchange import co_partition

STOPWORDS = frozenset(
    "the and of a to in is it that was for on are as with they be at "
    "one have this from or had by word but what some we can out other "
    "were all there when up use your how said an each she".split())

# tiny trigram tables for a deterministic language-ID heuristic
_LANG_HINTS = {
    "en": (" th", "the", " an", "and", "ing", " of", "ion"),
    "de": ("der", "die", "und", "sch", "ein", "ich", "cht"),
    "fr": (" le", "les", " de", "ent", "que", "ion", " la"),
    "es": (" de", " la", "que", "ión", " el", "los", "ado"),
}

_FP_MOD = (1 << 61) - 1


def simple_token_count(texts) -> np.ndarray:
    """Whitespace token count, SQL-reproducible."""
    import pandas as pd

    s = pd.Series(texts, dtype="object").fillna("")
    ln = s.str.len()
    spaces = ln - s.str.replace(" ", "", regex=False).str.len()
    out = np.where(ln > 0, spaces + 1, 0)
    return out.astype(np.int64)


class TextQuality:
    """Actor-pool stage: length/punct/stopword quality features +
    language-ID heuristic + rolling-hash fingerprint per document.

    Every feature is a vectorized pandas `.str` pass; a word run is a
    maximal [A-Za-zÀ-ÿ]+ sequence, so per-doc letter/word counts give
    mean word length and a boundary-lookaround alternation counts
    stopword runs exactly — no Python-level tokenization.
    """

    def __init__(self):
        import re

        self.word_re = re.compile(r"[A-Za-zÀ-ÿ]+")
        self.letter_re = re.compile(r"[A-Za-zÀ-ÿ]")
        self.bpe_re = re.compile(
            r"[A-Za-z]+|\d+|[^\sA-Za-z\d]")  # BPE-ish pretokenizer
        self.punct_re = re.compile(r"[^\w\s]")
        # a maximal letter-run equals a stopword iff the alternation
        # matches with no letter on either side
        alts = "|".join(sorted(STOPWORDS, key=len, reverse=True))
        self.stop_re = re.compile(
            rf"(?<![A-Za-zÀ-ÿ])(?:{alts})(?![A-Za-zÀ-ÿ])")
        import re as _re

        self.lang_grams = [(lang, [_re.compile(_re.escape(g))
                                   for g in grams])
                           for lang, grams in _LANG_HINTS.items()]

    def __call__(self, batch):
        import pandas as pd

        df = batch if isinstance(batch, pd.DataFrame) else pd.DataFrame(batch)
        text = df["text"].fillna("")
        n_chars = text.str.len().to_numpy(dtype=np.int64)
        lower = text.str.lower()
        df["n_tokens"] = simple_token_count(text.to_numpy())
        df["n_bpe_tokens"] = text.str.count(self.bpe_re).astype("int64")
        punct = text.str.count(self.punct_re).to_numpy(dtype=np.int64)
        df["punct_ratio"] = punct / np.maximum(n_chars, 1)
        n_words = lower.str.count(self.word_re).to_numpy(dtype=np.int64)
        n_letters = lower.str.count(self.letter_re).to_numpy(dtype=np.int64)
        n_stop = lower.str.count(self.stop_re).to_numpy(dtype=np.int64)
        df["stopword_ratio"] = n_stop / np.maximum(n_words, 1)
        df["mean_word_len"] = np.where(
            n_words > 0, n_letters / np.maximum(n_words, 1), 0.0)
        # quality score: long enough, low punct, sane word length
        df["quality"] = (
            np.clip(n_chars / 200.0, 0, 1) * 0.4
            + (1 - df["punct_ratio"].clip(0, 1)) * 0.3
            + df["stopword_ratio"].clip(0, 0.8) / 0.8 * 0.3
        ).astype("float64")
        df["lang_guess"] = self._lang(lower)
        df["fingerprint"] = fingerprint64(text.to_numpy())
        return df

    def _lang(self, lower) -> np.ndarray:
        """Vectorized trigram vote: one `.str.count` pass per gram over
        the first 400 chars; first-strictly-greater tie rule (argmax)."""
        sl = " " + lower.str.slice(0, 400) + " "
        names = ["unk"] + [lang for lang, _ in self.lang_grams]
        scores = np.zeros((len(self.lang_grams) + 1, len(sl)), dtype=np.int64)
        for li, (_, grams) in enumerate(self.lang_grams):
            for g in grams:
                scores[li + 1] += sl.str.count(g).to_numpy(dtype=np.int64)
        # row 0 ("unk") scores 0; ties resolve to the earliest row, so a
        # doc with no gram hits stays "unk" — same rule as a scalar loop
        # keeping the first strictly-greater language.
        best = np.argmax(scores, axis=0)
        return np.array(names, dtype=object)[best]


def rolling_hash(s: str, mod: int = _FP_MOD) -> int:
    """Polynomial (base-256) rolling hash of the document bytes, mod the
    Mersenne prime 2^61-1. `int.from_bytes` evaluates the polynomial at
    C speed; the big-int modulo is a single linear pass."""
    b = s.encode("utf-8", errors="ignore")
    return int.from_bytes(b, "big") % mod if b else 0


def fingerprint64(texts, mod: int = _FP_MOD) -> np.ndarray:
    """Vector of rolling-hash fingerprints (int64), one C-speed
    `int.from_bytes` + bigint mod per document — no per-byte loop."""
    out = np.empty(len(texts), dtype=np.int64)
    for i, s in enumerate(texts):
        b = str(s).encode("utf-8", errors="ignore")
        out[i] = int.from_bytes(b, "big") % mod if b else 0
    return out


def text_stats(ds, concurrency=(2, 8), batch_size: int = 4096):
    """Dataset wrapper: documents -> + quality/lang/fingerprint columns."""
    return ds.map_batches(TextQuality, batch_format="pandas",
                          batch_size=batch_size, concurrency=concurrency)


# Sentinel "terms" must be impossible outputs of text.split(" ") —
# any string containing a space qualifies. (NUL prefixes are NOT safe
# here: pandas' object-key hashtable truncates at the first NUL, so
# two NUL-containing sentinels would merge into one group.)
_NDOCS_SENTINEL = "# docs #"
_NTOKENS_SENTINEL = "# tokens #"


def document_frequencies(ds, text_col: str = "text",
                         vocab_cap: int = 2_000_000,
                         count_docs: bool = False,
                         count_tokens: bool = False):
    """Corpus document frequencies: (term, df) as a driver-side dict.

    Scale shape: per-batch partials (each doc's DISTINCT terms counted
    once) -> one stream-combine pass (batch_size=65536) -> bounded
    driver merge. The all-to-all moves (term, partial_df) rows — never
    token streams. The driver result is vocabulary-sized and guarded
    by `vocab_cap`; corpora whose vocabulary exceeds it should switch
    to a groupby("term") aggregate and a shuffle join instead of the
    broadcast path (same trade as dsutil.BROADCAST_ROWS).

    count_docs=True piggybacks the corpus document count on the same
    pass (a NUL-prefixed sentinel term) and returns (df, n_docs) —
    one Ray job instead of two for callers that need both (tfidf).
    count_tokens=True piggybacks the corpus TOKEN count the same way
    (for BM25's avgdl) and appends it to the return tuple.
    """
    import pandas as pd

    def partial(b: dict) -> dict:
        s = pd.Series(b[text_col]).str.split(" ")
        ex = s.explode()
        # distinct (doc, term): df counts docs, not occurrences
        vc = ex.groupby([ex.index, ex]).size().index \
            .get_level_values(1).value_counts()
        terms = vc.index.to_numpy(dtype=object)
        dfp = vc.to_numpy(dtype=np.int64)
        sent_t, sent_v = [], []
        if count_docs:
            sent_t.append(_NDOCS_SENTINEL)
            sent_v.append(len(s))
        if count_tokens:
            sent_t.append(_NTOKENS_SENTINEL)
            sent_v.append(int(s.str.len().sum()))
        if sent_t:
            terms = np.concatenate(
                [terms, np.array(sent_t, dtype=object)])
            dfp = np.concatenate(
                [dfp, np.array(sent_v, dtype=np.int64)])
        return {"term": terms, "df_part": dfp}

    def combine(b: dict) -> dict:
        g = pd.Series(b["df_part"]).groupby(
            pd.Series(b["term"])).sum()
        return {"term": g.index.to_numpy(dtype=object),
                "df_part": g.to_numpy(dtype=np.int64)}

    parts = (ds.select_columns([text_col])
             .map_batches(partial, batch_format="numpy",
                          batch_size=4096)
             .map_batches(combine, batch_format="numpy",
                          batch_size=65536)
             .take_all())
    df: dict = {}
    cap = vocab_cap + int(count_docs) + int(count_tokens)  # sentinels
    for row in parts:
        df[row["term"]] = df.get(row["term"], 0) + int(row["df_part"])
        if len(df) > cap:
            raise ValueError(
                f"vocabulary exceeds vocab_cap={vocab_cap}; use the "
                "groupby('term') shuffle path for this corpus")
    n_tokens = df.pop(_NTOKENS_SENTINEL, 0) if count_tokens else None
    if count_docs:
        n_docs = df.pop(_NDOCS_SENTINEL, 0)
        if count_tokens:
            return df, n_docs, n_tokens
        return df, n_docs
    if count_tokens:
        return df, n_tokens
    return df


class _TfidfTopK:
    """Per-batch TF-IDF scorer: broadcast (term -> idf) arrays read
    from the object store once per actor; per batch a vectorized
    explode -> (doc, term) count -> searchsorted idf lookup -> top-k
    by the FIXED-POINT score (both engine and SQL rank the same
    integers, so ordering never depends on float ulps)."""

    def __init__(self, idf_ref, k: int, scale: int):
        import ray

        terms, idf = ray.get(idf_ref) \
            if not isinstance(idf_ref, tuple) else idf_ref
        self.terms = terms     # sorted object array
        self.idf = idf         # float64, same order
        self.k = k
        self.scale = scale

    def __call__(self, b: dict) -> dict:
        import pandas as pd

        s = pd.Series(b["text"]).str.split(" ")
        lens = s.str.len().to_numpy()
        drow = np.repeat(np.arange(len(s), dtype=np.int64), lens)
        term = s.explode().to_numpy(dtype=object)
        # all-integer path: term -> vocabulary index (self.terms is
        # sorted, so index order == lexical order and doubles as the
        # rank tiebreak); (row, term) counts via one np.unique
        tpos = np.searchsorted(self.terms, term).astype(np.int64)
        nv = len(self.terms)
        key, tf = np.unique(drow * nv + tpos, return_counts=True)
        row = key // nv
        tpos = key % nv
        score_f = np.floor(tf.astype(np.float64) * self.idf[tpos]
                           * float(self.scale) + 0.5).astype(np.int64)
        order = np.lexsort((tpos, -score_f, row))
        row, tpos, score_f = row[order], tpos[order], score_f[order]
        starts = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
        rk = np.arange(len(row), dtype=np.int64) \
            - np.repeat(starts, np.diff(np.r_[starts, len(row)])) + 1
        keep = rk <= self.k
        doc_ids = np.asarray(b["doc_id"])[row[keep]]
        return {"doc_id": doc_ids,
                "rk": rk[keep],
                "term": self.terms[tpos[keep]],
                "score_f": score_f[keep]}


def tfidf_topk(ds, k: int = 3, scale: int = 1_000_000,
               concurrency: int | None = None):
    """Top-k TF-IDF terms per document. Two passes over the corpus:
    a DF aggregation (stream-combined partials, vocabulary-sized
    result) and a scoring pass with the idf table broadcast via
    ray.put — no shuffle of token streams in either pass.
    idf = ln(N / df); score_f = floor(tf * idf * scale + 0.5).

    The scoring stage runs on the elastic TASK pool (a stateless
    lookup against the broadcast idf table): Ray worker processes are
    reused, so each worker ray.get()s the table once (zero-copy plasma
    read, cached per worker below) — no actor-pool startup cost and no
    fixed pool size to tune per cluster."""
    import ray

    df, n_docs = document_frequencies(ds, count_docs=True)
    terms = np.array(sorted(df), dtype=object)
    idf = np.log(float(n_docs) / np.array(
        [df[t] for t in terms], dtype=np.float64))
    ref = ray.put((terms, idf))

    def score(b: dict, _cache: dict = {}) -> dict:  # noqa: B006
        scorer = _cache.get(ref.hex())
        if scorer is None:
            _cache.clear()  # one broadcast table per worker
            scorer = _TfidfTopK(ref, k, scale)
            _cache[ref.hex()] = scorer
        return scorer(b)

    kwargs = {} if concurrency is None else \
        {"concurrency": concurrency}
    return ds.select_columns(["doc_id", "text"]).map_batches(
        score, batch_format="numpy", batch_size=4096, **kwargs)


def bm25_topk(ds, query_terms, k: int = 10, k1: float = 1.2,
              b: float = 0.75, scale: int = 1_000_000):
    """Top-k documents for a bag-of-terms query by BM25 (Robertson /
    Okapi), the ranked-retrieval capstone of the text family (tfidf
    ranks terms per doc; this ranks DOCS for a query).

      idf(t)    = ln(1 + (N - df + 0.5) / (df + 0.5))
      w(D, t)   = idf(t) * (tf * (k1+1)) / (tf + k1*((1-b) + b*dl/avgdl))
      score(D)  = sum_t floor(w(D, t) * scale + 0.5)     [int64]

    Each TERM's contribution is fixed-pointed independently and the
    per-document sum is integer, so the engine and a SQL oracle rank
    bit-identical integers regardless of float summation order.

    Scale shape: one DF pass (stream-combined partials; doc + token
    counts piggybacked as sentinels — avgdl costs nothing extra), then
    one scoring pass with the tiny (term, idf) query table broadcast;
    each batch prunes to its local top-k, so the final sort moves at
    most k rows per block. No token stream ever crosses a shuffle.
    Returns a pandas frame (rk, doc_id, score_f), k rows max; docs
    containing none of the query terms never appear (parity with the
    SQL formulation's inner join)."""
    import pandas as pd

    qterms = np.array(sorted(set(query_terms)), dtype=object)
    if len(qterms) == 0:
        return pd.DataFrame({"rk": pd.Series(dtype=np.int64),
                             "doc_id": pd.Series(dtype=np.int64),
                             "score_f": pd.Series(dtype=np.int64)})
    df, n_docs, n_tokens = document_frequencies(
        ds, count_docs=True, count_tokens=True)
    nd = float(n_docs)
    avgdl = float(n_tokens) / nd
    dfc = np.array([df.get(t, 0) for t in qterms], dtype=np.float64)
    idf = np.log(1.0 + (nd - dfc + 0.5) / (dfc + 0.5))
    nq = len(qterms)
    k1 = float(k1)
    bb = float(b)
    one_minus_b = 1.0 - bb
    k1p1 = k1 + 1.0

    def score(batch: dict) -> dict:
        s = pd.Series(batch["text"]).str.split(" ")
        lens = s.str.len().to_numpy(np.int64)
        drow = np.repeat(np.arange(len(s), dtype=np.int64), lens)
        term = s.explode().to_numpy(dtype=object)
        pos = np.searchsorted(qterms, term)
        posc = np.minimum(pos, nq - 1)
        hit = qterms[posc] == term
        acc = np.zeros(len(s), dtype=np.int64)
        matched = np.zeros(len(s), dtype=bool)
        if hit.any():
            key = drow[hit] * nq + posc[hit]
            key_u, tf = np.unique(key, return_counts=True)
            row_u = (key_u // nq).astype(np.int64)
            t_u = (key_u % nq).astype(np.int64)
            tff = tf.astype(np.float64)
            dl = lens[row_u].astype(np.float64)
            w = idf[t_u] * ((tff * k1p1)
                            / (tff + k1 * (one_minus_b
                                           + bb * (dl / avgdl))))
            wf = np.floor(w * float(scale) + 0.5).astype(np.int64)
            np.add.at(acc, row_u, wf)
            matched[row_u] = True
        ids = np.asarray(batch["doc_id"], dtype=np.int64)[matched]
        sc = acc[matched]
        order = np.lexsort((ids, -sc))[:k]  # local top-k prune
        return {"doc_id": ids[order], "score_f": sc[order]}

    top = (ds.select_columns(["doc_id", "text"])
           .map_batches(score, batch_format="numpy", batch_size=4096)
           .sort(["score_f", "doc_id"], descending=[True, False])
           .limit(k)
           .to_pandas())
    if top.empty:  # no doc matched any query term: schema-less frame
        top = pd.DataFrame({"doc_id": pd.Series(dtype=np.int64),
                            "score_f": pd.Series(dtype=np.int64)})
    top.insert(0, "rk", np.arange(1, len(top) + 1, dtype=np.int64))
    for c in ("doc_id", "score_f"):
        top[c] = top[c].astype(np.int64)
    return top


def cooccurrence_pmi(ds, k: int = 25, scale: int = 1_000_000):
    """Global top-k term pairs by PMI over per-document co-occurrence.

    pmi_f = floor(ln((N * c_ab) / (c_a * c_b)) * scale + 0.5), where
    c_ab counts documents containing BOTH terms (distinct-pair
    semantics) and c_a/c_b are document frequencies.

    Scale shape: per-batch distinct-pair partials (pairs generated
    doc-locally, combined within the batch) -> stream-combine ->
    `exchange.co_partition` on the pair for exact corpus totals (pair
    vocabulary is O(vocab^2): never merged on the driver) ->
    per-bucket top-k -> bounded driver merge of <= k rows per
    bucket. Unigram DFs ride the
    object store (ray.put) into the finalize stage. Ranking is on the
    fixed-point score, ties broken (term_a, term_b) — deterministic
    and SQL-reproducible."""
    import pandas as pd
    import ray

    df, n_docs = document_frequencies(ds, count_docs=True)
    df_ref = ray.put(df)

    def pairs_partial(b: dict) -> dict:
        # explode-based distinct (doc, term), sorted within doc, then
        # ALL i<j pairs via grouped-arange index arithmetic — the same
        # vectorized idiom as document_frequencies, no per-doc loop.
        empty = {"ta": np.empty(0, dtype=object),
                 "tb": np.empty(0, dtype=object),
                 "c_part": np.empty(0, dtype=np.int64)}
        ex = pd.Series(b["text"]).astype(str).str.split(" ").explode()
        d = (pd.DataFrame({"doc": ex.index.to_numpy(np.int64),
                           "term": ex.to_numpy(dtype=object)})
             .drop_duplicates()
             .sort_values(["doc", "term"], kind="stable"))
        doc = d["doc"].to_numpy(np.int64)
        terms = d["term"].to_numpy(dtype=object)
        m = len(doc)
        if m == 0:
            return empty
        starts = np.flatnonzero(np.r_[True, doc[1:] != doc[:-1]])
        group_start = np.repeat(starts, np.diff(np.r_[starts, m]))
        p = np.arange(m, dtype=np.int64) - group_start  # local position
        # the row at local position p is `tb` of exactly p pairs, with
        # partners group_start..group_start+p-1 as `ta` (i<j order, so
        # ta < tb lexicographically — same as the triu-over-unique rule)
        total = int(p.sum())
        if total == 0:
            return empty
        tb_idx = np.repeat(np.arange(m, dtype=np.int64), p)
        run_off = np.repeat(np.cumsum(p) - p, p)
        ta_idx = (np.repeat(group_start, p)
                  + (np.arange(total, dtype=np.int64) - run_off))
        g = (pd.DataFrame({"ta": terms[ta_idx], "tb": terms[tb_idx]})
             .groupby(["ta", "tb"], as_index=False).size())
        return {"ta": g["ta"].to_numpy(dtype=object),
                "tb": g["tb"].to_numpy(dtype=object),
                "c_part": g["size"].to_numpy(dtype=np.int64)}

    def combine(b: dict) -> dict:
        g = (pd.DataFrame({"ta": b["ta"], "tb": b["tb"],
                           "c": b["c_part"]})
             .groupby(["ta", "tb"], as_index=False)["c"].sum())
        return {"ta": g["ta"].to_numpy(dtype=object),
                "tb": g["tb"].to_numpy(dtype=object),
                "c_part": g["c"].to_numpy(dtype=np.int64)}

    def finalize(group: pd.DataFrame) -> pd.DataFrame:
        dfd = ray.get(df_ref)
        g = group.groupby(["ta", "tb"], as_index=False)["c_part"] \
            .sum().rename(columns={"c_part": "c_ab"})
        ca = np.array([dfd[t] for t in g["ta"]], dtype=np.float64)
        cb = np.array([dfd[t] for t in g["tb"]], dtype=np.float64)
        num = float(n_docs) * g["c_ab"].to_numpy(np.float64)
        g["pmi_f"] = np.floor(
            np.log(num / (ca * cb)) * float(scale) + 0.5
        ).astype(np.int64)
        g["c_ab"] = g["c_ab"].astype(np.int64)
        return g.sort_values(["pmi_f", "ta", "tb"],
                             ascending=[False, True, True],
                             kind="stable").head(k)

    tops = co_partition(ds.select_columns(["text"])
                        .map_batches(pairs_partial, batch_format="numpy",
                                     batch_size=4096)
                        .map_batches(combine, batch_format="numpy",
                                     batch_size=65536),
                        ["ta", "tb"], finalize).to_pandas()
    return (tops.sort_values(["pmi_f", "ta", "tb"],
                             ascending=[False, True, True],
                             kind="stable")
            .head(k).reset_index(drop=True)
            [["ta", "tb", "c_ab", "pmi_f"]])


def substring_dup_stats(ds, text_col: str = "text",
                        id_col: str = "doc_id", k: int = 30,
                        min_count: int = 2, stride: int = 1,
                        assert_max_len: int = 0,
                        assert_ascii: bool = False):
    """Exact substring-duplication stats per document: the character
    coverage (union of intervals) and count of all length-`k`
    substrings that occur at least `min_count` times ANYWHERE in the
    corpus — the exact-substring dedup primitive of Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better"
    (arXiv:2107.06499), re-expressed for Ray Data.

    Scale shape: TWO `exchange.co_partition` calls, both on integer
    keys — no substring text ever crosses a shuffle.
    1. Every window position emits (h, doc, pos) where h is a
       vectorized 64-bit polynomial rolling hash over the batch's
       concatenated bytes (k strided adds, no per-doc loop); rows
       co-partition on h, so per-gram GLOBAL counts are exact within
       one bucket pass, which keeps only duplicated positions.
    2. Surviving (doc, pos) rows co-partition on doc and one
       vectorized segment pass computes the per-doc interval
       union (running-max with per-doc offset isolation).
    `stride` > 1 subsamples window starts for the 100-TB path (the
    gram stream is total_chars/stride rows); stride=1 is exact and
    SQL-oracle-reproducible. Hash equality stands in for string
    equality (collision odds ~n^2/2^65; deterministic per fixture).

    Byte-hash contract: windows are hashed over UTF-8 BYTES and `pos`
    is a byte offset, while a SQL `substr` oracle indexes CHARACTERS —
    the two agree only for pure-ASCII text. A caller holding the
    engine to a character-indexed oracle must pass
    `assert_ascii=True` (and `assert_max_len=N` when the oracle's
    position series has a constant bound N); each guard is a cheap
    vectorized per-batch check that raises loudly on violation
    instead of silently diverging from the oracle.

    Returns (doc_id, dup_chars, dup_grams) for documents with at
    least one duplicated window.
    """
    import pandas as pd

    B = np.uint64(1099511628211)  # FNV-1a prime as the poly base
    pows = np.empty(k, dtype=np.uint64)
    p = np.uint64(1)
    with np.errstate(over="ignore"):  # mod-2^64 wraparound intended
        for j in range(k - 1, -1, -1):
            pows[j] = p
            p = p * B

    def grams(batch) -> pd.DataFrame:
        texts = batch[text_col]
        ids = np.asarray(batch[id_col], dtype=np.int64)
        bs = [str(t).encode("utf-8") for t in texts]
        lens = np.array([len(b) for b in bs], dtype=np.int64)
        if assert_max_len and len(lens) and lens.max() > assert_max_len:
            raise ValueError(
                f"substring_dup_stats: document of {int(lens.max())} "
                f"bytes exceeds the oracle position bound "
                f"{assert_max_len}; raise the SQL series bound")
        total = int(lens.sum())
        empty = pd.DataFrame({"_h": np.empty(0, np.int64),
                              "doc": np.empty(0, np.int64),
                              "pos": np.empty(0, np.int64)})
        if total < k:
            return empty
        buf = np.frombuffer(b"".join(bs), dtype=np.uint8)
        if assert_ascii and (buf >= 128).any():
            raise ValueError(
                "substring_dup_stats: non-ASCII text under a "
                "character-indexed SQL oracle (byte positions would "
                "diverge from substr() character positions)")
        nw = total - k + 1
        with np.errstate(over="ignore"):
            h = np.zeros(nw, dtype=np.uint64)
            for j in range(k):
                h += buf[j:nw + j].astype(np.uint64) * pows[j]
        offs = np.concatenate(([0], np.cumsum(lens)[:-1]))
        doc_of = np.repeat(np.arange(len(bs), dtype=np.int64), lens)[:nw]
        pos = np.arange(nw, dtype=np.int64) - offs[doc_of]
        ok = pos + k <= lens[doc_of]
        if stride > 1:
            ok &= pos % stride == 0
        if not ok.any():
            return empty
        return pd.DataFrame({
            "_h": h[ok].view(np.int64),
            "doc": ids[doc_of[ok]],
            "pos": pos[ok]})

    def keep_dups(g: pd.DataFrame) -> pd.DataFrame:
        h = g["_h"].to_numpy()
        _, inv, cnt = np.unique(h, return_inverse=True,
                                return_counts=True)
        m = cnt[inv] >= min_count
        return pd.DataFrame({"doc": g["doc"].to_numpy()[m],
                             "pos": g["pos"].to_numpy()[m]})

    def union_per_doc(g: pd.DataFrame) -> pd.DataFrame:
        doc = g["doc"].to_numpy()
        pos = g["pos"].to_numpy()
        order = np.lexsort((pos, doc))
        doc, pos = doc[order], pos[order]
        # per-doc isolation: offset positions by rank * BIG so one
        # global running max never crosses documents
        BIG = np.int64(1) << 32
        new = np.r_[True, doc[1:] != doc[:-1]]
        rank = np.cumsum(new) - 1
        p = pos + rank * BIG
        e = p + k
        prev_end = np.r_[np.int64(0),
                         np.maximum.accumulate(e)[:-1]]
        contrib = np.maximum(e - np.maximum(p, prev_end), 0)
        out = pd.DataFrame({"doc_id": doc, "c": contrib})
        agg = out.groupby("doc_id", as_index=False).agg(
            dup_chars=("c", "sum"), dup_grams=("c", "size"))
        agg["dup_chars"] = agg["dup_chars"].astype(np.int64)
        agg["dup_grams"] = agg["dup_grams"].astype(np.int64)
        return agg

    gram_rows = ds.select_columns([id_col, text_col]).map_batches(
        grams, batch_format="numpy", batch_size=4096)
    return co_partition(co_partition(gram_rows, "_h", keep_dups), "doc",
                        union_per_doc)


def gopher_quality(ds, id_col: str = "doc_id", text_col: str = "text",
                   batch_size: int = 4096,
                   min_words: int = 10, wlen_lo_milli: int = 3000,
                   wlen_hi_milli: int = 10000, min_stop_distinct: int = 2,
                   max_top_word_ppm: int = 200_000):
    """Gopher-style document quality rules (Rae et al. 2021, table A1),
    restricted to the signals a [a-z ]-alphabet corpus can express:

      n_words            count of [a-z]+ runs
      mean_wlen_milli    1000 * total word chars // n_words
      n_stop_distinct    DISTINCT stopwords present
      top_word_ppm       1e6 * max single-word count // n_words
                         (the "repetition" rule: one token dominating)
      passes             all four bounds hold (0/1)

    Integer arithmetic end-to-end so a SQL oracle reproduces every
    value bit-exactly. Stateless map_batches — nothing shuffles; the
    per-batch tokenization is pandas `str.findall` + one explode +
    one C-level groupby, no Python loop over rows.

    Documents with zero [a-z] words are dropped (mirrors the SQL
    word-unnest inner join).
    """
    import pandas as pd

    def rules(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy(np.int64)
        i, sig = gopher_signals(
            df[text_col], min_words=min_words,
            wlen_lo_milli=wlen_lo_milli, wlen_hi_milli=wlen_hi_milli,
            min_stop_distinct=min_stop_distinct,
            max_top_word_ppm=max_top_word_ppm)
        out = pd.DataFrame({id_col: ids[i]})
        for c in sig.columns:
            out[c] = sig[c].to_numpy()
        return out

    return (ds.select_columns([id_col, text_col])
              .map_batches(rules, batch_format="pandas",
                           batch_size=batch_size))


def gopher_signals(texts, min_words: int = 10,
                   wlen_lo_milli: int = 3000, wlen_hi_milli: int = 10000,
                   min_stop_distinct: int = 2,
                   max_top_word_ppm: int = 200_000):
    """Per-row Gopher signal computation (the reusable batch kernel
    behind gopher_quality): returns (positions, signals DataFrame)
    where positions are the row indices of texts WITH >=1 [a-z] word
    and signals carries n_words / mean_wlen_milli / n_stop_distinct /
    top_word_ppm / passes for exactly those rows."""
    import pandas as pd

    stop = sorted(STOPWORDS)
    texts = pd.Series(texts).reset_index(drop=True)
    words = texts.astype(str).str.findall(r"[a-z]+")
    lens = words.str.len().to_numpy(np.int64)
    flat = pd.DataFrame({
        "_i": np.repeat(np.arange(len(texts)), lens),
        "_w": np.concatenate([np.asarray(w, dtype=object)
                              for w in words])
        if lens.sum() else np.empty(0, dtype=object)})
    wc = (flat.groupby(["_i", "_w"], sort=False).size()
              .reset_index(name="_c"))
    wc["_wl"] = wc["_w"].str.len().to_numpy(np.int64) * wc["_c"]
    wc["_stop"] = wc["_w"].isin(stop)
    per = wc.groupby("_i", sort=False).agg(
        n_words=("_c", "sum"), wchars=("_wl", "sum"),
        topc=("_c", "max"), n_stop_distinct=("_stop", "sum"))
    per = per[per["n_words"] > 0]
    i = per.index.to_numpy(np.int64)
    nw = per["n_words"].to_numpy(np.int64)
    mw = per["wchars"].to_numpy(np.int64) * 1000 // nw
    ppm = per["topc"].to_numpy(np.int64) * 1_000_000 // nw
    nstop = per["n_stop_distinct"].to_numpy(np.int64)
    passes = ((nw >= min_words) & (mw >= wlen_lo_milli)
              & (mw <= wlen_hi_milli) & (nstop >= min_stop_distinct)
              & (ppm <= max_top_word_ppm)).astype(np.int64)
    sig = pd.DataFrame({
        "n_words": nw, "mean_wlen_milli": mw,
        "n_stop_distinct": nstop, "top_word_ppm": ppm,
        "passes": passes})
    return i, sig


def bpe_pair_counts(ds, text_col: str = "text", k: int = 20,
                    batch_size: int = 4096):
    """The first BPE merge step of tokenizer training: corpus-wide
    counts of adjacent [a-z][a-z] character pairs, top-k by count
    (ties to the lexicographically smaller pair).

    Per batch the texts are joined with a space separator and scanned
    as ONE uint8 array (pairs across the separator self-exclude since
    space is not [a-z]); the per-block partial is at most 26^2 = 676
    rows, so the driver combines partials directly — no shuffle at
    any corpus size.
    """
    import pandas as pd

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        blob = " ".join(df[text_col].astype(str).tolist()).encode()
        a = np.frombuffer(blob, dtype=np.uint8)
        if len(a) < 2:
            return pd.DataFrame({"_p": pd.Series([], dtype=np.int64),
                                 "_c": pd.Series([], dtype=np.int64)})
        lo, hi = np.uint8(ord("a")), np.uint8(ord("z"))
        ok = (a >= lo) & (a <= hi)
        m = ok[:-1] & ok[1:]
        pairs = (a[:-1][m].astype(np.int64) * 256
                 + a[1:][m].astype(np.int64))
        u, c = np.unique(pairs, return_counts=True)
        return pd.DataFrame({"_p": u, "_c": c.astype(np.int64)})

    parts = ds.map_batches(partial, batch_format="pandas",
                           batch_size=batch_size).to_pandas()
    agg = (parts.groupby("_p")["_c"].sum().astype(np.int64)
                .reset_index())
    agg["pair"] = [chr(p >> 8) + chr(p & 0xFF) for p in agg["_p"]]
    agg = agg.sort_values(["_c", "pair"],
                          ascending=[False, True]).head(k)
    agg = agg.reset_index(drop=True)
    return pd.DataFrame({
        "pair": agg["pair"],
        "n": agg["_c"].to_numpy(np.int64),
        "rk": np.arange(1, len(agg) + 1, dtype=np.int64)})


# PII scan + redaction (the scrubbing pass of web-curation pipelines
# like Dolma/RedPajama): regexes are RE2-compatible (no lookaround) so
# a DuckDB oracle runs the exact same patterns.
PII_PATTERNS = (
    ("email", r"[a-z0-9._]+@[a-z0-9.]+\.[a-z]{2,}", "<EMAIL>"),
    ("ipv4", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    ("phone", r"\+1-555-\d{4}", "<PHONE>"),
)


def pii_scan_redact(ds, text_col: str = "text",
                    group_col: str = "source",
                    patterns=PII_PATTERNS, batch_size: int = 4096):
    """Scan for PII tokens and measure the redacted corpus, grouped.

    One stateless map_batches does everything per batch — pandas
    C-level `str.count` per pattern, chained `str.replace` redaction
    in declaration order, then a per-batch groupby to partials — so
    the exchange carries ~|groups| counter rows per batch, never text.
    Partials combine on the driver (the repo's default for bounded
    group domains). Per group: n_docs, docs_<kind> (documents with a
    hit), tok_<kind> (total occurrences), redacted_len_sum (length of
    the corpus after all redactions — the value a downstream tokenizer
    sees). At 100 TB the only change is routing the partials through
    bucketed_sum instead of the driver."""
    import pandas as pd

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        s = df[text_col].astype(str)
        agg = pd.DataFrame(
            {group_col: df[group_col].to_numpy(dtype=object)})
        red = s
        for kind, pat, rep in patterns:
            c = s.str.count(pat).to_numpy(np.int64)
            agg[f"docs_{kind}"] = (c > 0).astype(np.int64)
            agg[f"tok_{kind}"] = c
            red = red.str.replace(pat, rep, regex=True)
        agg["redacted_len"] = red.str.len().to_numpy(np.int64)
        agg["n_docs"] = np.int64(1)
        return agg.groupby(group_col, as_index=False).sum()

    parts = ds.map_batches(scan, batch_format="pandas",
                           batch_size=batch_size).to_pandas()
    out = parts.groupby(group_col, as_index=False).sum()
    for c in out.columns:
        if c != group_col:
            out[c] = out[c].astype(np.int64)
    cols = ([group_col, "n_docs"]
            + [f"docs_{k}" for k, _, _ in patterns]
            + [f"tok_{k}" for k, _, _ in patterns]
            + ["redacted_len"])
    return (out[cols].sort_values(group_col).reset_index(drop=True)
            .rename(columns={"redacted_len": "redacted_len_sum"}))


def repetition_signals(ds, text_col: str = "text",
                       group_col: str = "source",
                       flag_ppm: int = 100_000,
                       batch_size: int = 4096):
    """Gopher repetition filters (Rae et al. 2021 table A1, the
    duplicate-n-gram family): per document, the fraction of 2-gram and
    3-gram occurrences that are repeats — (total - distinct) / total —
    in integer ppm, aggregated per source with a flag count above
    `flag_ppm`. Complements gopher_quality (which covers the
    word-count/length/stopword/top-word rules).

    One stateless map_batches per batch does findall + shifted-array
    gram assembly + two C-level groupbys, emitting per-source counter
    partials; the driver combines over the bounded source domain.
    Integer arithmetic end-to-end so the SQL oracle is bit-exact.
    Documents with fewer than n words are excluded from the n-gram
    stats (mirrors the SQL inner join), hence separate n_docs2 /
    n_docs3 denominators."""
    import pandas as pd

    def dup_ppm(grp, words, lens, n):
        cols = [f"n_docs{n}", f"sum_dup{n}_ppm", f"flag{n}"]
        m = lens >= n
        lm = lens[m]
        k = lm - (n - 1)
        total = int(k.sum())
        if total == 0:
            return pd.DataFrame({group_col: np.empty(0, dtype=object),
                                 **{c: np.empty(0, np.int64)
                                    for c in cols}})
        orig = np.nonzero(m)[0]
        di = np.repeat(orig, k)
        flat = np.concatenate(
            [np.asarray(w, dtype=object) for w in words[m]])
        # gram j of doc i = words j..j+n-1: assemble via shifted views
        # of the flattened (masked) word array
        off = (np.arange(total, dtype=np.int64)
               - np.repeat(np.cumsum(k) - k, k))
        starts = np.repeat(np.cumsum(lm) - lm, k) + off
        g = flat[starts]
        for j in range(1, n):
            g = g + " " + flat[starts + j]
        per = (pd.DataFrame({"_i": di, "_g": g})
               .groupby("_i")["_g"].agg(["size", "nunique"]))
        tot = per["size"].to_numpy(np.int64)
        ppm = (tot - per["nunique"].to_numpy(np.int64)) * 1_000_000 // tot
        return pd.DataFrame({
            group_col: grp[per.index.to_numpy(np.int64)],
            f"n_docs{n}": np.int64(1),
            f"sum_dup{n}_ppm": ppm,
            f"flag{n}": (ppm >= flag_ppm).astype(np.int64)})

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        grp = df[group_col].to_numpy(dtype=object)
        words = df[text_col].astype(str).str.findall(r"[a-z]+")
        lens = words.str.len().to_numpy(np.int64)
        words = words.to_numpy(dtype=object)
        p2 = dup_ppm(grp, words, lens, 2).groupby(
            group_col, as_index=False).sum()
        p3 = dup_ppm(grp, words, lens, 3).groupby(
            group_col, as_index=False).sum()
        out = p2.merge(p3, on=group_col, how="outer").fillna(0)
        for c in out.columns:
            if c != group_col:
                out[c] = out[c].astype(np.int64)
        return out

    parts = ds.select_columns([text_col, group_col]) \
              .map_batches(scan, batch_format="pandas",
                           batch_size=batch_size).to_pandas()
    out = parts.groupby(group_col, as_index=False).sum()
    for n in (2, 3):
        nd = out[f"n_docs{n}"].to_numpy(np.int64)
        out[f"mean_dup{n}_ppm"] = np.where(
            nd > 0, out[f"sum_dup{n}_ppm"].to_numpy(np.int64)
            // np.maximum(nd, 1), 0)
    cols = [group_col]
    for n in (2, 3):
        cols += [f"n_docs{n}", f"mean_dup{n}_ppm", f"flag{n}"]
    out = out[cols]
    for c in cols[1:]:
        out[c] = out[c].astype(np.int64)
    return out.sort_values(group_col).reset_index(drop=True)
