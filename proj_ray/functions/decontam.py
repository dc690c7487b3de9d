"""Test-set decontamination: find corpus documents that share any word
n-gram with a (small) benchmark set — the Dolma/C4-style "remove eval
contamination" pass every LLM training pipeline runs.

Engine-added operator (no reference counterpart; closest analogue is
the reference's grid-extent membership pre-check in `src/grids.cpp`).

Scale shape:
  benchmark  distributed gram extraction -> per-block DISTINCT gram
             hashes (u64) -> driver union -> one sorted array broadcast
             via `ray.put`. Benchmarks are small by definition (eval
             sets), so the broadcast is MBs even when the corpus is
             100 TB.
  corpus     one stateless `map_batches` pass: per-doc distinct gram
             hashes, membership via binary search against the broadcast
             array. NOTHING shuffles — the corpus is touched exactly
             once and only (doc_id, counts) rows leave the map.

Gram identity is a 64-bit chained splitmix over the per-word SipHash
values (`_hash.stable_u64`), so equal word sequences hash equal and
the 100-TB path never materializes gram strings. A 64-bit collision
can mark a clean doc contaminated; at eval-set gram counts (<= 1e8)
the collision odds are ~1e-3 over the whole corpus and false POSITIVES
only (safe direction for decontamination).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ._hash import splitmix64, stable_u64

__all__ = ["gram_hashes", "ngram_decontaminate",
           "frequent_gram_coverage", "bench_gram_set",
           "contaminated_mask"]

_SEED = np.uint64(0xC2B2AE3D27D4EB4F)


def gram_hashes(texts: pd.Series, n: int):
    """Per-row word n-gram hashes.

    Returns (doc_idx, gram_hash): int64 row index into `texts` and
    uint64 hash per gram occurrence (NOT deduplicated). Words are
    single-space splits (`str.split(' ')`), mirroring SQL
    `string_split(text, ' ')` including empty tokens from runs of
    spaces.
    """
    words = texts.astype(str).str.split(" ")
    lens = words.str.len().to_numpy(np.int64)
    L = int(lens.sum())
    if L == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64))
    flat = np.concatenate([np.asarray(w, dtype=object) for w in words])
    di = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
    wh = stable_u64(flat)
    if L < n:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64))
    # chained splitmix over the n window positions (n vector passes)
    h = np.full(L - n + 1, _SEED, dtype=np.uint64)
    for j in range(n):
        h = splitmix64(h ^ wh[j:L - n + 1 + j])
    valid = di[:L - n + 1] == di[n - 1:]
    return di[:L - n + 1][valid], h[valid]


def _distinct_doc_grams(df: pd.DataFrame, id_col: str, text_col: str,
                        n: int) -> pd.DataFrame:
    di, h = gram_hashes(df[text_col], n)
    ids = df[id_col].to_numpy()
    g = pd.DataFrame({"_id": ids[di], "_g": h}).drop_duplicates()
    return g


def ngram_decontaminate(corpus_ds, bench_ds, id_col: str = "doc_id",
                        text_col: str = "text", n: int = 4,
                        batch_size: int = 4096):
    """Return one row per CONTAMINATED corpus document:
    (id_col, n_grams, n_contam) with n_grams = distinct word n-grams in
    the doc and n_contam = how many of those also occur anywhere in the
    benchmark set (> 0 by construction of the output)."""
    import ray

    def bench_partial(df: pd.DataFrame) -> pd.DataFrame:
        _, h = gram_hashes(df[text_col], n)
        return pd.DataFrame({"_g": np.unique(h)})

    parts = bench_ds.map_batches(bench_partial, batch_format="pandas",
                                 batch_size=None).to_pandas()
    bench = np.unique(parts["_g"].to_numpy(np.uint64))
    bench_ref = ray.put(bench)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        bg = ray.get(bench_ref)
        g = _distinct_doc_grams(df, id_col, text_col, n)
        gh = g["_g"].to_numpy(np.uint64)
        idx = np.searchsorted(bg, gh)
        idx[idx == len(bg)] = 0 if len(bg) else 0
        hit = (bg[idx] == gh) if len(bg) else np.zeros(len(gh), bool)
        per = pd.DataFrame({"_id": g["_id"].to_numpy(), "_hit": hit})
        agg = per.groupby("_id", sort=False).agg(
            n_grams=("_hit", "size"), n_contam=("_hit", "sum"))
        agg = agg[agg["n_contam"] > 0].reset_index()
        return pd.DataFrame({
            id_col: agg["_id"],
            "n_grams": agg["n_grams"].to_numpy(np.int64),
            "n_contam": agg["n_contam"].to_numpy(np.int64)})

    return corpus_ds.map_batches(score, batch_format="pandas",
                                 batch_size=batch_size)


def frequent_gram_coverage(corpus_ds, id_col: str = "doc_id",
                           text_col: str = "text", n: int = 2,
                           min_count: int = 40,
                           batch_size: int = 4096):
    """Cheap LM-quality proxy: per document, what fraction (ppm) of its
    word n-gram OCCURRENCES are corpus-frequent (global count >=
    min_count)? Low coverage = unusual token sequences (gibberish,
    boilerplate soup); the common-crawl-style filter without a model.

    Scale shape:
      count   per-block partial (gram_hash, count) rows -> ONE
              distributed groupby over the distinct-gram domain ->
              HAVING count >= min_count. Only (hash, count) pairs
              cross the wire; at a high threshold the surviving
              frequent set is small and is broadcast sorted.
      score   one stateless map_batches pass: per-doc occurrence count
              and frequent-occurrence count via binary search; integer
              ppm = 1e6 * n_freq // n_grams.
    """
    import ray

    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        _, h = gram_hashes(df[text_col], n)
        u, c = np.unique(h, return_counts=True)
        return pd.DataFrame({"_g": u, "_c": c.astype(np.int64)})

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        tot = int(g["_c"].sum())
        if tot < min_count:
            return pd.DataFrame({"_g": pd.Series([], dtype=np.uint64)})
        return pd.DataFrame({"_g": [g["_g"].iloc[0]]})

    freq = (corpus_ds.map_batches(count_partial, batch_format="pandas",
                                  batch_size=None)
            .groupby("_g").map_groups(combine, batch_format="pandas")
            .to_pandas())
    fset = np.sort(freq["_g"].to_numpy(np.uint64))
    fref = ray.put(fset)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        fs = ray.get(fref)
        di, h = gram_hashes(df[text_col], n)
        ids = df[id_col].to_numpy()
        if len(fs):
            idx = np.searchsorted(fs, h)
            idx[idx == len(fs)] = 0
            hit = fs[idx] == h
        else:
            hit = np.zeros(len(h), dtype=bool)
        per = pd.DataFrame({"_id": ids[di], "_hit": hit})
        agg = per.groupby("_id", sort=False).agg(
            n_grams=("_hit", "size"), n_freq=("_hit", "sum"))
        ng = agg["n_grams"].to_numpy(np.int64)
        nf = agg["n_freq"].to_numpy(np.int64)
        return pd.DataFrame({
            id_col: agg.index.to_numpy(),
            "n_grams": ng,
            "freq_ppm": 1_000_000 * nf // ng})

    return corpus_ds.map_batches(score, batch_format="pandas",
                                 batch_size=batch_size)


def bench_gram_set(bench_ds, text_col: str = "text", n: int = 4):
    """Broadcastable sorted array of the benchmark's distinct gram
    hashes (the build side of both the flag and filter forms)."""
    def bench_partial(df: pd.DataFrame) -> pd.DataFrame:
        _, h = gram_hashes(df[text_col], n)
        return pd.DataFrame({"_g": np.unique(h)})

    parts = bench_ds.map_batches(bench_partial, batch_format="pandas",
                                 batch_size=None).to_pandas()
    return np.unique(parts["_g"].to_numpy(np.uint64))


def contaminated_mask(texts, bench_sorted: np.ndarray,
                      n: int = 4) -> np.ndarray:
    """Per-row bool: does this text share ANY word n-gram with the
    benchmark set? Vectorized binary search per gram occurrence."""
    import pandas as pd

    texts = pd.Series(texts).reset_index(drop=True)
    out = np.zeros(len(texts), dtype=bool)
    di, h = gram_hashes(texts, n)
    if len(h) == 0 or len(bench_sorted) == 0:
        return out
    idx = np.searchsorted(bench_sorted, h)
    idx[idx == len(bench_sorted)] = 0
    hit = bench_sorted[idx] == h
    np.logical_or.at(out, di[hit], True)
    return out


def cross_source_gram_overlap(ds, source_col: str = "source",
                              text_col: str = "text", n: int = 4,
                              batch_size: int = 4096):
    """Cross-partition contamination matrix: for each unordered source
    pair (a < b), how many DISTINCT word n-grams occur in BOTH — the
    "how much do my crawl snapshots overlap" diagnostic.

    Per-block distinct (gram_hash, source) rows go through one
    `exchange.co_partition` on the gram (a bucket sort, NOT one
    Python group per gram); inside each bucket the per-gram
    source pairs come from a vectorized pandas self-merge, and the
    per-bucket (pair, count) partials combine in a tiny final groupby.
    """
    import pandas as pd

    from proj_ray.exchange import co_partition

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        di, h = gram_hashes(df[text_col], n)
        src = df[source_col].to_numpy(object)
        return pd.DataFrame({"_g": h, "_s": src[di]}).drop_duplicates()

    def bucket_pairs(grp: pd.DataFrame) -> pd.DataFrame:
        g = grp[["_g", "_s"]].drop_duplicates()
        m = g.merge(g, on="_g")
        m = m[m["_s_x"] < m["_s_y"]]
        agg = (m.groupby(["_s_x", "_s_y"], sort=False).size()
                 .reset_index(name="_c"))
        return pd.DataFrame({
            "src_a": agg["_s_x"], "src_b": agg["_s_y"],
            "_c": agg["_c"].astype(np.int64)})

    def combine(grp: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "src_a": [grp["src_a"].iloc[0]],
            "src_b": [grp["src_b"].iloc[0]],
            "n_shared_grams": [np.int64(grp["_c"].sum())]})

    per_bucket = co_partition(ds.map_batches(partial, batch_format="pandas",
                                             batch_size=batch_size),
                              "_g", bucket_pairs)
    return per_bucket.groupby(["src_a", "src_b"]).map_groups(
        combine, batch_format="pandas")
