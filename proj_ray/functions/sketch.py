"""Frequency-sketch operators: Misra-Gries heavy hitters with an
exact recount, over Ray Data datasets.

The two-pass shape every large-scale top-k-frequent pipeline uses:

pass 1  per-batch Misra-Gries summaries (m counters), merged by
        streaming associative combines — NO sort shuffle. The merged
        summary over-counts nothing and under-counts each item by at
        most n/m (classic MG bound, summed across merges), so every
        item whose true count exceeds n/m is present.
pass 2  the top-(k + margin) candidate keys from the summary are
        recounted EXACTLY with a vectorized isin filter + per-batch
        partial counts — bytes moved: candidates only.

The result is exact (not approximate) whenever the k-th true count
exceeds the MG error bound; `heavy_hitters` verifies the bound from
the summary itself and falls back to a full groupby-count when the
guarantee cannot be established (documented scale path: raise m).
"""

from __future__ import annotations

import numpy as np


def _mg_merge(keys: np.ndarray, counts: np.ndarray, m: int):
    """Merge duplicate keys, then apply the MG decrement so at most m
    counters survive. Returns (keys, counts, decrement_applied)."""
    import pandas as pd

    s = pd.Series(counts).groupby(pd.Series(keys)).sum()
    k = s.index.to_numpy()
    c = s.to_numpy(np.int64)
    dec = 0
    if len(c) > m:
        # decrement by the (m+1)-th largest count: standard MG step
        thr = np.partition(c, len(c) - m - 1)[len(c) - m - 1]
        c = c - thr
        keep = c > 0
        k, c = k[keep], c[keep]
        dec = int(thr)
    return k, c, dec


def heavy_hitters(ds, col: str, k: int = 10, m: int = 4096,
                  margin: int = 8):
    """-> pandas (value, cnt): the EXACT top-k most frequent values of
    `col`, ties broken by value ascending (SQL: ORDER BY cnt DESC,
    value ASC LIMIT k).

    `m` is the sketch width; exactness is certified when the k-th
    candidate's exact count exceeds the accumulated MG decrement
    (the summary's maximum undercount). See module docstring.
    """
    import pandas as pd

    def batch_summary(b: dict) -> dict:
        kk, cc, dec = _mg_merge(np.asarray(b[col]),
                                np.ones(len(b[col]), dtype=np.int64),
                                m)
        return {col: kk, "_c": cc,
                "_decs": np.r_[np.int64(dec),
                               np.zeros(len(kk) - 1, np.int64)]
                if len(kk) else np.empty(0, np.int64)}

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        dec_in = int(df["_decs"].sum())
        kk, cc, dec = _mg_merge(df[col].to_numpy(),
                                df["_c"].to_numpy(np.int64), m)
        out = pd.DataFrame({col: kk, "_c": cc})
        out["_decs"] = 0
        if len(out):
            out.loc[out.index[0], "_decs"] = dec_in + dec
        return out

    summ = (ds.select_columns([col])
            .map_batches(batch_summary, batch_format="numpy",
                         batch_size=65536)
            .map_batches(combine, batch_format="pandas",
                         batch_size=65536)
            .map_batches(combine, batch_format="pandas",
                         batch_size=65536)
            .to_pandas())
    total_dec = int(summ["_decs"].sum())
    merged = summ.groupby(col, as_index=False)["_c"].sum()
    merged = merged.sort_values(["_c", col],
                                ascending=[False, True],
                                kind="stable")
    cand = merged[col].head(k + margin).to_numpy()

    # pass 2: exact recount of the candidates only
    cand_sorted = np.sort(cand)

    def recount(b: dict) -> dict:
        v = np.asarray(b[col])
        pos = np.clip(np.searchsorted(cand_sorted, v), 0,
                      len(cand_sorted) - 1)
        keep = cand_sorted[pos] == v
        vv = v[keep]
        s = pd.Series(np.ones(len(vv), np.int64)).groupby(
            pd.Series(vv)).sum()
        return {col: s.index.to_numpy(),
                "cnt": s.to_numpy(np.int64)}

    def recombine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(col, as_index=False)["cnt"].sum()

    exact = (ds.select_columns([col])
             .map_batches(recount, batch_format="numpy",
                          batch_size=65536)
             .map_batches(recombine, batch_format="pandas",
                          batch_size=65536)
             .to_pandas())
    exact = exact.groupby(col, as_index=False)["cnt"].sum()
    exact = exact.sort_values(["cnt", col], ascending=[False, True],
                              kind="stable").head(k) \
        .reset_index(drop=True)
    exact["cnt"] = exact["cnt"].astype(np.int64)

    # Exactness certificate: any value OUTSIDE the candidate set has
    # true count <= its summary count (0 if absent) + total_dec; the
    # largest such bound is the first excluded summary entry's count
    # + total_dec. If the k-th exact candidate count does not beat
    # that, the sketch was too narrow — fall back.
    excl = int(merged["_c"].iloc[k + margin]) \
        if len(merged) > k + margin else 0
    if len(exact) >= k and \
            int(exact["cnt"].iloc[-1]) <= excl + total_dec:
        # guarantee not certified: an unseen item could beat the k-th.
        # Fall back to an exact full count (the documented remedy at
        # scale is a wider sketch, not this fallback).
        def count_all(b: dict) -> dict:
            s = pd.Series(np.ones(len(b[col]), np.int64)).groupby(
                pd.Series(np.asarray(b[col]))).sum()
            return {col: s.index.to_numpy(),
                    "cnt": s.to_numpy(np.int64)}

        full = (ds.select_columns([col])
                .map_batches(count_all, batch_format="numpy",
                             batch_size=65536)
                .map_batches(recombine, batch_format="pandas",
                             batch_size=65536)
                .to_pandas())
        full = full.groupby(col, as_index=False)["cnt"].sum()
        exact = full.sort_values(["cnt", col],
                                 ascending=[False, True],
                                 kind="stable").head(k) \
            .reset_index(drop=True)
        exact["cnt"] = exact["cnt"].astype(np.int64)
    return exact


_KNUTH32 = np.uint64(2654435761)
_M32 = np.uint64(4294967296)


# xxhash/Knuth-style odd 32-bit multipliers: one independent row hash
# per CMS depth. Public constants (Knuth 1998; xxHash primes).
_CMS_PRIMES = (2654435761, 2246822519, 3266489917, 668265263)


def count_min(ds, col: str, depth: int = 4, width: int = 256):
    """Count-Min sketch (Cormode & Muthukrishnan 2005) over an int key
    column, evaluated against the exact counts: returns pandas
    (key, n_exact, n_est) with n_est = min over the sketch's `depth`
    rows of the bucket counter the key hashes into — always >=
    n_exact, equal when no colliding key shares all `depth` buckets.

    Row hashes are h_j(k) = ((k mod 2^32) * P_j mod 2^32) mod width
    with fixed odd multipliers, so a SQL oracle reproduces the sketch
    bit-for-bit (the KMV convention in this module).

    Scale shape: each block contributes ONE (depth x width) partial
    counter frame (emitted as depth*width rows) regardless of row
    count — the counter exchange is O(blocks x depth x width), never
    O(rows) — and the frames finish in one keyed sum
    (`pipelines.spatial.bucketed_sum`) of <= depth*width counter rows
    plus the distinct keys. The per-key exact
    side ships per-block pre-combined (key, n) partials, bounded by
    the block's distinct keys. Estimates are then a vectorized lookup
    of the final counter matrix against the distinct-key table."""
    import pandas as pd

    from proj_ray.dsutil import pull_pandas
    from proj_ray.pipelines.spatial import bucketed_sum

    dw = depth * width
    pr = np.asarray(_CMS_PRIMES[:depth], dtype=np.uint64)

    def partial(b: dict) -> dict:
        k = np.asarray(b[col]).astype(np.uint64) % _M32
        cnt = np.zeros(dw, dtype=np.int64)
        for j in range(depth):
            bk = ((k * pr[j]) % _M32 % np.uint64(width)).astype(np.int64)
            np.add.at(cnt, j * width + bk, 1)
        nz = np.flatnonzero(cnt)
        ek = np.asarray(b[col])
        s = pd.Series(np.ones(len(ek), np.int64)).groupby(
            pd.Series(ek)).sum()
        return {"_jb": np.r_[nz, np.full(len(s), -1, np.int64)],
                "_n": np.r_[cnt[nz], s.to_numpy(np.int64)],
                "_k": np.r_[np.full(len(nz), -1, np.int64),
                            s.index.to_numpy().astype(np.int64)]}

    fin = pull_pandas(bucketed_sum(
        ds.select_columns([col])
        .map_batches(partial, batch_format="numpy", batch_size=65536),
        ["_jb", "_k"], "_n", "_n"))
    sk = fin[fin["_jb"] >= 0]
    cnt = np.zeros(dw, dtype=np.int64)
    cnt[sk["_jb"].to_numpy()] = sk["_n"].to_numpy()
    ex = fin[fin["_jb"] < 0]
    keys = ex["_k"].to_numpy()
    ku = keys.astype(np.uint64) % _M32
    est = np.full(len(keys), np.iinfo(np.int64).max, dtype=np.int64)
    for j in range(depth):
        bk = ((ku * pr[j]) % _M32 % np.uint64(width)).astype(np.int64)
        est = np.minimum(est, cnt[j * width + bk])
    out = pd.DataFrame({col: keys, "n_exact": ex["_n"].to_numpy(),
                        "n_est": est})
    return out.sort_values(col, kind="mergesort").reset_index(drop=True)


def kmv_distinct(ds, group_col: str, value_col: str, k: int = 64):
    """KMV (k-minimum-values) per-group distinct-count sketch
    (Bar-Yossef et al. 2002): keep the k smallest hashes of the
    distinct values; the estimator is (k-1) / theta with
    theta = (h_k + 1) / 2^32, evaluated in INTEGER floor division so
    a SQL oracle reproduces it bit-for-bit. Groups with fewer than k
    distinct values report the exact count (the sketch IS the value
    set there). The hash is the Knuth 32-bit multiplicative mix — a
    BIJECTION mod 2^32, so distinct values < 2^32 never collide and
    the k-th order statistic is well defined.

    Scale shape: every batch reduces to at most k (group, hash) rows
    per group before the single all-to-all; merging sketches is a
    distinct + partial-sort of a few hundred rows per group. The
    values themselves never cross the shuffle.

    Returns rows (group, n_kept, kth_hash, est)."""
    import pandas as pd

    def local(batch):
        df = pd.DataFrame({
            "g": np.asarray(batch[group_col]),
            "v": np.asarray(batch[value_col]),
        }).drop_duplicates()
        h = (df["v"].to_numpy().astype(np.uint64) % _M32
             * _KNUTH32) % _M32
        out = pd.DataFrame({"g": df["g"].to_numpy(),
                            "h": h.astype(np.int64)})
        out = out.sort_values(["g", "h"], kind="mergesort")
        return out.groupby("g", sort=False).head(k)

    def merge(group: "pd.DataFrame") -> "pd.DataFrame":
        hs = np.unique(group["h"].to_numpy(np.int64))[:k]
        n = len(hs)
        hk = int(hs[-1])
        est = n if n < k else (k - 1) * int(_M32) // (hk + 1)
        return pd.DataFrame({group_col: group["g"].iloc[:1],
                             "n_kept": np.int64(n),
                             "kth_hash": np.int64(hk),
                             "est": np.int64(est)})

    return (ds.map_batches(local, batch_format="pandas",
                           batch_size=65536)
            .groupby("g").map_groups(merge, batch_format="pandas"))
