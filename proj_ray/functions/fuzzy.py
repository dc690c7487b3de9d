"""Fuzzy string self-join (edit distance <= k) over Ray Data datasets.

Engine-added operator (no reference counterpart; the dedup family's
string-similarity member alongside MinHash / SimHash / n-gram Jaccard).

Blocking is the symmetric-deletion scheme (SymSpell / FastSS, public):
every string emits the polynomial hash of itself and of each of its
1-character-deletion variants; two strings within Levenshtein distance
1 ALWAYS share a variant (substitution -> same-position deletions
coincide; insertion/deletion -> the longer side's deletion equals the
shorter string itself), so recall is total for max_dist=1. Hash
collisions only ADD candidates (verified away), never lose pairs.
Variant hashes are O(1) each off shared prefix hashes — no variant
string is ever materialized, and only (bucket, id, string) rows cross
the shuffle.

Verification is an exact BANDED Levenshtein DP vectorized across the
candidate-pair axis: cells with |i - j| > k cannot participate in a
<=k alignment, so each DP row is a (2k+1)-wide window and the whole
matrix is O(maxlen * (2k+1)) numpy steps regardless of pair count.

Scale shape at 100 TB: signatures are ~(L+1) fixed-width rows per
string, buckets are tiny (a variant is shared only by near-identical
strings), the verify is per-bucket vectorized, and pair-dedup is the
same bucketed distinct pass hash_band_pairs uses. No all-pairs stage
anywhere.
"""

from __future__ import annotations

import numpy as np

from proj_ray.dsutil import merged
from proj_ray.exchange import co_partition

_B = np.uint64(1099511628211)  # FNV-1a prime as the polynomial base


def _encode(strs) -> tuple[np.ndarray, np.ndarray]:
    """Object strings -> (codepoint matrix uint32 (n, L), lengths)."""
    a = np.asarray(strs, dtype="U")
    lens = np.char.str_len(a)
    width = max(int(a.dtype.itemsize // 4), 1)
    mat = np.frombuffer(a.tobytes(), dtype=np.uint32).reshape(len(a),
                                                              width)
    return mat, lens.astype(np.int64)


def banded_levenshtein(am: np.ndarray, al: np.ndarray,
                       bm: np.ndarray, bl: np.ndarray,
                       k: int) -> np.ndarray:
    """Exact Levenshtein distance for each pair (am[i], bm[i]) when it
    is <= k; pairs farther than k report k+1. Vectorized over pairs:
    the DP keeps only the |i-j| <= k band, one (pairs, 2k+3) window
    row per character of `a` (border columns hold INF sentinels)."""
    m = am.shape[0]
    out = np.full(m, k + 1, dtype=np.int64)
    if m == 0:
        return out
    al = np.asarray(al, dtype=np.int64)
    bl = np.asarray(bl, dtype=np.int64)
    band = np.abs(al - bl) <= k
    width = 2 * k + 1
    inf = np.int32(k + 1)
    lbmax = bm.shape[1]

    w = np.full((m, width + 2), inf, dtype=np.int32)
    for dd in range(width):
        j = dd - k
        if j >= 0:
            w[:, dd + 1] = np.where(j <= bl, np.int32(j), inf)
    done = al == 0
    if done.any():
        idx = np.nonzero(done & band)[0]
        out[idx] = np.minimum(w[idx, (bl[idx] + k + 1)], inf)

    for i in range(1, int(al.max()) + 1):
        wn = np.full((m, width + 2), inf, dtype=np.int32)
        for dd in range(width):
            j = i + dd - k
            if j < 0 or j - 1 >= lbmax + 1:
                continue
            if j == 0:
                wn[:, dd + 1] = np.where(i <= al, np.int32(i), inf)
                continue
            if j - 1 >= lbmax:
                continue
            cost = (am[:, i - 1] != bm[:, j - 1]).astype(np.int32)
            v = np.minimum(w[:, dd + 1] + cost, w[:, dd + 2] + 1)
            v = np.minimum(v, wn[:, dd] + 1)
            v = np.minimum(v, inf)
            wn[:, dd + 1] = np.where((j <= bl) & (i <= al), v, inf)
        at = (al == i) & band
        if at.any():
            idx = np.nonzero(at)[0]
            cols = bl[idx] - i + k + 1
            out[idx] = np.minimum(wn[idx, cols], inf)
        w = wn
    return out


def _variant_hashes(strs) -> tuple[np.ndarray, np.ndarray]:
    """For each string: the polynomial hash of the string itself plus
    each 1-deletion variant, all in O(L) shared-prefix arithmetic.
    Returns (row_index, variant_hash) with per-row duplicates dropped
    (deleting either char of a doubled letter yields one variant)."""
    mat, lens = _encode(strs)
    n, lmax = mat.shape
    with np.errstate(over="ignore"):
        pref = np.zeros((n, lmax + 1), dtype=np.uint64)
        for i in range(lmax):
            pref[:, i + 1] = pref[:, i] * _B + (
                mat[:, i].astype(np.uint64) + np.uint64(1))
        bpow = np.empty(lmax + 1, dtype=np.uint64)
        bpow[0] = np.uint64(1)
        for i in range(lmax):
            bpow[i + 1] = bpow[i] * _B

        full = pref[np.arange(n), lens]
        rows = [np.arange(n)]
        hashes = [full]
        for p in range(lmax):
            live = np.nonzero(lens > p)[0]
            if not len(live):
                break
            tail = lens[live] - 1 - p
            vh = (pref[live, p] * bpow[tail]
                  + (pref[live, lens[live]]
                     - pref[live, p + 1] * bpow[tail]))
            rows.append(live)
            hashes.append(vh)
    row = np.concatenate(rows)
    vh = np.concatenate(hashes)
    order = np.lexsort((vh, row))
    row, vh = row[order], vh[order]
    keep = np.ones(len(row), dtype=bool)
    keep[1:] = (row[1:] != row[:-1]) | (vh[1:] != vh[:-1])
    return row[keep], vh[keep]


def fuzzy_join(ds, col: str, id_col: str, max_dist: int = 1,
               bucket_cap: int = 10_000):
    """Self-join pairs with Levenshtein(col_a, col_b) <= max_dist.
    Returns {id_a, id_b, dist} with id_a < id_b, each pair once.
    max_dist=1 is the total-recall SymDelete configuration; the
    banded verifier itself is exact for any k."""
    import pandas as pd

    assert max_dist == 1, "deletion-neighborhood blocking emits " \
        "1-deletion variants; recall is only guaranteed for k=1"

    def sign(batch):
        s = np.asarray(batch[col], dtype=object)
        ids = np.asarray(batch[id_col])
        row, vh = _variant_hashes(s)
        return pd.DataFrame({"bucket": vh.view(np.int64),
                             "rid": ids[row], "s": s[row]})

    # co-partitioned on the variant hash, not grouped by it: variant
    # hashes number in the tens of thousands and ray's sort-groupby
    # pays per-GROUP overhead, while a bucket + an in-task pandas
    # groupby does the same at block cost
    sigs = ds.map_batches(sign, batch_format="pandas",
                          batch_size=4096)

    def verify_one(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.drop_duplicates("rid").sort_values("rid")
        if len(g) < 2:
            return None
        if len(g) > bucket_cap:
            # a bucket this hot means thousands of near-identical
            # strings; cap documents the truncation rather than OOM
            g = g.iloc[:bucket_cap]
        ids = g["rid"].to_numpy()
        mat, lens = _encode(g["s"].to_numpy())
        n = len(ids)
        r, c = np.triu_indices(n, k=1)
        pre = np.abs(lens[r] - lens[c]) <= max_dist
        r, c = r[pre], c[pre]
        d = banded_levenshtein(mat[r], lens[r], mat[c], lens[c],
                               max_dist)
        keep = d <= max_dist
        return pd.DataFrame({"id_a": ids[r[keep]].astype(np.int64),
                             "id_b": ids[c[keep]].astype(np.int64),
                             "dist": d[keep]})

    def verify_bucket(group: "pd.DataFrame") -> "pd.DataFrame":
        frames = [f for _, sub in group.groupby("bucket", sort=False)
                  if (f := verify_one(sub)) is not None]
        if not frames:
            return pd.DataFrame({"id_a": np.empty(0, np.int64),
                                 "id_b": np.empty(0, np.int64),
                                 "dist": np.empty(0, np.int64)})
        out = pd.concat(frames, ignore_index=True)
        return out.drop_duplicates(["id_a", "id_b"])

    pairs = co_partition(sigs, "bucket", verify_bucket)
    return co_partition(merged(pairs, ["id_a", "id_b", "dist"]),
                        ["id_a", "id_b"],
                        lambda g: g.drop_duplicates(["id_a", "id_b"]))
