"""Global order statistics over a fixed-point value column:
exact q-th percentile cutoff via a TWO-LEVEL distributed histogram,
then a top-percentile filter — the "keep the best 1% by score"
curation pass.

Engine-added operator. Scale shape (the classic distributed exact
quantile):
  pass A  per-block COARSE histogram (value >> coarse_shift) + row
          count; one small groupby combine; the driver cumsums the
          bounded bucket table and locates the bucket containing the
          k-th order statistic (k = floor(q * (n-1))).
  pass B  exact histogram of ONLY that bucket's values (a filtered
          re-scan); driver picks the exact cutoff = the (k+1)-th
          smallest value. Both exchanged tables are histograms —
          bounded by bucket count / in-bucket distinct values, never
          by n.
  pass C  stateless filter `value >= cutoff`; survivors are ~(1-q)*n
          rows, ranked (value desc, ids asc) on the driver under an
          explicit cap.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

__all__ = ["percentile_cutoff", "top_percentile_filter"]


def percentile_cutoff(ds, value_fn, q: float, coarse_shift: int = 8,
                      distributed_combine: bool = False):
    """Exact (k+1)-th smallest of value_fn(batch) across ds, with
    k = floor(q * (n-1)). value_fn: pandas DataFrame -> int64 array.

    Per-block histogram partials combine on the DRIVER by default
    (bounded by blocks x in-block distinct buckets — fine into the
    thousands of blocks; no all-to-all at all). Pass
    distributed_combine=True to insert a groupby combine first when
    block count x bucket count outgrows the driver."""
    def _combine(partial_fn, key):
        parts = ds.map_batches(partial_fn, batch_format="pandas",
                               batch_size=None)
        if distributed_combine:
            parts = parts.groupby(key).map_groups(
                lambda g: pd.DataFrame(
                    {key: [np.int64(g[key].iloc[0])],
                     "_c": [np.int64(g["_c"].sum())]}),
                batch_format="pandas")
        df = parts.to_pandas()
        return (df.groupby(key, sort=True)["_c"].sum()
                  .astype(np.int64).reset_index())

    def coarse(df: pd.DataFrame) -> pd.DataFrame:
        v = value_fn(df) >> np.int64(coarse_shift)
        u, c = np.unique(v, return_counts=True)
        return pd.DataFrame({"_b": u, "_c": c.astype(np.int64)})

    hist = _combine(coarse, "_b")
    n = int(hist["_c"].sum())
    k = int(np.floor(q * (n - 1)))
    cum = hist["_c"].cumsum().to_numpy()
    bi = int(np.searchsorted(cum, k + 1))
    bucket = int(hist["_b"].iloc[bi])
    before = int(cum[bi - 1]) if bi else 0  # rows in lower buckets

    def fine(df: pd.DataFrame) -> pd.DataFrame:
        v = value_fn(df)
        v = v[(v >> np.int64(coarse_shift)) == bucket]
        u, c = np.unique(v, return_counts=True)
        return pd.DataFrame({"_v": u, "_c": c.astype(np.int64)})

    fh = _combine(fine, "_v")
    fcum = before + fh["_c"].cumsum().to_numpy()
    cutoff = int(fh["_v"].iloc[int(np.searchsorted(fcum, k + 1))])
    return cutoff, n, k


def top_percentile_filter(ds, id_cols: list, value_col: str,
                          q: float = 0.99, scale: int = 100,
                          coarse_shift: int = 8,
                          survivor_cap: int = 1_000_000):
    """Rows whose fixed-point value (floor(v*scale + 0.5)) is >= the
    exact q-th percentile cutoff, ranked (value desc, id_cols asc).
    Survivor count is ~(1-q)*n; the final ranking is driver-side under
    `survivor_cap` (raise q or the cap for bigger tails)."""
    def val(df: pd.DataFrame) -> np.ndarray:
        return np.floor(df[value_col].to_numpy(np.float64) * scale
                        + 0.5).astype(np.int64)

    cutoff, _n, _k = percentile_cutoff(ds, val, q, coarse_shift)

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        v = val(df)
        m = v >= cutoff
        out = df.loc[m, id_cols].copy()
        out["cents"] = v[m]
        return out

    surv = (ds.map_batches(keep, batch_format="pandas")
              .to_pandas())
    if len(surv) > survivor_cap:
        raise ValueError(
            f"{len(surv)} survivors exceed survivor_cap={survivor_cap}")
    surv = surv.sort_values(["cents"] + id_cols,
                            ascending=[False] + [True] * len(id_cols))
    surv = surv.reset_index(drop=True)
    surv["rk"] = np.arange(1, len(surv) + 1, dtype=np.int64)
    return surv


def weighted_median(ds, group_col: str, value_col: str,
                    weight_col: str):
    """Exact lower weighted median per group over integer values and
    weights: the smallest v with 2 * cumweight(v) >= total weight —
    the rule SQL mirrors as the first qualifying row of a cumulative
    window. Returns (group, wmedian, total_w).

    Scale shape: each block pre-combines to (group, value, weight)
    partials (bounded by the block's distinct (group, value) pairs —
    tiny for bounded value domains); the single
    `exchange.co_partition` on the GROUP co-locates whole groups, and
    the
    per-group pass is one sort + cumsum + searchsorted."""
    import pandas as pd

    from proj_ray.exchange import co_partition

    def partial(b: dict) -> dict:
        df = pd.DataFrame({
            "g": np.asarray(b[group_col]),
            "v": np.asarray(b[value_col]).astype(np.int64),
            "w": np.asarray(b[weight_col]).astype(np.int64)})
        return df.groupby(["g", "v"], as_index=False)["w"].sum()

    def med(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for key, gg in g.groupby("g", sort=False):
            agg = gg.groupby("v", as_index=False)["w"].sum() \
                    .sort_values("v", kind="mergesort")
            w = agg["w"].to_numpy(np.int64)
            cum = np.cumsum(w)
            tot = int(cum[-1])
            i = int(np.searchsorted(2 * cum, tot))
            rows.append((key, int(agg["v"].iloc[i]), tot))
        return pd.DataFrame(rows, columns=[group_col, "wmedian",
                                           "total_w"])

    out = co_partition(ds.select_columns([group_col, value_col, weight_col])
                       .map_batches(partial, batch_format="numpy",
                                    batch_size=65536),
                       "g", med).to_pandas()
    for c in ("wmedian", "total_w"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values(group_col, kind="stable",
                           ignore_index=True)
