"""Distributed exact statistics over Ray Data datasets.

grouped_quantiles: EXACT discrete quantiles per group for fixed-point-
quantizable values (money, counts, quantized measurements), at scale,
via two-pass histogram refinement — the classic distributed exact-
quantile shape:

pass 1  map_batches partial-counts (group, value >> bucket_shift)
        coarse buckets; a tiny groupby sums them (distinct keys =
        groups x occupied buckets, NOT distinct values — a first
        version shuffled raw (group, value) pairs and degenerated to a
        594k-distinct-key sort on near-unique money columns: 151 s at
        sf0.1 vs ~3 s for this shape).
driver  walks each group's bucket cumsum to find, for every q, the
        bucket containing sorted position ceil(q*n) and the residual
        rank within it (bounded: groups x buckets rows).
pass 2  re-scans with a vectorized mask keeping ONLY rows in target
        buckets (at most groups x len(qs) buckets), sorts that small
        pull per (group, bucket), and reads the residual rank off it.

The driver pull is bounded by rows-per-bucket x targets; raise
bucket_shift resolution (more buckets) to shrink it at larger scale,
or recurse the refinement (not needed at this corpus size — documented
scale path). Quantile semantics match DuckDB's quantile_disc: the
element at 1-based sorted position ceil(q*n).
"""

from __future__ import annotations

import math

import numpy as np


def grouped_quantiles(ds, group_col: str, value_col: str,
                      qs: tuple = (0.25, 0.5, 0.75),
                      scale: int = 100, bucket_shift: int = 14):
    """-> rows (group, q, quantile): exact discrete quantiles of
    value_col per group. `scale` is the fixed-point factor; values must
    be exact multiples of 1/scale for exactness (money at scale=100).
    Buckets are value_cents >> bucket_shift (default ~164-currency-unit
    ranges at scale=100)."""
    import pandas as pd

    def to_cents(batch):
        return np.rint(np.asarray(batch[value_col], dtype=np.float64)
                       * scale).astype(np.int64)

    def bucket_counts(batch):
        df = pd.DataFrame({
            group_col: np.asarray(batch[group_col]),
            "_b": to_cents(batch) >> bucket_shift,
        })
        g = df.groupby([group_col, "_b"], sort=False,
                       as_index=False).size()
        g["n"] = g["size"].astype(np.int64)
        return g.drop(columns=["size"])

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby([group_col, "_b"], sort=False,
                          as_index=False)["n"].sum()

    # Histogram counts are associative, so no sort-based groupby is
    # needed: two streaming combine stages (map_batches with a large
    # fan-in batch_size) shrink the per-block partials 65536x per
    # round, and the driver merges the bounded remainder. Ray's
    # distributed groupby on the same 20k partial rows cost 7.4 s of
    # pure shuffle latency; this shape is under 1 s warm.
    hist = (ds.map_batches(bucket_counts, batch_format="numpy",
                           batch_size=65536)
            .map_batches(combine, batch_format="pandas",
                         batch_size=65536)
            .map_batches(combine, batch_format="pandas",
                         batch_size=65536)
            .to_pandas())
    hist = hist.groupby([group_col, "_b"], sort=False,
                        as_index=False)["n"].sum() \
        .rename(columns={"n": "n_total"})

    qs_arr = np.asarray(qs, dtype=np.float64)
    # driver walk: target bucket + residual 1-based rank per (group, q)
    targets: dict[tuple, list[tuple[float, int]]] = {}
    for gval, gh in hist.groupby(group_col, sort=False):
        gh = gh.sort_values("_b", kind="stable")
        counts = gh["n_total"].to_numpy(dtype=np.int64)
        cum = np.cumsum(counts)
        n = int(cum[-1])
        for q in qs_arr:
            pos = min(max(math.ceil(q * n), 1), n)
            bi = int(np.searchsorted(cum, pos, side="left"))
            prev = int(cum[bi - 1]) if bi else 0
            b = int(gh["_b"].iloc[bi])
            targets.setdefault((gval, b), []).append(
                (float(q), pos - prev))

    target_keys = set(targets)

    def pull_targets(batch):
        g = np.asarray(batch[group_col])
        v = to_cents(batch)
        b = v >> bucket_shift
        # vectorized membership over the (tiny) target set
        keep = np.zeros(len(g), dtype=bool)
        for gv, bv in target_keys:
            keep |= (g == gv) & (b == bv)
        return {group_col: g[keep], "_b": b[keep], "_v": v[keep]}

    pulled = (ds.map_batches(pull_targets, batch_format="numpy")
              .to_pandas())  # bounded: rows-per-bucket x targets

    rows = {group_col: [], "q": [], "quantile": []}
    for (gval, b), wants in targets.items():
        seg = pulled[(pulled[group_col] == gval) & (pulled["_b"] == b)]
        sv = np.sort(seg["_v"].to_numpy())
        for q, rank in wants:
            rows[group_col].append(gval)
            rows["q"].append(q)
            rows["quantile"].append(sv[rank - 1] / scale)
    out = pd.DataFrame(rows).sort_values(
        [group_col, "q"], kind="stable").reset_index(drop=True)
    return out


def pivot_counts(ds, key_col: str, pivot_col: str,
                 values: list | None = None, prefix: str = "n_"):
    """Wide pivot: one row per key, one int64 count column per
    distinct `pivot_col` value (SQL COUNT(CASE WHEN ...) GROUP BY).

    Each batch partial-pivots locally (pandas crosstab, one column per
    known value), so the shuffle moves one pre-combined row per
    (block, key) — never the raw events. If `values` is not given, a
    tiny distinct-scan pass discovers the column set first; pass it
    explicitly to skip that pass when the domain is known. Unseen
    values count 0; the column set is fixed up front, so the output
    schema is stable regardless of which blocks contain which values
    (the property a streaming pivot needs at scale).
    """
    import pandas as pd

    if values is None:
        values = sorted(ds.select_columns([pivot_col]).unique(pivot_col))
    cols = [f"{prefix}{v}" for v in values]
    vindex = {v: i for i, v in enumerate(values)}

    def partial(b: dict) -> dict:
        k = np.asarray(b[key_col])
        p = np.asarray(b[pivot_col])
        code = pd.Series(p).map(vindex).fillna(-1).to_numpy(np.int64)
        keep = code >= 0
        df = pd.DataFrame({key_col: k[keep], "_c": code[keep]})
        g = df.groupby([key_col, "_c"]).size().unstack(
            "_c", fill_value=0)
        g = g.reindex(columns=range(len(values)), fill_value=0)
        out = {key_col: g.index.to_numpy()}
        for i, c in enumerate(cols):
            out[c] = g[i].to_numpy(np.int64)
        return out

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(key_col, as_index=False)[cols].sum()

    # `exchange.co_partition` sorts on a bucket of the key rather than
    # the key itself — Ray's sort-based groupby priced a 1,500-key
    # 5-aggregate sort at ~4 s of fixed latency; the bucket sort is
    # ~1.5 s and each bucket combines all its keys in one vectorized
    # pandas pass.
    from proj_ray.exchange import co_partition

    return co_partition(ds.select_columns([key_col, pivot_col])
                        .map_batches(partial, batch_format="numpy",
                                     batch_size=65536),
                        key_col, combine)


def _finest_sums(ds, keys: list, value_col: str, scale: int):
    """ONE data pass: exact int64 fixed-point sums + counts at the
    finest (k1..kn) level. Per-batch partials, two streaming combine
    stages (no sort shuffle — sums are associative); the returned
    pandas frame is bounded by the key-domain product, not rows."""
    import pandas as pd

    def partial(batch):
        df = pd.DataFrame({k: np.asarray(batch[k]) for k in keys})
        df["_s"] = np.rint(np.asarray(batch[value_col],
                                      dtype=np.float64)
                           * scale).astype(np.int64)
        g = df.groupby(keys, sort=False, as_index=False).agg(
            s=("_s", "sum"), n=("_s", "size"))
        g["n"] = g["n"].astype(np.int64)
        return g

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(keys, sort=False, as_index=False).agg(
            s=("s", "sum"), n=("n", "sum"))

    fin = (ds.map_batches(partial, batch_format="numpy",
                          batch_size=65536)
           .map_batches(combine, batch_format="pandas",
                        batch_size=65536)
           .map_batches(combine, batch_format="pandas",
                        batch_size=65536)
           .to_pandas())
    return fin.groupby(keys, sort=False, as_index=False).agg(
        s=("s", "sum"), n=("n", "sum"))


def grouping_set_sums(ds, keys: list, sets: list, value_col: str,
                      scale: int = 100, all_label: str = "ALL"):
    """SQL GROUP BY GROUPING SETS: exact int64 sums + counts at each
    listed grouping set (a subset of `keys`; a repeated set yields
    repeated rows, as in SQL). Rolled-up key positions carry
    `all_label` (not NULL — stable hashing across engines).

    ONE pass over the data (see _finest_sums), then the driver derives
    every requested set from the finest aggregate — work bounded by
    len(sets) x key-domain product, never the row count. ROLLUP and
    CUBE are the two canonical instances (rollup_sums / cube_sums).
    """
    import pandas as pd

    fin = _finest_sums(ds, keys, value_col, scale)

    blocks = []
    for kept in sets:
        kept = list(kept)
        rolled = [k for k in keys if k not in kept]
        if kept:
            g = fin.groupby(kept, as_index=False).agg(
                s=("s", "sum"), n=("n", "sum"))
        else:
            g = pd.DataFrame({"s": [fin["s"].sum()],
                              "n": [fin["n"].sum()]})
        for k in rolled:
            g[k] = all_label
        blocks.append(g[keys + ["s", "n"]])
    out = pd.concat(blocks, ignore_index=True).rename(
        columns={"s": "sum_c", "n": "n_rows"})
    out["sum_c"] = out["sum_c"].astype(np.int64)
    out["n_rows"] = out["n_rows"].astype(np.int64)
    return out.sort_values(keys, kind="stable").reset_index(drop=True)


def rollup_sums(ds, keys: list, value_col: str, scale: int = 100,
                all_label: str = "ALL"):
    """SQL GROUP BY ROLLUP: grouping sets (k1..kn), (k1..kn-1), ...,
    () — see grouping_set_sums for the one-pass scale shape."""
    sets = [keys[:lvl] for lvl in range(len(keys), -1, -1)]
    return grouping_set_sums(ds, keys, sets, value_col, scale,
                             all_label)


def cube_sums(ds, keys: list, value_col: str, scale: int = 100,
              all_label: str = "ALL"):
    """SQL GROUP BY CUBE: all 2^d grouping sets over `keys` — see
    grouping_set_sums for the one-pass scale shape."""
    from itertools import combinations

    sets = [list(kept) for lvl in range(len(keys), -1, -1)
            for kept in combinations(keys, lvl)]
    return grouping_set_sums(ds, keys, sets, value_col, scale,
                             all_label)


def grouped_moment_stats(ds, group_col: str, x_col: str, y_col: str,
                         scale: int = 100):
    """Grouped sample standard deviation of x and Pearson corr(x, y)
    from ONE pass of mergeable fixed-point moments.

    Per batch: int64 partials n, Sx, Sy, Sxx, Syy, Sxy over
    round(v*scale) integers — exact (no float summation order issues),
    associative, streaming-combined with no sort shuffle. The driver
    then evaluates the closed forms

        stddev_samp = sqrt((n*Sxx - Sx^2) / (n*(n-1))) / scale
        corr        = (n*Sxy - Sx*Sy) /
                      (sqrt(n*Sxx - Sx^2) * sqrt(n*Syy - Sy^2))

    in float64. Because the inputs are exact integers and the
    expression tree is fixed, a SQL oracle computing the SAME
    expressions over the SAME integer sums matches bit-for-bit
    (IEEE-deterministic /, *, sqrt) — no tolerance needed.
    Values must be exact multiples of 1/scale (money at scale=100);
    int64 partials hold up to ~3e18, so per-group n*mean(x^2)*scale^2
    must stay below that (true for TPC-H money columns through SF100).
    """
    import pandas as pd

    def partial(batch):
        g = np.asarray(batch[group_col])
        x = np.rint(np.asarray(batch[x_col], dtype=np.float64)
                    * scale).astype(np.int64)
        y = np.rint(np.asarray(batch[y_col], dtype=np.float64)
                    * scale).astype(np.int64)
        df = pd.DataFrame({group_col: g, "sx": x, "sy": y,
                           "sxx": x * x, "syy": y * y, "sxy": x * y})
        out = df.groupby(group_col, sort=False, as_index=False).sum()
        out["n"] = df.groupby(group_col, sort=False,
                              as_index=False).size()["size"] \
            .astype(np.int64).to_numpy()
        return out

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(group_col, sort=False, as_index=False).sum()

    fin = (ds.map_batches(partial, batch_format="numpy",
                          batch_size=65536)
           .map_batches(combine, batch_format="pandas",
                        batch_size=65536)
           .map_batches(combine, batch_format="pandas",
                        batch_size=65536)
           .to_pandas())
    fin = fin.groupby(group_col, sort=False, as_index=False).sum()

    n = fin["n"].to_numpy(np.float64)
    sx = fin["sx"].to_numpy(np.float64)
    sy = fin["sy"].to_numpy(np.float64)
    sxx = fin["sxx"].to_numpy(np.float64)
    syy = fin["syy"].to_numpy(np.float64)
    sxy = fin["sxy"].to_numpy(np.float64)
    vx = n * sxx - sx * sx
    vy = n * syy - sy * sy
    import pandas as pd

    out = pd.DataFrame({
        group_col: fin[group_col],
        "n_rows": fin["n"].astype(np.int64),
        "stddev_x": np.sqrt(vx / (n * (n - 1.0))) / scale,
        "corr_xy": (n * sxy - sx * sy) / (np.sqrt(vx) * np.sqrt(vy)),
    })
    return out.sort_values(group_col, kind="stable").reset_index(
        drop=True)


def profile_numeric(ds, cols: list, scale: int = 100):
    """One-pass data profile of numeric columns: per column row count,
    null count, exact min / max, and exact fixed-point int64 sum
    (values must be exact multiples of 1/scale for the sum — money and
    quantities at scale=100).

    The whole profile is ONE map_batches pass emitting len(cols)
    partial rows per batch (streaming associative combines, no sort
    shuffle); min/max are copied, never computed with float
    arithmetic, so results match a SQL MIN/MAX bit-for-bit. The shape
    every warehouse stats collector uses — at 100 TB the all-to-all
    moves len(cols)-row frames only."""
    import pandas as pd

    def partial(b: dict) -> dict:
        rows = []
        for c in cols:
            v = np.asarray(b[c], dtype=np.float64)
            ok = ~np.isnan(v)
            vv = v[ok]
            s = int(np.rint(vv * scale).astype(np.int64).sum()) \
                if len(vv) else 0
            rows.append((c, len(v), int((~ok).sum()),
                         float(vv.min()) if len(vv) else np.inf,
                         float(vv.max()) if len(vv) else -np.inf, s))
        df = pd.DataFrame(rows, columns=["col", "n_rows", "n_nulls",
                                         "vmin", "vmax", "sum_c"])
        return df

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("col", sort=False, as_index=False).agg(
            n_rows=("n_rows", "sum"), n_nulls=("n_nulls", "sum"),
            vmin=("vmin", "min"), vmax=("vmax", "max"),
            sum_c=("sum_c", "sum"))

    fin = (ds.select_columns(cols)
           .map_batches(partial, batch_format="numpy",
                        batch_size=65536)
           .map_batches(combine, batch_format="pandas",
                        batch_size=65536)
           .map_batches(combine, batch_format="pandas",
                        batch_size=65536)
           .to_pandas())
    fin = fin.groupby("col", sort=False, as_index=False).agg(
        n_rows=("n_rows", "sum"), n_nulls=("n_nulls", "sum"),
        vmin=("vmin", "min"), vmax=("vmax", "max"),
        sum_c=("sum_c", "sum"))
    for c in ("n_rows", "n_nulls", "sum_c"):
        fin[c] = fin[c].astype(np.int64)
    return fin.sort_values("col", kind="stable").reset_index(drop=True)
