"""Distinct-count operators over Ray Data datasets.

- grouped_count_distinct: EXACT per-group cardinality. Per batch,
  duplicate (group, value) pairs are dropped locally; the single
  `exchange.co_partition` on the value (a bucket sort — never a
  million-distinct-key sort), each bucket counts
  its unique pairs vectorized, and a final tiny groupby sums per-group
  bucket counts. SQL-reproducible: COUNT(DISTINCT v) GROUP BY g.
- grouped_count_distinct_hll: HyperLogLog sketch for when exact
  cardinality is too expensive at 100 TB: each batch folds its values
  into 2^p max-registers per group (a few KB), the shuffle moves ONE
  register row per (group, batch), and registers merge by elementwise
  max — fully mergeable, one pass, no value ever leaves its batch.
  Standard HLL estimator with small-range LinearCounting correction
  (Flajolet et al. 2007); pytest asserts relative error well inside
  the ~1.04/sqrt(2^p) bound against the exact operator.
"""

from __future__ import annotations

import numpy as np

from proj_ray.exchange import co_partition
from proj_ray.functions._hash import stable_u64

_GOLDEN = 0x9E3779B97F4A7C15


def _hash_vals(v: np.ndarray) -> np.ndarray:
    """Stable 64-bit mix of a value column (ints via splitmix-style
    fold, strings/objects via the shared vectorized hasher)."""
    a = np.asarray(v)
    if np.issubdtype(a.dtype, np.integer):
        x = a.astype(np.uint64)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))
    return stable_u64(a)


def grouped_count_distinct(ds, group_col: str, value_col: str):
    """-> rows (group, n_distinct): exact COUNT(DISTINCT value) per
    group. One co-partition of locally-deduped pairs on the value."""
    import pandas as pd

    from ray.data.aggregate import Sum

    def local_dedup(batch):
        df = pd.DataFrame({
            group_col: np.asarray(batch[group_col]),
            value_col: np.asarray(batch[value_col]),
        })
        return df.drop_duplicates()

    def count_bucket(group: pd.DataFrame) -> pd.DataFrame:
        u = group.drop_duplicates([group_col, value_col])
        g = u.groupby(group_col, sort=False, as_index=False).size()
        g["n"] = g["size"].astype(np.int64)
        return g.drop(columns=["size"])

    def final(batch):
        return pd.DataFrame({
            group_col: np.asarray(batch[group_col]),
            "n_distinct": np.asarray(batch["nd"]).astype(np.int64),
        })

    return (co_partition(ds.select_columns([group_col, value_col])
                         .map_batches(local_dedup, batch_format="numpy"),
                         value_col, count_bucket)
            .groupby(group_col)
            .aggregate(Sum("n", alias_name="nd"))
            .map_batches(final, batch_format="numpy"))


def grouped_count_distinct_hll(ds, group_col: str, value_col: str,
                               p: int = 12):
    """-> pandas (group, n_distinct_est): HyperLogLog estimate of
    COUNT(DISTINCT value) per group; standard error ~1.04/sqrt(2^p)
    (~1.6% at the default p=12, 4 KB per group)."""
    import pandas as pd

    m = 1 << p

    def batch_registers(batch):
        g = np.asarray(batch[group_col])
        h = _hash_vals(np.asarray(batch[value_col]))
        idx = (h >> np.uint64(64 - p)).astype(np.int64)
        rest = h << np.uint64(p)
        # rank = leading zeros of the remaining 64-p bits, + 1
        lz = np.full(len(h), 64 - p, dtype=np.int64)
        nz = rest != 0
        # count leading zeros via float64 exponent of the top bit
        r = rest[nz]
        hi = (r >> np.uint64(32)).astype(np.float64)
        lo = (r & np.uint64(0xFFFFFFFF)).astype(np.float64)
        bits = np.where(hi > 0,
                        63 - (np.floor(np.log2(hi)) + 32),
                        63 - np.floor(np.log2(np.maximum(lo, 1))))
        lz[nz] = np.minimum(bits.astype(np.int64), 64 - p)
        rank = lz + 1
        rows = {group_col: [], "regs": []}
        df = pd.DataFrame({"g": g, "i": idx, "r": rank})
        for gval, gg in df.groupby("g", sort=False):
            regs = np.zeros(m, dtype=np.int8)
            np.maximum.at(regs, gg["i"].to_numpy(),
                          gg["r"].to_numpy().astype(np.int8))
            rows[group_col].append(gval)
            rows["regs"].append(regs.tobytes())
        return pd.DataFrame(rows)

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        regs = np.zeros(m, dtype=np.uint8)
        for b in group["regs"]:
            np.maximum(regs, np.frombuffer(b, dtype=np.uint8),
                       out=regs)
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / np.sum(2.0 ** -regs.astype(np.float64))
        zeros = int(np.count_nonzero(regs == 0))
        if est <= 2.5 * m and zeros:
            est = m * np.log(m / zeros)  # LinearCounting
        return pd.DataFrame({
            group_col: [group[group_col].iloc[0]],
            "n_distinct_est": [float(est)],
        })

    out = (ds.select_columns([group_col, value_col])
           .map_batches(batch_registers, batch_format="numpy")
           .groupby(group_col)
           .map_groups(merge, batch_format="pandas"))
    return out.to_pandas()
