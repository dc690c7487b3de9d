"""Distributed polyline simplification: per-key Douglas-Peucker
(Douglas & Peucker 1973) in EXACT integer arithmetic.

The split test compares squared perpendicular distance against eps^2
without division: a point p splits segment (a, b) iff
cross(b-a, p-a)^2 > eps^2 * |b-a|^2. `cross` fits int64 for
coordinates below ~2^26.5; the single squared comparison per segment
runs in Python arbitrary-precision ints, so there is NO overflow and a
SQL oracle (HUGEINT cross*cross, recursive CTE over the segment
partition) reproduces the kept set bit-for-bit. The split point is the
argmax of |cross| with ties broken by lowest sequence index — the same
rule as ORDER BY ABS(cross) DESC, seq ASC.

Scale shape: one `exchange.co_partition` on the key (the
sessionize plan); per bucket the DP runs an explicit interval stack
per key with the inner distance scan vectorized over the interval —
no recursion, no per-point Python beyond the stack loop whose depth is
the output size.
"""

from __future__ import annotations

import numpy as np

from proj_ray.dsutil import merged
from proj_ray.exchange import co_partition


def _dp_keep_mask(x: np.ndarray, y: np.ndarray, eps2: int) -> np.ndarray:
    n = len(x)
    keep = np.zeros(n, dtype=bool)
    if n == 0:
        return keep
    keep[0] = keep[-1] = True
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        dx = int(x[hi]) - int(x[lo])
        dy = int(y[hi]) - int(y[lo])
        cross = (dx * (y[lo + 1:hi] - y[lo])
                 - dy * (x[lo + 1:hi] - x[lo]))
        j = int(np.argmax(np.abs(cross)))  # first max = lowest seq
        c = int(cross[j])
        if c * c > eps2 * (dx * dx + dy * dy):
            p = lo + 1 + j
            keep[p] = True
            stack.append((lo, p))
            stack.append((p, hi))
    return keep


def simplify_stats(ds, key_col: str, ts_col: str,
                   x_col: str = "x", y_col: str = "y",
                   eps: int = 2000, tie_col: str | None = None):
    """Per-key Douglas-Peucker over (`ts_col`[, `tie_col`])-ordered
    integer trajectories. Returns (key, n_points, n_kept, chk) where
    chk = sum over kept points of seq * 1000003 + x + y (seq is the
    0-based position in the ordered trajectory) — pinning exactly
    WHICH points survive, not just how many."""
    import pandas as pd

    eps2 = int(eps) * int(eps)
    need = [key_col, ts_col, x_col, y_col] + \
        ([tie_col] if tie_col else [])
    order = [key_col, ts_col] + ([tie_col] if tie_col else [])

    def dp(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(order, kind="stable")
        rows = []
        for key, gg in g.groupby(key_col, sort=False):
            x = gg[x_col].to_numpy(np.int64)
            y = gg[y_col].to_numpy(np.int64)
            keep = _dp_keep_mask(x, y, eps2)
            seq = np.arange(len(x), dtype=np.int64)
            chk = int((seq[keep] * 1000003 + x[keep] + y[keep]).sum())
            rows.append((key, len(x), int(keep.sum()), chk))
        return pd.DataFrame(rows, columns=[key_col, "n_points",
                                           "n_kept", "chk"])

    return co_partition(merged(ds, need), key_col, dp)
