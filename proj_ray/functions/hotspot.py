"""Spatial hotspot detection: strict local maxima of per-cell counts
vs the 8-neighbor ring (the Getis-Ord-style heat-map peak pass a
geo-analytics pipeline runs over tile counts).

Scale shape: the counts table (one row per occupied cell) scatters
each row to its home cell (home=1) and its 8 ring cells as a ghost —
ONE `exchange.co_partition` of (x, y, n) triples on the cell, 9x
replicated; each
cell group compares its home count against the max ghost count. The
exchange is bounded by OCCUPIED cells, never points.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from proj_ray.exchange import co_partition

__all__ = ["local_max_cells"]


def local_max_cells(counts_ds, x_col: str, y_col: str, n_col: str,
                    min_count: int = 1) -> pd.DataFrame:
    """-> pandas (x_col, y_col, n_col) rows whose count is >=
    `min_count` and STRICTLY greater than every 8-neighbor count
    (absent neighbors count 0), sorted by (x, y)."""

    def scatter(b: dict) -> pd.DataFrame:
        x = np.asarray(b[x_col], dtype=np.int64)
        y = np.asarray(b[y_col], dtype=np.int64)
        n = np.asarray(b[n_col], dtype=np.int64)
        rows = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                rows.append(pd.DataFrame({
                    "_x": x + dx, "_y": y + dy, "_n": n,
                    "_home": np.full(len(x), np.int64(
                        1 if dx == 0 and dy == 0 else 0))}))
        return pd.concat(rows, ignore_index=True)

    def compare(g: pd.DataFrame) -> pd.DataFrame:
        # home count and max ghost count per cell, both vectorized
        home = g[g["_home"] == 1].groupby(["_x", "_y"])["_n"].max()
        ghost = g[g["_home"] == 0].groupby(["_x", "_y"])["_n"].max()
        j = pd.concat([home.rename("hn"), ghost.rename("gn")], axis=1)
        j = j[j["hn"].notna()]
        gn = j["gn"].fillna(0).astype(np.int64)
        hn = j["hn"].astype(np.int64)
        keep = (hn >= min_count) & (hn > gn)
        out = j[keep].reset_index()
        return pd.DataFrame({x_col: out["_x"].astype(np.int64),
                             y_col: out["_y"].astype(np.int64),
                             n_col: out["hn"].astype(np.int64)})

    parts = co_partition(counts_ds.map_batches(scatter,
                                               batch_format="numpy"),
                         ["_x", "_y"], compare).to_pandas()
    if not len(parts):
        return pd.DataFrame({c: pd.Series([], dtype=np.int64)
                             for c in (x_col, y_col, n_col)})
    return parts.sort_values([x_col, y_col]).reset_index(drop=True)


_HEX_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


def hex_smooth(counts_ds, q_col: str = "hq", r_col: str = "hr",
               n_col: str = "n") -> pd.DataFrame:
    """Sparse stencil smoothing on an axial hex grid: each OCCUPIED
    cell's smoothed count is (6*own + sum of its 6 axial neighbours'
    counts) // 12 (absent neighbours count 0) — the hex analogue of a
    box blur, run as the local_max_cells scatter: every counts row
    ships to its home cell (weight 6) and 6 ghosts (weight 1), ONE
    co-partition of 7x-replicated (q, r, w*n) triples on the cell, and
    only cells that received a home row emit output. The exchange is
    bounded by occupied cells, never points.

    -> pandas (q_col, r_col, n_col, sm) sorted by (q, r)."""

    def scatter(b: dict) -> pd.DataFrame:
        q = np.asarray(b[q_col], dtype=np.int64)
        r = np.asarray(b[r_col], dtype=np.int64)
        n = np.asarray(b[n_col], dtype=np.int64)
        rows = [pd.DataFrame({"_q": q, "_r": r, "_w": 6 * n,
                              "_own": n})]
        for dq, dr in _HEX_DIRS:
            rows.append(pd.DataFrame({
                "_q": q + dq, "_r": r + dr, "_w": n,
                "_own": np.zeros(len(q), np.int64)}))
        return pd.concat(rows, ignore_index=True)

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["_q", "_r"], as_index=False).agg(
            tot=("_w", "sum"), own=("_own", "sum"))
        agg = agg[agg["own"] > 0]
        return pd.DataFrame({
            "q": agg["_q"].to_numpy(np.int64),
            "r": agg["_r"].to_numpy(np.int64),
            "n": agg["own"].to_numpy(np.int64),
            "sm": (agg["tot"].to_numpy(np.int64) // 12),
        })

    out = co_partition(counts_ds.map_batches(scatter, batch_format="numpy",
                                             batch_size=65536),
                       ["_q", "_r"], combine).to_pandas()
    out = out.rename(columns={"q": q_col, "r": r_col, "n": n_col})
    return out.sort_values([q_col, r_col], kind="stable",
                           ignore_index=True)
