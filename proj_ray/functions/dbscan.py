"""Grid-based DBSCAN core-point classification (the expensive step of
density clustering): for every point, count neighbors within `eps`
and classify core (count >= min_pts, count INCLUDES the point itself)
vs non-core.

Exactness contract: coordinates quantize to integer milli-degrees and
shift non-negative before the cell floor-division, so numpy's // and
DuckDB's // agree (DuckDB truncates toward zero on negatives); the
neighbor predicate is the exact integer d2 <= eps^2.

Scale shape (PBSM, the q71 overlay plan): each point ships to its home
cell once (home=1) and to its 8 ring cells as a ghost (home=0) — ONE
`exchange.co_partition` on the cell with 9x replication of (id, x, y)
triples only;
each cell task counts neighbors for its HOME points against all its
rows vectorized, and emits one bounded stats row. eps sizes the cell,
so a ring always covers the ball. Per-cell pair work is
density-bounded; pathological single-cell hotspots should be split by
salting the cell key (stages.with_salted_cells) before this pass.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from proj_ray.exchange import co_partition

__all__ = ["dbscan_core_stats"]

_SHIFT = 1 << 20  # makes quantized coords non-negative (|mdeg| < 2^18)


def dbscan_core_stats(ds, lon_col: str, lat_col: str, id_col: str,
                      eps_mdeg: int = 2000,
                      min_pts: int = 4) -> pd.DataFrame:
    """-> one-row pandas (n_core, n_noncore, chk) where chk =
    sum over points of neighbor_count * (id + 1)."""
    eps2 = np.int64(eps_mdeg) * np.int64(eps_mdeg)

    def scatter(b: dict) -> pd.DataFrame:
        lon = np.asarray(b[lon_col], dtype=np.float64)
        lat = np.asarray(b[lat_col], dtype=np.float64)
        px = np.floor(lon * 1000 + 0.5).astype(np.int64) + _SHIFT
        py = np.floor(lat * 1000 + 0.5).astype(np.int64) + _SHIFT
        pid = np.asarray(b[id_col], dtype=np.int64)
        cx = px // eps_mdeg
        cy = py // eps_mdeg
        n = len(px)
        offs = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
        rows = []
        for dx, dy in offs:
            rows.append(pd.DataFrame({
                "_id": pid, "_x": px, "_y": py,
                "_cx": cx + dx, "_cy": cy + dy,
                "_home": np.full(n, np.int64(1 if dx == 0 and dy == 0
                                             else 0))}))
        return pd.concat(rows, ignore_index=True)

    def count_cell(g: pd.DataFrame) -> pd.DataFrame:
        res = []
        for (_, _), cell in g.groupby(["_cx", "_cy"], sort=False):
            home = cell[cell["_home"] == 1]
            if not len(home):
                continue
            hx = home["_x"].to_numpy(np.int64)
            hy = home["_y"].to_numpy(np.int64)
            ax = cell["_x"].to_numpy(np.int64)
            ay = cell["_y"].to_numpy(np.int64)
            d2 = ((hx[:, None] - ax[None, :]) ** 2
                  + (hy[:, None] - ay[None, :]) ** 2)
            cnt = (d2 <= eps2).sum(axis=1).astype(np.int64)
            core = cnt >= min_pts
            res.append((int(core.sum()), int((~core).sum()),
                        int((cnt * (home["_id"].to_numpy(np.int64)
                                    + 1)).sum())))
        if not res:
            return pd.DataFrame({c: pd.Series([], dtype=np.int64)
                                 for c in ("n_core", "n_noncore",
                                           "chk")})
        a = np.asarray(res, dtype=np.int64)
        return pd.DataFrame({"n_core": [a[:, 0].sum()],
                             "n_noncore": [a[:, 1].sum()],
                             "chk": [a[:, 2].sum()]})

    # a bucket holds many cells: count_cell groups by the cell itself
    parts = co_partition(ds.map_batches(scatter, batch_format="numpy"),
                         ["_cx", "_cy"], count_cell).to_pandas()
    return pd.DataFrame({
        "n_core": [np.int64(parts["n_core"].sum())],
        "n_noncore": [np.int64(parts["n_noncore"].sum())],
        "chk": [np.int64(parts["chk"].sum())]})
