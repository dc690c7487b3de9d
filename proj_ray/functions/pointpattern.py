"""Point-pattern statistics: exact pair counting within distance
radii over a Dataset of integer planar points — the shared kernel of
Ripley's K (q160) and the Knox space-time statistic (q161).

Scale shape (PBSM, Patel & DeWitt SIGMOD'96, as q71's overlay join):
every point replicates to its 3x3 neighborhood of `cell`-sized grid
cells (cell >= max radius, so every qualifying pair co-locates in at
least the reference cell), ONE `exchange.co_partition` on the cell brings
homes and ghosts together, and each pair counts exactly once at the cell of
its lexicographically-smaller endpoint (reference-point rule). The
per-cell kernel is one (homes x members) vectorized comparison; only
(x, y[, t]) int rows ever cross the wire.

Coordinates MUST be nonnegative int64 (shift before calling) so
`x // cell` means the same thing in numpy, SQL and here.
"""

from __future__ import annotations

import numpy as np

from proj_ray.exchange import co_partition


def pair_counts_within(points, radii, cell: int,
                       x_col: str = "x", y_col: str = "y",
                       id_col: str = "pid",
                       time_col: str | None = None,
                       tau: int | None = None):
    """Count unordered point pairs with squared planar distance
    <= r^2 for each r in `radii` (all r <= cell). With `time_col` +
    `tau`, also count the subset with |t_i - t_j| <= tau (the Knox
    numerator). Returns a pandas DataFrame (r, n_pairs[,
    n_pairs_time]), one row per radius, exact int64."""
    import pandas as pd

    RAD = np.asarray(sorted(int(r) for r in radii), dtype=np.int64)
    if len(RAD) == 0 or RAD[-1] > cell:
        raise ValueError("need 0 < r <= cell for every radius")
    has_t = time_col is not None
    if has_t and tau is None:
        raise ValueError("time_col requires tau")

    def scatter(b: dict) -> pd.DataFrame:
        x = np.asarray(b[x_col], dtype=np.int64)
        y = np.asarray(b[y_col], dtype=np.int64)
        i = np.asarray(b[id_col], dtype=np.int64)
        cx = x // cell
        cy = y // cell
        cols = {"x": x, "y": y, "i": i}
        if has_t:
            cols["t"] = np.asarray(b[time_col], dtype=np.int64)
        frames = []
        for ox in (-1, 0, 1):
            for oy in (-1, 0, 1):
                f = dict(cols)
                f["tcx"] = cx + ox
                f["tcy"] = cy + oy
                f["home"] = np.full(len(x), ox == 0 and oy == 0)
                frames.append(pd.DataFrame(f))
        return pd.concat(frames, ignore_index=True)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        acc = np.zeros(len(RAD), dtype=np.int64)
        acc_t = np.zeros(len(RAD), dtype=np.int64)
        for _, gg in g.groupby(["tcx", "tcy"], sort=False):
            h = gg[gg["home"]]
            if not len(h):
                continue
            hx = h["x"].to_numpy(np.int64)[:, None]
            hy = h["y"].to_numpy(np.int64)[:, None]
            hi = h["i"].to_numpy(np.int64)[:, None]
            ax = gg["x"].to_numpy(np.int64)[None, :]
            ay = gg["y"].to_numpy(np.int64)[None, :]
            ai = gg["i"].to_numpy(np.int64)[None, :]
            gt = ((ax > hx) | ((ax == hx) & (ay > hy))
                  | ((ax == hx) & (ay == hy) & (ai > hi)))
            d2 = (ax - hx) ** 2 + (ay - hy) ** 2
            if has_t:
                ht = h["t"].to_numpy(np.int64)[:, None]
                at = gg["t"].to_numpy(np.int64)[None, :]
                close_t = np.abs(at - ht) <= tau
            for k, r in enumerate(RAD):
                near = gt & (d2 <= r * r)
                acc[k] += int(near.sum())
                if has_t:
                    acc_t[k] += int((near & close_t).sum())
        out = {"r": RAD, "n_pairs": acc}
        if has_t:
            out["n_pairs_time"] = acc_t
        return pd.DataFrame(out)

    parts = co_partition(points.map_batches(scatter, batch_format="numpy",
                                            batch_size=65536),
                         ["tcx", "tcy"], pairs).to_pandas()
    agg = {"n_pairs": "sum"}
    if has_t:
        agg["n_pairs_time"] = "sum"
    out = parts.groupby("r", as_index=False).agg(agg)
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("r", ignore_index=True)


def variogram_bands(points, bands, cell: int,
                    x_col: str = "x", y_col: str = "y",
                    val_col: str = "v", id_col: str = "pid"):
    """Empirical semivariogram pieces: for each lag band [lo, hi)
    (all hi <= cell), the exact count of unordered point pairs whose
    squared planar distance satisfies lo^2 <= d2 < hi^2 and the sum
    of their squared value differences — gamma(h) = sum_sq_diff /
    (2 * n_pairs) is one driver division. Same PBSM reference-point
    dataflow as :func:`pair_counts_within`. Returns pandas
    (lo, hi, n_pairs, sum_sq_diff), exact int64."""
    import pandas as pd

    B = [(int(lo), int(hi)) for lo, hi in bands]
    if not B or any(hi > cell or lo >= hi or lo < 0
                    for lo, hi in B):
        raise ValueError("bands must satisfy 0 <= lo < hi <= cell")

    def scatter(b: dict) -> pd.DataFrame:
        x = np.asarray(b[x_col], dtype=np.int64)
        y = np.asarray(b[y_col], dtype=np.int64)
        i = np.asarray(b[id_col], dtype=np.int64)
        v = np.asarray(b[val_col], dtype=np.int64)
        cx = x // cell
        cy = y // cell
        frames = []
        for ox in (-1, 0, 1):
            for oy in (-1, 0, 1):
                frames.append(pd.DataFrame({
                    "x": x, "y": y, "i": i, "v": v,
                    "tcx": cx + ox, "tcy": cy + oy,
                    "home": np.full(len(x), ox == 0 and oy == 0)}))
        return pd.concat(frames, ignore_index=True)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        n_acc = np.zeros(len(B), dtype=np.int64)
        s_acc = np.zeros(len(B), dtype=np.int64)
        for _, gg in g.groupby(["tcx", "tcy"], sort=False):
            h = gg[gg["home"]]
            if not len(h):
                continue
            hx = h["x"].to_numpy(np.int64)[:, None]
            hy = h["y"].to_numpy(np.int64)[:, None]
            hi_ = h["i"].to_numpy(np.int64)[:, None]
            hv = h["v"].to_numpy(np.int64)[:, None]
            ax = gg["x"].to_numpy(np.int64)[None, :]
            ay = gg["y"].to_numpy(np.int64)[None, :]
            ai = gg["i"].to_numpy(np.int64)[None, :]
            av = gg["v"].to_numpy(np.int64)[None, :]
            gt = ((ax > hx) | ((ax == hx) & (ay > hy))
                  | ((ax == hx) & (ay == hy) & (ai > hi_)))
            d2 = (ax - hx) ** 2 + (ay - hy) ** 2
            dv2 = (av - hv) ** 2
            for k, (lo, hi) in enumerate(B):
                m = gt & (d2 >= lo * lo) & (d2 < hi * hi)
                n_acc[k] += int(m.sum())
                s_acc[k] += int(dv2[m].sum())
        return pd.DataFrame({
            "lo": np.array([b[0] for b in B], dtype=np.int64),
            "hi": np.array([b[1] for b in B], dtype=np.int64),
            "n_pairs": n_acc, "sum_sq_diff": s_acc})

    parts = co_partition(points.map_batches(scatter, batch_format="numpy",
                                            batch_size=65536),
                         ["tcx", "tcy"], pairs).to_pandas()
    out = (parts.groupby(["lo", "hi"], as_index=False)
           .agg(n_pairs=("n_pairs", "sum"),
                sum_sq_diff=("sum_sq_diff", "sum")))
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("lo", ignore_index=True)


def variogram_brute(x, y, v, bands):
    """O(n^2) reference for parity tests."""
    import pandas as pd

    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    iu, ju = np.triu_indices(len(x), k=1)
    d2 = (x[iu] - x[ju]) ** 2 + (y[iu] - y[ju]) ** 2
    dv2 = (v[iu] - v[ju]) ** 2
    rows = []
    for lo, hi in bands:
        m = (d2 >= lo * lo) & (d2 < hi * hi)
        rows.append((lo, hi, int(m.sum()), int(dv2[m].sum())))
    return pd.DataFrame(rows, columns=["lo", "hi", "n_pairs",
                                       "sum_sq_diff"]) \
        .astype(np.int64).sort_values("lo", ignore_index=True)


def pair_counts_brute(x: np.ndarray, y: np.ndarray, radii,
                      t: np.ndarray | None = None,
                      tau: int | None = None):
    """O(n^2) reference implementation for parity tests."""
    import pandas as pd

    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    iu, ju = np.triu_indices(len(x), k=1)
    d2 = (x[iu] - x[ju]) ** 2 + (y[iu] - y[ju]) ** 2
    rows = {}
    rows["r"] = np.asarray(sorted(int(r) for r in radii),
                           dtype=np.int64)
    rows["n_pairs"] = np.array([(d2 <= r * r).sum()
                                for r in rows["r"]], dtype=np.int64)
    if t is not None:
        dt = np.abs(np.asarray(t, np.int64)[iu]
                    - np.asarray(t, np.int64)[ju])
        rows["n_pairs_time"] = np.array(
            [((d2 <= r * r) & (dt <= tau)).sum() for r in rows["r"]],
            dtype=np.int64)
    return pd.DataFrame(rows)
