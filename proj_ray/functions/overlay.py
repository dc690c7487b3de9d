"""Vector-vector overlay joins: rectangle intersection-area join and
segment-crossing join.

Engine-added operators (no reference counterpart — OSGeo PROJ has no
tabular layer): the vector OVERLAY family that sits next to the
point-in-polygon join (proj_ray/join.py), the dwithin join and the
range join — "which AOI footprints overlap which coverage footprints,
and by how much", and "which trajectories cross which fence lines".

Scale shape (PBSM — partition-based spatial merge join)
-------------------------------------------------------
Both sides are flat-mapped onto the cells of a fixed grid that their
bbox covers (replication factor bounded by extent / cell_size), then
ONE `exchange.co_partition` on the cell pairs candidates
per-cell with a vectorized bbox test. A pair whose rectangles overlap
in k > 1 cells would be emitted k times; the REFERENCE-POINT rule
dedups exactly without a distinct shuffle: the pair is reported only
by the single cell containing the intersection's min corner
(max(lx0, rx0), max(ly0, ry0)) — that corner lies in exactly one grid
cell, and both rectangles cover that cell, so exactly one partition
claims the pair. This is the classic PBSM duplicate-avoidance
technique (Patel & DeWitt, SIGMOD 1996).

At most `dsutil.BROADCAST_ROWS` right rows (`dsutil.driver_table`
decides) the right side ships ONCE via ray.put as a grid-bucketed
index instead (zero shuffles); the streaming left side probes per
batch with the same reference-point rule, so both paths produce
identical pair sets (parity-tested in pytest).

Fixed-point contract (SQL-oracle-exact): all coordinates are scaled
to int64 (`round(v * scale)`) on entry; the overlap predicate
(strict: LEAST(hi) > GREATEST(lo) on both axes — touching edges are
NOT overlap) and the intersection area are integer arithmetic, so a
DuckDB cross-join oracle reproduces the pair set and areas exactly.
"""

from __future__ import annotations

import numpy as np

from proj_ray.dsutil import merged
from proj_ray.exchange import co_partition


def _to_fixed(v, scale: int) -> np.ndarray:
    return np.rint(np.asarray(v, dtype=np.float64) * scale).astype(np.int64)


def _pair_rects(lx0, ly0, lx1, ly1, lid, rx0, ry0, rx1, ry1, rid,
                cell: int | None = None, cx=None, cy=None,
                chunk: int = 512):
    """All overlapping (left, right) rectangle pairs, vectorized
    left-chunk x right. If `cell` is given, the reference-point rule
    keeps a pair only when the intersection's min corner falls in grid
    cell (cx, cy). Returns (lid, rid, area) int64 arrays."""
    out_l, out_r, out_a = [], [], []
    nl = len(lx0)
    for s in range(0, nl, chunk):
        e = min(s + chunk, nl)
        ix0 = np.maximum(lx0[s:e, None], rx0[None, :])
        iy0 = np.maximum(ly0[s:e, None], ry0[None, :])
        ix1 = np.minimum(lx1[s:e, None], rx1[None, :])
        iy1 = np.minimum(ly1[s:e, None], ry1[None, :])
        hit = (ix1 > ix0) & (iy1 > iy0)
        if cell is not None:
            hit &= (ix0 // cell == cx) & (iy0 // cell == cy)
        li, ri = np.nonzero(hit)
        if len(li):
            out_l.append(lid[s:e][li])
            out_r.append(rid[ri])
            out_a.append((ix1[li, ri] - ix0[li, ri])
                         * (iy1[li, ri] - iy0[li, ri]))
    if not out_l:
        z = np.empty(0, dtype=np.int64)
        return z, z, z
    return (np.concatenate(out_l), np.concatenate(out_r),
            np.concatenate(out_a))


def _covered_cells(x0, y0, x1, y1, cell: int):
    """(row_index, cx, cy) for every grid cell each rect's bbox
    covers — the flat-map expansion, fully vectorized."""
    cx0 = x0 // cell
    cx1 = x1 // cell
    cy0 = y0 // cell
    cy1 = y1 // cell
    nx = (cx1 - cx0 + 1).astype(np.int64)
    ny = (cy1 - cy0 + 1).astype(np.int64)
    reps = nx * ny
    total = int(reps.sum())
    if total == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z, z
    row = np.repeat(np.arange(len(x0), dtype=np.int64), reps)
    offs = np.concatenate(([0], np.cumsum(reps)[:-1]))
    local = np.arange(total, dtype=np.int64) - np.repeat(offs, reps)
    nyr = np.repeat(ny, reps)
    cx = np.repeat(cx0, reps) + local // nyr
    cy = np.repeat(cy0, reps) + local % nyr
    return row, cx, cy


class _RectIndex:
    """Grid-bucketed rectangle index for the broadcast path. Buckets
    map (cx, cy) -> candidate row indices; probes use the same
    reference-point rule as the partitioned path."""

    def __init__(self, x0, y0, x1, y1, ids, cell: int):
        self.x0, self.y0, self.x1, self.y1 = x0, y0, x1, y1
        self.ids = ids
        self.cell = cell
        row, cx, cy = _covered_cells(x0, y0, x1, y1, cell)
        self.buckets: dict[tuple[int, int], np.ndarray] = {}
        order = np.lexsort((cy, cx))
        cxs, cys, rows = cx[order], cy[order], row[order]
        starts = np.flatnonzero(
            np.r_[True, (np.diff(cxs) != 0) | (np.diff(cys) != 0)])
        starts = np.append(starts, len(cxs))
        for si in range(len(starts) - 1):
            a, b = starts[si], starts[si + 1]
            self.buckets[(int(cxs[a]), int(cys[a]))] = rows[a:b]

    def probe(self, x0, y0, x1, y1, ids):
        """-> (left_id, right_id, area) over every overlapping pair,
        deduped by the reference-point rule across the probe's covered
        cells. Probes are grouped by cell so the pairing is one
        vectorized left-group x candidates pass per DISTINCT cell in
        the batch, not per rect."""
        row, cx, cy = _covered_cells(x0, y0, x1, y1, self.cell)
        order = np.lexsort((cy, cx))
        cxs, cys, rows = cx[order], cy[order], row[order]
        starts = np.flatnonzero(
            np.r_[True, (np.diff(cxs) != 0) | (np.diff(cys) != 0)])
        starts = np.append(starts, len(cxs))
        out = []
        for si in range(len(starts) - 1):
            a, b = starts[si], starts[si + 1]
            cand = self.buckets.get((int(cxs[a]), int(cys[a])))
            if cand is None:
                continue
            r = rows[a:b]
            out.append(_pair_rects(
                x0[r], y0[r], x1[r], y1[r], ids[r],
                self.x0[cand], self.y0[cand], self.x1[cand],
                self.y1[cand], self.ids[cand],
                cell=self.cell, cx=cxs[a], cy=cys[a]))
        if not out:
            z = np.empty(0, dtype=np.int64)
            return z, z, z
        return tuple(np.concatenate([o[j] for o in out]) for j in range(3))


def rect_overlay_join(left, right, left_id: str, right_id: str,
                      cols=("x0", "y0", "x1", "y1"),
                      scale: int = 1000, cell_deg: float = 4.0):
    """Rectangle intersection-area join: every (left, right) pair of
    STRICTLY overlapping rectangles with the intersection area in
    scaled-integer units (area = dx * dy in (coord * scale)^2 units).

    The right side runs once, through `dsutil.driver_table`: the
    broadcast path at most `dsutil.BROADCAST_ROWS` right rows, the
    partitioned path above it.
    Returns a Dataset with (left_id, right_id, area) int64 columns.
    """
    import pandas as pd
    import ray

    from proj_ray import dsutil

    cell = int(round(cell_deg * scale))
    c0, c1, c2, c3 = cols
    need = [c0, c1, c2, c3]

    def fixed(batch, idc):
        raw = [np.asarray(batch[c], dtype=np.float64) for c in need]
        finite = np.isfinite(raw[0]) & np.isfinite(raw[1]) \
            & np.isfinite(raw[2]) & np.isfinite(raw[3])
        x0 = _to_fixed(raw[0][finite], scale)
        y0 = _to_fixed(raw[1][finite], scale)
        x1 = _to_fixed(raw[2][finite], scale)
        y1 = _to_fixed(raw[3][finite], scale)
        # empty/inverted rects can never strictly overlap — drop them
        # (also keeps _covered_cells' repeat counts non-negative)
        ok = (x1 > x0) & (y1 > y0)
        return {"x0": x0[ok], "y0": y0[ok], "x1": x1[ok], "y1": y1[ok],
                "id": np.asarray(batch[idc],
                                 dtype=np.int64)[finite][ok]}

    right, rp = dsutil.driver_table(
        right.select_columns([right_id, *need]), dsutil.BROADCAST_ROWS)
    if rp is not None:
        r = fixed(rp, right_id)
        ref = ray.put(_RectIndex(r["x0"], r["y0"], r["x1"], r["y1"],
                                 r["id"], cell))

        def probe(batch):
            b = fixed(batch, left_id)
            ix = ray.get(ref)
            li, ri, ar = ix.probe(b["x0"], b["y0"], b["x1"], b["y1"],
                                  b["id"])
            return {left_id: li, right_id: ri, "area": ar}

        # the probe pays one Python pass per distinct grid cell in a
        # batch, so a batch as large as the partitioned path's keeps
        # that count near the number of cells (on a 1-CPU VM, q71 at
        # sf0.1 took 1.1 s with 8,192-row batches, 0.55 s with these)
        return left.select_columns([left_id, *need]).map_batches(
            probe, batch_format="numpy", batch_size=65536)

    # ---- partitioned (PBSM): flat-map both sides to covered cells,
    # ONE `exchange.co_partition` on the cell (a bucket of cells, not
    # the raw cell — thousands of tiny map_groups would pay per-group
    # scheduling; a cell never splits across buckets so the per-cell
    # reference-point dedup stays exact), then a grouped-starts
    # segment pass pairs each distinct cell inside the bucket with one
    # vectorized left x right test.
    def expand(side_val):
        def fn(batch):
            idc = left_id if side_val == 0 else right_id
            b = fixed(batch, idc)
            row, cx, cy = _covered_cells(b["x0"], b["y0"], b["x1"],
                                         b["y1"], cell)
            return pd.DataFrame({
                "_cx": cx, "_cy": cy,
                "_side": np.full(len(row), side_val, dtype=np.int8),
                "id": b["id"][row],
                "x0": b["x0"][row], "y0": b["y0"][row],
                "x1": b["x1"][row], "y1": b["y1"][row]})
        return fn

    lexp = left.select_columns([left_id, *need]).map_batches(
        expand(0), batch_format="numpy", batch_size=65536)
    rexp = right.map_batches(expand(1), batch_format="numpy",
                             batch_size=65536)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({left_id: np.empty(0, np.int64),
                              right_id: np.empty(0, np.int64),
                              "area": np.empty(0, np.int64)})
        cx = g["_cx"].to_numpy()
        cy = g["_cy"].to_numpy()
        side = g["_side"].to_numpy()
        ids = g["id"].to_numpy()
        x0 = g["x0"].to_numpy()
        y0 = g["y0"].to_numpy()
        x1 = g["x1"].to_numpy()
        y1 = g["y1"].to_numpy()
        order = np.lexsort((side, cy, cx))
        cxs, cys, sides = cx[order], cy[order], side[order]
        starts = np.flatnonzero(
            np.r_[True, (np.diff(cxs) != 0) | (np.diff(cys) != 0)])
        starts = np.append(starts, len(cxs))
        out = []
        for si in range(len(starts) - 1):
            a, b = starts[si], starts[si + 1]
            rows = order[a:b]
            sd = sides[a:b]
            ls = rows[sd == 0]
            rs = rows[sd == 1]
            if not len(ls) or not len(rs):
                continue
            out.append(_pair_rects(
                x0[ls], y0[ls], x1[ls], y1[ls], ids[ls],
                x0[rs], y0[rs], x1[rs], y1[rs], ids[rs],
                cell=cell, cx=cxs[a], cy=cys[a]))
        if not out:
            return empty
        return pd.DataFrame({
            left_id: np.concatenate([o[0] for o in out]),
            right_id: np.concatenate([o[1] for o in out]),
            "area": np.concatenate([o[2] for o in out])})

    return co_partition([lexp, rexp], ["_cx", "_cy"], per_bucket)


def segment_crossings(ds, key_col: str, order_cols,
                      lon_col: str, lat_col: str,
                      fences, scale: int = 1000):
    """Per-key trajectory-vs-fence crossing count: order each key's
    points by `order_col`, form consecutive legs, and count PROPER
    intersections (each segment strictly straddles the other's
    supporting line — touching endpoints and collinear overlap do NOT
    count) against a small broadcast set of fence segments.

    `fences` is (fx0, fy0, fx1, fy1) arrays in degrees. All geometry
    runs on scaled-int64 coordinates so the orientation signs (exact
    integer cross products; |coord| <= 360*scale keeps the products in
    int64) match a SQL oracle bit-for-bit. Same shuffle plan as
    track_length (temporal.py): ONE hash-bucket all-to-all keyed on a
    bucket of `key_col` (keys never split), then one vectorized legs x
    fences pass per bucket; fences ride ray.put into every task.

    Returns (key, fence, n_cross) with one row per (key, fence) pair
    that crosses at least once.
    """
    import pandas as pd
    import ray

    if isinstance(order_cols, str):
        order_cols = [order_cols]
    fx0, fy0, fx1, fy1 = (_to_fixed(a, scale) for a in fences)
    fref = ray.put((fx0, fy0, fx1, fy1))
    need = list(dict.fromkeys([key_col, *order_cols, lon_col, lat_col]))

    def cross(group: pd.DataFrame) -> pd.DataFrame:
        gx0, gy0, gx1, gy1 = ray.get(fref)
        g = group.sort_values([key_col, *order_cols], kind="stable")
        k = g[key_col].to_numpy()
        x = _to_fixed(g[lon_col], scale)
        y = _to_fixed(g[lat_col], scale)
        n = len(g)
        empty = pd.DataFrame({key_col: np.empty(0, np.int64),
                              "fence": np.empty(0, np.int64),
                              "n_cross": np.empty(0, np.int64)})
        if n < 2:
            return empty
        same = k[1:] == k[:-1]
        ax, ay = x[:-1][same], y[:-1][same]
        bx, by = x[1:][same], y[1:][same]
        kk = k[1:][same]
        if not len(ax):
            return empty
        # orientation(p, q, r) = sign((q-p) x (r-p)); proper crossing:
        # signs strictly opposite for both segments
        cxv, cyv = gx0[None, :], gy0[None, :]
        dxv, dyv = gx1[None, :], gy1[None, :]
        axc, ayc = ax[:, None], ay[:, None]
        bxc, byc = bx[:, None], by[:, None]
        d1 = (dxv - cxv) * (ayc - cyv) - (dyv - cyv) * (axc - cxv)
        d2 = (dxv - cxv) * (byc - cyv) - (dyv - cyv) * (bxc - cxv)
        d3 = (bxc - axc) * (cyv - ayc) - (byc - ayc) * (cxv - axc)
        d4 = (bxc - axc) * (dyv - ayc) - (byc - ayc) * (dxv - axc)
        hit = (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) \
            & (((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0)))
        li, fi = np.nonzero(hit)
        if not len(li):
            return empty
        out = pd.DataFrame({key_col: kk[li], "fence": fi.astype(np.int64)})
        agg = out.groupby([key_col, "fence"], as_index=False).size()
        return pd.DataFrame({key_col: agg[key_col].to_numpy(np.int64),
                             "fence": agg["fence"].to_numpy(np.int64),
                             "n_cross": agg["size"].to_numpy(np.int64)})

    return co_partition(merged(ds, need), key_col, cross)
