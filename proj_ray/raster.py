"""Raster tiles and reprojection (warp) over binary DEM payloads.

The geospatial-x-image core op the reference's ecosystem runs through
gdalwarp: resample a regular lon/lat source raster onto a Web-Mercator
output grid (reference kernel parity target: merc/webmerc spherical
forward/inverse, src/projections/merc.cpp — re-derived, not copied).
Here each row of a table is one raster tile (an opaque binary payload
plus extent metadata), the warp is a vectorized per-batch map_batches
stage, and every arithmetic step (inverse Mercator, clamped bilinear
weights, fixed-point rounding) is written in a form a SQL oracle can
reproduce exactly:

  y      = log(tan(phi) + sqrt(tan(phi)^2 + 1))        (asinh form)
  phi    = atan((exp(y) - exp(-y)) / 2)                (sinh form)

Design for 100 TB: tiles are independent rows — the warp is
embarrassingly parallel, pixels never cross the all-to-all (only the
per-tile fixed-point aggregates do), and the fixture is a cached
parquet materialization read with column pruning like any stored
table.
"""
from __future__ import annotations

import struct

import numpy as np

SRC_W = 32
SRC_H = 32
OUT_W = 16
OUT_H = 16

# global tile grid: 16 x 10 extents of 22.5 deg x 17 deg covering
# [-180,180] x [-85,85]; tile ids beyond 160 reuse extents with a new
# value "layer" so any table size works.
GRID_NX = 16
GRID_NY = 10
LON_SPAN = 22.5
LAT_SPAN = 17.0


def dem_extent(tile_id: np.ndarray):
    """(lon0, lat0, lon1, lat1) of each tile id (vectorized)."""
    i = np.asarray(tile_id, dtype=np.int64)
    tx = i % GRID_NX
    ty = (i // GRID_NX) % GRID_NY
    lon0 = -180.0 + tx * LON_SPAN
    lat0 = -85.0 + ty * LAT_SPAN
    return lon0, lat0, lon0 + LON_SPAN, lat0 + LAT_SPAN


def dem_values(tile_id: int, h: int = SRC_H, w: int = SRC_W):
    """Deterministic pixel grid of one tile: v[r, c] =
    (id*31 + r*7 + c*13) % 256, row 0 = SOUTH edge."""
    r = np.arange(h, dtype=np.int64)[:, None]
    c = np.arange(w, dtype=np.int64)[None, :]
    return ((int(tile_id) * 31 + r * 7 + c * 13) % 256).astype(np.uint8)


def dem_encode(px: np.ndarray) -> bytes:
    """FDEM container: magic + uint16 w,h (LE) + row-major uint8."""
    h, w = px.shape
    return b"FDEM" + struct.pack("<HH", w, h) + \
        np.ascontiguousarray(px, dtype=np.uint8).tobytes()


def dem_decode(data: bytes) -> np.ndarray:
    if data[:4] != b"FDEM":
        raise ValueError("not an FDEM payload")
    w, h = struct.unpack_from("<HH", data, 4)
    return np.frombuffer(data, dtype=np.uint8, count=w * h,
                         offset=8).reshape(h, w)


def make_dem_for(idx: np.ndarray):
    """Rows of the DEM-tile table for an arbitrary id array (any worker
    can synthesize any row — the resumable-synthesis contract)."""
    idx = np.asarray(idx, dtype=np.int64)
    lon0, lat0, lon1, lat1 = dem_extent(idx)
    blobs = np.empty(len(idx), dtype=object)
    for k, i in enumerate(idx):
        blobs[k] = dem_encode(dem_values(int(i)))
    return {
        "tile_id": idx,
        "bytes": blobs,
        "w": np.full(len(idx), SRC_W, dtype=np.int32),
        "h": np.full(len(idx), SRC_H, dtype=np.int32),
        "lon0": lon0, "lat0": lat0, "lon1": lon1, "lat1": lat1,
    }


def dem_dataset(n_rows: int, parallelism: int = 8):
    """DEM-tile table as a Dataset generated shard-wise on workers."""
    import ray.data as rd

    def gen(batch):
        import pandas as pd

        return pd.DataFrame(make_dem_for(batch["id"]))

    return rd.range(n_rows, override_num_blocks=max(parallelism, 1)) \
        .map_batches(gen, batch_format="numpy", batch_size=256)


def dem_table(n_rows: int, columns: list | None = None,
              parallelism: int = 32):
    """Cached parquet materialization of the DEM table (one-time per
    (tag, n)), read back with column pruning like any stored table."""
    import ray.data as rd

    from proj_ray.images import cached_table

    path = cached_table(dem_dataset, "dem", n_rows,
                        parallelism=parallelism)
    return rd.read_parquet(path, columns=columns)


def _merc_y(lat_deg: np.ndarray) -> np.ndarray:
    """Unit-sphere Mercator northing, asinh form (SQL-reproducible)."""
    t = np.tan(np.radians(np.asarray(lat_deg, dtype=np.float64)))
    return np.log(t + np.sqrt(t * t + 1.0))


def _inv_merc_lat(y: np.ndarray) -> np.ndarray:
    """Inverse Mercator latitude in degrees, sinh form."""
    return np.degrees(np.arctan((np.exp(y) - np.exp(-y)) / 2.0))


def warp_tile_batch(blobs, lon0, lat0, lon1, lat1,
                    out_w: int = OUT_W, out_h: int = OUT_H):
    """Warp a batch of lon/lat-regular tiles onto per-tile Web-Mercator
    output grids (clamped bilinear). Returns float64 (B, out_h, out_w).

    Fully vectorized over (tile, row, col): the only Python loop is the
    per-blob decode. Output row 0 = south (matches source row 0)."""
    n = len(blobs)
    src = np.empty((n, SRC_H, SRC_W), dtype=np.float64)
    for k in range(n):
        src[k] = dem_decode(blobs[k])
    lon0 = np.asarray(lon0, dtype=np.float64)[:, None, None]
    lat0f = np.asarray(lat0, dtype=np.float64)
    lat1f = np.asarray(lat1, dtype=np.float64)
    dlon = (np.asarray(lon1, dtype=np.float64)[:, None, None] - lon0)
    y0 = _merc_y(lat0f)[:, None, None]
    y1 = _merc_y(lat1f)[:, None, None]

    ox = np.arange(out_w, dtype=np.float64)[None, None, :]
    oy = np.arange(out_h, dtype=np.float64)[None, :, None]
    lon = lon0 + (ox + 0.5) * dlon / out_w          # merc x linear in lon
    y = y0 + (oy + 0.5) * (y1 - y0) / out_h
    lat = _inv_merc_lat(np.broadcast_to(y, (n, out_h, out_w)))

    fx = (lon - lon0) / (dlon / SRC_W) - 0.5
    fy = (lat - np.asarray(lat0, dtype=np.float64)[:, None, None]) \
        / ((lat1f - lat0f)[:, None, None] / SRC_H) - 0.5
    fx = np.clip(np.broadcast_to(fx, (n, out_h, out_w)), 0.0, SRC_W - 1.0)
    fy = np.clip(fy, 0.0, SRC_H - 1.0)
    gx0 = np.minimum(np.floor(fx), SRC_W - 2).astype(np.int64)
    gy0 = np.minimum(np.floor(fy), SRC_H - 2).astype(np.int64)
    wx = fx - gx0
    wy = fy - gy0

    b = np.arange(n, dtype=np.int64)[:, None, None]
    v00 = src[b, gy0, gx0]
    v10 = src[b, gy0, gx0 + 1]
    v01 = src[b, gy0 + 1, gx0]
    v11 = src[b, gy0 + 1, gx0 + 1]
    return (1.0 - wy) * ((1.0 - wx) * v00 + wx * v10) \
        + wy * ((1.0 - wx) * v01 + wx * v11)


def warp_stats(ds, out_w: int = OUT_W, out_h: int = OUT_H,
               scale: int = 1000):
    """Per-tile warp aggregate: each output pixel value rounded to
    1/scale fixed point, summed (wsum) and position-checksummed
    (wchk = sum(px_value * (oy*out_w + ox + 1)) — catches orientation
    or transpose drift a plain sum would miss). Pixels never leave the
    task; the result is one row per tile."""

    def stage(batch: dict) -> dict:
        wv = warp_tile_batch(batch["bytes"], batch["lon0"],
                             batch["lat0"], batch["lon1"],
                             batch["lat1"], out_w, out_h)
        # floor(x+0.5), not rint: numpy rounds half-even, SQL round()
        # rounds half-away — this form is bit-identical in both.
        pv = np.floor(wv * scale + 0.5).astype(np.int64)
        pos = (np.arange(out_h * out_w, dtype=np.int64)
               .reshape(1, out_h, out_w) + 1)
        return {
            "tile_id": np.asarray(batch["tile_id"], dtype=np.int64),
            "wsum": pv.sum(axis=(1, 2)),
            "wchk": (pv * pos).sum(axis=(1, 2)),
            "n_px": np.full(len(wv), out_h * out_w, dtype=np.int64),
        }

    return ds.map_batches(stage, batch_format="numpy", batch_size=256)


def laea_warp_stats(ds, half_x: float = 900e3, half_y: float = 800e3,
                    out_w: int = 16, out_h: int = 16,
                    scale: int = 1000):
    """Warp each DEM tile onto a LOCAL spherical Lambert azimuthal
    equal-area grid centered on the tile (the local equal-area
    analysis frame), driving the ENGINE's own laea kernel
    (proj_ray/ops/projections2.py Laea._inv, parity target
    src/projections/laea.cpp) through create_operation/transform — not
    inline math. Output grid: out_h x out_w pixel centers over
    [-half_x, half_x] x [-half_y, half_y] meters on the R=6371000
    sphere; clamped bilinear sampling; floor(x*scale+0.5) fixed point.

    Tiles share only GRID_NX*GRID_NY distinct extents, so the inverse
    projection of the output grid is computed ONCE per distinct extent
    per batch (cached gather indices), and only the per-tile gather +
    blend runs per row."""

    def stage(batch: dict) -> dict:
        from proj_ray.factory import create_operation, transform

        lon0s = np.asarray(batch["lon0"], dtype=np.float64)
        lat0s = np.asarray(batch["lat0"], dtype=np.float64)
        n = len(lon0s)
        xs = -half_x + (np.arange(out_w) + 0.5) * (2.0 * half_x / out_w)
        ys = -half_y + (np.arange(out_h) + 0.5) * (2.0 * half_y / out_h)
        gx = np.broadcast_to(xs[None, :], (out_h, out_w)).ravel()
        gy = np.broadcast_to(ys[:, None], (out_h, out_w)).ravel()

        cache: dict = {}
        for lo, la in zip(lon0s, lat0s):
            key = (float(lo), float(la))
            if key in cache:
                continue
            clon, clat = lo + 11.25, la + 8.5
            op = create_operation(
                f"+proj=laea +R=6371000 +lat_0={clat} +lon_0={clon}")
            lam, phi, _z, _t = transform(op, "inv", gx, gy)
            lon = np.degrees(lam)
            lat = np.degrees(phi)
            # the engine adjlon-wraps lam to (-180, 180]; near the
            # antimeridian the high-latitude window reaches > 180 deg
            # from the tile. Wrap the CENTER-relative delta with the
            # floor form (identical arithmetic in numpy and SQL, and
            # invariant to any +-360 representation difference).
            d = lon - clon
            d = d - 360.0 * np.floor((d + 180.0) / 360.0)
            fx = (d + 11.25) / (LON_SPAN / SRC_W) - 0.5
            fy = (lat - la) / (LAT_SPAN / SRC_H) - 0.5
            fx = np.clip(fx, 0.0, SRC_W - 1.0)
            fy = np.clip(fy, 0.0, SRC_H - 1.0)
            gx0 = np.minimum(np.floor(fx), SRC_W - 2).astype(np.int64)
            gy0 = np.minimum(np.floor(fy), SRC_H - 2).astype(np.int64)
            cache[key] = (gx0, gy0, fx - gx0, fy - gy0)

        pos = np.arange(out_h * out_w, dtype=np.int64) + 1
        wsum = np.empty(n, dtype=np.int64)
        wchk = np.empty(n, dtype=np.int64)
        for k in range(n):
            src = dem_decode(batch["bytes"][k]).astype(np.float64)
            gx0, gy0, wx, wy = cache[(float(lon0s[k]), float(lat0s[k]))]
            v = (1.0 - wy) * ((1.0 - wx) * src[gy0, gx0]
                              + wx * src[gy0, gx0 + 1]) \
                + wy * ((1.0 - wx) * src[gy0 + 1, gx0]
                        + wx * src[gy0 + 1, gx0 + 1])
            pv = np.floor(v * scale + 0.5).astype(np.int64)
            wsum[k] = pv.sum()
            wchk[k] = (pv * pos).sum()
        return {
            "tile_id": np.asarray(batch["tile_id"], dtype=np.int64),
            "wsum": wsum,
            "wchk": wchk,
            "n_px": np.full(n, out_h * out_w, dtype=np.int64),
        }

    return ds.map_batches(stage, batch_format="numpy", batch_size=256)


def hillshade_batch(blobs, zen: float = np.pi / 4.0,
                    az: float = 5.0 * np.pi / 4.0):
    """Horn hillshade over each tile's INTERIOR pixels (no halo
    exchange needed): 3x3 Sobel-style gradients in grid units,
    slope = atan(|grad|), aspect = atan2(q, -p),
    hs = 255 * max(cos(zen)cos(slope) + sin(zen)sin(slope)cos(az -
    aspect), 0). Returns float64 (B, SRC_H-2, SRC_W-2). Every step is
    elementwise arithmetic + atan/atan2/cos a SQL oracle reproduces."""
    n = len(blobs)
    v = np.empty((n, SRC_H, SRC_W), dtype=np.float64)
    for k in range(n):
        v[k] = dem_decode(blobs[k])
    nw, no, ne = v[:, :-2, :-2], v[:, :-2, 1:-1], v[:, :-2, 2:]
    we, ea = v[:, 1:-1, :-2], v[:, 1:-1, 2:]
    sw, so, se = v[:, 2:, :-2], v[:, 2:, 1:-1], v[:, 2:, 2:]
    p = ((ne + 2.0 * ea + se) - (nw + 2.0 * we + sw)) / 8.0
    q = ((sw + 2.0 * so + se) - (nw + 2.0 * no + ne)) / 8.0
    slope = np.arctan(np.sqrt(p * p + q * q))
    aspect = np.arctan2(q, -p)
    hs = 255.0 * np.maximum(
        np.cos(zen) * np.cos(slope)
        + np.sin(zen) * np.sin(slope) * np.cos(az - aspect), 0.0)
    return hs


def hillshade_stats(ds, scale: int = 1000):
    """Per-tile hillshade aggregate (sum + position checksum over the
    interior grid, floor(x*scale+0.5) fixed point). Same shape as
    warp_stats: embarrassingly parallel, pixels stay in the task."""
    ih, iw = SRC_H - 2, SRC_W - 2

    def stage(batch: dict) -> dict:
        hs = hillshade_batch(batch["bytes"])
        pv = np.floor(hs * scale + 0.5).astype(np.int64)
        pos = np.arange(ih * iw, dtype=np.int64).reshape(1, ih, iw) + 1
        return {
            "tile_id": np.asarray(batch["tile_id"], dtype=np.int64),
            "hsum": pv.sum(axis=(1, 2)),
            "hchk": (pv * pos).sum(axis=(1, 2)),
            "n_px": np.full(len(pv), ih * iw, dtype=np.int64),
        }

    return ds.map_batches(stage, batch_format="numpy", batch_size=256)


def marching_cases(px: np.ndarray, threshold: int = 128) -> np.ndarray:
    """Marching-squares case index per 2x2 pixel cell of one or more
    tiles. px: (..., H, W) uint8 -> (..., H-1, W-1) int64 in [0, 15]
    with bit 0 = SW corner, 1 = SE, 2 = NE, 3 = NW (row 0 is the
    south edge in the FDEM layout). Cases 0/15 carry no contour;
    5/10 are saddles (two segments); the rest carry one."""
    b = (np.asarray(px).astype(np.int64) >= threshold).astype(np.int64)
    return (b[..., :-1, :-1] + 2 * b[..., :-1, 1:]
            + 4 * b[..., 1:, 1:] + 8 * b[..., 1:, :-1])


def contour_stats(ds, threshold: int = 128):
    """Per-tile marching-squares contour statistics for the iso-line
    at `threshold`: number of cells the contour crosses, number of
    contour segments (saddles count 2), and a position-weighted case
    checksum that pins every cell's classification. Raster -> vector
    extraction shape: embarrassingly parallel, pixels never leave the
    task — only 4 integers per tile cross the wire."""
    ch, cw = SRC_H - 1, SRC_W - 1

    def stage(batch: dict) -> dict:
        blobs = batch["bytes"]
        v = np.empty((len(blobs), SRC_H, SRC_W), dtype=np.uint8)
        for k in range(len(blobs)):
            v[k] = dem_decode(blobs[k])
        cs = marching_cases(v, threshold)
        crossed = (cs != 0) & (cs != 15)
        saddle = (cs == 5) | (cs == 10)
        pos = np.arange(ch * cw, dtype=np.int64).reshape(1, ch, cw) + 1
        return {
            "tile_id": np.asarray(batch["tile_id"], dtype=np.int64),
            "n_cross": crossed.sum(axis=(1, 2)).astype(np.int64),
            "n_seg": (crossed.astype(np.int64)
                      + saddle.astype(np.int64)).sum(axis=(1, 2)),
            "case_chk": (cs.reshape(len(blobs), -1)
                         * pos.reshape(1, -1)).sum(axis=1),
        }

    return ds.map_batches(stage, batch_format="numpy", batch_size=256)


def blob_stats(ds, threshold: int = 240):
    """Per-tile blob statistics: 4-connected components of pixels with
    value >= threshold. Labels are propagated with whole-batch
    vectorized neighbor-min passes ((B, H, W) arrays, no per-pixel
    Python) until fixpoint; components are then counted with one
    pandas groupby. Tiles with zero masked pixels emit no row.
    Returns (tile_id, n_blobs, max_blob, n_masked)."""
    import pandas as pd

    def stage(batch: dict) -> dict:
        n = len(batch["tile_id"])
        v = np.empty((n, SRC_H, SRC_W), dtype=np.int64)
        for k in range(n):
            v[k] = dem_decode(batch["bytes"][k])
        mask = v >= threshold
        inf = np.int64(1 << 40)
        base = (np.arange(SRC_H * SRC_W, dtype=np.int64)
                .reshape(1, SRC_H, SRC_W) + 1)
        lab = np.where(mask, base, inf)
        while True:
            p = np.pad(lab, ((0, 0), (1, 1), (1, 1)),
                       constant_values=inf)
            nxt = np.minimum.reduce([
                lab, p[:, :-2, 1:-1], p[:, 2:, 1:-1],
                p[:, 1:-1, :-2], p[:, 1:-1, 2:]])
            nxt = np.where(mask, nxt, inf)
            if np.array_equal(nxt, lab):
                break
            lab = nxt
        tid = np.repeat(np.asarray(batch["tile_id"], dtype=np.int64),
                        SRC_H * SRC_W)
        flat = lab.reshape(n, -1)
        sel = flat.reshape(-1) < inf
        g = (pd.DataFrame({"tile_id": tid[sel],
                           "lbl": flat.reshape(-1)[sel]})
             .groupby(["tile_id", "lbl"], as_index=False).size())
        out = g.groupby("tile_id", as_index=False).agg(
            n_blobs=("size", "size"), max_blob=("size", "max"),
            n_masked=("size", "sum"))
        return {c: out[c].to_numpy(np.int64) for c in out.columns}

    return ds.map_batches(stage, batch_format="numpy",
                          batch_size=256)


MOSAIC_W = GRID_NX * SRC_W   # 512 global columns over [-180, 180]
MOSAIC_H = GRID_NY * SRC_H   # 320 global rows over [-85, 85]


def mosaic_from_rows(tile_ids, blobs) -> np.ndarray:
    """Assemble layer-0 tiles (ids 0..159) into one global
    (MOSAIC_H, MOSAIC_W) grid, row 0 = south. Cross-tile bilinear
    sampling then needs no neighbor-tile bookkeeping."""
    out = np.zeros((MOSAIC_H, MOSAIC_W), dtype=np.float64)
    seen = 0
    for tid, blob in zip(tile_ids, blobs):
        tid = int(tid)
        if not 0 <= tid < GRID_NX * GRID_NY:
            continue
        ty, tx = divmod(tid, GRID_NX)
        out[ty * SRC_H:(ty + 1) * SRC_H,
            tx * SRC_W:(tx + 1) * SRC_W] = dem_decode(blob)
        seen += 1
    if seen != GRID_NX * GRID_NY:
        raise ValueError(f"mosaic needs all {GRID_NX * GRID_NY} "
                         f"layer-0 tiles, got {seen}")
    return out


class PointSampler:
    """Actor-pool stage: bilinear-sample the broadcast raster mosaic at
    each point. The mosaic rides the object store (ray.put once, read
    zero-copy per actor in __init__) — the broadcast-small-side
    pattern; the per-batch path is pure vectorized gather.

    Fixed point: floor(v*scale + 0.5) — bit-identical between numpy
    and a SQL oracle (no half-even vs half-away divergence)."""

    def __init__(self, mosaic_ref, scale: int = 1000):
        import ray

        self.mosaic = ray.get(mosaic_ref) \
            if not isinstance(mosaic_ref, np.ndarray) else mosaic_ref
        self.scale = scale

    def __call__(self, b: dict) -> dict:
        lon = np.asarray(b["lon"], dtype=np.float64)
        lat = np.asarray(b["lat"], dtype=np.float64)
        fx = (lon + 180.0) / (360.0 / MOSAIC_W) - 0.5
        fy = (lat + 85.0) / (170.0 / MOSAIC_H) - 0.5
        fx = np.clip(fx, 0.0, MOSAIC_W - 1.0)
        fy = np.clip(fy, 0.0, MOSAIC_H - 1.0)
        gx0 = np.minimum(np.floor(fx), MOSAIC_W - 2).astype(np.int64)
        gy0 = np.minimum(np.floor(fy), MOSAIC_H - 2).astype(np.int64)
        wx = fx - gx0
        wy = fy - gy0
        m = self.mosaic
        v = (1.0 - wy) * ((1.0 - wx) * m[gy0, gx0]
                          + wx * m[gy0, gx0 + 1]) \
            + wy * ((1.0 - wx) * m[gy0 + 1, gx0]
                    + wx * m[gy0 + 1, gx0 + 1])
        out = {k: b[k] for k in b if k not in ("lon", "lat")}
        out["lon"] = lon
        out["lat"] = lat
        out["samp_f"] = np.floor(v * self.scale + 0.5).astype(np.int64)
        return out


def sample_points(ds_points, n_tiles: int | None = None,
                  scale: int = 1000, concurrency: int = 4):
    """Vector-x-raster join: sample the layer-0 DEM mosaic at each
    point row of `ds_points` (needs lon/lat columns). The raster side
    is bounded (160 tiles): assembled once on the driver from the
    stored table, broadcast via ray.put, sampled per batch in an actor
    pool. Adds `samp_f` = floor(bilinear_value * scale + 0.5)."""
    import ray

    rows = dem_table(max(n_tiles or 0, GRID_NX * GRID_NY),
                     columns=["tile_id", "bytes"]) \
        .filter(expr=f"tile_id < {GRID_NX * GRID_NY}") \
        .take_all()
    mosaic = mosaic_from_rows([r["tile_id"] for r in rows],
                              [r["bytes"] for r in rows])
    ref = ray.put(mosaic)
    # autoscaling pool (min 1): a fixed pool of `concurrency` actors
    # reserves that many whole CPUs up front and starves the upstream
    # read into a deadlock on small clusters (seen at num_cpus=4).
    return ds_points.map_batches(
        PointSampler, fn_constructor_args=(ref, scale),
        batch_format="numpy", batch_size=65536,
        concurrency=(1, concurrency))


# ===================================================================== #
# Pyramid: level-z children -> level-(z-1) parent tiles
# ===================================================================== #

def pyramid_stats(ds):
    """Raster pyramid build: every 2x2 block of level-z tiles becomes
    one level-(z-1) parent — each child is 2x box-averaged to 16x16
    and mosaicked into its parent quadrant (row 0 = south, so child
    ty%2==0 fills parent rows 0..15). The gdaladdo / tile-server
    overview op, re-expressed Ray-Data-first.

    Scale shape (the pyramid invariant): pixels cross the all-to-all
    exactly ONCE and already reduced 4x — the downsample runs where
    the child tile lives (map_batches over pruned [tile_id, bytes]
    columns), so the shuffle moves 256-byte quadrants keyed by
    parent_id, and parents assemble per bucket of
    `exchange.co_partition` on the parent. At 100 TB each level is ~4x
    smaller than the last, so a full pyramid costs ~1.33x one pass
    over the base level.

    Returns per-parent fixed-point aggregates a SQL oracle reproduces
    from the synthetic tile formula: (parent_id, n_children, sum_ds,
    chk) where chk = sum(v * (1 + row*33 + col)) over the assembled
    32x32 parent — the position weighting makes mosaic PLACEMENT part
    of the checked value, not just pixel sums."""
    import pandas as pd

    half_h, half_w = SRC_H // 2, SRC_W // 2
    px_per_layer = GRID_NX * GRID_NY
    parents_per_layer = (GRID_NX // 2) * (GRID_NY // 2)

    def downsample(b: dict) -> dict:
        ids = np.asarray(b["tile_id"], dtype=np.int64)
        n = len(ids)
        blobs = np.empty(n, dtype=object)
        for k in range(n):
            px = dem_decode(b["bytes"][k]).astype(np.uint16)
            d = ((px[0::2, 0::2] + px[0::2, 1::2]
                  + px[1::2, 0::2] + px[1::2, 1::2]) // 4)
            blobs[k] = d.astype(np.uint8).tobytes()
        layer = ids // px_per_layer
        tx = ids % GRID_NX
        ty = (ids // GRID_NX) % GRID_NY
        parent = (layer * parents_per_layer
                  + (ty // 2) * (GRID_NX // 2) + tx // 2)
        return {"parent_id": parent,
                "qx": (tx % 2).astype(np.int64),
                "qy": (ty % 2).astype(np.int64),
                "ds": blobs}

    # position weights of the assembled parent grid (row 0 = south)
    wr = np.arange(SRC_H, dtype=np.int64)[:, None]
    wc = np.arange(SRC_W, dtype=np.int64)[None, :]
    weights = 1 + wr * 33 + wc

    def assemble(g: pd.DataFrame) -> pd.DataFrame:
        pids = []
        ncs = []
        sums = []
        chks = []
        for pid, gg in g.groupby("parent_id", sort=False):
            tile = np.zeros((SRC_H, SRC_W), dtype=np.int64)
            for qx, qy, blob in zip(gg["qx"], gg["qy"], gg["ds"]):
                q = np.frombuffer(blob, dtype=np.uint8).reshape(
                    half_h, half_w)
                tile[qy * half_h:(qy + 1) * half_h,
                     qx * half_w:(qx + 1) * half_w] = q
            pids.append(pid)
            ncs.append(len(gg))
            sums.append(int(tile.sum()))
            chks.append(int((tile * weights).sum()))
        return pd.DataFrame({
            "parent_id": np.asarray(pids, dtype=np.int64),
            "n_children": np.asarray(ncs, dtype=np.int64),
            "sum_ds": np.asarray(sums, dtype=np.int64),
            "chk": np.asarray(chks, dtype=np.int64)})

    from proj_ray.exchange import co_partition

    return co_partition(ds.map_batches(downsample, batch_format="numpy",
                                       batch_size=4096),
                        "parent_id", assemble)
