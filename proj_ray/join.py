"""Point-in-polygon spatial join: packed polygon index + vectorized
even-odd ray casting.

The small polygon side is packed once into flat NumPy arrays
(`PolygonIndex`), broadcast to workers via `ray.put`, and probed per
batch inside `map_batches` — the engine's analog of the reference's
tinshift pattern (quadtree point-location + local interpolation,
src/transformations/tinshift_impl.hpp:386-500 and the generic quadtree
src/quadtree.hpp:85-251): small side indexed in worker state, query
vectorized per batch.

Index structure, all flat arrays built once in `__init__`:
- a uniform bucket grid over the polygon bboxes (an STR-style bulk pack
  flattened to one level; bucket size ~ the median bbox extent), stored
  as CSR: sorted packed (cx, cy) keys, offsets, polygon ids;
- per polygon, horizontal bands of about `EDGES_PER_BAND` edges, stored
  as CSR lists of the edges whose y-span meets each band.

A query looks every point up in the grid (and, for points west of 0,
in the grid shifted by 360 deg for rings that straddle the
antimeridian), filters the (point, polygon) pairs by bbox, then casts
each pair's ray against only its band's edges. Crossings are counted
with `np.bincount`; the crossing expression is the plain even-odd one,
bit-for-bit, so SQL oracles that replay it agree exactly.
"""

from __future__ import annotations

import numpy as np

EDGES_PER_BAND = 4


def _close(rx, ry) -> tuple[np.ndarray, np.ndarray, bool]:
    """Closed float64 ring; a ring whose raw extent exceeds 180 deg
    crosses +-180 and has its negative lons shifted up by 360."""
    x = np.asarray(rx, dtype=np.float64)
    y = np.asarray(ry, dtype=np.float64)
    if x[0] != x[-1] or y[0] != y[-1]:
        x = np.append(x, x[0])
        y = np.append(y, y[0])
    wrapped = bool(x.max() - x.min() > 180.0)
    if wrapped:
        x = np.where(x < 0, x + 360.0, x)
    return x, y, wrapped


def _expand(starts: np.ndarray, counts: np.ndarray):
    """(owner, position) of every element of the CSR ranges
    [starts[i], starts[i] + counts[i])."""
    owner = np.repeat(np.arange(len(counts)), counts)
    ends = np.cumsum(counts)
    pos = np.arange(ends[-1] if len(ends) else 0) \
        + np.repeat(starts - (ends - counts), counts)
    return owner, pos


def _spans(counts: np.ndarray, limit: int):
    """Consecutive [a, b) ranges whose counts sum to at most `limit`
    (or a single element that alone exceeds it)."""
    cum = np.cumsum(counts)
    a, n = 0, len(counts)
    while a < n:
        base = cum[a - 1] if a else 0
        b = max(int(np.searchsorted(cum, base + limit, side="right")), a + 1)
        yield a, b
        a = b


class PolygonIndex:
    # (point, polygon) or (pair, edge) rows per pass: 32k float64 =
    # 256 KB per temporary keeps allocations in the malloc arena instead
    # of a fresh, page-faulting mmap per ufunc (as `Operation.CHUNK`)
    CHUNK = 32768

    def __init__(self, poly_ids: list, rings_lon: list, rings_lat: list,
                 attrs: dict | None = None):
        """rings_*: list of per-polygon vertex arrays (closed or open
        rings; closing edge added automatically)."""
        self.poly_ids = np.asarray(poly_ids)
        self.attrs = attrs or {}
        n = len(poly_ids)
        rings = [_close(rings_lon[i], rings_lat[i]) for i in range(n)]
        self.wrapped = np.array([r[2] for r in rings], dtype=bool)
        self.x0 = np.array([r[0].min() for r in rings], dtype=np.float64)
        self.x1 = np.array([r[0].max() for r in rings], dtype=np.float64)
        self.y0 = np.array([r[1].min() for r in rings], dtype=np.float64)
        self.y1 = np.array([r[1].max() for r in rings], dtype=np.float64)
        # bucket grid resolution ~ median bbox extent (>= 1e-6 deg)
        if n:
            ext = np.median(np.maximum(self.x1 - self.x0,
                                       self.y1 - self.y0))
            self.res = max(float(ext), 1e-6)
        else:
            self.res = 1.0
        self._build_grid(n)
        self._build_bands(n, rings)

    def _build_grid(self, n: int) -> None:
        cx0 = np.floor(self.x0 / self.res).astype(np.int64)
        cx1 = np.floor(self.x1 / self.res).astype(np.int64)
        cy0 = np.floor(self.y0 / self.res).astype(np.int64)
        cy1 = np.floor(self.y1 / self.res).astype(np.int64)
        self.cx_lo = int(cx0.min()) if n else 0
        self.cy_lo = int(cy0.min()) if n else 0
        self.cx_hi = int(cx1.max()) if n else -1
        self.cy_hi = int(cy1.max()) if n else -1
        self.ny = self.cy_hi - self.cy_lo + 1
        ncy = cy1 - cy0 + 1
        poly, k = _expand(np.zeros(n, np.int64), (cx1 - cx0 + 1) * ncy)
        keys = (cx0[poly] + k // ncy[poly] - self.cx_lo) * self.ny \
            + (cy0[poly] + k % ncy[poly] - self.cy_lo)
        order = np.lexsort((poly, keys))
        keys = keys[order]
        self.bucket_keys, first = np.unique(keys, return_index=True)
        self.bucket_off = np.append(first, len(keys)).astype(np.int64)
        self.bucket_polys = poly[order].astype(np.int64)

    def _build_bands(self, n: int, rings: list) -> None:
        # all closed rings packed end to end; edge e runs from vertex e
        # to vertex e + 1 (ring order), so an edge is stored as the
        # index of its first vertex
        self.vx = np.concatenate([r[0] for r in rings] or [np.empty(0)])
        self.vy = np.concatenate([r[1] for r in rings] or [np.empty(0)])
        sizes = np.array([len(r[0]) for r in rings], dtype=np.int64)
        first = np.cumsum(sizes) - sizes
        epoly, e = _expand(first, sizes - 1)
        # horizontal edges never satisfy the strict straddle test
        keep = self.vy[e] != self.vy[e + 1]
        e, epoly = e[keep], epoly[keep]
        n_edges = np.bincount(epoly, minlength=n)
        self.n_bands = np.maximum(n_edges // EDGES_PER_BAND, 1)
        height = self.y1 - self.y0
        self.band_scale = np.divide(self.n_bands, height,
                                    out=np.zeros(n), where=height > 0)
        self.band_base = np.concatenate(
            [[0], np.cumsum(self.n_bands)[:-1]]).astype(np.int64)
        lo = self._band(epoly, np.minimum(self.vy[e], self.vy[e + 1]))
        hi = self._band(epoly, np.maximum(self.vy[e], self.vy[e + 1]))
        edge, k = _expand(np.zeros(len(lo), np.int64), hi - lo + 1)
        band = self.band_base[epoly[edge]] + lo[edge] + k
        order = np.argsort(band, kind="stable")
        self.band_edges = e[edge[order]].astype(np.int32)
        self.band_off = np.concatenate(
            [[0], np.cumsum(np.bincount(
                band, minlength=int(self.n_bands.sum())))]).astype(np.int64)

    def _band(self, poly: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Band of y within each polygon's y-range. Monotone in y, so an
        edge listed in bands band(min y)..band(max y) is seen by every
        y it straddles."""
        b = np.floor((y - self.y0[poly]) * self.band_scale[poly])
        return np.clip(b, 0, self.n_bands[poly] - 1).astype(np.int64)

    def _bucket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Grid bucket of each (finite) point, -1 when it is empty."""
        cx = np.floor(x / self.res)
        cy = np.floor(y / self.res)
        inside = ((cx >= self.cx_lo) & (cx <= self.cx_hi)
                  & (cy >= self.cy_lo) & (cy <= self.cy_hi))
        key = (np.clip(cx, self.cx_lo, self.cx_hi).astype(np.int64)
               - self.cx_lo) * self.ny \
            + np.clip(cy, self.cy_lo, self.cy_hi).astype(np.int64) \
            - self.cy_lo
        pos = np.searchsorted(self.bucket_keys, key)
        pos_c = np.minimum(pos, len(self.bucket_keys) - 1)
        found = inside & (self.bucket_keys[pos_c] == key)
        return np.where(found, pos_c, -1)

    def _inside(self, px: np.ndarray, py: np.ndarray,
                poly: np.ndarray) -> np.ndarray:
        """Even-odd ray casting of each (px, py) against polygon
        `poly`, over only the edges listed in the band py falls in."""
        g = self.band_base[poly] + self._band(poly, py)
        starts = self.band_off[g]
        counts = self.band_off[g + 1] - starts
        crossings = np.zeros(len(px), dtype=np.int64)
        for a, b in _spans(counts, self.CHUNK):
            pair, pos = _expand(starts[a:b], counts[a:b])
            e = self.band_edges[pos]
            y = py[a:b][pair]
            y1 = self.vy[e]
            y2 = self.vy[e + 1]
            hit = np.flatnonzero((y1 > y) != (y2 > y))
            pair, e, y, y1, y2 = pair[hit], e[hit], y[hit], y1[hit], y2[hit]
            x1 = self.vx[e]
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = x1 + (y - y1) * (self.vx[e + 1] - x1) / (y2 - y1)
            cross = px[a:b][pair] < xint
            crossings[a:b] = np.bincount(pair[cross], minlength=b - a)
        return crossings % 2 == 1

    def query(self, lon: np.ndarray, lat: np.ndarray):
        """Return (point_index, polygon_index) int arrays of all
        matches, sorted by point then polygon."""
        lon = np.asarray(lon, dtype=np.float64)
        lat = np.asarray(lat, dtype=np.float64)
        none = np.empty(0, dtype=np.int64)
        if not len(self.poly_ids):
            return none, none
        probe = np.flatnonzero(np.isfinite(lon) & np.isfinite(lat))
        bucket = self._bucket(lon[probe], lat[probe])
        shifted = np.zeros(len(probe), dtype=bool)
        if self.wrapped.any():
            # wrapped rings hold points west of 0 at lon + 360: probe
            # each such point a second time, in the shifted grid
            west = probe[lon[probe] < 0]
            probe = np.concatenate([probe, west])
            bucket = np.concatenate(
                [bucket, self._bucket(lon[west] + 360.0, lat[west])])
            shifted = np.concatenate([shifted, np.ones(len(west), bool)])
        hit = bucket >= 0
        probe, bucket, shifted = probe[hit], bucket[hit], shifted[hit]
        starts = self.bucket_off[bucket]
        counts = self.bucket_off[bucket + 1] - starts
        out_pt, out_poly = [none], [none]
        for a, b in _spans(counts, self.CHUNK):
            owner, pos = _expand(starts[a:b], counts[a:b])
            poly = self.bucket_polys[pos]
            pt = probe[a:b][owner]
            s = shifted[a:b][owner]
            # a shifted probe counts for wrapped rings only; a plain
            # probe west of 0 never meets a wrapped ring's bbox [0, 360)
            x = np.where(s, lon[pt] + 360.0, lon[pt])
            y = lat[pt]
            keep = ((self.wrapped[poly] | ~s)
                    & (x >= self.x0[poly]) & (x <= self.x1[poly])
                    & (y >= self.y0[poly]) & (y <= self.y1[poly]))
            sel = np.flatnonzero(keep)
            inside = sel[self._inside(x[sel], y[sel], poly[sel])]
            out_pt.append(pt[inside])
            out_poly.append(poly[inside])
        pts = np.concatenate(out_pt)
        polys = np.concatenate(out_poly)
        order = np.lexsort((polys, pts))
        return pts[order], polys[order]


def pip_oracle(lon, lat, ring_lon, ring_lat) -> np.ndarray:
    """Brute-force even-odd test of every point against every edge of
    one ring (no grid, no bands), with the same antimeridian shift as
    `PolygonIndex`: the reference the indexed query is checked
    against."""
    x, y, wrapped = _close(ring_lon, ring_lat)
    px = np.asarray(lon, dtype=np.float64)
    py = np.asarray(lat, dtype=np.float64)
    if wrapped:
        px = np.where(px < 0, px + 360.0, px)
    inside = np.zeros(px.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for x1, y1, x2, y2 in zip(x[:-1], y[:-1], x[1:], y[1:]):
            cond = (y1 > py) != (y2 > py)
            xint = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            inside ^= cond & (px < xint)
    return inside
