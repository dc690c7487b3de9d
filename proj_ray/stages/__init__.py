"""Ray Data Dataset stages: the engine's distributed operator surface.

Every stage is a thin wrapper that applies a vectorized kernel with
``Dataset.map_batches`` over zero-copy Arrow/NumPy batches:

  - stateless math (reproject, cells, tiles)  -> plain batch functions
    with per-process cached operator setup (lru_cache = the per-worker
    analog of the reference's per-thread PJ object)
  - stateful lookups (spatial join)           -> broadcast object
    (`ray.put` once), fetched once per worker process by task
    `map_batches`
  - wide steps (census, tile agg)             -> per-block partials
    inside map_batches, then the one keyed sum
    (`pipelines.spatial.bucketed_sum`: a driver finish under
    `dsutil.DRIVER_FINISH_ROWS`, one `exchange.co_partition` above)
  - the knn merge                            -> per-round candidates,
    top-k merged on the driver

The row-wise stages (reproject, with_cells, with_tiles,
with_salted_cells, spatial_join) run on Arrow batches
(`batch_format="pyarrow"`). Each reads only its input columns as NumPy
(`_f64`), runs its kernel, and sets its outputs with `pa.array`
(`_with_columns`: an existing column is replaced in its position, a
new one is appended); every other column passes through untouched,
with its Arrow type. A NumPy-dict batch would be dearer and lossy:
Ray turns each returned NumPy column back into Arrow by inferring its
type, and for int64 and bool arrays that inference walks the array
element by element (driver probe, pyarrow 16.1, Ray 2.49.2, 4 vCPUs:
16-20 ms per 100k int64 values and 12-13 ms per 100k bools, against
<0.3 ms for `pa.array`; with_tiles' 12.5k-row block cost 8.5-9.5 ms
to convert against ~0.4 ms for its kernel). The round trip also turned
dictionary and large_string columns into string, dropped a timestamp's
time zone and turned list columns into tensor extensions. A map that
builds a new table (`pipelines.spatial`) makes it with `pa.table`,
which converts each column with `pa.array` too. A pandas or NumPy
input block still works: Ray converts it to Arrow for the stage. Ray
hands an empty block to the next operator without calling the stage,
so an empty block does not gain the stage's columns.

These stages make one call per block; the reprojection and PIP
kernels slice it internally (`Operation.CHUNK`, `PolygonIndex.CHUNK`).
With no batch size to bundle rows, Ray fuses a chain of them (and the
read before it) into one operator with one task per input block, so a
small input should arrive as one block (`dsutil.read_parquet`).

Row order: a stage keeps the order of rows within a block, but, like
Ray Data with `preserve_order` off, it does not promise the order of
rows across blocks. Blocks come back as their tasks finish, so match a
stage's output rows by key, not by position.

Nothing here materializes the full dataset; everything streams.
"""

from __future__ import annotations

import functools

import numpy as np

from proj_ray import cells as C
from proj_ray import tiles as T


@functools.lru_cache(maxsize=256)
def _cached_op(defn: str):
    from proj_ray.factory import create_operation

    return create_operation(defn)


def _no_neighbours():
    """The zero-row kNN result, typed like a non-empty one."""
    import pandas as pd

    return pd.DataFrame({"q": np.empty(0, np.int64),
                         "nid": np.empty(0, np.int64),
                         "dist": np.empty(0, np.float64),
                         "rank": np.empty(0, np.int64)})


def _f64(batch, col: str) -> np.ndarray:
    """Column `col` of an Arrow batch as a float64 NumPy array (nulls
    read as NaN; zero-copy when it is one null-free float64 chunk)."""
    return np.asarray(batch.column(col).to_numpy(), dtype=np.float64)


def _with_columns(batch, cols: dict):
    """`batch` with each NumPy array of `cols` set as an Arrow column:
    an existing column is replaced in its position, a new one is
    appended. Every other column passes through untouched."""
    import pyarrow as pa

    for name, values in cols.items():
        arr = pa.array(values)
        i = batch.schema.get_field_index(name)
        batch = (batch.set_column(i, name, arr) if i >= 0
                 else batch.append_column(name, arr))
    return batch


def reproject(ds, defn: str, direction: str = "fwd",
              x_col: str = "lon", y_col: str = "lat",
              out_x: str = "x", out_y: str = "y",
              degrees_in: bool = True, degrees_out: bool = False):
    """Apply a +proj operator to two coordinate columns.

    The operator is constructed once per worker process (lru_cache), the
    kernel runs on whole NumPy views of the Arrow columns.
    """

    def fn(batch):
        op = _cached_op(defn)
        x = _f64(batch, x_col)
        y = _f64(batch, y_col)
        if degrees_in and op.angular_input:
            x = np.radians(x)
            y = np.radians(y)
        z = np.zeros_like(x)
        t = np.full_like(x, np.inf)
        rx, ry, _, _ = (op.fwd if direction == "fwd" else op.inv)(
            (x, y, z, t))
        if degrees_out and op.angular_output:
            rx = np.degrees(rx)
            ry = np.degrees(ry)
        return _with_columns(batch, {out_x: rx, out_y: ry})

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)


def with_cells(ds, level: int, lon_col: str = "lon", lat_col: str = "lat",
               out: str = "cell"):
    """Add the Morton/webmerc cell id column — the shuffle key."""

    def fn(batch):
        return _with_columns(batch, {out: C.cell_id(
            _f64(batch, lon_col), _f64(batch, lat_col), level)})

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)


def with_tiles(ds, zoom: int, lon_col: str = "lon", lat_col: str = "lat"):
    """Add z/x/y tile assignment columns."""

    def fn(batch):
        tx, ty, valid = T.tile_assign(_f64(batch, lon_col),
                                      _f64(batch, lat_col), zoom)
        return _with_columns(batch, {
            "tile_z": np.full(len(tx), zoom, dtype=np.int64),
            "tile_x": tx, "tile_y": ty, "tile_valid": valid})

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)


def cell_census(ds, cell_col: str = "cell"):
    """groupby(cell).count() with per-batch pre-aggregation: the partial
    combine collapses each batch to its unique cells before the keyed
    sum, so it moves O(#distinct cells), not O(#rows)."""
    from proj_ray.pipelines.spatial import bucketed_sum

    def partial(batch: dict) -> dict:
        cells, counts = np.unique(batch[cell_col], return_counts=True)
        return {"cell": cells, "partial_count": counts}

    return bucketed_sum(ds.map_batches(partial, batch_format="numpy"),
                        "cell", "partial_count", "n")


def hot_cells(ds, cell_col: str = "cell", threshold: int = 10000) -> set:
    """Census pass returning the set of cells above `threshold` rows —
    the input to salting (measured, not guessed)."""
    from proj_ray.dsutil import pull_arrow

    census = pull_arrow(cell_census(ds, cell_col))
    sel = census.column("n").to_numpy() >= threshold
    return set(census.column("cell").to_numpy()[sel].tolist())


def _stable_row_key(keys) -> np.ndarray:
    """Deterministic per-row int64 from any key column: integer keys
    pass through (vectorized); strings go through blake2b (stable across
    worker processes, unlike builtin hash())."""
    arr = np.asarray(keys)
    if np.issubdtype(arr.dtype, np.integer):
        return arr.astype(np.int64) & np.int64(0x7FFFFFFF)
    from proj_ray.functions._hash import stable_u64

    return (stable_u64(arr) & np.uint64(0x7FFFFFFF)).astype(np.int64)


def with_salted_cells(ds, hot: set, salt: int = 16,
                      cell_col: str = "cell", key_col: str = "image_id",
                      out: str = "cell_salted"):
    """Split hot cells into `salt` deterministic sub-keys before groupby."""
    hot_frozen = frozenset(hot)

    def fn(batch):
        rk = _stable_row_key(batch.column(key_col).to_numpy())
        return _with_columns(batch, {out: C.salt_cells(
            batch.column(cell_col).to_numpy(), rk, hot_frozen, salt)})

    return ds.map_batches(fn, batch_format="pyarrow")


@functools.lru_cache(maxsize=4)
def _cached_index(ref):
    """The broadcast index behind `ref`, fetched at most once per worker
    process; a few entries, so worker RSS stays flat."""
    import ray

    return ray.get(ref)


class PIPJoiner:
    """Task stage: holds the ObjectRef of a broadcast polygon index,
    which each worker process fetches once (`_cached_index`) and probes
    per batch.

    Operates on zero-copy Arrow batches: coordinate columns are viewed
    as NumPy only for the math; row selection is an Arrow `take`/`filter`
    (C++), so the wide payload columns (e.g. image bytes) are never
    round-tripped through pandas."""

    def __init__(self, index_ref, lon_col: str, lat_col: str, how: str):
        if how not in ("inner", "semi", "anti", "left"):
            raise ValueError(f"unknown join how={how}")
        self.index_ref = index_ref
        self.lon_col = lon_col
        self.lat_col = lat_col
        self.how = how

    def __call__(self, batch):
        import pyarrow as pa

        index = _cached_index(self.index_ref)
        # pairs come sorted by (point, polygon)
        pts, polys = index.query(_f64(batch, self.lon_col),
                                 _f64(batch, self.lat_col))
        n = batch.num_rows
        if self.how == "inner":
            out = batch.take(pa.array(pts))
            out = out.append_column("poly_id",
                                    pa.array(index.poly_ids[polys]))
            for name, vals in index.attrs.items():
                out = out.append_column(
                    name, pa.array(np.asarray(vals)[polys]))
            return out
        if self.how == "left":
            # first match wins: the lowest polygon index of each point;
            # take() on a null index yields a null of the id column's type
            hit, at = np.unique(pts, return_index=True)
            first = np.zeros(n, dtype=np.int64)
            first[hit] = polys[at]
            matched = np.zeros(n, dtype=bool)
            matched[hit] = True
            return batch.append_column("poly_id", pa.array(
                index.poly_ids).take(pa.array(first, mask=~matched)))
        mask = np.zeros(n, dtype=bool)
        mask[pts] = True
        return batch.filter(pa.array(mask if self.how == "semi" else ~mask))


def spatial_join(ds, index, how: str = "inner",
                 lon_col: str = "lon", lat_col: str = "lat"):
    """Point-in-polygon join against a broadcast PolygonIndex.

    `index` may be a PolygonIndex or an ObjectRef from `ray.put(index)`
    (preferred at scale: ship once, not per task). The join runs as
    plain tasks, so Ray fuses it with the maps around it."""
    import ray

    ref = index if isinstance(index, ray.ObjectRef) else ray.put(index)
    return ds.map_batches(
        PIPJoiner(ref, lon_col, lat_col, how),
        batch_format="pyarrow",
        batch_size=None,
    )


class BroadcastLookup:
    """Sparse key->value lookup for broadcast joins: sorted keys +
    parallel value arrays, probed with np.searchsorted — no dense
    max(key)-sized allocation, so memory is O(#small-side rows)."""

    def __init__(self, keys: np.ndarray, values: dict[str, np.ndarray]):
        order = np.argsort(keys, kind="stable")
        self.keys = np.asarray(keys)[order]
        self.values = {k: np.asarray(v)[order] for k, v in values.items()}

    def __len__(self):
        return len(self.keys)

    def take(self, probe: np.ndarray, default=None):
        """Return ({col: matched values}, found_mask)."""
        pos = np.searchsorted(self.keys, probe)
        pos_c = np.clip(pos, 0, len(self.keys) - 1)
        found = self.keys[pos_c] == probe
        out = {}
        for k, v in self.values.items():
            got = v[pos_c]
            if default is not None:
                got = np.where(found, got, default)
            out[k] = got
        return out, found


def _window_cells(qtx: int, qty: int, r: int, level: int) -> np.ndarray:
    """All cell ids in the (2r+1)^2 Chebyshev window around (qtx, qty),
    x-wrapped at the antimeridian, y-clamped at the poles."""
    n = 1 << level
    dx = np.arange(-r, r + 1)
    dy = np.arange(-r, r + 1)
    tx = (qtx + dx) % n
    ty = qty + dy
    ty = ty[(ty >= 0) & (ty < n)]
    tx = np.unique(tx)
    TX, TY = np.meshgrid(tx, ty)
    m = (C._part1by1(TX.ravel().astype(np.uint64))
         | (C._part1by1(TY.ravel().astype(np.uint64)) << np.uint64(1)))
    return ((m << np.uint64(5)) | np.uint64(level)).astype(np.int64)


def _window_bound(qx: float, qy: float, qtx: int, qty: int, r: int,
                  level: int) -> float:
    """Planar distance from the query point to the nearest edge of its
    search window — any unscanned point is at least this far away."""
    n = 1 << level
    world = 2 * np.pi * C.WEBMERC_A
    ts = world / n
    hw = world / 2.0
    bounds = []
    if 2 * r + 1 < n:  # x does not wrap the whole world
        xmin = (qtx - r) * ts - hw
        xmax = (qtx + r + 1) * ts - hw
        bounds += [qx - xmin, xmax - qx]
    # y grows downward in tile space: window covers
    # y in [hw - (qty+r+1)*ts, hw - (qty-r)*ts]
    if qty - r > 0:
        bounds.append((hw - (qty - r) * ts) - qy)
    if qty + r + 1 < n:
        bounds.append(qy - (hw - (qty + r + 1) * ts))
    return float(min(bounds)) if bounds else np.inf


def knn_cells(ds, query_lon, query_lat, k: int = 5, level: int | None = None,
              lon_col: str = "lon", lat_col: str = "lat",
              id_col: str = "image_id", batch_size: int = 128 * 1024,
              _stats: dict | None = None):
    """Exact k nearest rows per query via cell-ring pruning (no full
    scan of candidate distances).

    Each round scans only rows whose cell falls inside the queries'
    current Chebyshev windows (vectorized `isin` mask per batch); a
    query is resolved once its k-th candidate distance is <= the planar
    distance to its window edge — a proof that no unscanned point can
    be closer. Unresolved queries double their ring radius and rerun.
    Metric is planar webmerc (matches the SQL oracle); ties broken by
    (dist, id) exactly like `knn_brute`.
    """
    import pandas as pd
    import ray

    qlon = np.asarray(query_lon, dtype=np.float64)
    qlat = np.asarray(query_lat, dtype=np.float64)
    nq = len(qlon)
    qx, qy = C.lonlat_to_webmerc(qlon, qlat)
    if level is None:
        n_rows = ds.count()
        level = int(np.clip(round(np.log(max(n_rows, 1) / max(16, 4 * k))
                                  / np.log(4)), 2, 12))
    qtx, qty, _ = C.tile_xy(qx, qy, level)
    n_tiles = 1 << level

    best_df = None  # pooled (q, nid, dist) top-k rows for ALL queries
    unresolved = np.ones(nq, dtype=bool)
    r = 1
    if _stats is not None:
        _stats.update(rounds=0, rows_scanned=0, level=level)
    while unresolved.any():
        windows = [(_window_cells(int(qtx[qi]), int(qty[qi]), r, level))
                   for qi in np.flatnonzero(unresolved)]
        needed = np.unique(np.concatenate(windows))
        qsel = np.flatnonzero(unresolved)
        nref = ray.put(needed)
        qxr = ray.put((qx[qsel], qy[qsel]))

        def local(batch, _nref=nref, _qxr=qxr):
            if len(batch[id_col]) == 0:
                return {"qi": np.empty(0, np.int64),
                        "nid": np.asarray(batch[id_col]),
                        "dist": np.empty(0, np.float64)}
            cells = C.cell_id(batch[lon_col], batch[lat_col], level)
            m = np.isin(cells, ray.get(_nref))
            # sentinel row (qi=-1) reports how many rows this batch
            # actually touched, so tests can assert the ring pruning
            sentinel = {"qi": np.array([-1], np.int64),
                        "nid": np.asarray(batch[id_col])[:1],
                        "dist": np.array([float(m.sum())])}
            if not m.any():
                return sentinel
            lon = np.asarray(batch[lon_col], dtype=np.float64)[m]
            lat = np.asarray(batch[lat_col], dtype=np.float64)[m]
            ids = np.asarray(batch[id_col])[m]
            x, y = C.lonlat_to_webmerc(lon, lat)
            gx, gy = ray.get(_qxr)
            d2 = ((x[None, :] - gx[:, None]) ** 2
                  + (y[None, :] - gy[:, None]) ** 2)
            kk = min(k, d2.shape[1])
            part = np.argpartition(d2, kk - 1, axis=1)[:, :kk]
            nql = len(gx)
            return {"qi": np.concatenate(
                        [sentinel["qi"],
                         np.repeat(np.arange(nql, dtype=np.int64), kk)]),
                    "nid": np.concatenate([sentinel["nid"],
                                           ids[part].ravel()]),
                    "dist": np.concatenate(
                        [sentinel["dist"],
                         np.sqrt(d2[np.arange(nql)[:, None],
                                    part]).ravel()])}

        cand = ds.map_batches(local, batch_format="numpy",
                              batch_size=batch_size)
        frames = list(cand.iter_batches(batch_format="pandas"))
        got = pd.concat(frames, ignore_index=True) if frames else \
            pd.DataFrame({"qi": [], "nid": [], "dist": []})
        scanned = got[got["qi"] == -1]["dist"].sum()
        got = got[got["qi"] >= 0]
        if _stats is not None:
            _stats["rounds"] += 1
            _stats["rows_scanned"] += int(scanned)
        # ONE grouped merge for every query in the round (flat in nq):
        # concat new candidates onto the pooled bests, dedup, sort by
        # (q, dist, nid) and keep the per-query head(k)
        got = got.assign(q=qsel[got["qi"].to_numpy(np.int64)])
        pool = got[["q", "nid", "dist"]] if best_df is None else \
            pd.concat([best_df, got[["q", "nid", "dist"]]],
                      ignore_index=True)
        best_df = (pool.drop_duplicates(["q", "nid"])
                   .sort_values(["q", "dist", "nid"], kind="stable")
                   .groupby("q", sort=False).head(k)
                   .reset_index(drop=True))
        sizes = best_df.groupby("q")["dist"].size().to_dict()
        # sorted + head(k) => the per-query LAST row holds d_k
        last = best_df.groupby("q").tail(1)
        dk = dict(zip(last["q"].to_numpy(), last["dist"].to_numpy()))
        for qi in qsel:
            bnd = _window_bound(qx[qi], qy[qi], int(qtx[qi]), int(qty[qi]),
                                r, level)
            covered_world = (2 * r + 1 >= n_tiles and qty[qi] - r <= 0
                             and qty[qi] + r + 1 >= n_tiles)
            # strict <: a point exactly at the window edge lives in an
            # unscanned cell, so d_k == bnd can't prove exactness
            if (sizes.get(qi, 0) >= k and dk[qi] < bnd) or covered_world:
                unresolved[qi] = False
        r *= 2
        if r > 2 * n_tiles:
            # window covered the world: everything scanned, resolve all
            unresolved[:] = False
    if best_df is None or not len(best_df):
        return _no_neighbours()
    out = (best_df.sort_values(["q", "dist", "nid"], kind="stable")
           .reset_index(drop=True))
    out["q"] = out["q"].astype(np.int64)
    out["rank"] = (out.groupby("q").cumcount() + 1).astype(np.int64)
    return out[["q", "nid", "dist", "rank"]]


def knn_build(ds, path: str, level: int | None = None,
              lon_col: str = "lon", lat_col: str = "lat",
              id_col: str = "image_id", k_hint: int = 5) -> int:
    """Route rows ONCE into cell-keyed parquet partitions
    (``cell=<id>/``) — the persistent layout `knn_index` probes.

    This is the 100-TB shape for repeated kNN: ring windows then prune
    I/O (partitions/bytes read), not just compute, mirroring
    `ivf_build`/`ann_ivf_index` (functions/ann.py). Reference
    precedent: tinshift's quadtree point location
    (src/transformations/tinshift_impl.hpp:386-500). Returns the cell
    level used (also stored in ``<path>/knn_meta.json``). On a
    multi-node cluster `path` must be cluster-shared storage
    (NFS/S3-fuse)."""
    import json
    import os

    if level is None:
        n_rows = ds.count()
        level = int(np.clip(
            round(np.log(max(n_rows, 1) / max(16, 4 * k_hint))
                  / np.log(4)), 2, 12))

    def assign(batch):
        batch["cell"] = C.cell_id(batch[lon_col], batch[lat_col], level)
        return batch

    # sort by cell before writing: blocks align with partition values,
    # so each cell=<id>/ holds O(1) files and probe-time metadata cost
    # scales with the window, not with builder parallelism
    ds.map_batches(assign, batch_format="numpy") \
      .sort("cell") \
      .write_parquet(path, partition_cols=["cell"])
    with open(os.path.join(path, "knn_meta.json"), "w") as f:
        json.dump({"level": int(level), "lon_col": lon_col,
                   "lat_col": lat_col, "id_col": id_col}, f)
    return level


def knn_index(path: str, query_lon, query_lat, k: int = 5,
              lon_col: str | None = None, lat_col: str | None = None,
              id_col: str | None = None, batch_size: int = 128 * 1024,
              _stats: dict | None = None):
    """Exact kNN over a `knn_build` directory: each ring round reads
    ONLY the window's cell partitions that no earlier round read —
    cumulative I/O equals the final window union, independent of corpus
    size. Same window-edge exactness proof, metric and tie-breaking as
    `knn_cells`; per-round candidates are <= |unresolved|·k per block.
    `_stats` (optional dict) records rounds, partitions_read,
    bytes_read, partitions_total for tests to assert the I/O pruning.
    """
    import json
    import os

    import pandas as pd
    import ray
    import ray.data as rd

    from proj_ray import dsutil

    with open(os.path.join(path, "knn_meta.json")) as f:
        meta = json.load(f)
    level = int(meta["level"])
    lon_col = lon_col or meta["lon_col"]
    lat_col = lat_col or meta["lat_col"]
    id_col = id_col or meta["id_col"]
    part_dirs = {}
    for name in os.listdir(path):
        if name.startswith("cell="):
            try:
                part_dirs[int(name.split("=", 1)[1])] = \
                    os.path.join(path, name)
            except ValueError:
                continue

    qlon = np.asarray(query_lon, dtype=np.float64)
    qlat = np.asarray(query_lat, dtype=np.float64)
    nq = len(qlon)
    qx, qy = C.lonlat_to_webmerc(qlon, qlat)
    qtx, qty, _ = C.tile_xy(qx, qy, level)
    n_tiles = 1 << level

    best: list = [None] * nq
    unresolved = np.ones(nq, dtype=bool)
    read_cells: set[int] = set()
    r = 1
    if _stats is not None:
        _stats.update(rounds=0, partitions_read=0, bytes_read=0,
                      partitions_total=len(part_dirs), level=level)
    while unresolved.any():
        qsel = np.flatnonzero(unresolved)
        windows = [_window_cells(int(qtx[qi]), int(qty[qi]), r, level)
                   for qi in qsel]
        needed = np.unique(np.concatenate(windows))
        fresh = [int(c) for c in needed
                 if c not in read_cells and int(c) in part_dirs]
        read_cells.update(int(c) for c in needed)
        files = [os.path.join(part_dirs[c], f)
                 for c in fresh for f in sorted(os.listdir(part_dirs[c]))
                 if f.endswith(".parquet")]
        if _stats is not None:
            _stats["rounds"] += 1
            _stats["partitions_read"] += len(fresh)
            _stats["bytes_read"] += sum(os.path.getsize(f)
                                        for f in files)
        if files:
            qxr = ray.put((qx[qsel], qy[qsel]))

            def local(batch, _qxr=qxr):
                lon = np.asarray(batch[lon_col], dtype=np.float64)
                lat = np.asarray(batch[lat_col], dtype=np.float64)
                ids = np.asarray(batch[id_col])
                if len(lon) == 0:
                    return {"qi": np.empty(0, np.int64),
                            "nid": ids,
                            "dist": np.empty(0, np.float64)}
                x, y = C.lonlat_to_webmerc(lon, lat)
                gx, gy = ray.get(_qxr)
                d2 = ((x[None, :] - gx[:, None]) ** 2
                      + (y[None, :] - gy[:, None]) ** 2)
                kk = min(k, d2.shape[1])
                part = np.argpartition(d2, kk - 1, axis=1)[:, :kk]
                nql = len(gx)
                return {"qi": np.repeat(np.arange(nql, dtype=np.int64),
                                        kk),
                        "nid": ids[part].ravel(),
                        "dist": np.sqrt(
                            d2[np.arange(nql)[:, None], part]).ravel()}

            cand = rd.read_parquet(files,
                                   columns=[lon_col, lat_col, id_col]) \
                     .map_batches(local, batch_format="numpy",
                                  batch_size=batch_size)
            got = dsutil.pull_pandas(cand)
            for li, qi in enumerate(qsel):
                mine = got[got["qi"] == li][["nid", "dist"]]
                merged = mine if best[qi] is None else \
                    pd.concat([best[qi], mine], ignore_index=True)
                best[qi] = (merged.drop_duplicates("nid")
                            .sort_values(["dist", "nid"]).head(k))
        for qi in qsel:
            b = best[qi]
            bnd = _window_bound(qx[qi], qy[qi], int(qtx[qi]),
                                int(qty[qi]), r, level)
            covered_world = (2 * r + 1 >= n_tiles and qty[qi] - r <= 0
                             and qty[qi] + r + 1 >= n_tiles)
            if (b is not None and len(b) >= k
                    and b["dist"].iloc[k - 1] < bnd) or covered_world:
                unresolved[qi] = False
        r *= 2
        if r > 2 * n_tiles:
            unresolved[:] = False
    parts = []
    for qi in range(nq):
        b = best[qi]
        if b is None or not len(b):
            continue
        b = b.head(k).reset_index(drop=True)
        b.insert(0, "q", np.int64(qi))
        b["rank"] = np.arange(1, len(b) + 1, dtype=np.int64)
        parts.append(b)
    if not parts:
        return _no_neighbours()
    return pd.concat(parts, ignore_index=True)


def knn_brute(ds, query_lon, query_lat, k: int = 5,
              lon_col: str = "lon", lat_col: str = "lat",
              id_col: str = "image_id", geodesic: bool = True,
              batch_size: int = 64 * 1024):
    """k nearest rows for each query point: per-batch top-k candidates
    (distributed) then a driver-side merge over #queries*k*#blocks
    candidates (small).

    Distances: Karney geodesic (exact) or webmerc-plane euclid.
    """
    qlon = np.asarray(query_lon, dtype=np.float64)
    qlat = np.asarray(query_lat, dtype=np.float64)
    nq = len(qlon)

    def local_topk(batch: dict) -> dict:
        lon = np.asarray(batch[lon_col], dtype=np.float64)
        lat = np.asarray(batch[lat_col], dtype=np.float64)
        ids = np.asarray(batch[id_col])
        finite = np.isfinite(lon) & np.isfinite(lat) & (np.abs(lat) <= 90)
        lon = lon[finite]
        lat = lat[finite]
        ids = ids[finite]
        if len(lon) == 0:
            return {"q": np.empty(0, np.int64), "nid": np.empty(0, object),
                    "dist": np.empty(0, np.float64)}
        if geodesic:
            from proj_ray.geodesic import WGS84_GEOD

            # (nq, n) distance matrix in chunks
            qs = []
            nids = []
            dists = []
            for qi in range(nq):
                d, _, _ = WGS84_GEOD.inverse(
                    np.full(len(lat), qlat[qi]), np.full(len(lon), qlon[qi]),
                    lat, lon)
                kk = min(k, len(d))
                part = np.argpartition(d, kk - 1)[:kk]
                qs.append(np.full(kk, qi, dtype=np.int64))
                nids.append(ids[part])
                dists.append(d[part])
            return {"q": np.concatenate(qs),
                    "nid": np.concatenate(nids),
                    "dist": np.concatenate(dists)}
        from proj_ray.cells import lonlat_to_webmerc

        x, y = lonlat_to_webmerc(lon, lat)
        qx, qy = lonlat_to_webmerc(qlon, qlat)
        d2 = (x[None, :] - qx[:, None]) ** 2 + (y[None, :] - qy[:, None]) ** 2
        kk = min(k, d2.shape[1])
        part = np.argpartition(d2, kk - 1, axis=1)[:, :kk]
        qs = np.repeat(np.arange(nq, dtype=np.int64), kk)
        return {"q": qs, "nid": ids[part].ravel(),
                "dist": np.sqrt(d2[np.arange(nq)[:, None], part]).ravel()}

    cand = ds.map_batches(local_topk, batch_format="numpy",
                          batch_size=batch_size)
    from proj_ray.functions.ann import merge_topk

    return merge_topk(cand, k, "dist", descending=False)


def dwithin_join(ds, query_lon, query_lat, radius_m: float,
                 id_col: str = "doc_id",
                 lon_col: str = "lon", lat_col: str = "lat"):
    """Distance-within join: every (row, query) pair closer than
    `radius_m` great-circle metres (spherical haversine, R=6371000).

    The query side is broadcast (tiny) and each batch does one
    vectorized (n x q) haversine; a per-query latitude-band prefilter
    (|dlat| <= radius) prunes the trig for far rows first. At scale
    with a LARGE query side, route both sides through `with_cells` at
    a level sized to the radius and join per cell-ring instead — this
    broadcast variant is the small-query-side fast path, the same split
    q52 makes between `BroadcastLookup` and a shuffle join at
    `dsutil.BROADCAST_ROWS`.

    The formula is written in the exact operation order a DuckDB
    oracle reproduces: a = sin^2(dphi/2) + cos(phi1) cos(phi2)
    sin^2(dlam/2); d = 2 R asin(sqrt(a)).
    """
    qlon = np.asarray(query_lon, dtype=np.float64)
    qlat = np.asarray(query_lat, dtype=np.float64)
    R = 6371000.0
    # prefilter band: great-circle metres per degree of latitude is
    # exactly R*pi/180 on the sphere; pad by 1e-9 for FP safety.
    band_deg = radius_m / (R * np.pi / 180.0) * (1.0 + 1e-9)

    def pairs(b: dict) -> dict:
        lon = np.asarray(b[lon_col], dtype=np.float64)
        lat = np.asarray(b[lat_col], dtype=np.float64)
        rid = np.asarray(b[id_col])
        out_id, out_q, out_d = [], [], []
        phi1 = np.radians(lat)
        lam1 = np.radians(lon)
        cphi1 = np.cos(phi1)
        for qi in range(len(qlon)):
            near = np.abs(lat - qlat[qi]) <= band_deg
            if not near.any():
                continue
            p1 = phi1[near]
            p2 = np.radians(qlat[qi])
            dphi = p2 - p1
            dlam = np.radians(qlon[qi]) - lam1[near]
            sp = np.sin(dphi / 2.0)
            sl = np.sin(dlam / 2.0)
            a = sp * sp + cphi1[near] * np.cos(p2) * sl * sl
            d = 2.0 * R * np.arcsin(np.sqrt(np.minimum(a, 1.0)))
            hit = d < radius_m
            if hit.any():
                out_id.append(rid[near][hit])
                out_q.append(np.full(int(hit.sum()), qi, dtype=np.int64))
                out_d.append(np.rint(d[hit] * 10000.0).astype(np.int64))
        if not out_id:
            return {id_col: rid[:0], "q": np.empty(0, dtype=np.int64),
                    "dist_tmm": np.empty(0, dtype=np.int64)}
        return {id_col: np.concatenate(out_id),
                "q": np.concatenate(out_q),
                "dist_tmm": np.concatenate(out_d)}

    return ds.map_batches(pairs, batch_format="numpy")


_BLOOM_SALT = np.uint64(0xA5A5A5A5DEADBEEF)


def _bloom_positions(u64: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """(n, k) bit positions via double hashing (h1 + i*h2) % m."""
    from proj_ray.functions._hash import splitmix64

    h1 = u64
    h2 = splitmix64(u64 ^ _BLOOM_SALT) | np.uint64(1)
    i = np.arange(k, dtype=np.uint64)[None, :]
    with np.errstate(over="ignore"):
        return (h1[:, None] + i * h2[:, None]) % np.uint64(m_bits)


def build_bloom(distinct_ds, key_col: str, m_bits: int = 1 << 24,
                k: int = 7) -> np.ndarray:
    """Distributed bloom filter over a key dataset: per-batch partial
    bit arrays OR-combined in a map_batches pass, then a bounded
    driver OR of the surviving blobs — the key set itself never
    touches the driver. Returns the packed uint64 bit array."""
    words = m_bits // 64

    from proj_ray.functions._hash import stable_u64

    def partial(b: dict) -> dict:
        u = stable_u64(np.asarray(b[key_col]))
        pos = _bloom_positions(u, m_bits, k).ravel()
        bits = np.zeros(words, dtype=np.uint64)
        np.bitwise_or.at(bits, (pos >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (pos & np.uint64(63)))
        return {"blob": np.array([bits.tobytes()], dtype=object)}

    def combine(b: dict) -> dict:
        acc = np.zeros(words, dtype=np.uint64)
        for blob in b["blob"]:
            acc |= np.frombuffer(blob, dtype=np.uint64)
        return {"blob": np.array([acc.tobytes()], dtype=object)}

    parts = (distinct_ds.map_batches(partial, batch_format="numpy",
                                     batch_size=65536)
             .map_batches(combine, batch_format="numpy",
                          batch_size=64)
             .take_all())
    acc = np.zeros(words, dtype=np.uint64)
    for r in parts:
        acc |= np.frombuffer(r["blob"], dtype=np.uint64)
    return acc


def bloom_maybe_contains(bits: np.ndarray, keys, m_bits: int,
                         k: int = 7) -> np.ndarray:
    """Vectorized membership probe: True = possibly present (false
    positives only, at the filter's design rate); False = certainly
    absent."""
    from proj_ray.functions._hash import stable_u64

    pos = _bloom_positions(stable_u64(np.asarray(keys)), m_bits, k)
    w = bits[(pos >> np.uint64(6)).astype(np.int64)]
    return (((w >> (pos & np.uint64(63))) & np.uint64(1)) != 0) \
        .all(axis=1)


def semi_anti_join(ds, right, key_col: str, right_key: str | None = None,
                   how: str = "anti",
                   use_bloom: bool = True, bloom_bits: int = 1 << 24):
    """Semi / anti join: keep `ds` rows whose key does (semi) or does
    not (anti) appear in `right`'s key column.

    The right side is reduced to DISTINCT keys first (a tiny
    aggregate), so what moves is the key set, never right rows. At
    most `dsutil.BROADCAST_ROWS` distinct keys (`dsutil.driver_table`
    decides): one `ray.put` of the sorted key array, each batch
    filtered with searchsorted — no shuffle of `ds` at all. Above it:
    Ray Data's hash-partitioned join on the key (semi) or a left-outer
    join with a null-probe filter (anti), so the driver never holds an
    unbounded key set.
    """
    import ray

    from proj_ray import dsutil

    rk = right_key or key_col
    # distinct keys as a (still distributed) dataset; batch-local
    # dedup happens inside Ray's hash aggregate.
    distinct, kdf = dsutil.driver_table(
        right.select_columns([rk]).groupby(rk).count().select_columns([rk]),
        dsutil.BROADCAST_ROWS)
    if kdf is not None:
        ref = ray.put(np.sort(kdf[rk].to_numpy()))
        want = how == "semi"

        def filt(batch: dict) -> dict:
            probe = np.asarray(batch[key_col])
            ks = ray.get(ref)
            if len(ks):
                pos = np.clip(np.searchsorted(ks, probe), 0,
                              len(ks) - 1)
                found = ks[pos] == probe
            else:
                found = np.zeros(len(probe), dtype=bool)
            keep = found if want else ~found
            return {c: np.asarray(v)[keep] for c, v in batch.items()}

        return ds.map_batches(filt, batch_format="numpy")
    # Large key set: hash-partitioned semi via Ray's shuffle join; the
    # key set never touches the driver. Partition count is sized to
    # the cluster — each partition is an aggregator actor, so asking
    # for more than the CPU count deadlocks small clusters.
    #
    # Bloom prefilter: before paying the probe-side shuffle, drop rows
    # the (distributed, OR-combined) bloom filter proves absent. False
    # positives only — they survive to the exact join, which removes
    # them — so results are identical; what changes is shuffle volume:
    # for a selective semi join, only matching rows (+ ~1% fp) move.
    # For anti, bloom-absent rows are part of the ANSWER and bypass
    # the shuffle entirely.
    anti_bypass = None
    if use_bloom:
        cols = ds.columns()
        bits = build_bloom(distinct, rk, m_bits=bloom_bits)
        bits_ref = ray.put(bits)

        def split(keep_maybe: bool):
            def f(batch: dict) -> dict:
                maybe = bloom_maybe_contains(
                    ray.get(bits_ref), np.asarray(batch[key_col]),
                    bloom_bits)
                keep = maybe if keep_maybe else ~maybe
                return {c: np.asarray(v)[keep]
                        for c, v in batch.items()}
            return f

        if how == "anti":
            anti_bypass = ds.map_batches(
                split(False), batch_format="numpy") \
                .select_columns(cols)
        ds = ds.map_batches(split(True), batch_format="numpy")
    nparts = max(2, min(64, dsutil.cluster_cpus() - 1))
    if how == "semi":
        return ds.join(distinct, join_type="inner",
                       num_partitions=nparts,
                       on=(key_col,), right_on=(rk,))

    def mark(batch: dict) -> dict:
        batch["_present"] = np.ones(
            len(batch[rk]), dtype=np.int8)
        return batch

    marked = distinct.map_batches(mark, batch_format="numpy")
    joined = ds.join(marked, join_type="left_outer",
                     num_partitions=nparts,
                     on=(key_col,), right_on=(rk,))

    def drop_found(batch: dict) -> dict:
        keep = ~np.isfinite(
            np.asarray(batch["_present"], dtype=np.float64))
        return {c: np.asarray(v)[keep] for c, v in batch.items()
                if c not in ("_present", rk)}

    out = joined.map_batches(drop_found, batch_format="numpy")
    if anti_bypass is not None:
        return out.select_columns(anti_bypass.columns()) \
            .union(anti_bypass)
    return out
