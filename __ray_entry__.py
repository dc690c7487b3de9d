"""Driver contract for the proj_ray engine.

`entry()` runs the flagship geospatial pipeline (synth images table ->
webmerc cells -> z/x/y tiles -> point-in-polygon join -> per-tile
aggregate). `queries()` exposes each operator family over the driver's
parquet tables; `oracle_sql()` gives the DuckDB-checkable equivalents
(identical column names, floats rounded identically on both sides).
Both are read off one table, `_QUERIES` at the end of this module: one
row (name, fn, oracle SQL, timed_by_bench) per query. bench.py's suite
times the rows marked timed_by_bench. A new query is its function, its
SQL and one row there.

Geotags for the geo queries are derived from doc_id with pure integer
arithmetic so both NumPy and DuckDB produce bit-identical values
(`_geotag`, from `proj_ray.sqlmirror`, is the NumPy side):
  lon = (doc_id*61803 % 360000)/1000 - 180
  lat = (doc_id*75487 % 170000)/1000 - 85
Values quantized to integer units (milli-units, cents) go through
`_milli(v, scale)`, which rounds half away from zero like SQL's
CAST(round(v * scale) AS BIGINT).

Ray is initialised by the driver; nothing here calls ray.init().
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from proj_ray.dsutil import merged, pull_pandas
from proj_ray.exchange import co_partition
from proj_ray.pipelines.spatial import bucketed_sum
from proj_ray.sqlmirror import geotag as _geotag
from proj_ray.sqlmirror import milli as _milli

_GEO_SQL = ("SELECT doc_id, (doc_id*61803 % 360000)/1000.0 - 180.0 AS lon, "
            "(doc_id*75487 % 170000)/1000.0 - 85.0 AS lat FROM documents")

# 16 deterministic rectangles, bounds offset by .0005 so lattice points
# never sit on an edge (engine PIP strictness == SQL strict inequality)
_RECTS = [(j, -180.0 + j * 22.0 + 0.0005, -60.0 + (j % 8) * 15.0 + 0.0005,
           18.0, 12.0) for j in range(16)]
_RECT_SQL = ("SELECT j AS rect_id, -180.0 + j*22.0 + 0.0005 AS x0, "
             "-60.0 + (j % 8)*15.0 + 0.0005 AS y0, 18.0 AS w, 12.0 AS h "
             "FROM range(16) t(j)")


def _read(sf_dir: str, table: str, columns: list[str] | None = None,
          small_as_one_block: bool = False):
    """Read a driver table: Lance dataset dir if present (input_hint
    shape), else parquet — with column pruning pushed to the reader.
    `small_as_one_block` reads a parquet table of at most
    `dsutil.ONE_BLOCK_ROWS` rows as one block (`dsutil.read_parquet`),
    for inputs of the row-wise stages."""
    import os

    from proj_ray.dsutil import read_parquet
    from proj_ray.sources.lance import read_table

    lance_path = f"{sf_dir}/{table}.lance"
    if os.path.isdir(lance_path):
        return read_table(lance_path, columns=columns)
    if small_as_one_block:
        return read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)
    return read_table(f"{sf_dir}/{table}.parquet", columns=columns)


def _geo_query_points(k: int = 5):
    """The first k geotag points (doc_id 0..k-1) computed directly from
    the _docs_geo arithmetic — no Ray pass needed for query side
    inputs."""
    return _geotag(np.arange(k, dtype=np.int64))


def _docs_geo(sf_dir: str, small_as_one_block: bool = True):
    # doc_id is the only column used — prune at the reader so the wide
    # `text` column never leaves storage for the geo queries. A small
    # table reads as one block, so the row-wise stages after it run one
    # task; a consumer whose sort shuffle takes its partition count
    # from the read's blocks keeps Ray's split instead (q119).
    ds = _read(sf_dir, "documents", columns=["doc_id"],
               small_as_one_block=small_as_one_block)

    def add_geo(b: dict) -> dict:
        i = np.asarray(b["doc_id"], dtype=np.int64)
        lon, lat = _geotag(i)
        return {"doc_id": i, "lon": lon, "lat": lat}

    return ds.map_batches(add_geo, batch_format="numpy")


# --------------------------------------------------------------- queries --


def _q01_pricing(sf_dir: str):
    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus", "l_quantity",
                        "l_extendedprice", "l_discount"])

    # exact integer aggregation: per-row scaled cents, summed as int64 —
    # associative, so distributed and single-threaded sums agree exactly.
    # Per-batch partial combine first: the sum moves a handful of
    # (flag, status, partials) rows per block instead of every lineitem.
    def partial(b: dict) -> dict:
        import pandas as pd

        df = pd.DataFrame({
            "l_returnflag": b["l_returnflag"],
            "l_linestatus": b["l_linestatus"],
            "qty_c": _milli(b["l_quantity"], 100),
            "base_c": _milli(b["l_extendedprice"], 100),
            "disc_c": _milli(b["l_extendedprice"] * (1 - b["l_discount"]),
                             10000),
        })
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            qty_c=("qty_c", "sum"), base_c=("base_c", "sum"),
            disc_c=("disc_c", "sum"), n=("qty_c", "size"))
        return {k: g[k].to_numpy() for k in g.columns}

    out = pull_pandas(bucketed_sum(
        ds.map_batches(partial, batch_format="numpy"),
        ["l_returnflag", "l_linestatus"], ["qty_c", "base_c", "disc_c", "n"],
        ["sum_qty_c", "sum_base_c", "sum_disc_c", "count_order"]))
    out["sum_qty"] = out["sum_qty_c"] / 100.0
    out["sum_base_price"] = out["sum_base_c"] / 100.0
    out["sum_disc_price"] = out["sum_disc_c"] / 10000.0
    out["avg_qty"] = out["sum_qty_c"] // out["count_order"]
    return out[["l_returnflag", "l_linestatus", "sum_qty",
                "sum_base_price", "sum_disc_price", "avg_qty",
                "count_order"]]


_Q01_SQL = """
SELECT l_returnflag, l_linestatus,
       SUM(CAST(ROUND(l_quantity*100, 0) AS BIGINT)) / 100.0 AS sum_qty,
       SUM(CAST(ROUND(l_extendedprice*100, 0) AS BIGINT)) / 100.0
         AS sum_base_price,
       SUM(CAST(ROUND(l_extendedprice*(1 - l_discount)*10000, 0) AS BIGINT))
         / 10000.0 AS sum_disc_price,
       CAST(SUM(CAST(ROUND(l_quantity*100, 0) AS BIGINT)) // COUNT(*)
         AS BIGINT) AS avg_qty,
       COUNT(*) AS count_order
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


def _q02_order_status(sf_dir: str):
    ds = _read(sf_dir, "orders", columns=["o_orderstatus", "o_totalprice"])

    def cents(b: dict) -> dict:
        return {"o_orderstatus": b["o_orderstatus"],
                "one": np.ones(len(b["o_totalprice"]), np.int64),
                "tp_c": _milli(b["o_totalprice"], 100)}

    out = pull_pandas(bucketed_sum(
        ds.map_batches(cents, batch_format="numpy"), "o_orderstatus",
        ["one", "tp_c"], ["n_orders", "tp_sum"]))
    out["total"] = out["tp_sum"] / 100.0
    return out[["o_orderstatus", "n_orders", "total"]]


_Q02_SQL = ("SELECT o_orderstatus, COUNT(*) AS n_orders, "
            "SUM(CAST(ROUND(o_totalprice*100, 0) AS BIGINT)) / 100.0 "
            "AS total FROM orders GROUP BY o_orderstatus")


def _q03_top_customers(sf_dir: str):
    """Top 10 customers by revenue: a keyed sum + distributed
    sort/limit — only 10 rows ever reach the driver, and customer names
    are fetched for just those 10 keys with one filtered scan (no
    driver-side dict of the whole customer table)."""
    ds = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def cents(b: dict) -> dict:
        return {"o_custkey": b["o_custkey"],
                "tp_c": _milli(b["o_totalprice"], 100)}

    top = pull_pandas(
        bucketed_sum(ds.map_batches(cents, batch_format="numpy"),
                     "o_custkey", "tp_c", "rev_c")
        .sort(["rev_c", "o_custkey"], descending=[True, False])
        .limit(10))
    want = top["o_custkey"].to_numpy()

    def pick_names(b: dict) -> dict:
        keep = np.isin(np.asarray(b["c_custkey"]), want)
        return {"c_custkey": np.asarray(b["c_custkey"])[keep],
                "c_name": np.asarray(b["c_name"])[keep]}

    names = (_read(sf_dir, "customer", columns=["c_custkey", "c_name"])
             .map_batches(pick_names, batch_format="numpy")
             .to_pandas())
    top = top.merge(names, left_on="o_custkey", right_on="c_custkey")
    top["revenue"] = top["rev_c"] / 100.0
    return top[["o_custkey", "c_name", "revenue"]].reset_index(drop=True)


_Q03_SQL = """
SELECT o_custkey, c_name,
       SUM(CAST(ROUND(o_totalprice*100, 0) AS BIGINT)) / 100.0 AS revenue
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY o_custkey, c_name
ORDER BY revenue DESC, o_custkey LIMIT 10
"""


def _q04_events_by_type(sf_dir: str):
    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def scaled(b: dict) -> dict:
        return {"event_type": b["event_type"],
                "one": np.ones(len(b["value"]), np.int64),
                "v_c": _milli(b["value"], 10000)}

    out = pull_pandas(bucketed_sum(
        ds.map_batches(scaled, batch_format="numpy"), "event_type",
        ["one", "v_c"], ["n", "v_sum"]))
    out["sum_value"] = out["v_sum"] / 10000.0
    return out[["event_type", "n", "sum_value"]]


_Q04_SQL = ("SELECT event_type, COUNT(*) AS n, "
            "SUM(CAST(ROUND(value*10000, 0) AS BIGINT)) / 10000.0 "
            "AS sum_value FROM events GROUP BY event_type")


def _q05_webmerc(sf_dir: str):
    from proj_ray.stages import reproject

    ds = reproject(_docs_geo(sf_dir), "+proj=webmerc +ellps=WGS84",
                   out_x="x", out_y="y")

    def rnd(b: dict) -> dict:
        return {"doc_id": b["doc_id"], "x": np.round(b["x"], 4),
                "y": np.round(b["y"], 4)}

    return ds.map_batches(rnd, batch_format="numpy")


_Q05_SQL = f"""
WITH geo AS ({_GEO_SQL})
SELECT doc_id,
       ROUND(6378137.0 * radians(lon), 4) AS x,
       ROUND(6378137.0 * ln(tan(pi()/4 + radians(lat)/2)), 4) AS y
FROM geo
"""


def _q06_tiles(sf_dir: str):
    from proj_ray.stages import with_tiles

    ds = with_tiles(_docs_geo(sf_dir), zoom=8)

    def pick(b: dict) -> dict:
        return {"doc_id": b["doc_id"], "tile_x": b["tile_x"],
                "tile_y": b["tile_y"]}

    return ds.map_batches(pick, batch_format="numpy")


# the tile formulas mirror the engine op-for-op (cells.py
# lonlat_to_webmerc + tile_xy: radians -> meters -> normalize ->
# floor) — a simplified (lon+180)/360 shortcut rounds the OTHER way
# on exact tile boundaries (doc_id 3125 at sf0.1 lands on fx == 124.0)
_Q06_SQL = f"""
WITH geo AS ({_GEO_SQL})
SELECT doc_id,
  CAST(LEAST(GREATEST(floor(
      (radians(lon) * 6378137.0 + pi() * 6378137.0)
      / (2 * pi() * 6378137.0) * 256), 0), 255) AS BIGINT) AS tile_x,
  CAST(LEAST(GREATEST(floor(
      (pi() * 6378137.0 - 6378137.0
         * ln(tan(pi()/4 + radians(lat)/2)))
      / (2 * pi() * 6378137.0) * 256), 0), 255) AS BIGINT) AS tile_y
FROM geo
"""


def _tile_counts(sf_dir: str, zoom: int):
    """COUNT(*) per (tile_x, tile_y) of the document geotags at `zoom`:
    `spatial.tile_counts_salted`'s per-tile count with its tile_key
    split back into the tile coordinates."""
    import pyarrow as pa

    from proj_ray.pipelines.spatial import tile_counts_salted

    def split(t):
        key = t.column("tile_key").to_numpy()
        return pa.table({"tile_x": key >> 30,
                         "tile_y": key & ((1 << 30) - 1),
                         "n": t.column("n")})

    return tile_counts_salted(_docs_geo(sf_dir), zoom) \
        .map_batches(split, batch_format="pyarrow")


def _q07_tile_counts(sf_dir: str):
    return _tile_counts(sf_dir, 5)


# op-for-op tile mirror (see _Q06_SQL): docs 1250/2500/3750 sit on
# exact zoom-5 x-boundaries where the (lon+180)/360 shortcut can
# round the other way
_Q07_SQL = f"""
WITH geo AS ({_GEO_SQL}),
t AS (SELECT
  CAST(LEAST(GREATEST(floor(
      (radians(lon) * 6378137.0 + pi() * 6378137.0)
      / (2 * pi() * 6378137.0) * 32), 0), 31) AS BIGINT) AS tile_x,
  CAST(LEAST(GREATEST(floor(
      (pi() * 6378137.0 - 6378137.0
         * ln(tan(pi()/4 + radians(lat)/2)))
      / (2 * pi() * 6378137.0) * 32), 0), 31) AS BIGINT) AS tile_y
 FROM geo)
SELECT tile_x, tile_y, COUNT(*) AS n FROM t GROUP BY tile_x, tile_y
"""


def _q08_grid_cells(sf_dir: str):
    from proj_ray.cells import grid_cell

    def cellify(b: dict) -> dict:
        cell = grid_cell(b["lon"], b["lat"], 1.0)
        return {"cell": cell, "one": np.ones(len(cell), np.int64)}

    return bucketed_sum(_docs_geo(sf_dir).map_batches(
        cellify, batch_format="numpy"), "cell", "one", "n")


_Q08_SQL = f"""
WITH geo AS ({_GEO_SQL})
SELECT CAST(floor(lon + 180.0) * 180 + floor(lat + 90.0) AS BIGINT) AS cell,
       COUNT(*) AS n
FROM geo GROUP BY 1
"""


def _q09_pip_rect(sf_dir: str):
    from proj_ray.join import PolygonIndex
    from proj_ray.stages import spatial_join

    ids = [r[0] for r in _RECTS]
    rx = [np.array([x0, x0 + w, x0 + w, x0]) for _, x0, y0, w, h in _RECTS]
    ry = [np.array([y0, y0, y0 + h, y0 + h]) for _, x0, y0, w, h in _RECTS]
    idx = PolygonIndex(ids, rx, ry)
    out = spatial_join(_docs_geo(sf_dir), idx, how="inner")

    def pick(b):
        return b[["doc_id", "poly_id"]].rename(
            columns={"poly_id": "rect_id"})

    return out.map_batches(pick, batch_format="pandas")


_Q09_SQL = f"""
WITH geo AS ({_GEO_SQL}), rects AS ({_RECT_SQL})
SELECT doc_id, rect_id
FROM geo JOIN rects
  ON lon > x0 AND lon < x0 + w AND lat > y0 AND lat < y0 + h
"""


def _take_rows_where(ds, col: str, below: int, sort_col: str):
    """Vectorized predicate pull of a handful of rows (no per-row
    Python filter pass)."""
    def mask(b: dict) -> dict:
        keep = np.asarray(b[col]) < below
        return {k: np.asarray(v)[keep] for k, v in b.items()}

    rows = ds.map_batches(mask, batch_format="numpy").take_all()
    return sorted(rows, key=lambda r: r[sort_col])


def _query_rows(sf_dir: str, table: str, col: str, below: int):
    """Pull the handful of query rows (id < below) straight from the
    parquet file with a pushed row filter — a side-input read, not a
    full Ray pass over the table (q14 was spending ~2/3 of its wall
    clock pulling 5 rows). Falls back to the Dataset pass for
    non-parquet sources."""
    import os

    path = f"{sf_dir}/{table}.parquet"
    if os.path.isfile(path):
        import pyarrow.dataset as pads

        t = pads.dataset(path).to_table(filter=pads.field(col) < below)
        rows = t.sort_by(col).to_pylist()
        return rows
    return _take_rows_where(_read(sf_dir, table), col, below, col)


def _q10_knn(sf_dir: str):
    """kNN over cell rings (ring-pruned exact search; planar webmerc
    metric matches the SQL oracle)."""
    from proj_ray.stages import knn_cells

    geo = _docs_geo(sf_dir)
    qlon, qlat = _geo_query_points(5)
    res = knn_cells(geo, qlon, qlat, k=5, id_col="doc_id")
    res = res.rename(columns={"q": "qid", "nid": "neighbor_id"})
    res["qid"] = res["qid"].astype("int64")
    res["neighbor_id"] = res["neighbor_id"].astype("int64")
    res["rank"] = res["rank"].astype("int64")
    return res[["qid", "neighbor_id", "rank"]]


_Q10_SQL = f"""
WITH geo AS ({_GEO_SQL}),
m AS (SELECT doc_id, 6378137.0*radians(lon) AS x,
             6378137.0*ln(tan(pi()/4 + radians(lat)/2)) AS y FROM geo),
q AS (SELECT * FROM m WHERE doc_id < 5),
d AS (SELECT q.doc_id AS qid, m.doc_id AS neighbor_id,
             (q.x-m.x)*(q.x-m.x) + (q.y-m.y)*(q.y-m.y) AS d2
      FROM q CROSS JOIN m),
r AS (SELECT qid, neighbor_id,
             ROW_NUMBER() OVER (PARTITION BY qid
                                ORDER BY d2, neighbor_id) AS rank
      FROM d)
SELECT qid, neighbor_id, CAST(rank AS BIGINT) AS rank
FROM r WHERE rank <= 5
"""


_Q28_DEFN = ("+proj=pipeline +step +proj=cart +ellps=intl "
             "+step +proj=helmert +x=-81.1 +y=-89.4 +z=-115.8 "
             "+rx=0.485 +ry=0.024 +rz=0.413 +s=-0.54 "
             "+convention=position_vector")


def _q28_datum_shift(sf_dir: str):
    """Datum shift as geocentric XYZ: geographic (intl ellipsoid) ->
    cart -> 7-param position-vector Helmert (EPSG:1626 ED50->WGS84
    params) — forward-only trig, so the exact chain is reproducible in
    SQL (small-angle PV matrix, transforms.py:189-233)."""
    from proj_ray.factory import create_operation

    op = create_operation(_Q28_DEFN)

    def shift(b: dict) -> dict:
        keep = np.abs(b["lat"]) < 89.9
        i = np.asarray(b["doc_id"])[keep]
        lam = np.radians(np.asarray(b["lon"])[keep])
        phi = np.radians(np.asarray(b["lat"])[keep])
        gx, gy, gz, _ = op.fwd((lam, phi, np.zeros(len(i)),
                                np.full(len(i), np.inf)))
        return {"doc_id": i, "gx": gx, "gy": gy, "gz": gz}

    return _docs_geo(sf_dir).map_batches(shift, batch_format="numpy")


# exact mirror of cart (transforms.py:46-55) + small-angle PV helmert
# (transforms.py:189-241): X' = T + (1+s*1e-6) * R_pv @ X
_Q28_SQL = f"""
WITH geo AS ({_GEO_SQL}),
c AS (SELECT doc_id, radians(lon) AS lam, radians(lat) AS phi
      FROM geo WHERE abs(lat) < 89.9),
n AS (SELECT doc_id, lam, phi,
        6378388.0/sqrt(1 - ((1.0/297.0)*(2 - 1.0/297.0))
                         * sin(phi)*sin(phi)) AS nu
      FROM c),
xyz AS (SELECT doc_id,
        nu*cos(phi)*cos(lam) AS x,
        nu*cos(phi)*sin(lam) AS y,
        (nu*(1 - (1.0/297.0)*(2 - 1.0/297.0)))*sin(phi) AS z
      FROM n),
p AS (SELECT radians(0.485/3600.0) AS rx, radians(0.024/3600.0) AS ry,
             radians(0.413/3600.0) AS rz, 1 + (-0.54)*1e-6 AS sc)
SELECT doc_id,
  -81.1 + sc*(x - rz*y + ry*z) AS gx,
  -89.4 + sc*(rz*x + y - rx*z) AS gy,
  -115.8 + sc*(-ry*x + rx*y + z) AS gz
FROM xyz, p
"""


def _index_dir(kind: str, sf_dir: str) -> tuple[str, bool]:
    """Stable per-(kind, sf_dir) index directory under /tmp: the
    persistent indexes (IVF lists, kNN cells) are built once and
    reused across query invocations — build-once probe-many is the
    entire point of the indexed layouts."""
    import hashlib
    import os

    tag = hashlib.blake2b(sf_dir.encode(), digest_size=6).hexdigest()
    path = f"/tmp/proj_ray_{kind}_{tag}"
    ready = os.path.isfile(os.path.join(path, f"{kind}_ready"))
    os.makedirs(path, exist_ok=True)
    return path, ready


def _mark_ready(kind: str, path: str) -> None:
    import os

    with open(os.path.join(path, f"{kind}_ready"), "w") as f:
        f.write("ok")


def _q27_knn_indexed(sf_dir: str):
    """kNN via the persistent cell-partitioned layout (knn_build once,
    ring probes read only window partitions — I/O-pruned; the 100-TB
    shape). Same oracle as q10; results must hash-match it."""
    import tempfile

    from proj_ray.stages import knn_build, knn_index

    geo = _docs_geo(sf_dir)
    qlon, qlat = _geo_query_points(5)
    path, ready = _index_dir("knn", sf_dir)
    if not ready:
        knn_build(geo, path, id_col="doc_id", k_hint=5)
        _mark_ready("knn", path)
    res = knn_index(path, qlon, qlat, k=5)
    res = res.rename(columns={"q": "qid", "nid": "neighbor_id"})
    res["qid"] = res["qid"].astype("int64")
    res["neighbor_id"] = res["neighbor_id"].astype("int64")
    res["rank"] = res["rank"].astype("int64")
    return res[["qid", "neighbor_id", "rank"]]


def _q11_dedup_exact(sf_dir: str):
    from proj_ray.functions.dedup import dedup_exact

    return dedup_exact(_read(sf_dir, "documents",
                              columns=["doc_id", "text"]),
                       "text", "doc_id")


_Q11_SQL = "SELECT text, MIN(doc_id) AS doc_id FROM documents GROUP BY text"


def _q12_token_stats(sf_dir: str):
    from proj_ray.functions.text import simple_token_count

    ds = _read(sf_dir, "documents", columns=["lang", "n_chars", "text"])

    def feats(b: dict) -> dict:
        return {"lang": b["lang"],
                "one": np.ones(len(b["lang"]), np.int64),
                "n_chars": b["n_chars"],
                "n_tokens": simple_token_count(b["text"])}

    return pull_pandas(bucketed_sum(
        ds.map_batches(feats, batch_format="numpy"), "lang",
        ["one", "n_chars", "n_tokens"],
        ["n_docs", "sum_chars", "sum_tokens"]))


_Q12_SQL = """
SELECT lang, COUNT(*) AS n_docs,
       CAST(SUM(n_chars) AS BIGINT) AS sum_chars,
       CAST(SUM(CASE WHEN length(text) > 0
           THEN length(text) - length(replace(text, ' ', '')) + 1
           ELSE 0 END) AS BIGINT) AS sum_tokens
FROM documents GROUP BY lang
"""


def _q13_part_brand(sf_dir: str):
    """Broadcast small side (part) into the lineitem scan, pre-aggregate
    per batch, then a tiny keyed sum — no shuffle of lineitem rows."""
    import ray

    from proj_ray.stages import BroadcastLookup

    part = _read(sf_dir, "part",
                 columns=["p_partkey", "p_brand"]).to_pandas()
    # sparse sorted-key lookup: memory O(#parts), not O(max partkey);
    # above dsutil.BROADCAST_ROWS a caller should fall back to a
    # hash-shuffle join, as q52 does for its dimensions
    ref = ray.put(BroadcastLookup(part["p_partkey"].to_numpy(),
                                  {"brand": part["p_brand"].to_numpy()}))

    def tag(b: dict) -> dict:
        vals, _ = ray.get(ref).take(np.asarray(b["l_partkey"],
                                               dtype=np.int64))
        brand = vals["brand"]
        import pandas as pd

        df = pd.DataFrame({
            "p_brand": brand,
            "qty_c": _milli(b["l_quantity"], 100)})
        g = df.groupby("p_brand", as_index=False).agg(
            partial_qty=("qty_c", "sum"),
            partial_n=("qty_c", "size"))
        return {k: g[k].to_numpy() for k in g.columns}

    out = pull_pandas(bucketed_sum(
        _read(sf_dir, "lineitem", columns=["l_partkey", "l_quantity"])
        .map_batches(tag, batch_format="numpy"), "p_brand",
        ["partial_qty", "partial_n"], ["qty_sum", "n_items"]))
    out["sum_qty"] = out["qty_sum"] / 100.0
    return out[["p_brand", "sum_qty", "n_items"]]


_Q13_SQL = """
SELECT p_brand,
       SUM(CAST(ROUND(l_quantity*100, 0) AS BIGINT)) / 100.0 AS sum_qty,
       COUNT(*) AS n_items
FROM lineitem JOIN part ON l_partkey = p_partkey
GROUP BY p_brand
"""


def _q14_ann(sf_dir: str):
    from proj_ray.functions.ann import ann_brute

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qrows = _query_rows(sf_dir, "embeddings", "vec_id", 5)
    Q = np.stack([np.asarray(r["embedding"], dtype=np.float64)
                  for r in qrows])
    res = ann_brute(ds, Q, k=5)
    res = res.rename(columns={"q": "qid", "nid": "neighbor_id"})
    res["qid"] = res["qid"].astype("int64")
    res["neighbor_id"] = res["neighbor_id"].astype("int64")
    res["rank"] = res["rank"].astype("int64")
    return res[["qid", "neighbor_id", "rank"]]


_Q14_SQL = """
WITH q AS (SELECT vec_id AS qid, embedding FROM embeddings
           WHERE vec_id < 5),
d AS (SELECT q.qid, e.vec_id AS neighbor_id,
             list_cosine_similarity(q.embedding, e.embedding) AS cos
      FROM q CROSS JOIN embeddings e),
r AS (SELECT qid, neighbor_id,
             ROW_NUMBER() OVER (PARTITION BY qid
                                ORDER BY cos DESC, neighbor_id) AS rank
      FROM d)
SELECT qid, neighbor_id, CAST(rank AS BIGINT) AS rank
FROM r WHERE rank <= 5
"""


def _q15_region_nation(sf_dir: str):
    nation = _read(sf_dir, "nation").to_pandas()
    region = _read(sf_dir, "region").to_pandas()
    rn = dict(zip(region["r_regionkey"], region["r_name"]))
    nation["r_name"] = nation["n_regionkey"].map(rn)
    cust = _read(sf_dir, "customer", columns=["c_nationkey"])
    nmap = dict(zip(nation["n_nationkey"], nation["r_name"]))

    def tag(b: dict) -> dict:
        import pandas as pd

        r = pd.Series(np.asarray(b["c_nationkey"])).map(nmap)
        return {"r_name": r.to_numpy(), "one": np.ones(len(r), np.int64)}

    return bucketed_sum(cust.map_batches(tag, batch_format="numpy"),
                        "r_name", "one", "n_cust")


_Q15_SQL = """
SELECT r_name, COUNT(*) AS n_cust
FROM customer
JOIN nation ON c_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name
"""


# --- rows-only queries (no SQL equivalent; verified in pytest instead) ----


def _q16_utm(sf_dir: str):
    """UTM zone 31 over the docs geotags, rounded to 0.1 mm (the q05
    closed-form-oracle pattern). The SQL oracle mirrors the
    Poder/Engsager etmerc kernel op-for-op — gatg + complex Clenshaw
    with the zone-31/WGS84 coefficient literals — so both sides agree
    to ULPs before the shared rounding."""
    from proj_ray.stages import reproject

    ds = reproject(_docs_geo(sf_dir), "+proj=utm +zone=31 +ellps=WGS84",
                   out_x="utm_x", out_y="utm_y")

    def pick(b: dict) -> dict:
        return {"doc_id": b["doc_id"],
                "utm_x": np.round(b["utm_x"], 4),
                "utm_y": np.round(b["utm_y"], 4)}

    return ds.map_batches(pick, batch_format="numpy")


# Mirrors proj_ray/ops/projections.py Tmerc._exact_fwd (Poder/Engsager,
# parity target tmerc.cpp:326-485) with the +proj=utm +zone=31 +ellps=WGS84
# constants inlined; Clenshaw recurrences unrolled as lateral column
# aliases in evaluation order so DuckDB doubles track numpy to ULPs.
# cbg/gtu = _etmerc_coeffs(n_WGS84, 0.9996, 0); Qn likewise; Zb = -0.
_Q16_SQL = f"""
WITH geo AS ({_GEO_SQL}),
k AS (
  SELECT doc_id,
         radians(lat) AS phi,
         radians(lon) - 0.05235987755982974 AS lr
  FROM geo),
w AS (
  SELECT doc_id, phi,
         CASE WHEN abs(lr) >= pi() + 1e-12
              THEN ((lr + pi()) - 2*pi()*floor((lr + pi())/(2*pi()))) - pi()
              ELSE lr END AS lam
  FROM k),
g AS (
  SELECT doc_id, phi, lam,
         2*cos(2*phi) AS tc,
         tc*(6.38914750082173e-17) + (-3.1032922415383115e-14) AS ga,
         -(6.38914750082173e-17) + tc*ga + (1.5579966828591905e-11) AS gb,
         -ga + tc*gb + (-8.194497547212902e-09) AS gc,
         -gb + tc*gc + (4.694573027162594e-06) AS gd,
         -gc + tc*gd + (-0.003356554619797427) AS ge,
         phi + ge*sin(2*phi) AS cn0
  FROM w),
t AS (
  SELECT doc_id, lam, cn0,
         sin(cn0) AS sc, cos(cn0) AS cc,
         sin(lam) AS se, cos(lam) AS ce,
         cc*ce AS ccc,
         atan2(sc, ccc) AS cn1,
         1.0/sqrt(sc*sc + ccc*ccc) AS invd,
         se*cc*invd AS tce,
         ln(tce + sqrt(tce*tce + 1.0)) AS ce0,
         2*invd AS twoinv,
         twoinv*invd AS twoinvsq,
         ccc*twoinvsq AS tmpr,
         sc*tmpr AS sar,
         ccc*tmpr - 1 AS car,
         tce*twoinv AS shi,
         twoinvsq - 1 AS chi
  FROM g),
s AS (
  SELECT doc_id, cn1, ce0,
         2*car*chi AS r,
         -2*sar*shi AS im,
         r*(1.4911177312583874e-17) + (5.711757677865798e-15) AS hra,
         im*(1.4911177312583874e-17) AS hia,
         -(1.4911177312583874e-17) + r*hra - im*hia
             + (2.4291706072013566e-12) AS hrb,
         im*hra + r*hia AS hib,
         -hra + r*hrb - im*hib + (1.1976455033294517e-09) AS hrc,
         -hia + im*hrb + r*hib AS hic,
         -hrb + r*hrc - im*hic + (7.608527773572304e-07) AS hrd,
         -hib + im*hrc + r*hic AS hid,
         -hrc + r*hrd - im*hid + (0.0008377318206244696) AS hre,
         -hic + im*hrd + r*hid AS hie,
         sar*chi AS rr,
         car*shi AS ii,
         cn1 + (rr*hre - ii*hie) AS cn,
         ce0 + (rr*hie + ii*hre) AS ce
  FROM t)
SELECT doc_id,
       CASE WHEN abs(ce) <= 2.623395162778
            THEN ROUND((0.9979249687118802*ce)*6378137.0 + 500000.0, 4)
            ELSE CAST('infinity' AS DOUBLE) END AS utm_x,
       CASE WHEN abs(ce) <= 2.623395162778
            THEN ROUND(((0.9979249687118802*cn) + (-0.0))*6378137.0 + 0.0, 4)
            ELSE CAST('infinity' AS DOUBLE) END AS utm_y
FROM s
"""


def _q17_geodesic(sf_dir: str):
    """Karney geodesic INVERSE from (0,0) to each doc geotag. Oracle:
    the Newton loop unrolled in SQL (_gen_q17_sql) — converged lanes
    freeze, so a fixed 8-iteration unroll reproduces numpy's masked
    loop bit-for-bit (measured max 5 iterations on this data; margin
    asserted in tests/test_entry_oracles.py). Distance rounded to
    0.1 mm, azimuth to 1e-7 deg, on both sides."""
    from proj_ray.geodesic import WGS84_GEOD

    def dist(b: dict) -> dict:
        lat = np.clip(b["lat"], -89.9, 89.9)
        s, a1, _ = WGS84_GEOD.inverse(
            np.zeros_like(lat), np.zeros_like(lat), lat, b["lon"])
        return {"doc_id": b["doc_id"], "dist_m": np.round(s, 4),
                "azi": np.round(a1, 7)}

    return _docs_geo(sf_dir).map_batches(dist, batch_format="numpy")


def _q18_text_quality(sf_dir: str):
    from proj_ray.functions.text import text_stats

    out = text_stats(_read(sf_dir, "documents",
                           columns=["doc_id", "text"]))
    return out.select_columns(["doc_id", "n_tokens", "quality",
                               "lang_guess", "fingerprint"])


_STOPLIST_SQL = ", ".join(
    f"'{w}'" for w in
    ("the and of a to in is it that was for on are as with they be at "
     "one have this from or had by word but what some we can out other "
     "were all there when up use your how said an each she").split())

_LANG_HINTS_SQL = {
    "en": (" th", "the", " an", "and", "ing", " of", "ion"),
    "de": ("der", "die", "und", "sch", "ein", "ich", "cht"),
    "fr": (" le", "les", " de", "ent", "que", "ion", " la"),
    "es": (" de", " la", "que", "ión", " el", "los", "ado"),
}


def _lang_count_sql(g: str) -> str:
    gg = g.replace("'", "''")
    return (f"(length(sl) - length(replace(sl, '{gg}', ''))) / {len(g)}")


_LANG_SCORES_SQL = {
    lang: " + ".join(_lang_count_sql(g) for g in grams)
    for lang, grams in _LANG_HINTS_SQL.items()}

# Fingerprint: base-256 polynomial of the document bytes mod the
# Mersenne prime 2^61-1 (int.from_bytes % p on the Ray side). The SQL
# regenerates 256^k mod p with a recursive CTE and folds each char with
# HUGEINT arithmetic (terms < 2^69, sum < 2^79 < 2^127). quality is the
# identical double expression, same operation order, so it hashes
# bit-equal. lang_guess reproduces the argmax-earliest tie rule with a
# CASE chain. Corpus alphabet is [a-z ] (asserted by the punct term
# being the constant 0.3), so letter runs == space tokens.
_Q18_SQL = f"""
WITH RECURSIVE pw(k, v) AS (
  SELECT 0, 1::HUGEINT
  UNION ALL
  SELECT k+1, (v * 256) % 2305843009213693951 FROM pw
  WHERE k < (SELECT max(length(text)) FROM documents)
),
nums AS (
  SELECT unnest(generate_series(
      1, (SELECT max(length(text)) FROM documents))) AS i
),
fp AS (
  SELECT d.doc_id,
         CAST(SUM(ascii(substr(d.text, n.i::INT, 1))::HUGEINT * pw.v)
              % 2305843009213693951 AS BIGINT) AS fingerprint
  FROM documents d
  JOIN nums n ON n.i <= length(d.text)
  JOIN pw ON pw.k = length(d.text) - n.i::INT
  GROUP BY d.doc_id
),
feat AS (
  SELECT doc_id,
    CASE WHEN length(text) > 0
         THEN length(text) - length(replace(text, ' ', '')) + 1
         ELSE 0 END AS n_tokens,
    length(text) AS n_chars,
    len(regexp_extract_all(text, '[a-z]+')) AS n_words,
    len(list_filter(regexp_extract_all(text, '[a-z]+'),
                    t -> t IN ({_STOPLIST_SQL}))) AS n_stop,
    ' ' || substr(text, 1, 400) || ' ' AS sl
  FROM documents
),
scored AS (
  SELECT doc_id, n_tokens, n_chars, n_words, n_stop,
    {_LANG_SCORES_SQL['en']} AS s_en,
    {_LANG_SCORES_SQL['de']} AS s_de,
    {_LANG_SCORES_SQL['fr']} AS s_fr,
    {_LANG_SCORES_SQL['es']} AS s_es
  FROM feat
)
SELECT s.doc_id, s.n_tokens,
  LEAST(s.n_chars / 200.0, 1.0) * 0.4 + 1.0 * 0.3
  + LEAST(s.n_stop / CAST(GREATEST(s.n_words, 1) AS DOUBLE), 0.8)
    / 0.8 * 0.3 AS quality,
  CASE WHEN s.s_en=0 AND s.s_de=0 AND s.s_fr=0 AND s.s_es=0 THEN 'unk'
       WHEN s.s_en>=s.s_de AND s.s_en>=s.s_fr AND s.s_en>=s.s_es
         THEN 'en'
       WHEN s.s_de>=s.s_fr AND s.s_de>=s.s_es THEN 'de'
       WHEN s.s_fr>=s.s_es THEN 'fr' ELSE 'es' END AS lang_guess,
  fp.fingerprint
FROM scored s JOIN fp ON fp.doc_id = s.doc_id
"""


def _q19_minhash_pairs(sf_dir: str):
    """MinHash LSH candidates + exact char-5-gram Jaccard verify.
    Oracle: the SQL computes the SAME exact-jaccard pair set from
    substring 5-grams, so the gate also proves the LSH bands lose no
    pair at this threshold (planted near-dups sit at J >= 0.9, where
    16-band/4-row miss probability is < 1e-7). The engine's rolling
    window hash is collision-free on the [a-z0-9 ] corpus alphabet, so
    hashed-set jaccard == substring-set jaccard."""
    from proj_ray.functions.dedup import dedup_minhash_lsh

    return dedup_minhash_lsh(_read(sf_dir, "documents",
                                   columns=["doc_id", "text"]),
                             "text", "doc_id", threshold=0.6)


_Q19_SQL = """
WITH nums AS (
  SELECT unnest(generate_series(
      1, (SELECT max(length(text)) FROM documents))) AS i
),
g AS (
  SELECT DISTINCT d.doc_id, substr(d.text, n.i::INT, 5) AS gram
  FROM documents d JOIN nums n ON n.i <= length(d.text) - 4
),
c AS (SELECT doc_id, count(*) AS sz FROM g GROUP BY doc_id),
p AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS shared
  FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
  GROUP BY 1, 2)
SELECT p.id_a, p.id_b,
       CAST(p.shared AS DOUBLE) / (ca.sz + cb.sz - p.shared) AS jaccard
FROM p
JOIN c ca ON ca.doc_id = p.id_a
JOIN c cb ON cb.doc_id = p.id_b
WHERE CAST(p.shared AS DOUBLE) / (ca.sz + cb.sz - p.shared) >= 0.6
"""


def _q20_simhash(sf_dir: str):
    """SimHash signatures. Oracle-checkable because the char-4-gram
    hash is a base-31 byte polynomial (< 2^23, so only 24 sign votes
    are ever nonzero) the SQL regenerates arithmetically per window;
    each simhash bit is a majority vote the SQL expresses as
    CASE WHEN 2*SUM(bit) > COUNT(*)."""
    from proj_ray.functions.dedup import simhash64

    def sh(b: dict) -> dict:
        return {"doc_id": b["doc_id"],
                "simhash": simhash64([str(t) for t in b["text"]])}

    return _read(sf_dir, "documents",
                 columns=["doc_id", "text"]).map_batches(
        sh, batch_format="numpy", batch_size=2048)


_Q20_BITS = " + ".join(
    f"CASE WHEN 2*SUM((h >> {j}) & 1) > COUNT(*) "
    f"THEN {1 << j}::BIGINT ELSE 0::BIGINT END"
    for j in range(24))

_Q20_SQL = f"""
WITH nums AS (
  SELECT unnest(generate_series(
      1, (SELECT max(length(text)) FROM documents))) AS i
),
w AS (
  SELECT d.doc_id,
         ascii(substr(d.text, n.i::INT,     1)) * 29791
       + ascii(substr(d.text, n.i::INT + 1, 1)) * 961
       + ascii(substr(d.text, n.i::INT + 2, 1)) * 31
       + ascii(substr(d.text, n.i::INT + 3, 1)) AS h
  FROM documents d JOIN nums n ON n.i <= length(d.text) - 3
)
SELECT doc_id, ({_Q20_BITS}) AS simhash FROM w GROUP BY doc_id
"""


def _q21_images_tiles(sf_dir: str):
    """Flagship slice over the synthetic images table: cells + tiles +
    per-tile counts (rows scale with sf via documents row count).
    Per-batch partial counts collapse each block to its distinct
    tiles, then one keyed sum finishes the aggregation — no sort
    shuffle below the driver cap: the z=7 tile domain is bounded
    (<=16k), so the partial table is bounded by tiles x blocks, never
    by images. Zipf-hotspot tiles arrive pre-combined per block."""
    import pandas as pd

    from proj_ray.images import images_table
    from proj_ray.stages import with_cells, with_tiles

    n = _read(sf_dir, "documents").count() * 4
    # read the cached stored table, pruning to the geotag columns —
    # the blobs never leave storage for a tiling query
    ds = images_table(n, columns=["lon", "lat"], small_as_one_block=True)
    ds = with_cells(ds, level=7)
    ds = with_tiles(ds, zoom=7)
    keys = ["tile_z", "tile_x", "tile_y"]

    def partial(b: dict) -> dict:
        g = (pd.DataFrame({k: b[k] for k in keys})
             .groupby(keys, as_index=False).size())
        return {**{k: g[k].to_numpy() for k in keys},
                "n_part": g["size"].to_numpy()}

    return pull_pandas(bucketed_sum(
        ds.map_batches(partial, batch_format="numpy", batch_size=65536),
        keys, "n_part", "n_images"))


# the synthetic images table's geotags (proj_ray/images.py:40-62) are
# pure integer/double arithmetic, so DuckDB can regenerate them exactly:
# golden-ratio scatter + 4 Zipf hotspots (18%) + invalid tail (lat=91)
_IMG_GEO_SQL = """
SELECT i,
  CASE WHEN hsel < 180 THEN
    (CASE which WHEN 0 THEN -74.0060 WHEN 1 THEN 2.3522
                WHEN 2 THEN 139.6917 ELSE -118.2437 END) + jlon
  ELSE lon0 END AS lon,
  CASE WHEN invalid THEN 91.0 WHEN hsel < 180 THEN
    (CASE which WHEN 0 THEN 40.7128 WHEN 1 THEN 48.8566
                WHEN 2 THEN 35.6895 ELSE 34.0522 END) + jlat
  ELSE lat0 END AS lat
FROM (
  SELECT i,
    fmod(i * 0.6180339887498949, 1.0) * 360.0 - 180.0 AS lon0,
    fmod(i * 0.7548776662466927, 1.0) * 170.1022 - 85.0511 AS lat0,
    (i * 2654435761) % 1000 AS hsel,
    i % 4 AS which,
    (((i * 7919) % 1000) / 1000.0 - 0.5) * 0.5 AS jlon,
    (((i * 104729) % 1000) / 1000.0 - 0.5) * 0.5 AS jlat,
    ((i * 31337) % 10000) < 20 AS invalid
  FROM (SELECT CAST(ROW_NUMBER() OVER () - 1 AS BIGINT) AS i
        FROM documents, range({mult}))
)
"""

# spherical webmerc tile via asinh written as ln(t+sqrt(t^2+1)) — valid
# for |lat| > 90 too (the invalid tail), matching cells.tile_xy's clamp
_TILE_SQL = ("CAST(LEAST(GREATEST(floor((radians(lon) + pi())/(2*pi())"
             " * {n}), 0), {n} - 1) AS BIGINT) AS tile_x,"
             " CAST(LEAST(GREATEST(floor((pi() - ln(tan(radians(lat))"
             " + sqrt(tan(radians(lat))*tan(radians(lat)) + 1)))"
             "/(2*pi()) * {n}), 0), {n} - 1) AS BIGINT) AS tile_y")

_Q21_SQL = f"""
WITH img AS ({_IMG_GEO_SQL.format(mult=4)}),
t AS (SELECT {_TILE_SQL.format(n=128)} FROM img)
SELECT CAST(7 AS BIGINT) AS tile_z, tile_x, tile_y,
       COUNT(*) AS n_images
FROM t GROUP BY tile_x, tile_y
"""

_Q22_SQL = f"""
WITH img AS ({_IMG_GEO_SQL.format(mult=2)}),
rects AS ({_RECT_SQL})
SELECT printf('img%012d', i) AS image_id, rect_id AS poly_id, lon, lat
FROM img JOIN rects
  ON lon > x0 AND lon < x0 + w AND lat > y0 AND lat < y0 + h
"""


def _q22_images_join(sf_dir: str):
    from proj_ray.images import images_table
    from proj_ray.join import PolygonIndex
    from proj_ray.stages import spatial_join

    ids = [r[0] for r in _RECTS]
    rx = [np.array([x0, x0 + w, x0 + w, x0]) for _, x0, y0, w, h in _RECTS]
    ry = [np.array([y0, y0, y0 + h, y0 + h]) for _, x0, y0, w, h in _RECTS]
    idx = PolygonIndex(ids, rx, ry)
    n = _read(sf_dir, "documents").count() * 2
    out = spatial_join(images_table(n, columns=["image_id", "lon", "lat"],
                                    small_as_one_block=True),
                       idx, how="inner")

    def pick(b):
        return b[["image_id", "poly_id", "lon", "lat"]]

    return out.map_batches(pick, batch_format="pandas")


def _q23_ivf(sf_dir: str):
    """IVF driven in exact mode (nprobe == nlists) so the full list
    routing + per-list probe + distributed top-k merge machinery is on
    the oracle-checked path; it must reproduce the brute-force top-k
    bit-for-bit (same SQL oracle as q14). The approximate/recall and
    I/O-pruning properties are pytest-covered (tests/test_functions.py
    ann_ivf recall + ivf_build partition-pruned)."""
    from proj_ray.functions.ann import ann_ivf, train_centroids

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qrows = _query_rows(sf_dir, "embeddings", "vec_id", 5)
    Q = np.stack([np.asarray(r["embedding"], dtype=np.float64)
                  for r in qrows])
    C = train_centroids(ds)
    res = ann_ivf(ds, Q, k=5, centroids=C, nprobe=len(C))
    res = res.rename(columns={"q": "qid", "nid": "neighbor_id"})
    res["qid"] = res["qid"].astype("int64")
    res["neighbor_id"] = res["neighbor_id"].astype("int64")
    res["rank"] = res["rank"].astype("int64")
    return res[["qid", "neighbor_id", "rank"]]


def _q24_dedup_images(sf_dir: str):
    """Content dedup over the synthetic images table: decode every blob
    back to pixels, RECOMPUTE the perceptual hash from the decoded
    pixels (so the codec round-trip is on the measured path — planted
    duplicates are byte-identical, hence decode-identical), key each
    image by a vectorized 64-bit splitmix64 fold of its decoded pixel
    buffer (content_digest64 — one numpy pass per size class, no
    per-image hashlib; the oracle models content CYCLES, not the
    digest value, so any deterministic injective-enough key works),
    then
    keep the min image_id per content group and return the winner ids.
    The winner set is arithmetically derivable (proj_ray/images.py
    make_images_batch: row i>0 with i%97==0 duplicates row i-1), which
    is what the SQL oracle reproduces — any codec round-trip corruption
    changes a digest, breaks the group structure, and fails the hash.
    (Perceptual-hash grouping is NOT the key here on purpose: the 8x8
    average hash genuinely collides for unrelated tiny synthetic
    images; phash dedup stays pytest-covered in tests/test_images.py.)
    """
    from proj_ray.functions._hash import content_digest64
    from proj_ray.functions.dedup import dedup_exact
    from proj_ray.images import decode, images_table

    n = _read(sf_dir, "documents").count()

    class Rehash:
        def __call__(self, b: dict) -> dict:
            # decode is per-blob by nature (variable-length compressed
            # input); the digest is one vectorized fold per size class.
            bufs = [decode(b["bytes"][k], b["fmt"][k]).tobytes()
                    for k in range(len(b["image_id"]))]
            return {"image_id": b["image_id"],
                    "pix_key": content_digest64(bufs)}

    # decode on an actor pool: actor stages never fuse with the
    # downstream task-based dedup combine (whose batch_size=65536
    # coalesce would otherwise pull every decode into one task)
    ds = images_table(n, columns=["image_id", "bytes", "fmt"]) \
        .map_batches(Rehash, batch_format="numpy", batch_size=512,
                     concurrency=(1, 8))
    return dedup_exact(ds, "pix_key", "image_id") \
        .select_columns(["image_id"])


def _q26_ann_ivf_indexed(sf_dir: str):
    """The 100-TB ANN shape: vectors routed once into per-list parquet
    partitions, queries read only their nprobe list partitions
    (I/O-pruned probe; still approximate at nprobe=14/32 lists —
    recall@5 vs the exact top-k measured 0.76/0.88/0.72 at the three
    scales, bound pytest-enforced; the trained-centroid path with
    better partitions stays covered by q23 + pytest). Routing runs
    in ORACLE-EXACT mode: centroids are the deterministic equal-norm
    distinct-row Hadamard +-1 basis (proj_ray/functions/ann.py
    formula_centroids) and both vector assignment and probe-list
    selection use exact int64 dot products on floor(v*1e6+0.5)
    quantized vectors with the SQL ROW_NUMBER tie-break, so a DuckDB
    oracle reproduces the probed candidate set and the final cosine
    top-k bit-for-bit."""
    from proj_ray.functions.ann import (ann_ivf_index, formula_centroids,
                                        ivf_build)

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qrows = _query_rows(sf_dir, "embeddings", "vec_id", 5)
    Q = np.stack([np.asarray(r["embedding"], dtype=np.float64)
                  for r in qrows])
    # kind tag versioned: v2 = distinct-row Hadamard centroid basis +
    # floor(v*scale+0.5) quantization (stale v1 caches must not serve)
    path, ready = _index_dir("ivff2", sf_dir)
    if not ready:
        ivf_build(ds, path, centroids=formula_centroids(32, Q.shape[1]),
                  quantize=1_000_000)
        _mark_ready("ivff2", path)
    res = ann_ivf_index(path, Q, k=5, nprobe=14, quantize=1_000_000)
    res = res.rename(columns={"q": "qid", "nid": "neighbor_id"})
    res["qid"] = res["qid"].astype("int64")
    res["neighbor_id"] = res["neighbor_id"].astype("int64")
    res["rank"] = res["rank"].astype("int64")
    return res[["qid", "neighbor_id", "rank"]]


_Q26_SQL = """
WITH base AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb
              FROM embeddings),
vq AS (SELECT vec_id, d.i AS d,
              CAST(floor(emb[CAST(d.i AS INT) + 1] * 1000000 + 0.5)
                   AS BIGINT) AS v
       FROM base, range(64) d(i)),
cent AS (SELECT l.i AS l, d.i AS d,
                CAST(1 - 2 * (bit_count(l.i & (d.i % 32)) % 2)
                     AS BIGINT) AS s
         FROM range(32) l(i), range(64) d(i)),
adot AS (SELECT vec_id, l, SUM(v * s) AS dot
         FROM vq JOIN cent USING (d) GROUP BY vec_id, l),
alist AS (SELECT vec_id, l FROM (
            SELECT vec_id, l, ROW_NUMBER() OVER (
                PARTITION BY vec_id ORDER BY dot DESC, l) AS rn
            FROM adot) WHERE rn = 1),
probe AS (SELECT vec_id AS qid, l FROM (
            SELECT vec_id, l, ROW_NUMBER() OVER (
                PARTITION BY vec_id ORDER BY dot DESC, l) AS rn
            FROM adot WHERE vec_id < 5) WHERE rn <= 14),
d2 AS (SELECT p.qid, a.vec_id AS neighbor_id,
              list_cosine_similarity(q.emb, b.emb) AS cos
       FROM probe p
       JOIN base q ON q.vec_id = p.qid
       JOIN alist a ON a.l = p.l
       JOIN base b ON b.vec_id = a.vec_id),
r AS (SELECT qid, neighbor_id,
             ROW_NUMBER() OVER (PARTITION BY qid
                                ORDER BY cos DESC, neighbor_id) AS rank
      FROM d2)
SELECT qid, neighbor_id, CAST(rank AS BIGINT) AS rank
FROM r WHERE rank <= 5
"""


def _q25_merc_scale(sf_dir: str):
    """Distortion factors (proj_factors kernel, numerical derivatives)
    vs the Mercator closed form — SQL-checkable because merc's k has a
    closed form sqrt(1-es sin^2 phi)/cos phi; rounding to 4 dp leaves
    the ~1e-9 numerical-derivative error far from a rounding edge."""
    from proj_ray.factors import with_factors

    ds = _docs_geo(sf_dir)

    def clamp(b: dict) -> dict:
        keep = np.abs(b["lat"]) < 80.0
        return {k: np.asarray(v)[keep] for k, v in b.items()}

    ds = with_factors(ds.map_batches(clamp, batch_format="numpy"),
                      "+proj=merc +ellps=WGS84",
                      fields=("parallel_scale", "areal_scale"))

    def rnd(b: dict) -> dict:
        return {"doc_id": b["doc_id"],
                "k": np.round(b["parallel_scale"], 4),
                "s": np.round(b["areal_scale"], 4)}

    return ds.map_batches(rnd, batch_format="numpy")


_Q25_SQL = f"""
WITH geo AS ({_GEO_SQL})
SELECT doc_id,
  ROUND(sqrt(1 - 0.0066943799901413165*sin(radians(lat))*sin(radians(lat)))
        / cos(radians(lat)), 4) AS k,
  ROUND((1 - 0.0066943799901413165*sin(radians(lat))*sin(radians(lat)))
        / (cos(radians(lat)) * cos(radians(lat))), 4) AS s
FROM geo WHERE abs(lat) < 80.0
"""


def _q29_ngram_jaccard(sf_dir: str):
    """EXACT word-bigram Jaccard near-dup pairs via AllPairs prefix
    filtering (no sketch, full recall) — the n-gram Jaccard entry of
    the dedup family, SQL-oracle-checked end to end."""
    from proj_ray.functions.dedup import dedup_ngram_jaccard

    return dedup_ngram_jaccard(_read(sf_dir, "documents",
                                     columns=["doc_id", "text"]),
                               "text", "doc_id", threshold=0.5, n=2)


_Q29_SQL = """
WITH t AS (
  SELECT doc_id, string_split(lower(text), ' ') AS toks FROM documents),
b AS (
  SELECT doc_id,
         list_transform(list_zip(toks[1:len(toks)-1], toks[2:len(toks)]),
                        s -> s[1] || ' ' || s[2]) AS grams
  FROM t),
g AS (SELECT DISTINCT doc_id, unnest(grams) AS gram FROM b),
c AS (SELECT doc_id, count(*) AS sz FROM g GROUP BY doc_id),
p AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS shared
  FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
  GROUP BY 1, 2)
SELECT p.id_a, p.id_b,
       CAST(p.shared AS DOUBLE) / (ca.sz + cb.sz - p.shared) AS jaccard
FROM p
JOIN c ca ON ca.doc_id = p.id_a
JOIN c cb ON cb.doc_id = p.id_b
WHERE CAST(p.shared AS DOUBLE) / (ca.sz + cb.sz - p.shared) >= 0.5
"""


# q24's winner set is arithmetic: make_images_batch plants row i (i>0,
# i%97==0) as a byte-identical duplicate of row i-1, so per-phash-group
# min(image_id) keeps every id except the planted rows. n follows the
# documents row count (same as the Ray side). A phash collision between
# unrelated images or a codec round-trip corruption would change the
# Ray-side grouping and fail this hash.
# content classes: synth_pixels channels cycle with i mod 256 (odd
# coefficients are units mod 256) and the size/format with i mod 3, so
# pixel content repeats every lcm(256,3) = 768 rows — beyond the
# planted i%97 duplicates, rows 768 apart are ALSO byte-identical
# content, and the engine's content dedup correctly groups them
# (surfaced at sf0.1 where the table exceeds 768 rows)
_Q24_SQL = """
WITH seq AS (
  SELECT ROW_NUMBER() OVER () - 1 AS i FROM documents),
cls AS (
  SELECT i,
         (CASE WHEN i > 0 AND i % 97 = 0 THEN i - 1 ELSE i END) % 768
             AS c
  FROM seq)
SELECT 'img' || lpad(CAST(MIN(i) AS VARCHAR), 12, '0') AS image_id
FROM cls GROUP BY c
"""


def _q32_geodesic_direct(sf_dir: str):
    """Karney geodesic DIRECT problem (closed-form series — unlike the
    iterative inverse of q17, every step is a fixed expression, so a
    SQL oracle can mirror the kernel op-for-op). Start point = doc
    geotag, azimuth/distance derived arithmetically from doc_id;
    results rounded to 1e-7 deg (~1 cm) on both sides."""
    from proj_ray.geodesic import WGS84_GEOD

    def direct(b: dict) -> dict:
        i = np.asarray(b["doc_id"], dtype=np.int64)
        azi1 = (i * 34567 % 360000) / 1000.0 - 180.0
        s12 = (i * 8121 % 20000000).astype(np.float64) + 0.5
        lat2, lon2, azi2 = WGS84_GEOD.direct(b["lat"], b["lon"],
                                             azi1, s12)
        return {"doc_id": i, "lat2": np.round(lat2, 7),
                "lon2": np.round(lon2, 7), "azi2": np.round(azi2, 7)}

    return _docs_geo(sf_dir).map_batches(direct, batch_format="numpy")


def _clenshaw_sin_sql(name: str, sx: str, cx: str, coefs: list[str]
                      ) -> list[tuple[str, str]]:
    """Unroll proj_ray.geodesic.Geodesic._sin_cos_series(sinp=True)
    as (alias, expr) steps, preserving numpy evaluation order
    (ar*y0 - y1 + ck). The final step is named `name`."""
    steps = [(f"{name}_ar", f"2*({cx} - {sx})*({cx} + {sx})")]
    y0, y1 = None, None
    for j, ck in enumerate(reversed(coefs)):
        alias = f"{name}_y{j}"
        if y0 is None:
            steps.append((alias, ck))                  # ar*0 - 0 + ck
        elif y1 is None:
            steps.append((alias, f"{name}_ar*{y0} + {ck}"))
        else:
            steps.append((alias, f"{name}_ar*{y0} - {y1} + {ck}"))
        y0, y1 = alias, y0
    steps.append((name, f"2*{sx}*{cx}*{y0}"))
    return steps


def _layered_ctes(base: str, steps: list[tuple[str, str]],
                  final: str) -> str:
    """Compose (alias, expr) steps into chained CTEs, each layer's
    expressions referencing only earlier layers — DuckDB substitutes
    lateral column aliases textually, so a single deep alias chain
    explodes exponentially; one CTE per dependency layer keeps every
    subexpression evaluated exactly once."""
    import re as _re

    layer: dict[str, int] = {}
    for alias, expr in steps:
        ids = set(_re.findall(r"[A-Za-z_][A-Za-z0-9_]*", expr))
        lv = max((layer[i] for i in ids if i in layer), default=-1) + 1
        layer[alias] = lv
    n_layers = max(layer.values()) + 1
    buckets: list[list[str]] = [[] for _ in range(n_layers)]
    for alias, expr in steps:
        buckets[layer[alias]].append(f"{expr} AS {alias}")
    parts = [f"l0 AS (SELECT *, {', '.join(buckets[0])} FROM ({base}))"]
    for k in range(1, n_layers):
        parts.append(
            f"l{k} AS (SELECT *, {', '.join(buckets[k])} FROM l{k - 1})")
    return (",\n".join(parts)
            + f"\n{final.replace('LASTCTE', f'l{n_layers - 1}')}")


def _gen_q32_sql() -> str:
    """Emit the q32 oracle: the geodesic-direct series with WGS84
    constants inlined, mirroring proj_ray/geodesic.py direct()
    (parity target geodesic.c geod_direct) op-for-op so DuckDB doubles
    track numpy to ULPs before the shared 1e-7-deg rounding."""
    from proj_ray.geodesic import WGS84_GEOD as G

    f, f1, b, ep2 = (repr(G.f), repr(G.f1), repr(G.b), repr(G.ep2))
    # C1 / C1p coefficient expressions in eps (e) / eps^2 (e2) — same
    # token order as Geodesic._C1/_C1p so constant folding matches.
    c1 = ["e*(-1.0/2 + e2*(3.0/16 - e2/32))",
          "e2*(-1.0/16 + e2*(1.0/32 - 9.0*e2/2048))",
          "e*e2*(-1.0/48 + e2*3.0/256)",
          "e2*e2*(-5.0/512 + e2*3.0/512)",
          "e*e2*e2*(-7.0/1280)",
          "e2*e2*e2*(-7.0/2048)"]
    c1p = ["e*(1.0/2 + e2*(-9.0/32 + e2*205.0/1536))",
           "e2*(5.0/16 + e2*(-37.0/96 + e2*1335.0/4096))",
           "e*e2*(29.0/96 + e2*(-75.0/128))",
           "e2*e2*(539.0/1536 + e2*(-2391.0/2560))",
           "e*e2*e2*(3467.0/7680)",
           "e2*e2*e2*(38081.0/61440)"]
    a3_expr = None
    for v in reversed([repr(x) for x in G.A3x]):
        a3_expr = v if a3_expr is None else f"({a3_expr})*e + {v}"

    steps: list[tuple[str, str]] = [
        ("phi1", "radians(lat1)"), ("alp1", "radians(azi1)"),
        ("salp1", "sin(alp1)"), ("calp1", "cos(alp1)"),
        ("sb0", f"{f1}*sin(phi1)"),
        ("cb0", "GREATEST(cos(phi1), 1e-12)"),
        ("nrm1", "sqrt(sb0*sb0 + cb0*cb0)"),
        ("sbet1", "sb0/nrm1"), ("cbet1", "cb0/nrm1"),
        ("salp0", "salp1*cbet1"),
        ("calp0", "sqrt(calp1*calp1 + (salp1*sbet1)*(salp1*sbet1))"),
        ("comg1", "CASE WHEN sbet1 != 0 OR calp1 != 0 "
                  "THEN cbet1*calp1 ELSE 1.0 END"),
        ("somg1", "salp0*sbet1"),
        ("nrm2", "sqrt(sbet1*sbet1 + comg1*comg1)"),
        ("ssig1n", "sbet1/nrm2"), ("csig1n", "comg1/nrm2"),
        ("k2", f"calp0*calp0*{ep2}"),
        ("e", "k2/(2*(1 + sqrt(1 + k2)) + k2)"),
        ("e2", "e*e"),
        ("a1v",
         "1 + (e2*(1.0/4 + e2*(1.0/64 + e2*(1.0/256))) + e)/(1 - e)"),
    ]
    steps += [(f"c1_{k + 1}", expr) for k, expr in enumerate(c1)]
    steps += [(f"p_{k + 1}", expr) for k, expr in enumerate(c1p)]
    # C3 series: mult chain (eps, eps^2, ...) x Horner polys in eps
    c3_names = []
    prev_mult = None
    for l, row in enumerate(G.C3x):
        m = f"m{l + 1}"
        steps.append((m, "e" if prev_mult is None else f"{prev_mult}*e"))
        poly = None
        for v in reversed([repr(x) for x in row]):
            poly = v if poly is None else f"({poly})*e + {v}"
        steps.append((f"c3_{l + 1}", f"({m})*({poly})"))
        c3_names.append(f"c3_{l + 1}")
        prev_mult = m
    steps += _clenshaw_sin_sql("b11", "ssig1n", "csig1n",
                               [f"c1_{k}" for k in range(1, 7)])
    steps += [
        ("sb11", "sin(b11)"), ("cb11", "cos(b11)"),
        ("stau1", "ssig1n*cb11 + csig1n*sb11"),
        ("ctau1", "csig1n*cb11 - ssig1n*sb11"),
        ("tau12", f"s12/({b}*a1v)"),
        ("st12", "sin(tau12)"), ("ct12", "cos(tau12)"),
        ("args", "stau1*ct12 + ctau1*st12"),
        ("argc", "ctau1*ct12 - stau1*st12"),
    ]
    steps += _clenshaw_sin_sql("b12s", "args", "argc",
                               [f"p_{k}" for k in range(1, 7)])
    steps += [
        ("sig12", "tau12 - (-b12s - b11)"),
        ("ssig12", "sin(sig12)"), ("csig12", "cos(sig12)"),
        ("ssig2", "ssig1n*csig12 + csig1n*ssig12"),
        ("csig2", "csig1n*csig12 - ssig1n*ssig12"),
        ("sbet2", "calp0*ssig2"),
        ("cbet2", "sqrt(salp0*salp0 + (calp0*csig2)*(calp0*csig2))"),
        ("calp2", "calp0*csig2"),
        ("somg2", "salp0*ssig2"), ("comg2", "csig2"),
        ("omg12", "atan2(somg2*comg1 - comg2*somg1, "
                  "comg2*comg1 + somg2*somg1)"),
        ("a3v", a3_expr),
    ]
    steps += _clenshaw_sin_sql("b31", "ssig1n", "csig1n", c3_names)
    steps += _clenshaw_sin_sql("b32", "ssig2", "csig2", c3_names)
    steps += [
        ("lam12", f"omg12 - {f}*salp0*a3v*(sig12 + (b32 - b31))"),
        ("lat2r", f"degrees(atan2(sbet2, {f1}*cbet2))"),
        ("l2s", "lon1 + degrees(lam12) + 180"),
        ("l2m", "fmod(l2s, 360.0)"),
        ("lon2r",
         "CASE WHEN l2m < 0 THEN l2m + 360.0 ELSE l2m END - 180"),
        ("azi2r", "degrees(atan2(salp0, calp2))"),
    ]
    base = f"""SELECT doc_id, lat AS lat1, lon AS lon1,
  (doc_id*34567 % 360000)/1000.0 - 180.0 AS azi1,
  CAST(doc_id*8121 % 20000000 AS DOUBLE) + 0.5 AS s12
FROM geo"""
    final = ("SELECT doc_id, ROUND(lat2r, 7) AS lat2, "
             "ROUND(lon2r, 7) AS lon2, ROUND(azi2r, 7) AS azi2 "
             "FROM LASTCTE")
    return (f"WITH geo AS ({_GEO_SQL}),\n"
            + _layered_ctes(base, steps, final))


_EXACT_COSINE_CAP = 500_000  # n*d broadcast = 256 MB of doubles at d=64


def _q33_dedup_embedding(sf_dir: str):
    """Embedding-cosine near-dup pairs, dispatched BY SIZE: at or
    below _EXACT_COSINE_CAP rows, EXACT mode (`cosine_pairs`
    broadcasts the normalized matrix once and streams batches against
    it — O(n d) broadcast, O(n^2 d) compute, exact by construction,
    and the mode every test scale runs: sf0.1 has 2,000 vectors);
    above the cap the same call routes through `dedup_embedding`'s
    bucketed LSH — the 100-TB shape measured and oracle-checked as
    q70_dedup_embedding_lsh (provable recall on planted colinear dups,
    asserted recall-complete vs the exact set in pytest; at threshold
    0.4 the LSH trades recall for scale — documented, and the cap
    keeps every oracle-checked scale on the exact path). The dispatch
    removes the one unconditional driver-side full-table pull from the
    query surface. Cosine rounded to 1e-7 on both sides (measured
    numpy-vs-DuckDB parity is ~3e-16; the nearest pair sits >=1e-5
    from the 0.4 threshold)."""
    from proj_ray.functions.dedup import cosine_pairs, dedup_embedding

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    if ds.count() > _EXACT_COSINE_CAP:
        out = dedup_embedding(ds, "embedding", "vec_id",
                              threshold=0.4).to_pandas()
    else:
        out = cosine_pairs(ds, "embedding", "vec_id",
                           threshold=0.4).to_pandas()
    out["id_a"] = out["id_a"].astype("int64")
    out["id_b"] = out["id_b"].astype("int64")
    out["cosine"] = np.round(out["cosine"], 7)
    return out


_Q33_SQL = """
SELECT a.vec_id AS id_a, b.vec_id AS id_b,
       ROUND(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                    CAST(b.embedding AS DOUBLE[])), 7)
           AS cosine
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                             CAST(b.embedding AS DOUBLE[])) >= 0.4
"""


def _q34_images_resize(sf_dir: str):
    """Multimodal resize stage on the measured path: decode every blob
    (real BMP/PNG codecs, SQL-mirrorable qjpg for the lossy rows), nearest-
    neighbor resize to 16x12 (floor index mapping — integer-exact), and
    emit per-channel pixel sums. The SQL oracle regenerates the sampled
    source pixels arithmetically from the synth formula
    (proj_ray/images.py synth_pixels) including the jpeg
    quantize-decode (v//4*4+2), so any codec or index-mapping drift
    fails the hash. Bilinear stays pytest-covered (float weights are
    not SQL-stable)."""
    from proj_ray.images import Resizer, images_table

    n = _read(sf_dir, "documents").count()
    return images_table(
        n, columns=["image_id", "bytes", "fmt"]).map_batches(
        Resizer,
        fn_constructor_kwargs=dict(out_w=16, out_h=12, emit="sums"),
        batch_format="numpy", batch_size=256, concurrency=(2, 8))


_Q34_SQL = """
WITH seq AS (SELECT ROW_NUMBER() OVER () - 1 AS i FROM documents),
img AS (SELECT i, CASE WHEN i > 0 AND i % 97 = 0 THEN i - 1 ELSE i END
               AS src FROM seq),
dim AS (SELECT i, src, src % 3 AS f,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 32 ELSE 64 END AS w,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 24 ELSE 48 END AS h
        FROM img),
px AS (SELECT i, src, f, (y.y * h) // 12 AS sy, (x.x * w) // 16 AS sx
       FROM dim CROSS JOIN range(12) y(y) CROSS JOIN range(16) x(x)),
raw AS (SELECT i, f,
               (src*37 + sy*11 + sx*7) % 256 AS r,
               (src*53 + sy*5 + sx*13) % 256 AS g,
               (src*97 + (sy+sx)*3) % 256 AS b
        FROM px),
dec AS (SELECT i,
               CASE WHEN f = 1 THEN (r // 4) * 4 + 2 ELSE r END AS r,
               CASE WHEN f = 1 THEN (g // 4) * 4 + 2 ELSE g END AS g,
               CASE WHEN f = 1 THEN (b // 4) * 4 + 2 ELSE b END AS b
        FROM raw)
SELECT 'img' || lpad(CAST(i AS VARCHAR), 12, '0') AS image_id,
       CAST(SUM(r) AS BIGINT) AS sum_r,
       CAST(SUM(g) AS BIGINT) AS sum_g,
       CAST(SUM(b) AS BIGINT) AS sum_b
FROM dec GROUP BY i
"""


def _q35_video_frames(sf_dir: str):
    """Video frame-sampling stage: every 3rd frame of each synthetic
    FVID container, decoded by offset-table seek (only sampled frames
    decompress), emitting integer channel sums per frame. The SQL
    oracle regenerates the sampled frames' pixels arithmetically
    (frame seed i*131 + f*17, proj_ray/video.py) — container parsing
    or sampling drift fails the hash."""
    from proj_ray.video import frame_sample, videos_table

    n = _read(sf_dir, "documents").count()
    return frame_sample(videos_table(
        n, columns=["video_id", "bytes", "n_frames"]), every_k=3)


_Q35_SQL = """
WITH seq AS (SELECT ROW_NUMBER() OVER () - 1 AS i FROM documents),
vid AS (SELECT i, 8 + (i % 5) * 4 AS nf FROM seq),
fr AS (SELECT i, f.f AS f FROM vid CROSS JOIN range(24) f(f)
       WHERE f.f < nf AND f.f % 3 = 0),
px AS (SELECT i, f, i*131 + f*17 AS s, y.y AS y, x.x AS x
       FROM fr CROSS JOIN range(12) y(y) CROSS JOIN range(16) x(x))
SELECT 'vid' || lpad(CAST(i AS VARCHAR), 12, '0') AS video_id,
       CAST(f AS BIGINT) AS frame_no,
       CAST(SUM((s*37 + y*11 + x*7) % 256) AS BIGINT) AS sum_r,
       CAST(SUM((s*53 + y*5 + x*13) % 256) AS BIGINT) AS sum_g,
       CAST(SUM((s*97 + (y+x)*3) % 256) AS BIGINT) AS sum_b
FROM px GROUP BY i, f
"""


def _q36_audio_features(sf_dir: str):
    """Audio feature-extraction stage: real RIFF/WAVE PCM16 parse ->
    integer-exact clip features (energy sum-of-squares, zero-crossing
    count, peak). Samples are a deterministic integer chirp
    (proj_ray/audio.py synth_samples) so the SQL oracle regenerates
    every clip arithmetically — a WAV header/endianness/windowing bug
    fails the hash."""
    from proj_ray.audio import audio_features, audio_table

    n = _read(sf_dir, "documents").count()
    return audio_features(audio_table(
        n, columns=["audio_id", "bytes"]))


_Q36_SQL = """
WITH seq AS (SELECT ROW_NUMBER() OVER () - 1 AS i FROM documents),
clip AS (SELECT i, 4000 + (i % 5) * 4000 AS n FROM seq),
s AS (SELECT i, t.t AS t, ((i*7 + t.t*t.t*3) % 4096) - 2048 AS v
      FROM clip CROSS JOIN range(20000) t(t) WHERE t.t < n),
nz AS (SELECT i, sg, LAG(sg) OVER (PARTITION BY i ORDER BY t) AS prev
       FROM (SELECT i, t, CASE WHEN v > 0 THEN 1 ELSE -1 END AS sg
             FROM s WHERE v <> 0)),
zx AS (SELECT i, SUM(CASE WHEN prev IS NOT NULL AND sg <> prev
                          THEN 1 ELSE 0 END) AS zero_x FROM nz GROUP BY i),
en AS (SELECT i, SUM(v*v) AS sum_sq, MAX(ABS(v)) AS peak
       FROM s GROUP BY i)
SELECT 'aud' || lpad(CAST(en.i AS VARCHAR), 12, '0') AS audio_id,
       CAST(sum_sq AS BIGINT) AS sum_sq,
       CAST(zero_x AS BIGINT) AS zero_x,
       CAST(peak AS BIGINT) AS peak
FROM en JOIN zx ON en.i = zx.i
"""


def _gen_q17_sql(n_iter: int = 8) -> str:
    """Emit the q17 oracle: Karney's geodesic INVERSE with the Newton
    loop unrolled to `n_iter` fixed iterations, mirroring
    proj_ray/geodesic.py inverse()/_lambda12 op-for-op (WGS84 constants
    inlined). Converged lanes freeze through a carried `done` flag —
    re-evaluating _lambda12 with a frozen alp1 reproduces the frozen
    outputs bit-for-bit, so a fixed unroll equals numpy's masked loop
    whenever every lane converges within n_iter (measured max on the
    driver data: 5; asserted in tests). q17 fixes point 1 at (0,0), so
    sbet1_raw = 0 and cbet1_raw = 1 exactly on both sides."""
    from proj_ray.geodesic import WGS84_GEOD as G

    f, f1, b, a, ep2 = (repr(G.f), repr(G.f1), repr(G.b), repr(G.a),
                        repr(G.ep2))
    PI = repr(np.pi)
    ANTI = repr(np.pi * (1 - 3 * G.f))
    EQTH = repr(np.pi * (1 - G.f))
    AHI = repr(np.pi - 1e-12)

    def c1_exprs(e, e2):
        return [f"{e}*(-1.0/2 + {e2}*(3.0/16 - {e2}/32))",
                f"{e2}*(-1.0/16 + {e2}*(1.0/32 - 9.0*{e2}/2048))",
                f"{e}*{e2}*(-1.0/48 + {e2}*3.0/256)",
                f"{e2}*{e2}*(-5.0/512 + {e2}*3.0/512)",
                f"{e}*{e2}*{e2}*(-7.0/1280)",
                f"{e2}*{e2}*{e2}*(-7.0/2048)"]

    def c2_exprs(e, e2):
        return [f"{e}*(1.0/2 + {e2}*(1.0/16 + {e2}/32))",
                f"{e2}*(3.0/16 + {e2}*(1.0/32 + 35.0*{e2}/2048))",
                f"{e}*{e2}*(5.0/48 + {e2}*5.0/256)",
                f"{e2}*{e2}*(35.0/512 + {e2}*7.0/512)",
                f"{e}*{e2}*{e2}*(63.0/1280)",
                f"{e2}*{e2}*{e2}*(77.0/2048)"]

    def horner(coefs, e):
        expr = None
        for v in reversed([repr(x) for x in coefs]):
            expr = v if expr is None else f"({expr})*{e} + {v}"
        return expr

    steps: list[tuple[str, str]] = [
        # point 2 = clipped doc geotag; point 1 = (0, 0) exactly
        ("lat2c", "LEAST(GREATEST(lat, -89.9), 89.9)"),
        ("phi2", "radians(lat2c)"),
        ("lon12", "fmod(lon + 180.0, 360.0) - 180"),
        ("lonsign0", "CASE WHEN lon12 >= 0 THEN 1.0 ELSE -1.0 END"),
        ("l12a", "abs(lon12)"),
        ("sbb", f"{f1}*sin(phi2)"),
        ("cbbr", "cos(phi2)"),
        ("cbb", "CASE WHEN abs(cbbr) < 1e-15 THEN 1e-15 ELSE cbbr END"),
        ("nbb", "sqrt(sbb*sbb + cbb*cbb)"),
        ("sbet2r", "sbb/nbb"), ("cbet2r", "cbb/nbb"),
        # canonical swap: |sbet1|=0 < |sbet2| unless point 2 is equatorial
        ("sw", "abs(sbet2r) > 0.0"),
        ("sb1p", "CASE WHEN sw THEN sbet2r ELSE 0.0 END"),
        ("cb1", "CASE WHEN sw THEN cbet2r ELSE 1.0 END"),
        ("sb2p", "CASE WHEN sw THEN 0.0 ELSE sbet2r END"),
        ("cb2", "CASE WHEN sw THEN 1.0 ELSE cbet2r END"),
        ("lonsign", "CASE WHEN sw THEN -lonsign0 ELSE lonsign0 END"),
        ("latsign", "CASE WHEN sb1p <= 0 THEN 1.0 ELSE -1.0 END"),
        ("sb1", "sb1p*latsign"), ("sb2", "sb2p*latsign"),
        ("lam12", "radians(l12a)"),
        ("sl", "sin(lam12)"), ("cl", "cos(lam12)"),
        ("salp1g", "cb2*sl"), ("calp1g", "sb2*cb1 - cb2*sb1*cl"),
        ("nzg", "sqrt(salp1g*salp1g + calp1g*calp1g)"),
        ("nz", "CASE WHEN nzg = 0 THEN 1.0 ELSE nzg END"),
        ("salp1q", "salp1g/nz"), ("calp1q", "calp1g/nz"),
        ("antip", f"lam12 > {ANTI} AND abs(sb1 + sb2) < 0.1"),
        ("s_0", "CASE WHEN antip AND salp1q < 1e-6 THEN 1e-3 "
                "ELSE salp1q END"),
        ("c_0", "CASE WHEN antip THEN -sqrt(GREATEST(1 - s_0*s_0, 0.0)) "
                "ELSE calp1q END"),
        ("d_0", "FALSE"),
    ]

    for k in range(1, n_iter + 1):
        p = f"i{k}_"
        sa, ca, dn = f"s_{k - 1}", f"c_{k - 1}", f"d_{k - 1}"
        last = k == n_iter
        # ---- _lambda12(sb1, cb1, sb2, cb2, sa, ca, lam12) ----
        steps += [
            (f"{p}ca1", f"CASE WHEN sb1 = 0 AND {ca} = 0 THEN -1e-15 "
                        f"ELSE {ca} END"),
            (f"{p}salp0", f"{sa}*cb1"),
            (f"{p}calp0", f"sqrt({p}ca1*{p}ca1 + ({sa}*sb1)*({sa}*sb1))"),
            (f"{p}somg1", f"{p}salp0*sb1"),
            (f"{p}comg1", f"cb1*{p}ca1"),
            (f"{p}n1r", f"sqrt(sb1*sb1 + {p}comg1*{p}comg1)"),
            (f"{p}n1", f"CASE WHEN {p}n1r = 0 THEN 1.0 ELSE {p}n1r END"),
            (f"{p}ss1", f"sb1/{p}n1"), (f"{p}cs1", f"{p}comg1/{p}n1"),
            (f"{p}salp2", f"CASE WHEN cb2 <> cb1 THEN {p}salp0/cb2 "
                          f"ELSE {sa} END"),
            (f"{p}innr", "CASE WHEN cb1 < -sb1 "
                          "THEN (cb2 - cb1)*(cb1 + cb2) "
                          "ELSE (sb1 - sb2)*(sb1 + sb2) END"),
            (f"{p}calp2", f"CASE WHEN cb2 <> cb1 OR abs(sb2) <> -sb1 "
                          f"THEN sqrt(GREATEST(({p}ca1*cb1)*({p}ca1*cb1)"
                          f" + {p}innr, 0.0))/cb2 ELSE abs({p}ca1) END"),
            (f"{p}somg2", f"{p}salp0*sb2"),
            (f"{p}comg2", f"cb2*{p}calp2"),
            (f"{p}n2r", f"sqrt(sb2*sb2 + {p}comg2*{p}comg2)"),
            (f"{p}n2", f"CASE WHEN {p}n2r = 0 THEN 1.0 ELSE {p}n2r END"),
            (f"{p}ss2", f"sb2/{p}n2"), (f"{p}cs2", f"{p}comg2/{p}n2"),
            (f"{p}sig12", f"atan2(GREATEST({p}cs1*{p}ss2 - {p}ss1*{p}cs2,"
                          f" 0.0), {p}cs1*{p}cs2 + {p}ss1*{p}ss2)"),
            (f"{p}somg12", f"GREATEST({p}comg1*{p}somg2 "
                           f"- {p}somg1*{p}comg2, 0.0)"),
            (f"{p}comg12", f"{p}comg1*{p}comg2 + {p}somg1*{p}somg2"),
            (f"{p}omg12", f"atan2({p}somg12, {p}comg12)"),
            (f"{p}k2", f"{p}calp0*{p}calp0*{ep2}"),
            (f"{p}eps", f"{p}k2/(2*(1 + sqrt(1 + {p}k2)) + {p}k2)"),
            (f"{p}eps2", f"{p}eps*{p}eps"),
            (f"{p}a3v", horner(G.A3x, f"{p}eps")),
        ]
        # C3 series (5 terms): mult chain x Horner polys, then B31/B32
        c3_names = []
        prev_m = None
        for l, row in enumerate(G.C3x):
            m = f"{p}m{l + 1}"
            steps.append((m, f"{p}eps" if prev_m is None
                          else f"{prev_m}*{p}eps"))
            steps.append((f"{p}c3_{l + 1}",
                          f"({m})*({horner(row, f'{p}eps')})"))
            c3_names.append(f"{p}c3_{l + 1}")
            prev_m = m
        steps += _clenshaw_sin_sql(f"{p}b31", f"{p}ss1", f"{p}cs1",
                                   c3_names)
        steps += _clenshaw_sin_sql(f"{p}b32", f"{p}ss2", f"{p}cs2",
                                   c3_names)
        steps += [
            (f"{p}domg12", f"-{f}*{p}salp0*{p}a3v*({p}sig12 "
                           f"+ ({p}b32 - {p}b31))"),
            (f"{p}v", f"({p}omg12 + {p}domg12) - lam12"),
            (f"{p}a1v", f"1 + ({p}eps2*(1.0/4 + {p}eps2*(1.0/64 "
                        f"+ {p}eps2*(1.0/256))) + {p}eps)/(1 - {p}eps)"),
        ]
        steps += [(f"{p}c1_{j + 1}", e) for j, e in
                  enumerate(c1_exprs(f"{p}eps", f"{p}eps2"))]
        steps += _clenshaw_sin_sql(f"{p}b11", f"{p}ss1", f"{p}cs1",
                                   [f"{p}c1_{j}" for j in range(1, 7)])
        steps += _clenshaw_sin_sql(f"{p}b12", f"{p}ss2", f"{p}cs2",
                                   [f"{p}c1_{j}" for j in range(1, 7)])
        steps.append((f"{p}done",
                      f"{dn} OR abs({p}v) < 1e-13"))
        if last:
            break  # no update after the final evaluation
        # derivative block (only needed to drive the update)
        steps += [
            (f"{p}a2v", f"1 + ({p}eps2*(-3.0/4 + {p}eps2*(-7.0/64 "
                        f"+ {p}eps2*(-11.0/256))) - {p}eps)"
                        f"/(1 + {p}eps)"),
        ]
        steps += [(f"{p}c2_{j + 1}", e) for j, e in
                  enumerate(c2_exprs(f"{p}eps", f"{p}eps2"))]
        steps += _clenshaw_sin_sql(f"{p}b21", f"{p}ss1", f"{p}cs1",
                                   [f"{p}c2_{j}" for j in range(1, 7)])
        steps += _clenshaw_sin_sql(f"{p}b22", f"{p}ss2", f"{p}cs2",
                                   [f"{p}c2_{j}" for j in range(1, 7)])
        steps += [
            (f"{p}j12", f"({p}a1v - {p}a2v)*{p}sig12 + ({p}a1v*({p}b12 "
                        f"- {p}b11) - {p}a2v*({p}b22 - {p}b21))"),
            (f"{p}dn1", f"sqrt(1 + {ep2}*sb1*sb1)"),
            (f"{p}dn2", f"sqrt(1 + {ep2}*sb2*sb2)"),
            (f"{p}m12b", f"{p}dn2*({p}cs1*{p}ss2) - {p}dn1*({p}ss1*"
                         f"{p}cs2) - {p}cs1*{p}cs2*{p}j12"),
            (f"{p}dv", f"CASE WHEN abs({p}calp2) > 1e-12 "
                       f"THEN {p}m12b*{f1}/({p}calp2*cb2) "
                       f"ELSE -2*{f1}*{p}dn1/(CASE WHEN sb1 = 0 "
                       f"THEN -1e-12 ELSE sb1 END) END"),
            (f"{p}dalp", f"LEAST(GREATEST(CASE WHEN abs({p}dv) > 1e-16 "
                         f"THEN -{p}v/{p}dv ELSE CASE WHEN {p}v > 0 "
                         f"THEN -0.1 ELSE 0.1 END END, -0.5), 0.5)"),
            (f"{p}alp", f"LEAST(GREATEST(atan2({sa}, {ca}) + {p}dalp, "
                        f"1e-12), {AHI})"),
            (f"s_{k}", f"CASE WHEN {p}done THEN {sa} "
                       f"ELSE sin({p}alp) END"),
            (f"c_{k}", f"CASE WHEN {p}done THEN {ca} "
                       f"ELSE cos({p}alp) END"),
            (f"d_{k}", f"{p}done"),
        ]

    # ---- finalize: s12 from the last evaluation; azimuth unswap ----
    q = f"i{n_iter}_"
    sfin, cfin = f"s_{n_iter - 1}", f"c_{n_iter - 1}"
    steps += [
        ("s12r", f"{b}*{q}a1v*({q}sig12 + ({q}b12 - {q}b11))"),
        ("equat", f"abs(sb1) < 1e-7 AND abs(sb2) < 1e-7 "
                  f"AND lam12 <= {EQTH}"),
        ("s12e", f"CASE WHEN equat THEN {a}*lam12 ELSE s12r END"),
        ("sa1f", f"CASE WHEN equat THEN 1.0 ELSE {sfin} END"),
        ("ca1f", f"CASE WHEN equat THEN 0.0 ELSE {cfin} END"),
        ("sa2f", f"CASE WHEN equat THEN 1.0 ELSE {q}salp2 END"),
        ("ca2f", f"CASE WHEN equat THEN 0.0 ELSE {q}calp2 END"),
        ("swsign", "CASE WHEN sw THEN -1.0 ELSE 1.0 END"),
        ("ua1", "(CASE WHEN sw THEN sa2f ELSE sa1f END)"
                "*swsign*lonsign"),
        ("va1", "(CASE WHEN sw THEN ca2f ELSE ca1f END)"
                "*swsign*latsign"),
        ("azi1", "degrees(atan2(ua1, va1))"),
        ("same", "l12a < 1e-13 AND abs(phi2) < 1e-13"),
        ("s12f", "CASE WHEN same THEN 0.0 ELSE s12e END"),
    ]
    base = f"SELECT doc_id, lat, lon FROM geo"
    final = ("SELECT doc_id, ROUND(s12f, 4) AS dist_m, "
             "ROUND(azi1, 7) AS azi FROM LASTCTE")
    return (f"WITH geo AS ({_GEO_SQL}),\n"
            + _layered_ctes(base, steps, final))


def _q30_asof_join(sf_dir: str):
    """As-of join: each event pairs with its user's latest order at or
    before the event time (backward inner, ties -> largest orderkey).
    Broadcast path at this scale; one co-partitioned shuffle above the
    cap (proj_ray/functions/temporal.py)."""
    from proj_ray.functions.temporal import asof_join

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_orderdate",
                            "o_totalprice"])
    out = asof_join(ev, orders, "user_id", "o_custkey", "ts",
                    "o_orderdate",
                    right_cols=("o_orderkey", "o_totalprice"),
                    tie_col="o_orderkey")
    return out.select_columns(["event_id", "o_orderkey", "o_totalprice"])


_Q30_SQL = """
WITH j AS (
  SELECT e.event_id, o.o_orderkey, o.o_totalprice,
         ROW_NUMBER() OVER (
           PARTITION BY e.event_id
           ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) AS rn
  FROM events e
  JOIN orders o
    ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts)
SELECT event_id, o_orderkey, o_totalprice FROM j WHERE rn = 1
"""


def _q31_window_agg(sf_dir: str):
    """Tumbling daily windows over the events stream, per event type:
    partial (window, type) sums combined inside map_batches before the
    tiny groupby."""
    from proj_ray.functions.temporal import window_aggregate

    ev = _read(sf_dir, "events", columns=["ts", "event_type", "value"])
    return window_aggregate(ev, "ts", "value",
                            every_us=86_400_000_000, by="event_type")


_Q31_SQL = """
SELECT (epoch_us(ts) // 86400000000) * 86400000000 AS window_start,
       event_type,
       SUM(CAST(ROUND(value*10000, 0) AS BIGINT)) / 10000.0 AS sum_value,
       COUNT(*) AS n
FROM events GROUP BY 1, 2
"""


def _q37_range_join(sf_dir: str):
    """Range (interval) join: lineitem quantities against overlapping
    price-bracket intervals derived from `part`, then a per-bracket
    aggregate. The 20 brackets take range_join's broadcast path; above
    `dsutil.BROADCAST_ROWS` intervals it runs one bucketed all-to-all
    (left rows to floor(v/w), intervals replicated into every bucket
    they overlap), which tests/test_entry_oracles.py forces and
    compares with this route at sf0.001. Half-open [lo, hi) so SQL
    reproduces boundaries exactly."""
    import pandas as pd

    from proj_ray.functions.interval import range_join

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])
    parts = _read(sf_dir, "part", columns=["p_partkey", "p_size"])

    def brackets(batch):
        pk = np.asarray(batch["p_partkey"])
        sz = np.asarray(batch["p_size"], dtype=np.float64)
        keep = pk <= 20
        return {"bracket_id": pk[keep],
                "lo": sz[keep] - 2.5,
                "hi": sz[keep] + 7.5}

    right = parts.map_batches(brackets, batch_format="numpy")
    joined = range_join(li, right, "l_quantity", "lo", "hi",
                        right_cols=("bracket_id", "lo", "hi"),
                        bucket_width=10.0)

    def partial(batch):
        # the bucketed route's join hands the id back as float
        df = pd.DataFrame({
            "bracket_id": np.asarray(batch["bracket_id"]).astype(np.int64),
            "lo": np.asarray(batch["lo"]),
            "hi": np.asarray(batch["hi"]),
            "q": np.asarray(batch["l_quantity"]).astype(np.int64),
        })
        return df.groupby(["bracket_id", "lo", "hi"], sort=False,
                          as_index=False).agg(sum_qty=("q", "sum"),
                                              n_rows=("q", "size"))

    return bucketed_sum(joined.map_batches(partial, batch_format="numpy"),
                        ["bracket_id", "lo", "hi"], ["sum_qty", "n_rows"],
                        ["sum_qty", "n_rows"])


_Q37_SQL = """
WITH brackets AS (
  SELECT p_partkey AS bracket_id,
         CAST(p_size AS DOUBLE) - 2.5 AS lo,
         CAST(p_size AS DOUBLE) + 7.5 AS hi
  FROM part WHERE p_partkey <= 20)
SELECT b.bracket_id, b.lo, b.hi,
       COUNT(*) AS n_rows,
       CAST(SUM(CAST(l.l_quantity AS BIGINT)) AS BIGINT) AS sum_qty
FROM lineitem l JOIN brackets b
  ON l.l_quantity >= b.lo AND l.l_quantity < b.hi
GROUP BY 1, 2, 3
"""


def _q38_sessionize(sf_dir: str):
    """Gap-based sessionization of the event stream (30-min timeout):
    one all-to-all on user_id, vectorized per-group session splitting
    (proj_ray/functions/temporal.py sessionize). Deterministic
    (ts, event_id) ordering so SQL window functions reproduce it."""
    from proj_ray.functions.temporal import sessionize

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    return sessionize(ev, "user_id", "ts", 1_800_000_000, "event_id")


_Q38_SQL = """
WITH flags AS (
  SELECT event_id, user_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
              OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > 1800000000
              THEN 1 ELSE 0 END AS is_start
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
seqs AS (
  SELECT event_id, user_id, ts,
         CAST(SUM(is_start) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_seq
  FROM flags)
SELECT event_id, user_id, session_seq,
       ROW_NUMBER() OVER (PARTITION BY user_id, session_seq
                          ORDER BY ts, event_id) AS event_seq
FROM seqs
"""


def _q39_stratified_sample(sf_dir: str):
    """Deterministic stratified sample: 20 events per event_type by
    Knuth multiplicative-hash order (proj_ray/functions/sample.py).
    Batches pre-prune to their local top-20 per stratum before the
    single shuffle, so the all-to-all moves O(n x strata x blocks)."""
    from proj_ray.functions.sample import stratified_sample

    ev = _read(sf_dir, "events", columns=["event_id", "event_type"])
    return stratified_sample(ev, "event_type", "event_id", 20)


_Q39_SQL = """
WITH ranked AS (
  SELECT event_id, event_type,
         ROW_NUMBER() OVER (
           PARTITION BY event_type
           ORDER BY ((event_id % 4294967296) * 2654435761) % 4294967296,
                    event_id) AS rn
  FROM events)
SELECT event_type, event_id FROM ranked WHERE rn <= 20
"""


def _q40_topk_per_group(sf_dir: str):
    """Per-group top-k: 3 highest-value events per event_type, ties to
    the smallest event_id. Batches pre-prune to local top-3 per group
    before the single shuffle (proj_ray/functions/sample.py)."""
    from proj_ray.functions.sample import top_k_per_group

    ev = _read(sf_dir, "events",
               columns=["event_id", "event_type", "value"])
    return top_k_per_group(ev, "event_type", "value", "event_id", 3)


_Q40_SQL = """
WITH ranked AS (
  SELECT event_type, event_id, value,
         ROW_NUMBER() OVER (PARTITION BY event_type
                            ORDER BY value DESC, event_id) AS rn
  FROM events)
SELECT event_type, value, event_id FROM ranked WHERE rn <= 3
"""


def _q41_grouped_quantiles(sf_dir: str):
    """EXACT distributed quantiles per group over a fixed-point value
    domain: per-batch (group, cents) partial histograms -> one tiny
    groupby -> per-group walk over DISTINCT values only
    (proj_ray/functions/stats.py; quantile_disc semantics)."""
    from proj_ray.functions.stats import grouped_quantiles

    li = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_extendedprice"])
    return grouped_quantiles(li, "l_returnflag", "l_extendedprice",
                             qs=(0.25, 0.5, 0.75, 0.95), scale=100)


_Q41_SQL = """
SELECT l_returnflag,
       unnest([0.25, 0.5, 0.75, 0.95]) AS q,
       unnest(quantile_disc(l_extendedprice,
                            [0.25, 0.5, 0.75, 0.95])) AS quantile
FROM lineitem GROUP BY l_returnflag
"""


def _q42_count_distinct(sf_dir: str):
    """Exact per-group cardinality: distinct customers per order
    status. Locally-deduped pairs shuffle on a hash BUCKET of the
    value (bounded group count regardless of value cardinality), then
    a tiny per-group sum (proj_ray/functions/distinct.py). The HLL
    sketch variant is pytest-bounded against this exact operator."""
    from proj_ray.functions.distinct import grouped_count_distinct

    orders = _read(sf_dir, "orders",
                   columns=["o_orderstatus", "o_custkey"])
    return grouped_count_distinct(orders, "o_orderstatus", "o_custkey")


_Q42_SQL = """
SELECT o_orderstatus,
       CAST(COUNT(DISTINCT o_custkey) AS BIGINT) AS n_distinct
FROM orders GROUP BY o_orderstatus
"""


def _q43_geohash(sf_dir: str):
    """Geohash cell index (third cell scheme next to the webmerc
    quadtree and the equal-angle grid): base32 string keys whose
    prefixes ARE the parent cells, so coarse rollups are a string
    slice, not a re-encode. One vectorized Morton pass per batch
    (proj_ray/cells.py geohash_encode); no shuffle."""
    from proj_ray.cells import geohash_encode

    def gh(b: dict) -> dict:
        g8 = geohash_encode(b["lon"], b["lat"], 8)
        return {"doc_id": b["doc_id"], "gh8": g8,
                "gh4": g8.astype("<U4")}

    return _docs_geo(sf_dir).map_batches(gh, batch_format="numpy")


# The oracle unrolls the same 5-step Morton spread in SQL bitwise ops
# (20 bits per axis for precision 8), then maps 5-bit groups through
# the base32 alphabet.
_Q43_SQL = """
WITH g AS (
  SELECT doc_id,
         (doc_id * 61803 % 360000) / 1000.0 - 180.0 AS lon,
         (doc_id * 75487 % 170000) / 1000.0 - 85.0  AS lat
  FROM documents
), q AS (
  SELECT doc_id,
         LEAST(CAST(floor((lon + 180.0) / 360.0 * 1048576) AS BIGINT),
               1048575) AS lonq,
         LEAST(CAST(floor((lat + 90.0) / 180.0 * 1048576) AS BIGINT),
               1048575) AS latq
  FROM g
), s1 AS (
  SELECT doc_id,
         (lonq | (lonq << 16)) & 281470681808895 AS lx,
         (latq | (latq << 16)) & 281470681808895 AS ly
  FROM q
), s2 AS (
  SELECT doc_id,
         (lx | (lx << 8)) & 71777214294589695 AS lx,
         (ly | (ly << 8)) & 71777214294589695 AS ly
  FROM s1
), s3 AS (
  SELECT doc_id,
         (lx | (lx << 4)) & 1085102592571150095 AS lx,
         (ly | (ly << 4)) & 1085102592571150095 AS ly
  FROM s2
), s4 AS (
  SELECT doc_id,
         (lx | (lx << 2)) & 3689348814741910323 AS lx,
         (ly | (ly << 2)) & 3689348814741910323 AS ly
  FROM s3
), s5 AS (
  SELECT doc_id,
         (lx | (lx << 1)) & 6148914691236517205 AS lx,
         (ly | (ly << 1)) & 6148914691236517205 AS ly
  FROM s4
), m AS (
  SELECT doc_id, ((lx << 1) | ly) AS mm FROM s5
), h AS (
  SELECT doc_id,
    substr('0123456789bcdefghjkmnpqrstuvwxyz',
           CAST((mm >> 35) & 31 AS INT) + 1, 1) ||
    substr('0123456789bcdefghjkmnpqrstuvwxyz',
           CAST((mm >> 30) & 31 AS INT) + 1, 1) ||
    substr('0123456789bcdefghjkmnpqrstuvwxyz',
           CAST((mm >> 25) & 31 AS INT) + 1, 1) ||
    substr('0123456789bcdefghjkmnpqrstuvwxyz',
           CAST((mm >> 20) & 31 AS INT) + 1, 1) ||
    substr('0123456789bcdefghjkmnpqrstuvwxyz',
           CAST((mm >> 15) & 31 AS INT) + 1, 1) ||
    substr('0123456789bcdefghjkmnpqrstuvwxyz',
           CAST((mm >> 10) & 31 AS INT) + 1, 1) ||
    substr('0123456789bcdefghjkmnpqrstuvwxyz',
           CAST((mm >> 5) & 31 AS INT) + 1, 1) ||
    substr('0123456789bcdefghjkmnpqrstuvwxyz',
           CAST(mm & 31 AS INT) + 1, 1) AS gh8
  FROM m
)
SELECT doc_id, gh8, substr(gh8, 1, 4) AS gh4 FROM h
"""


def _q44_polygon_burn(sf_dir: str):
    """Vector->raster burn: rasterize each polygon's bbox onto the
    z=6 slippy tile grid — one output row per (polygon, covered tile).
    The per-batch kernel (proj_ray/tiles.py tiles_covering_bbox) does
    the rectangle expansion as pure index arithmetic; polygons stream
    through map_batches, so a billion-polygon layer burns without any
    driver loop. sf_dir is unused (the polygon layer is the fixed
    synthetic rect set shared with q09)."""
    import ray.data as rd

    from proj_ray.tiles import tiles_covering_bbox

    rects = rd.from_items([
        {"rect_id": j, "x0": x0, "y0": y0, "w": w, "h": h}
        for j, x0, y0, w, h in _RECTS])

    def burn(b: dict) -> dict:
        ridx, tx, ty = tiles_covering_bbox(
            b["x0"], b["y0"], b["x0"] + b["w"], b["y0"] + b["h"], 6)
        return {"rect_id": np.asarray(b["rect_id"])[ridx],
                "z": np.full(len(ridx), 6, dtype=np.int64),
                "tile_x": tx, "tile_y": ty}

    return rects.map_batches(burn, batch_format="numpy")


_Q44_SQL = f"""
WITH rects AS ({_RECT_SQL}),
r2 AS (
  SELECT rect_id,
    CAST(floor((x0 + 180.0) / 360.0 * 64) AS BIGINT) AS tx0,
    CAST(ceil((x0 + w + 180.0) / 360.0 * 64) AS BIGINT) - 1 AS tx1,
    CAST(floor((1.0 - ln(tan(radians(y0 + h))
        + sqrt(tan(radians(y0 + h)) * tan(radians(y0 + h)) + 1.0))
        / pi()) / 2.0 * 64) AS BIGINT) AS ty0,
    CAST(ceil((1.0 - ln(tan(radians(y0))
        + sqrt(tan(radians(y0)) * tan(radians(y0)) + 1.0))
        / pi()) / 2.0 * 64) AS BIGINT) - 1 AS ty1
  FROM rects
),
r3 AS (
  SELECT rect_id,
    GREATEST(LEAST(tx0, 63), 0) AS tx0, GREATEST(LEAST(tx1, 63), 0) AS tx1,
    GREATEST(LEAST(ty0, 63), 0) AS ty0, GREATEST(LEAST(ty1, 63), 0) AS ty1
  FROM r2
),
r4 AS (
  SELECT rect_id, unnest(generate_series(tx0, tx1)) AS tile_x, ty0, ty1
  FROM r3
)
SELECT rect_id, CAST(6 AS BIGINT) AS z, tile_x,
       unnest(generate_series(ty0, ty1)) AS tile_y
FROM r4
"""


def _q45_dwithin_join(sf_dir: str):
    """Geodesic distance-within join: documents within 2,000 km
    (spherical haversine) of each of 8 query points, with the exact
    pair distance in 0.1 mm units. Broadcast-query variant of the
    spatial join family (proj_ray/stages dwithin_join); a latitude
    band prefilter prunes the trig without changing the row set."""
    from proj_ray.stages import dwithin_join

    qlon, qlat = _geo_query_points(8)
    return dwithin_join(_docs_geo(sf_dir), qlon, qlat, 2_000_000.0)


_Q45_SQL = f"""
WITH geo AS ({_GEO_SQL}),
qp AS (
  SELECT i AS q,
         (i * 61803 % 360000) / 1000.0 - 180.0 AS qlon,
         (i * 75487 % 170000) / 1000.0 - 85.0  AS qlat
  FROM range(8) t(i)
),
d AS (
  SELECT doc_id, q,
         2.0 * 6371000.0 * asin(sqrt(LEAST(
           sin((radians(qlat) - radians(lat)) / 2.0)
             * sin((radians(qlat) - radians(lat)) / 2.0)
           + cos(radians(lat)) * cos(radians(qlat))
             * sin((radians(qlon) - radians(lon)) / 2.0)
             * sin((radians(qlon) - radians(lon)) / 2.0), 1.0))) AS dist
  FROM geo, qp
)
SELECT doc_id, q, CAST(round(dist * 10000.0) AS BIGINT) AS dist_tmm
FROM d WHERE dist < 2000000.0
"""


def _q46_rolling_window(sf_dir: str):
    """Per-user rolling SUM/COUNT over the last 4 events (SQL ROWS
    BETWEEN 3 PRECEDING AND CURRENT ROW), exact int64 cents. One
    hash-bucket all-to-all + a vectorized prefix-sum segment pass
    (proj_ray/functions/temporal.py rolling_window)."""
    from proj_ray.functions.temporal import rolling_window

    ev = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "value"])
    return rolling_window(ev, "user_id", "ts", "value", "event_id",
                          preceding=3, scale=100)


_Q46_SQL = """
SELECT event_id,
       CAST(SUM(CAST(round(value * 100) AS BIGINT)) OVER w
            AS BIGINT) AS win_sum_c,
       CAST(COUNT(*) OVER w AS BIGINT) AS win_n
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)
"""


def _q47_pivot(sf_dir: str):
    """Wide pivot: per-user event counts with one column per event
    type. Batch-local crosstab partials, then one keyed sum of the
    pre-combined rows (proj_ray/functions/stats.py pivot_counts). The column domain is passed explicitly (the known
    event-type enum), skipping the discovery pass."""
    from proj_ray.functions.stats import pivot_counts

    ev = _read(sf_dir, "events", columns=["user_id", "event_type"])
    return pivot_counts(ev, "user_id", "event_type",
                        values=["click", "error", "purchase",
                                "signup", "view"])


_Q47_SQL = """
SELECT user_id,
  CAST(COUNT(CASE WHEN event_type = 'click' THEN 1 END) AS BIGINT)
    AS n_click,
  CAST(COUNT(CASE WHEN event_type = 'error' THEN 1 END) AS BIGINT)
    AS n_error,
  CAST(COUNT(CASE WHEN event_type = 'purchase' THEN 1 END) AS BIGINT)
    AS n_purchase,
  CAST(COUNT(CASE WHEN event_type = 'signup' THEN 1 END) AS BIGINT)
    AS n_signup,
  CAST(COUNT(CASE WHEN event_type = 'view' THEN 1 END) AS BIGINT)
    AS n_view
FROM events GROUP BY user_id
"""


def _q48_anti_join(sf_dir: str):
    """Anti join: customers that placed no orders. The orders side is
    reduced to its DISTINCT key set first; below the broadcast limit
    that set ships once via ray.put and every customer batch filters
    with searchsorted — zero shuffles (proj_ray/stages
    semi_anti_join; above the limit the same call routes through
    Ray's hash-partitioned join)."""
    from proj_ray.stages import semi_anti_join

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_name"])
    orders = _read(sf_dir, "orders",
                   columns=["o_custkey", "o_orderstatus"])

    def pending(b: dict) -> dict:
        keep = np.asarray(b["o_orderstatus"]) == "P"
        return {"o_custkey": np.asarray(b["o_custkey"])[keep]}

    pend = orders.map_batches(pending, batch_format="numpy")
    return semi_anti_join(cust, pend, "c_custkey",
                          right_key="o_custkey", how="anti")


_Q48_SQL = """
SELECT c_custkey, c_name FROM customer
WHERE c_custkey NOT IN
  (SELECT o_custkey FROM orders WHERE o_orderstatus = 'P')
"""


def _q49_zonal_stats(sf_dir: str):
    """Zonal statistics, raster x vector: decode every image blob and
    aggregate total pixel luminance per z=5 map-tile zone. The decode
    + per-batch partial aggregation happen in ONE map_batches pass, so
    the all-to-all moves (tile, sum, n) partials — never pixels. The
    SQL oracle regenerates each source image's pixel sum arithmetically
    (synth formula + qjpg quantize-decode) and the tile from the
    geotag formula, so codec, tiling, or dup-row drift fails the
    hash."""
    from proj_ray.images import decode, images_table
    from proj_ray.stages import with_tiles

    n = _read(sf_dir, "documents").count()
    ds = with_tiles(images_table(
        n, columns=["image_id", "bytes", "fmt", "lon", "lat"],
        small_as_one_block=True), zoom=5)

    def partial(b: dict) -> dict:
        import pandas as pd

        m = len(b["image_id"])
        lum = np.empty(m, dtype=np.int64)
        for k in range(m):
            lum[k] = int(decode(b["bytes"][k], b["fmt"][k])
                         .sum(dtype=np.int64))
        g = (pd.DataFrame({"tile_x": b["tile_x"],
                           "tile_y": b["tile_y"], "lum": lum})
             .groupby(["tile_x", "tile_y"], as_index=False)
             .agg(s_part=("lum", "sum"), n_part=("lum", "size")))
        return {k: g[k].to_numpy() for k in g.columns}

    out = bucketed_sum(ds.map_batches(partial, batch_format="numpy",
                                      batch_size=256),
                       ["tile_x", "tile_y"], ["s_part", "n_part"],
                       ["sum_lum", "n_images"])

    def add_z(b: dict) -> dict:
        return {"tile_z": np.full(len(b["tile_x"]), 5, dtype=np.int64),
                **{k: b[k] for k in ("tile_x", "tile_y",
                                     "sum_lum", "n_images")}}

    return out.map_batches(add_z, batch_format="numpy")


_Q49_SQL = f"""
WITH img AS ({_IMG_GEO_SQL.format(mult=1)}),
srcm AS (
  SELECT i, lon, lat,
         CASE WHEN i > 0 AND i % 97 = 0 THEN i - 1 ELSE i END AS src
  FROM img
),
dim AS (
  SELECT i, lon, lat, src, src % 3 AS f,
         CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 32 ELSE 64 END AS w,
         CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 24 ELSE 48 END AS h
  FROM srcm
),
px AS (
  SELECT i, f,
         (src * 37 + y.y * 11 + x.x * 7) % 256 AS r,
         (src * 53 + y.y * 5 + x.x * 13) % 256 AS g,
         (src * 97 + (y.y + x.x) * 3) % 256 AS b
  FROM dim CROSS JOIN range(48) y(y) CROSS JOIN range(64) x(x)
  WHERE y.y < h AND x.x < w
),
lum AS (
  SELECT i,
         SUM(CASE WHEN f = 1 THEN (r // 4) * 4 + 2 ELSE r END
           + CASE WHEN f = 1 THEN (g // 4) * 4 + 2 ELSE g END
           + CASE WHEN f = 1 THEN (b // 4) * 4 + 2 ELSE b END) AS s
  FROM px GROUP BY i
),
t AS (
  SELECT {_TILE_SQL.format(n=32)}, s
  FROM dim JOIN lum USING (i)
)
SELECT CAST(5 AS BIGINT) AS tile_z, tile_x, tile_y,
       CAST(SUM(s) AS BIGINT) AS sum_lum,
       CAST(COUNT(*) AS BIGINT) AS n_images
FROM t GROUP BY tile_x, tile_y
"""


def _q50_rollup(sf_dir: str):
    """GROUP BY ROLLUP in one data pass: quantity sums + counts at
    (returnflag, linestatus), (returnflag) and grand-total levels,
    rolled-up keys labelled 'ALL'. Streaming associative combines, no
    sort shuffle (proj_ray/functions/stats.py rollup_sums)."""
    from proj_ray.functions.stats import rollup_sums

    li = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus", "l_quantity"])
    return rollup_sums(li, ["l_returnflag", "l_linestatus"],
                       "l_quantity", scale=100)


_Q50_SQL = """
SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
       COALESCE(l_linestatus, 'ALL') AS l_linestatus,
       CAST(SUM(CAST(round(l_quantity * 100) AS BIGINT)) AS BIGINT)
         AS sum_c,
       CAST(COUNT(*) AS BIGINT) AS n_rows
FROM lineitem
GROUP BY ROLLUP(l_returnflag, l_linestatus)
"""


def _q51_heavy_hitters(sf_dir: str):
    """Exact top-10 most frequent part keys via a Misra-Gries sketch
    pass (streaming associative merges, no sort shuffle) + an exact
    recount of the certified candidates
    (proj_ray/functions/sketch.py heavy_hitters). Ties break by key
    ascending, matching the SQL ORDER BY."""
    from proj_ray.functions.sketch import heavy_hitters

    li = _read(sf_dir, "lineitem", columns=["l_partkey"])
    return heavy_hitters(li, "l_partkey", k=10, m=4096)


_Q51_SQL = """
SELECT l_partkey, CAST(COUNT(*) AS BIGINT) AS cnt
FROM lineitem GROUP BY l_partkey
ORDER BY cnt DESC, l_partkey ASC LIMIT 10
"""


def _q52_revenue_by_nation(sf_dir: str):
    """TPC-H Q5-style 6-table pipeline: lineitem JOIN orders (the one
    big-big pair -> Ray's native hash-shuffle join, partition count
    sized to the cluster) with every dimension attached via CAPPED
    broadcast lookups — customer, supplier and orders each go through
    `dsutil.driver_table` with `dsutil.BROADCAST_ROWS` (TPC-H dims
    scale linearly with SF, so at the 100-TB target they are tens of
    GB and must NOT be pulled to the driver) and fall back to Ray's
    hash-shuffle join on the materialized side above it. Nation x
    region (25 x 5 rows, SF-invariant) stays broadcast. Same-nation
    customer/supplier filter, date + region predicates, then exact
    int64 revenue partials per nation streaming-combined to a 5-row
    result. Below the caps: zero shuffles total (pytest sets the cap to
    0 to run every join fallback on small data)."""
    import ray

    from proj_ray import dsutil
    from proj_ray.stages import BroadcastLookup

    def _nparts() -> int:
        return max(2, min(64, dsutil.cluster_cpus() - 1))

    nat = _read(sf_dir, "nation").to_pandas()
    reg = _read(sf_dir, "region").to_pandas()
    dim = nat.merge(reg, left_on="n_regionkey",
                    right_on="r_regionkey")
    asia = dim[dim["r_name"] == "ASIA"]
    nmap = BroadcastLookup(
        asia["n_nationkey"].to_numpy(),
        {"n_name": asia["n_name"].to_numpy(object)})
    nref = ray.put(nmap)

    t0 = np.datetime64("1996-01-01").astype("datetime64[us]")
    t1 = np.datetime64("1998-01-01").astype("datetime64[us]")

    # --- orders (date filter) x customer: broadcast below cap, else join
    cust_ds = _read(sf_dir, "customer",
                    columns=["c_custkey", "c_nationkey"])
    orders_rd = _read(sf_dir, "orders",
                      columns=["o_orderkey", "o_custkey", "o_orderdate"])
    cust_ds, cust = dsutil.driver_table(cust_ds, dsutil.BROADCAST_ROWS)
    if cust is not None:
        cmap = BroadcastLookup(cust["c_custkey"].to_numpy(),
                               {"cn": cust["c_nationkey"].to_numpy()})
        cref = ray.put(cmap)

        def orders_filtered(b: dict) -> dict:
            ts = np.asarray(b["o_orderdate"]).astype("datetime64[us]")
            keep = (ts >= t0) & (ts < t1)
            ck = np.asarray(b["o_custkey"])[keep]
            vals, found = ray.get(cref).take(ck)
            return {"o_orderkey":
                    np.asarray(b["o_orderkey"])[keep][found],
                    "cn": vals["cn"][found]}

        orders = orders_rd.map_batches(orders_filtered,
                                       batch_format="numpy")
    else:
        def date_only(b: dict) -> dict:
            ts = np.asarray(b["o_orderdate"]).astype("datetime64[us]")
            keep = (ts >= t0) & (ts < t1)
            return {"o_orderkey": np.asarray(b["o_orderkey"])[keep],
                    "o_custkey": np.asarray(b["o_custkey"])[keep]}

        def keep_cn(b: dict) -> dict:
            return {"o_orderkey": b["o_orderkey"],
                    "cn": np.asarray(b["c_nationkey"])}

        orders = (orders_rd
                  .map_batches(date_only, batch_format="numpy")
                  .join(cust_ds, join_type="inner",
                        num_partitions=_nparts(),
                        on=("o_custkey",), right_on=("c_custkey",))
                  .map_batches(keep_cn, batch_format="numpy"))

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_suppkey",
                        "l_extendedprice", "l_discount"])
    # fact x orders: below the broadcast cap the filtered orders ship
    # once via ray.put and the whole query is ZERO shuffles; above it,
    # Ray's hash join (partition count sized to the cluster — each
    # partition is an aggregator actor, and actor startup dominated a
    # first version that always joined: 21-75 s for a 600k-row fact).
    orders, odf = dsutil.driver_table(orders, dsutil.BROADCAST_ROWS)
    if odf is not None:
        omap = BroadcastLookup(odf["o_orderkey"].to_numpy(),
                               {"cn": odf["cn"].to_numpy()})
        oref = ray.put(omap)

        def attach_orders(b: dict) -> dict:
            vals, found = ray.get(oref).take(
                np.asarray(b["l_orderkey"]))
            out = {c: np.asarray(v)[found] for c, v in b.items()}
            out["cn"] = vals["cn"][found]
            return out

        joined = li.map_batches(attach_orders, batch_format="numpy")
    else:
        joined = li.join(orders, join_type="inner",
                         num_partitions=_nparts(),
                         on=("l_orderkey",), right_on=("o_orderkey",))

    # --- fact x supplier: broadcast below cap, else one more hash join
    sup_ds = _read(sf_dir, "supplier",
                   columns=["s_suppkey", "s_nationkey"])
    sup_ds, sup = dsutil.driver_table(sup_ds, dsutil.BROADCAST_ROWS)
    if sup is not None:
        smap = BroadcastLookup(sup["s_suppkey"].to_numpy(),
                               {"sn": sup["s_nationkey"].to_numpy()})
        sref = ray.put(smap)

        def attach_sn(b: dict) -> dict:
            svals, sfound = ray.get(sref).take(
                np.asarray(b["l_suppkey"]))
            out = {c: np.asarray(v)[sfound] for c, v in b.items()}
            out["sn"] = svals["sn"][sfound]
            return out

        joined = joined.map_batches(attach_sn, batch_format="numpy")
    else:
        joined = (joined.join(sup_ds, join_type="inner",
                              num_partitions=_nparts(),
                              on=("l_suppkey",),
                              right_on=("s_suppkey",))
                  .rename_columns({"s_nationkey": "sn"}))

    def partial(b: dict) -> dict:
        import pandas as pd

        same = np.asarray(b["sn"]) == np.asarray(b["cn"])
        nvals, nfound = ray.get(nref).take(np.asarray(b["cn"])[same])
        rev = _milli(np.asarray(b["l_extendedprice"])[same][nfound]
                     * (1 - np.asarray(b["l_discount"])[same][nfound]),
                     10000)
        g = (pd.DataFrame({"n_name": nvals["n_name"][nfound],
                           "rev": rev})
             .groupby("n_name", as_index=False)["rev"].sum())
        return {"n_name": g["n_name"].to_numpy(object),
                "rev": g["rev"].to_numpy()}

    return pull_pandas(bucketed_sum(
        joined.map_batches(partial, batch_format="numpy",
                           batch_size=65536),
        "n_name", "rev", "revenue_c"))


_Q52_SQL = """
SELECT n_name,
       CAST(SUM(CAST(round(l_extendedprice * (1 - l_discount) * 10000)
                     AS BIGINT)) AS BIGINT) AS revenue_c
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate < TIMESTAMP '1998-01-01'
GROUP BY n_name ORDER BY n_name
"""


def _q53_unpivot(sf_dir: str):
    """Wide -> long unpivot (melt): each lineitem row becomes one row
    per money metric, value fixed-point int64. Pure per-batch index
    arithmetic (repeat ids, tile metric labels, interleave value
    columns) — no shuffle, schema fixed up front."""
    cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_linenumber", *cols])
    labels = np.array(cols, dtype=object)

    def melt(b: dict) -> dict:
        n = len(b["l_orderkey"])
        vals = np.stack([np.rint(np.asarray(b[c], dtype=np.float64)
                                 * 10000).astype(np.int64)
                         for c in cols], axis=1)  # (n, 4)
        return {
            "l_orderkey": np.repeat(np.asarray(b["l_orderkey"]), 4),
            "l_linenumber": np.repeat(
                np.asarray(b["l_linenumber"]), 4),
            "metric": np.tile(labels, n),
            "value_c": vals.reshape(-1),
        }

    return li.map_batches(melt, batch_format="numpy")


_Q53_SQL = """
SELECT l_orderkey, l_linenumber, metric,
       CAST(round(val * 10000) AS BIGINT) AS value_c
FROM (
  SELECT l_orderkey, l_linenumber, 'l_quantity' AS metric,
         l_quantity AS val FROM lineitem
  UNION ALL
  SELECT l_orderkey, l_linenumber, 'l_extendedprice', l_extendedprice
  FROM lineitem
  UNION ALL
  SELECT l_orderkey, l_linenumber, 'l_discount', l_discount
  FROM lineitem
  UNION ALL
  SELECT l_orderkey, l_linenumber, 'l_tax', l_tax FROM lineitem
)
"""


def _q54_track_length(sf_dir: str):
    """Per-source great-circle track length over doc geotags ordered
    by doc_id: consecutive-leg haversine sums, each leg 0.1mm-rounded
    before the int64 sum (proj_ray/functions/temporal.py
    track_length). The windowed-geospatial aggregate shape: one
    hash-bucket all-to-all, vectorized segment pass."""
    from proj_ray.functions.temporal import track_length

    docs = _read(sf_dir, "documents", columns=["doc_id", "source"])

    def add_geo(b: dict) -> dict:
        i = np.asarray(b["doc_id"], dtype=np.int64)
        lon, lat = _geotag(i)
        return {"doc_id": i, "source": b["source"],
                "lon": lon, "lat": lat}

    return track_length(docs.map_batches(add_geo, batch_format="numpy"),
                        "source", "doc_id")


_Q54_SQL = f"""
WITH g AS (
  SELECT source, doc_id,
         (doc_id * 61803 % 360000) / 1000.0 - 180.0 AS lon,
         (doc_id * 75487 % 170000) / 1000.0 - 85.0  AS lat
  FROM documents
),
p AS (
  SELECT source, doc_id, lon, lat,
         LAG(lon) OVER w AS plon, LAG(lat) OVER w AS plat
  FROM g WINDOW w AS (PARTITION BY source ORDER BY doc_id)
),
d AS (
  SELECT source,
         2.0 * 6371000.0 * asin(sqrt(LEAST(
           sin((radians(lat) - radians(plat)) / 2.0)
             * sin((radians(lat) - radians(plat)) / 2.0)
           + cos(radians(plat)) * cos(radians(lat))
             * sin((radians(lon) - radians(plon)) / 2.0)
             * sin((radians(lon) - radians(plon)) / 2.0), 1.0))) AS dist
  FROM p WHERE plon IS NOT NULL
)
SELECT source,
       CAST(SUM(CAST(round(dist * 10000.0) AS BIGINT)) AS BIGINT)
         AS track_tmm,
       CAST(COUNT(*) AS BIGINT) AS n_legs
FROM d GROUP BY source
"""


def _q55_raster_warp(sf_dir: str):
    """Raster warp (the gdalwarp core): reproject each lon/lat-regular
    DEM tile onto a per-tile Web-Mercator output grid — inverse
    Mercator per output pixel, clamped bilinear sampling of the
    decoded source payload — and emit per-tile fixed-point aggregates
    (sum + position checksum, so orientation drift fails the hash).
    Embarrassingly parallel map_batches over binary tiles read from a
    cached stored table with column pruning; pixels never cross the
    all-to-all (proj_ray/raster.py; kernel parity target
    src/projections/merc.cpp spherical inverse, re-derived)."""
    from proj_ray.raster import dem_table, warp_stats

    n = _read(sf_dir, "documents").count()
    return warp_stats(dem_table(
        n, columns=["tile_id", "bytes", "lon0", "lat0", "lon1", "lat1"]))


# mirrors proj_ray/raster.py op-for-op: asinh-form Mercator northing,
# sinh-form inverse latitude, the x path is exact binary arithmetic
# (fx = 2*ox + 0.5), each output pixel rounded to 1/1000 before the
# int64 sums so SQL and numpy agree exactly.
_Q55_SQL = """
WITH ids AS (
  SELECT CAST(ROW_NUMBER() OVER () - 1 AS BIGINT) AS i FROM documents
),
ext AS (
  SELECT i,
         -180.0 + (i % 16) * 22.5 AS lon0,
         -85.0 + ((i // 16) % 10) * 17.0 AS lat0
  FROM ids
),
m AS (
  SELECT i, lon0, lat0,
         ln(tan(radians(lat0))
            + sqrt(tan(radians(lat0))*tan(radians(lat0)) + 1.0)) AS y0,
         ln(tan(radians(lat0 + 17.0))
            + sqrt(tan(radians(lat0 + 17.0))
                   * tan(radians(lat0 + 17.0)) + 1.0)) AS y1
  FROM ext
),
px AS (
  SELECT i, lon0, lat0, ox.ox, oy.oy,
         ((lon0 + ((ox.ox + 0.5) * 22.5) / 16.0) - lon0)
           / (22.5 / 32.0) - 0.5 AS fx,
         (degrees(atan((exp(y0 + ((oy.oy + 0.5) * (y1 - y0)) / 16.0)
                        - exp(-(y0 + ((oy.oy + 0.5) * (y1 - y0))
                                / 16.0))) / 2.0)) - lat0)
           / (17.0 / 32.0) - 0.5 AS fy
  FROM m CROSS JOIN range(16) ox(ox) CROSS JOIN range(16) oy(oy)
),
w AS (
  SELECT i, ox, oy,
         LEAST(CAST(floor(LEAST(GREATEST(fx, 0.0), 31.0)) AS BIGINT),
               30) AS gx0,
         LEAST(CAST(floor(LEAST(GREATEST(fy, 0.0), 31.0)) AS BIGINT),
               30) AS gy0,
         LEAST(GREATEST(fx, 0.0), 31.0)
           - LEAST(CAST(floor(LEAST(GREATEST(fx, 0.0), 31.0))
                        AS BIGINT), 30) AS wx,
         LEAST(GREATEST(fy, 0.0), 31.0)
           - LEAST(CAST(floor(LEAST(GREATEST(fy, 0.0), 31.0))
                        AS BIGINT), 30) AS wy
  FROM px
),
v AS (
  SELECT i, ox, oy,
         (1.0 - wy) * ((1.0 - wx) * ((i*31 + gy0*7 + gx0*13) % 256)
                       + wx * ((i*31 + gy0*7 + (gx0+1)*13) % 256))
         + wy * ((1.0 - wx) * ((i*31 + (gy0+1)*7 + gx0*13) % 256)
                 + wx * ((i*31 + (gy0+1)*7 + (gx0+1)*13) % 256)) AS val
  FROM w
),
p AS (
  SELECT i, CAST(floor(val * 1000.0 + 0.5) AS BIGINT) AS pv,
         oy * 16 + ox + 1 AS pos
  FROM v
)
SELECT i AS tile_id,
       CAST(SUM(pv) AS BIGINT) AS wsum,
       CAST(SUM(pv * pos) AS BIGINT) AS wchk,
       CAST(COUNT(*) AS BIGINT) AS n_px
FROM p GROUP BY i
"""


def _q56_raster_sample(sf_dir: str):
    """Vector-x-raster join: bilinear-sample the layer-0 DEM mosaic at
    each document geotag. The raster side is bounded (160 tiles read
    from the stored table, assembled once, ray.put broadcast); the
    point side streams through an actor pool with a pure vectorized
    gather per batch — no shuffle at all (proj_ray/raster.py
    sample_points)."""
    from proj_ray.raster import sample_points

    docs = _read(sf_dir, "documents", columns=["doc_id"])
    n = docs.count()

    def add_geo(b: dict) -> dict:
        i = np.asarray(b["doc_id"], dtype=np.int64)
        lon, lat = _geotag(i)
        return {"doc_id": i,
                "lon": lon, "lat": lat}

    return sample_points(docs.map_batches(add_geo,
                                          batch_format="numpy"),
                         n_tiles=n)


# mirrors PointSampler op-for-op; v(gx,gy) decomposes the global pixel
# into (tile, local row, local col) exactly as the mosaic assembles it
_Q56_SQL = """
WITH g AS (
  SELECT doc_id,
         (doc_id * 61803 % 360000) / 1000.0 - 180.0 AS lon,
         (doc_id * 75487 % 170000) / 1000.0 - 85.0  AS lat
  FROM documents
),
f AS (
  SELECT doc_id, lon, lat,
         LEAST(GREATEST((lon + 180.0) / (360.0 / 512.0) - 0.5, 0.0),
               511.0) AS fx,
         LEAST(GREATEST((lat + 85.0) / (170.0 / 320.0) - 0.5, 0.0),
               319.0) AS fy
  FROM g
),
w AS (
  SELECT doc_id, lon, lat,
         LEAST(CAST(floor(fx) AS BIGINT), 510) AS gx0,
         LEAST(CAST(floor(fy) AS BIGINT), 318) AS gy0,
         fx - LEAST(CAST(floor(fx) AS BIGINT), 510) AS wx,
         fy - LEAST(CAST(floor(fy) AS BIGINT), 318) AS wy
  FROM f
),
v AS (
  SELECT doc_id, lon, lat,
    (1.0 - wy) * (
      (1.0 - wx) * ((((gy0 // 32) * 16 + gx0 // 32) * 31
                     + (gy0 % 32) * 7 + (gx0 % 32) * 13) % 256)
      + wx * ((((gy0 // 32) * 16 + (gx0 + 1) // 32) * 31
               + (gy0 % 32) * 7 + ((gx0 + 1) % 32) * 13) % 256))
    + wy * (
      (1.0 - wx) * (((((gy0 + 1) // 32) * 16 + gx0 // 32) * 31
                     + ((gy0 + 1) % 32) * 7 + (gx0 % 32) * 13) % 256)
      + wx * (((((gy0 + 1) // 32) * 16 + (gx0 + 1) // 32) * 31
               + ((gy0 + 1) % 32) * 7
               + ((gx0 + 1) % 32) * 13) % 256)) AS val
  FROM w
)
SELECT doc_id, lon, lat,
       CAST(floor(val * 1000.0 + 0.5) AS BIGINT) AS samp_f
FROM v
"""


def _q57_hillshade(sf_dir: str):
    """Focal raster analysis: Horn hillshade over each DEM tile's
    interior pixels (3x3 gradients need no cross-tile halo), per-tile
    fixed-point sum + position checksum. Embarrassingly parallel
    map_batches over the stored binary tiles
    (proj_ray/raster.py hillshade_stats)."""
    from proj_ray.raster import dem_table, hillshade_stats

    n = _read(sf_dir, "documents").count()
    return hillshade_stats(dem_table(n, columns=["tile_id", "bytes"]))


def _v57(dr: int, dc: int) -> str:
    """DEM value at the (r+dr, c+dc) neighbor, inlined for the q57
    oracle (integer adds below 2^53 are exact in float, so the p/q
    summation order need not mirror numpy's)."""
    return f"((i*31 + (r.r+({dr}))*7 + (c.c+({dc}))*13) % 256)"


_Q57_SQL = f"""
WITH ids AS (
  SELECT CAST(ROW_NUMBER() OVER () - 1 AS BIGINT) AS i FROM documents
),
g AS (
  SELECT i, r.r, c.c,
         (({_v57(-1, 1)} + 2.0*{_v57(0, 1)} + {_v57(1, 1)})
          - ({_v57(-1, -1)} + 2.0*{_v57(0, -1)} + {_v57(1, -1)}))
           / 8.0 AS p,
         (({_v57(1, -1)} + 2.0*{_v57(1, 0)} + {_v57(1, 1)})
          - ({_v57(-1, -1)} + 2.0*{_v57(-1, 0)} + {_v57(-1, 1)}))
           / 8.0 AS q
  FROM ids CROSS JOIN range(1, 31) r(r) CROSS JOIN range(1, 31) c(c)
),
h AS (
  SELECT i, r, c,
         255.0 * GREATEST(
           cos(pi()/4.0) * cos(atan(sqrt(p*p + q*q)))
           + sin(pi()/4.0) * sin(atan(sqrt(p*p + q*q)))
             * cos(5.0*pi()/4.0 - atan2(q, -p)), 0.0) AS hs
  FROM g
),
p AS (
  SELECT i, CAST(floor(hs * 1000.0 + 0.5) AS BIGINT) AS pv,
         (r - 1) * 30 + (c - 1) + 1 AS pos
  FROM h
)
SELECT i AS tile_id,
       CAST(SUM(pv) AS BIGINT) AS hsum,
       CAST(SUM(pv * pos) AS BIGINT) AS hchk,
       CAST(COUNT(*) AS BIGINT) AS n_px
FROM p GROUP BY i
"""


def _q58_laea_warp(sf_dir: str):
    """Raster warp driven by the ENGINE's laea kernel (not inline
    math): each DEM tile resampled onto a local spherical
    equal-area grid centered on its extent, via create_operation /
    transform inverse. The SQL oracle re-derives the kernel's exact
    spherical-oblique inverse algebra (proj_ray/ops/projections2.py
    Laea._inv; parity target src/projections/laea.cpp), so a kernel
    regression fails this hash too (proj_ray/raster.py
    laea_warp_stats)."""
    from proj_ray.raster import dem_table, laea_warp_stats

    n = _read(sf_dir, "documents").count()
    return laea_warp_stats(dem_table(
        n, columns=["tile_id", "bytes", "lon0", "lat0"]))


# mirrors Laea._inv (sphere, oblique) op-for-op: unit-sphere scaling
# x*(1/R), c = 2*asin(rh/2), phi = asin(cosz*sinb1 + y*sinz*cosb1/rh),
# lam = atan2(x*sinz*cosb1, (cosz - sin(phi)*sinb1)*rh) + lon_0
_Q58_SQL = """
WITH ids AS (
  SELECT CAST(ROW_NUMBER() OVER () - 1 AS BIGINT) AS i FROM documents
),
ext AS (
  SELECT i,
         -180.0 + (i % 16) * 22.5 AS lon0,
         -85.0 + ((i // 16) % 10) * 17.0 AS lat0,
         sin(radians(-85.0 + ((i // 16) % 10) * 17.0 + 8.5)) AS sinb1,
         cos(radians(-85.0 + ((i // 16) % 10) * 17.0 + 8.5)) AS cosb1
  FROM ids
),
px AS (
  SELECT i, lon0, lat0, sinb1, cosb1, ox.ox, oy.oy,
         (-900000.0 + (ox.ox + 0.5) * (1800000.0 / 16.0))
           * (1.0 / 6371000.0) AS xu,
         (-800000.0 + (oy.oy + 0.5) * (1600000.0 / 16.0))
           * (1.0 / 6371000.0) AS yu
  FROM ext CROSS JOIN range(16) ox(ox) CROSS JOIN range(16) oy(oy)
),
r1 AS (
  SELECT *, sqrt(xu*xu + yu*yu) AS rh FROM px
),
r2 AS (
  SELECT *, 2.0 * asin(LEAST(GREATEST(rh * 0.5, -1.0), 1.0)) AS cz
  FROM r1
),
r3 AS (
  SELECT *, asin(LEAST(GREATEST(
           cos(cz) * sinb1 + yu * sin(cz) * cosb1 / rh,
           -1.0), 1.0)) AS phi
  FROM r2
),
ll AS (
  SELECT i, lon0, lat0, ox, oy,
         degrees(atan2(xu * sin(cz) * cosb1,
                       (cos(cz) - sin(phi) * sinb1) * rh)
                 + radians(lon0 + 11.25)) AS lon,
         degrees(phi) AS lat
  FROM r3
),
d AS (
  SELECT i, ox, oy, lat, lat0,
         (lon - (lon0 + 11.25))
           - 360.0 * floor(((lon - (lon0 + 11.25)) + 180.0) / 360.0)
           AS dc
  FROM ll
),
f AS (
  SELECT i, ox, oy,
         LEAST(GREATEST((dc + 11.25) / (22.5 / 32.0) - 0.5, 0.0),
               31.0) AS fx,
         LEAST(GREATEST((lat - lat0) / (17.0 / 32.0) - 0.5, 0.0),
               31.0) AS fy
  FROM d
),
w AS (
  SELECT i, ox, oy,
         LEAST(CAST(floor(fx) AS BIGINT), 30) AS gx0,
         LEAST(CAST(floor(fy) AS BIGINT), 30) AS gy0,
         fx - LEAST(CAST(floor(fx) AS BIGINT), 30) AS wx,
         fy - LEAST(CAST(floor(fy) AS BIGINT), 30) AS wy
  FROM f
),
v AS (
  SELECT i, ox, oy,
         (1.0 - wy) * ((1.0 - wx) * ((i*31 + gy0*7 + gx0*13) % 256)
                       + wx * ((i*31 + gy0*7 + (gx0+1)*13) % 256))
         + wy * ((1.0 - wx) * ((i*31 + (gy0+1)*7 + gx0*13) % 256)
                 + wx * ((i*31 + (gy0+1)*7 + (gx0+1)*13) % 256)) AS val
  FROM w
),
p AS (
  SELECT i, CAST(floor(val * 1000.0 + 0.5) AS BIGINT) AS pv,
         oy * 16 + ox + 1 AS pos
  FROM v
)
SELECT i AS tile_id,
       CAST(SUM(pv) AS BIGINT) AS wsum,
       CAST(SUM(pv * pos) AS BIGINT) AS wchk,
       CAST(COUNT(*) AS BIGINT) AS n_px
FROM p GROUP BY i
"""


def _q59_tfidf(sf_dir: str):
    """Top-3 TF-IDF terms per document: corpus DF pass (stream-combined
    per-batch partials, vocabulary-sized result, never a token-stream
    shuffle) + a scoring pass with the idf table broadcast via ray.put.
    Ranking is on the fixed-point score so engine and SQL order the
    same integers (proj_ray/functions/text.py tfidf_topk)."""
    from proj_ray.functions.text import tfidf_topk

    return tfidf_topk(_read(sf_dir, "documents",
                            columns=["doc_id", "text"]))


_Q59_SQL = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term
  FROM documents
),
tf AS (
  SELECT doc_id, term, CAST(COUNT(*) AS DOUBLE) AS tf
  FROM tok GROUP BY doc_id, term
),
df AS (
  SELECT term, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS dfc
  FROM tok GROUP BY term
),
nn AS (SELECT CAST(COUNT(*) AS DOUBLE) AS nd FROM documents),
s AS (
  SELECT doc_id, tf.term AS term,
         CAST(floor(tf * ln(nd / dfc) * 1000000.0 + 0.5) AS BIGINT)
           AS score_f
  FROM tf JOIN df ON tf.term = df.term CROSS JOIN nn
),
r AS (
  SELECT doc_id, term, score_f,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY score_f DESC, term) AS rk
  FROM s
)
SELECT doc_id, CAST(rk AS BIGINT) AS rk, term, score_f
FROM r WHERE rk <= 3
"""


def _q60_pmi_pairs(sf_dir: str):
    """Global top-25 term pairs by document-level PMI: doc-local
    distinct-pair generation, hash-bucketed exact pair counts (pair
    vocabulary never touches the driver), broadcast unigram DFs,
    fixed-point ranking with (ta, tb) tiebreak
    (proj_ray/functions/text.py cooccurrence_pmi)."""
    from proj_ray.functions.text import cooccurrence_pmi

    return cooccurrence_pmi(_read(sf_dir, "documents",
                                  columns=["doc_id", "text"]))


_Q60_SQL = """
WITH tok AS (
  SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS term
  FROM documents
),
pair AS (
  SELECT a.term AS ta, b.term AS tb,
         CAST(COUNT(*) AS BIGINT) AS c_ab
  FROM tok a JOIN tok b
    ON a.doc_id = b.doc_id AND a.term < b.term
  GROUP BY a.term, b.term
),
uni AS (
  SELECT term, CAST(COUNT(*) AS DOUBLE) AS c FROM tok GROUP BY term
),
nn AS (SELECT CAST(COUNT(*) AS DOUBLE) AS nd FROM documents),
s AS (
  SELECT ta, tb, c_ab,
         CAST(floor(ln(nd * c_ab / (ua.c * ub.c)) * 1000000.0 + 0.5)
              AS BIGINT) AS pmi_f
  FROM pair JOIN uni ua ON pair.ta = ua.term
            JOIN uni ub ON pair.tb = ub.term
            CROSS JOIN nn
)
SELECT ta, tb, c_ab, pmi_f
FROM s ORDER BY pmi_f DESC, ta, tb LIMIT 25
"""


def _q61_dedup_clusters(sf_dir: str):
    """Near-dup clustering: connected components over a deterministic
    doc-id edge set (two-level star: doc -> 16-block head -> 64-super-
    block head; diameter <= 4, so label propagation converges in a
    constant number of all-to-alls at ANY corpus size). Iterative
    min-label propagation with hash-bucket co-partitioned steps and a
    monotone sum(label) convergence check
    (proj_ray/functions/graph.py connected_components)."""
    from proj_ray.functions.graph import connected_components

    docs = _read(sf_dir, "documents", columns=["doc_id"])

    def edges(b: dict) -> dict:
        i = np.asarray(b["doc_id"], dtype=np.int64)
        e1a, e1b = i, i - (i % 16)
        heads = i[i % 16 == 0]
        e2a = heads
        e2b = heads - 16 * ((heads // 16) % 4)
        return {"a": np.concatenate([e1a, e2a]),
                "b": np.concatenate([e1b, e2b])}

    return connected_components(
        docs.map_batches(edges, batch_format="numpy"))


_Q61_SQL = """
WITH RECURSIVE ids AS (
  SELECT CAST(ROW_NUMBER() OVER () - 1 AS BIGINT) AS i FROM documents
),
e0 AS (
  SELECT i AS a, i - (i % 16) AS b FROM ids
  UNION ALL
  SELECT i AS a, i - 16 * ((i // 16) % 4) AS b FROM ids
  WHERE i % 16 = 0
),
ed AS (SELECT a, b FROM e0 UNION SELECT b AS a, a AS b FROM e0),
cc AS (
  SELECT i AS node, i AS label FROM ids
  UNION
  SELECT ed.b AS node, cc.label FROM cc JOIN ed ON ed.a = cc.node
)
SELECT node, CAST(MIN(label) AS BIGINT) AS label
FROM cc GROUP BY node
"""


def _q62_dedup_pipeline(sf_dir: str):
    """End-to-end near-dup pipeline: MinHash LSH candidates -> exact
    Jaccard verify (the q19 stage) -> dup pairs become edges ->
    distributed connected components -> every document assigned its
    canonical (component-minimum) doc_id. Docs with no dup are their
    own canonical via self-loop edges. The oracle recomputes the SAME
    pair set from substring 5-grams and closes it with a recursive
    CTE, so LSH recall, the verify threshold, AND the clustering all
    gate the hash."""
    from proj_ray.functions.dedup import dedup_minhash_lsh
    from proj_ray.functions.graph import connected_components

    pairs = dedup_minhash_lsh(_read(sf_dir, "documents",
                                    columns=["doc_id", "text"]), "text",
                              "doc_id", threshold=0.6)

    def pair_edges(b: dict) -> dict:
        return {"a": np.asarray(b["id_a"], dtype=np.int64),
                "b": np.asarray(b["id_b"], dtype=np.int64)}

    def self_edges(b: dict) -> dict:
        i = np.asarray(b["doc_id"], dtype=np.int64)
        return {"a": i, "b": i}

    edges = pairs.map_batches(pair_edges, batch_format="numpy").union(
        _read(sf_dir, "documents", columns=["doc_id"])
        .map_batches(self_edges, batch_format="numpy"))
    out = connected_components(edges)

    def rename(b: dict) -> dict:
        return {"doc_id": b["node"], "canon": b["label"]}

    return out.map_batches(rename, batch_format="numpy")


_Q62_SQL = """
WITH RECURSIVE nums AS (
  SELECT unnest(generate_series(
      1, (SELECT max(length(text)) FROM documents))) AS i
),
g AS (
  SELECT DISTINCT d.doc_id, substr(d.text, n.i::INT, 5) AS gram
  FROM documents d JOIN nums n ON n.i <= length(d.text) - 4
),
c AS (SELECT doc_id, count(*) AS sz FROM g GROUP BY doc_id),
p AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS shared
  FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
dup AS (
  SELECT p.id_a, p.id_b
  FROM p
  JOIN c ca ON ca.doc_id = p.id_a
  JOIN c cb ON cb.doc_id = p.id_b
  WHERE CAST(p.shared AS DOUBLE) / (ca.sz + cb.sz - p.shared) >= 0.6
),
ed AS (
  SELECT id_a AS a, id_b AS b FROM dup
  UNION
  SELECT id_b AS a, id_a AS b FROM dup
),
cc AS (
  SELECT doc_id AS node, doc_id AS label FROM documents
  UNION
  SELECT ed.b AS node, cc.label FROM cc JOIN ed ON ed.a = cc.node
)
SELECT node AS doc_id, CAST(MIN(label) AS BIGINT) AS canon
FROM cc GROUP BY node
"""


def _q63_kmeans_estep(sf_dir: str):
    """k-means E-step over the embeddings table: broadcast fixed
    deterministic centroids (vec_id < 8, cosine), one matmul per
    batch, per-cluster count + dim-weighted checksum of
    int-quantized elements (quantize BEFORE summing -> order-free
    exact distributed accumulation, the property an M-step
    accumulator needs; proj_ray/functions/ann.py
    kmeans_assign_stats)."""
    from proj_ray.functions.ann import kmeans_assign_stats

    return kmeans_assign_stats(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]))


_Q63_SQL = """
WITH c AS (
  SELECT vec_id AS cid, embedding AS cvec FROM embeddings
  WHERE vec_id < 8
),
a AS (
  SELECT e.vec_id, c.cid,
         ROW_NUMBER() OVER (
           PARTITION BY e.vec_id
           ORDER BY list_cosine_similarity(
                      CAST(e.embedding AS DOUBLE[]),
                      CAST(c.cvec AS DOUBLE[])) DESC,
                    c.cid) AS rnk
  FROM embeddings e CROSS JOIN c
),
asg AS (SELECT vec_id, cid FROM a WHERE rnk = 1),
chk AS (
  SELECT e.vec_id,
         SUM(d.i * CAST(floor(
               CAST(e.embedding[CAST(d.i AS INT)] AS DOUBLE)
               * 1000000.0 + 0.5) AS BIGINT)) AS rchk
  FROM embeddings e CROSS JOIN range(1, 65) d(i)
  GROUP BY e.vec_id
)
SELECT cid,
       CAST(COUNT(*) AS BIGINT) AS n_vecs,
       CAST(SUM(rchk) AS BIGINT) AS sum_chk
FROM asg JOIN chk USING (vec_id)
GROUP BY cid
"""


def _q64_global_sort(sf_dir: str):
    """Global ORDER BY: Ray's range-partitioned distributed sort over
    lineitem (the one all-to-all the rest of the suite deliberately
    avoids — here it IS the operator under test), descending price
    with a unique (orderkey, linenumber) tiebreak so the top-1000 cut
    is deterministic."""
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_linenumber",
                        "l_extendedprice"])

    def cents(b: dict) -> dict:
        return {
            "l_orderkey": np.asarray(b["l_orderkey"], dtype=np.int64),
            "l_linenumber": np.asarray(b["l_linenumber"],
                                       dtype=np.int64),
            "price_c": np.floor(np.asarray(
                b["l_extendedprice"], dtype=np.float64) * 100.0 + 0.5)
            .astype(np.int64),
        }

    return (li.map_batches(cents, batch_format="numpy")
            .sort(["price_c", "l_orderkey", "l_linenumber"],
                  descending=[True, False, False])
            .limit(1000))


_Q64_SQL = """
SELECT CAST(l_orderkey AS BIGINT) AS l_orderkey,
       CAST(l_linenumber AS BIGINT) AS l_linenumber,
       CAST(floor(l_extendedprice * 100.0 + 0.5) AS BIGINT) AS price_c
FROM lineitem
ORDER BY price_c DESC, l_orderkey, l_linenumber
LIMIT 1000
"""


def _q65_blob_stats(sf_dir: str):
    """Raster blob detection: 4-connected components of pixels >= 240
    per DEM tile (count, largest, masked total), computed with
    whole-batch vectorized label propagation — the raster twin of the
    q61 graph operator. Oracle: recursive-CTE closure over pixel
    adjacency (the high threshold keeps blobs small, so the closure
    is bounded) (proj_ray/raster.py blob_stats)."""
    from proj_ray.raster import blob_stats, dem_table

    n = _read(sf_dir, "documents").count()
    return blob_stats(dem_table(n, columns=["tile_id", "bytes"]))


_Q65_SQL = """
WITH RECURSIVE ids AS (
  SELECT CAST(ROW_NUMBER() OVER () - 1 AS BIGINT) AS i FROM documents
),
px AS (
  SELECT i, r.r * 32 + c.c + 1 AS p, r.r AS r, c.c AS c
  FROM ids CROSS JOIN range(32) r(r) CROSS JOIN range(32) c(c)
  WHERE (i*31 + r.r*7 + c.c*13) % 256 >= 240
),
ed AS (
  SELECT a.i, a.p AS pa, b.p AS pb
  FROM px a JOIN px b ON a.i = b.i
   AND ((abs(a.r - b.r) = 1 AND a.c = b.c)
        OR (a.r = b.r AND abs(a.c - b.c) = 1))
),
cc AS (
  SELECT i, p AS node, p AS label FROM px
  UNION
  SELECT ed.i, ed.pb AS node, cc.label
  FROM cc JOIN ed ON ed.i = cc.i AND ed.pa = cc.node
),
lab AS (SELECT i, node, MIN(label) AS lbl FROM cc GROUP BY i, node),
blb AS (SELECT i, lbl, COUNT(*) AS sz FROM lab GROUP BY i, lbl)
SELECT i AS tile_id,
       CAST(COUNT(*) AS BIGINT) AS n_blobs,
       CAST(MAX(sz) AS BIGINT) AS max_blob,
       CAST(SUM(sz) AS BIGINT) AS n_masked
FROM blb GROUP BY i
"""


def _q66_raster_pyramid(sf_dir: str):
    """Raster pyramid: 2x2 level-z DEM tiles -> one level-(z-1) parent
    (per-child 2x box-average where the tile lives, 256-B quadrants
    shuffled once by parent_id, bucketed mosaic assembly). The chk
    column position-weights every pixel of the assembled parent, so
    mosaic placement is value-checked, not just pixel sums
    (proj_ray/raster.py pyramid_stats)."""
    from proj_ray.raster import dem_table, pyramid_stats

    n = _read(sf_dir, "documents").count()
    return pyramid_stats(dem_table(n, columns=["tile_id", "bytes"]))


_Q66_SQL = """
WITH ids AS (
  SELECT CAST(ROW_NUMBER() OVER () - 1 AS BIGINT) AS i FROM documents
),
ds AS (
  SELECT (i // 160) * 40 + (((i // 16) % 10) // 2) * 8
           + ((i % 16) // 2) AS parent_id,
         (i % 16) % 2 AS qx,
         ((i // 16) % 10) % 2 AS qy,
         i, r.r AS r, c.c AS c,
         CAST((  (i*31 + (2*r.r)*7   + (2*c.c)*13) % 256
               + (i*31 + (2*r.r)*7   + (2*c.c+1)*13) % 256
               + (i*31 + (2*r.r+1)*7 + (2*c.c)*13) % 256
               + (i*31 + (2*r.r+1)*7 + (2*c.c+1)*13) % 256) // 4
              AS BIGINT) AS v
  FROM ids CROSS JOIN range(16) r(r) CROSS JOIN range(16) c(c)
)
SELECT parent_id,
       CAST(COUNT(DISTINCT i) AS BIGINT) AS n_children,
       CAST(SUM(v) AS BIGINT) AS sum_ds,
       CAST(SUM(v * (1 + (qy*16 + r)*33 + (qx*16 + c))) AS BIGINT)
           AS chk
FROM ds GROUP BY parent_id
"""


def _q67_track_densify(sf_dir: str):
    """Great-circle track densification: each consecutive leg of a
    source's doc-ordered track expands into 3 slerp-interpolated
    points — the flat-map expansion shape over the same synthetic
    geotags as q54; fixed-point coords make the SQL oracle exact
    (proj_ray/functions/temporal.py track_densify)."""
    from proj_ray.functions.temporal import track_densify

    docs = _read(sf_dir, "documents", columns=["doc_id", "source"])

    def add_geo(b: dict) -> dict:
        i = np.asarray(b["doc_id"], dtype=np.int64)
        lon, lat = _geotag(i)
        return {"doc_id": i, "source": b["source"],
                "lon": lon, "lat": lat}

    return track_densify(
        docs.map_batches(add_geo, batch_format="numpy"),
        "source", "doc_id")


_Q67_SQL = """
WITH g AS (
  SELECT source, doc_id,
         radians((doc_id * 61803 % 360000) / 1000.0 - 180.0) AS lam,
         radians((doc_id * 75487 % 170000) / 1000.0 - 85.0)  AS phi
  FROM documents
),
v AS (
  SELECT source, doc_id,
         cos(phi) * cos(lam) AS x, cos(phi) * sin(lam) AS y,
         sin(phi) AS z
  FROM g
),
p AS (
  SELECT source, doc_id, x, y, z,
         LAG(doc_id) OVER w AS leg,
         LAG(x) OVER w AS x0, LAG(y) OVER w AS y0,
         LAG(z) OVER w AS z0
  FROM v WINDOW w AS (PARTITION BY source ORDER BY doc_id)
),
l AS (
  SELECT source, leg, x0, y0, z0, x AS x1, y AS y1, z AS z1,
         acos(LEAST(GREATEST(x0*x + y0*y + z0*z, -1.0), 1.0)) AS theta
  FROM p WHERE leg IS NOT NULL
),
e AS (
  SELECT source, leg, CAST(j.j AS BIGINT) AS j, theta, x0, y0, z0,
         sin((1.0 - j.j / 4.0) * theta) / sin(theta) AS a,
         sin((j.j / 4.0) * theta) / sin(theta) AS b,
         x1, y1, z1, sin(theta) < 1e-12 AS degen
  FROM l CROSS JOIN range(1, 4) j(j)
),
c AS (
  SELECT source, leg, j, degen, x0, y0, z0,
         a*x0 + b*x1 AS xe, a*y0 + b*y1 AS ye, a*z0 + b*z1 AS ze
  FROM e
),
o AS (
  SELECT source, leg, j,
         CASE WHEN degen THEN degrees(atan2(y0, x0))
              ELSE degrees(atan2(ye, xe)) END AS lon,
         CASE WHEN degen
              THEN degrees(asin(LEAST(GREATEST(z0, -1.0), 1.0)))
              ELSE degrees(asin(LEAST(GREATEST(
                   ze / sqrt(xe*xe + ye*ye + ze*ze), -1.0), 1.0)))
         END AS lat
  FROM c
)
SELECT source, leg, j,
       CAST(floor(lon * 10000000.0 + 0.5) AS BIGINT) AS lon_f,
       CAST(floor(lat * 10000000.0 + 0.5) AS BIGINT) AS lat_f
FROM o
"""


def _q68_polys():
    """Deterministic NON-CONVEX polygon layer: five 5-pointed stars
    (one crossing the antimeridian) plus two L-shapes. Both the engine
    ring arrays and the SQL edge literals derive from this one list,
    so the two sides share bit-identical double coordinates."""
    import math

    polys = []
    specs = [(-96.3, 38.7, 11.0), (12.8, 48.2, 29.0),
             (77.4, 21.6, 53.0), (-58.9, -14.8, 71.0),
             (178.6, -10.3, 17.0)]
    for j, (cx, cy, rot) in enumerate(specs):
        pts = []
        for k in range(10):
            r = 12.0 if k % 2 == 0 else 5.0
            a = math.radians(rot + k * 36.0)
            x = cx + r * math.cos(a)
            y = cy + r * math.sin(a)
            if x > 180.0:
                x -= 360.0
            pts.append((x, y))
        polys.append((j, pts))
    for j, (x0, y0) in enumerate([(-150.3, 50.4), (120.7, -40.6)],
                                 start=5):
        polys.append((j, [(x0, y0), (x0 + 16.0, y0),
                          (x0 + 16.0, y0 + 6.0), (x0 + 6.0, y0 + 6.0),
                          (x0 + 6.0, y0 + 16.0), (x0, y0 + 16.0)]))
    return polys


def _q68_pip_polygons(sf_dir: str):
    """Point-in-polygon join against NON-CONVEX polygons (stars +
    L-shapes, one star straddling the antimeridian): exercises the
    real even-odd ray caster and the wrapped-ring handling of
    PolygonIndex on the oracle-checked path — q09's rectangles only
    need bbox logic. The SQL oracle ray-casts the same edges with the
    identical strict comparisons and crossing expression."""
    from proj_ray.join import PolygonIndex
    from proj_ray.stages import spatial_join

    polys = _q68_polys()
    idx = PolygonIndex(
        [p[0] for p in polys],
        [np.array([v[0] for v in pts]) for _, pts in polys],
        [np.array([v[1] for v in pts]) for _, pts in polys])
    out = spatial_join(_docs_geo(sf_dir), idx, how="inner")

    def pick(b):
        return b[["doc_id", "poly_id"]]

    return out.map_batches(pick, batch_format="pandas")


def _q68_sql() -> str:
    rows = []
    for pid, pts in _q68_polys():
        xs = [v[0] for v in pts]
        wrapped = (max(xs) - min(xs)) > 180.0
        if wrapped:  # engine stores the ring shifted into [0, 360)
            pts = [(x + 360.0 if x < 0 else x, y) for x, y in pts]
        closed = pts + [pts[0]]
        for (x1, y1), (x2, y2) in zip(closed[:-1], closed[1:]):
            if y1 == y2:
                continue  # horizontal edges never cross a lat ray
            rows.append(f"({pid}, {int(wrapped)}, {x1!r}, {y1!r}, "
                        f"{x2!r}, {y2!r})")
    edges = ",\n   ".join(rows)
    return f"""
WITH geo AS ({_GEO_SQL}),
e(pid, wrapped, x1, y1, x2, y2) AS (
  VALUES {edges}
),
c AS (
  SELECT g.doc_id, e.pid
  FROM geo g, e
  WHERE ((e.y1 > g.lat) != (e.y2 > g.lat))
    AND (CASE WHEN e.wrapped = 1 AND g.lon < 0
              THEN g.lon + 360.0 ELSE g.lon END)
        < e.x1 + (g.lat - e.y1) * (e.x2 - e.x1) / (e.y2 - e.y1)
)
SELECT doc_id, CAST(pid AS BIGINT) AS poly_id
FROM c GROUP BY doc_id, pid HAVING COUNT(*) % 2 = 1
"""


def _q69_bounds_cover(sf_dir: str):
    """proj_trans_bounds on the driver surface (parity target:
    reference src/4D_api.cpp:1480-1693 via proj_ray.bounds): n
    deterministic lon/lat AOIs, each edge densified with 21 points and
    pushed through sinusoidal (+proj=sinu +R=6378137) in ONE
    (rows x 88)-point vectorized kernel call per batch — equator-
    crossing boxes attain |x|max INSIDE an edge, so the densified
    envelope is genuinely wider than the corners' — plus the z=6
    webmerc tile cover of the AOI corners (the tile-assignment hand-
    off). The SQL oracle regenerates the identical 88-point ring and
    the closed-form sinusoidal/webmerc formulas op-for-op."""
    import ray.data as rd

    from proj_ray import cells as C
    from proj_ray.bounds import transform_bounds_batch

    n = _read(sf_dir, "documents").count()

    def mk(b: dict) -> dict:
        j = np.asarray(b["id"], dtype=np.int64)
        x0 = (j * 61803 % 300000) / 1000.0 - 170.0
        y0 = (j * 75487 % 140000) / 1000.0 - 75.0
        x1 = x0 + (5.0 + (j % 7))
        y1 = y0 + (4.0 + (j % 5))
        bx0, by0, bx1, by1 = transform_bounds_batch(
            "+proj=sinu +R=6378137", "fwd", x0, y0, x1, y1,
            densify_pts=21)
        wx0, wy0 = C.lonlat_to_webmerc(x0, y0)
        wx1, wy1 = C.lonlat_to_webmerc(x1, y1)
        tx0, ty1, _ = C.tile_xy(wx0, wy0, 6)
        tx1, ty0, _ = C.tile_xy(wx1, wy1, 6)
        return {"aoi_id": j,
                "xmin": np.round(bx0, 4), "ymin": np.round(by0, 4),
                "xmax": np.round(bx1, 4), "ymax": np.round(by1, 4),
                "tx0": tx0, "ty0": ty0, "tx1": tx1, "ty1": ty1}

    return rd.range(n).map_batches(mk, batch_format="numpy",
                                   batch_size=4096)


def _q69_tile_sql(col: str, axis: str) -> str:
    if axis == "x":
        f = f"(radians({col}) * 6378137.0 + pi() * 6378137.0)"
    else:
        f = (f"(pi() * 6378137.0 - 6378137.0 "
             f"* ln(tan(pi()/4 + radians({col})/2)))")
    return (f"CAST(LEAST(GREATEST(floor({f} / (2 * pi() * 6378137.0) "
            f"* 64), 0), 63) AS BIGINT)")


# ring + sinusoidal forward mirrored op-for-op (bounds.py
# transform_bounds_batch: dx=(x1-x0)/22, edge walk order, then
# x=A*(lam*cos(phi)), y=A*phi); corner tiles mirror _Q06_SQL at z=6
_Q69_SQL = f"""
WITH aoi AS (
  SELECT j AS aoi_id,
         (j*61803 % 300000)/1000.0 - 170.0 AS x0,
         (j*75487 % 140000)/1000.0 - 75.0 AS y0,
         (j*61803 % 300000)/1000.0 - 170.0 + (5 + j % 7) AS x1,
         (j*75487 % 140000)/1000.0 - 75.0 + (4 + j % 5) AS y1
  FROM (SELECT doc_id AS j FROM documents) t),
i AS (SELECT unnest(generate_series(0, 21)) AS i),
ring AS (
  SELECT aoi_id, x0 AS lon, y1 - i*((y1-y0)/22.0) AS lat FROM aoi, i
  UNION ALL SELECT aoi_id, x0 + i*((x1-x0)/22.0), y0 FROM aoi, i
  UNION ALL SELECT aoi_id, x1, y0 + i*((y1-y0)/22.0) FROM aoi, i
  UNION ALL SELECT aoi_id, x1 - i*((x1-x0)/22.0), y1 FROM aoi, i),
p AS (SELECT aoi_id,
             6378137.0 * (radians(lon) * cos(radians(lat))) AS x,
             6378137.0 * radians(lat) AS y
      FROM ring),
env AS (SELECT aoi_id,
               ROUND(MIN(x), 4) AS xmin, ROUND(MIN(y), 4) AS ymin,
               ROUND(MAX(x), 4) AS xmax, ROUND(MAX(y), 4) AS ymax
        FROM p GROUP BY aoi_id)
SELECT env.aoi_id, xmin, ymin, xmax, ymax,
       {_q69_tile_sql("a.x0", "x")} AS tx0,
       {_q69_tile_sql("a.y1", "y")} AS ty0,
       {_q69_tile_sql("a.x1", "x")} AS tx1,
       {_q69_tile_sql("a.y0", "y")} AS ty1
FROM env JOIN aoi a ON env.aoi_id = a.aoi_id
"""


def _q70_dedup_embedding_lsh(sf_dir: str):
    """The SCALABLE embedding-dedup path (`dedup_embedding`: random-
    hyperplane LSH buckets + exact within-bucket verify) on the
    oracle-checked measured surface. Fixture: every 20th vector gets a
    planted colinear duplicate (embedding * 2, id + n). Recall is
    PROVABLE, not probabilistic: a positive scaling preserves every
    hyperplane sign, so a planted pair always shares its bucket; and
    the strongest non-planted pair in the driver embeddings sits below
    cosine 0.48 (threshold 0.9), so the >= 0.9 pair set is exactly the
    planted set for BOTH the LSH engine and the exact SQL self-join.
    q33 keeps the exact all-pairs baseline; this entry is the shape
    that survives 100 TB (O(n*d) shuffle of (bucket, id, vec), O(b^2 d)
    verify per ~target_bucket-row bucket)."""
    from proj_ray.functions.dedup import dedup_embedding

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    n = ds.count()

    def plant(b: dict) -> dict:
        import pandas as pd

        ids = np.asarray(b["vec_id"], dtype=np.int64)
        vecs = [np.asarray(v, dtype=np.float64) for v in b["embedding"]]
        sel = np.flatnonzero(ids % 20 == 0)
        out_ids = np.concatenate([ids, ids[sel] + n])
        out_vecs = vecs + [vecs[k] * 2.0 for k in sel]
        return pd.DataFrame({"vec_id": out_ids, "embedding": out_vecs})

    aug = ds.map_batches(plant, batch_format="numpy", batch_size=4096)
    out = dedup_embedding(aug, "embedding", "vec_id",
                          threshold=0.9).to_pandas()
    out["id_a"] = out["id_a"].astype("int64")
    out["id_b"] = out["id_b"].astype("int64")
    out["cosine"] = np.round(out["cosine"].astype(np.float64), 7)
    return out.reset_index(drop=True)


_Q70_SQL = """
WITH base AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb
              FROM embeddings),
aug AS (SELECT vec_id, emb FROM base
        UNION ALL
        SELECT vec_id + (SELECT count(*) FROM embeddings),
               list_transform(emb, x -> x * 2)
        FROM base WHERE vec_id % 20 = 0)
SELECT a.vec_id AS id_a, b.vec_id AS id_b,
       ROUND(list_cosine_similarity(a.emb, b.emb), 7) AS cosine
FROM aug a JOIN aug b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.emb, b.emb) >= 0.9
"""


def _event_rects(sf_dir: str):
    """Event footprint rectangles: deterministic center + half-extent
    from event_id (integer milli-degree arithmetic, exact in both
    numpy float64 and the SQL mirror)."""
    ev = _read(sf_dir, "events", columns=["event_id"])

    def rects(b: dict) -> dict:
        i = np.asarray(b["event_id"], dtype=np.int64)
        cx, cy = _geotag(i)
        hw = (i * 7919 % 400 + 50) / 1000.0
        hh = (i * 104729 % 300 + 50) / 1000.0
        return {"event_id": i, "x0": cx - hw, "y0": cy - hh,
                "x1": cx + hw, "y1": cy + hh}

    return ev.map_batches(rects, batch_format="numpy")


def _supplier_rects(sf_dir: str):
    """Supplier coverage rectangles (the wider layer: 1.8-3.0 deg
    half-width) from s_suppkey by the same integer recipe."""
    sup = _read(sf_dir, "supplier", columns=["s_suppkey"])

    def rects(b: dict) -> dict:
        s = np.asarray(b["s_suppkey"], dtype=np.int64)
        cx = (s * 48271 % 360000) / 1000.0 - 180.0
        cy = (s * 69621 % 170000) / 1000.0 - 85.0
        hw = (s * 7919 % 1200 + 1800) / 1000.0
        hh = (s * 69997 % 900 + 1500) / 1000.0
        return {"s_suppkey": s, "x0": cx - hw, "y0": cy - hh,
                "x1": cx + hw, "y1": cy + hh}

    return sup.map_batches(rects, batch_format="numpy")


def _q71_overlay_area(sf_dir: str):
    """Rectangle intersection-area overlay join (PBSM shape on the
    measured surface): event footprints x supplier coverage rects ->
    every STRICTLY overlapping pair with the exact integer
    intersection area in milli-degree^2 units. The supplier side
    takes the broadcast path; above `dsutil.BROADCAST_ROWS` rows the
    partitioned 100-TB plan runs — both sides flat-mapped to 4-degree
    grid cells, ONE co-partitioned all-to-all, per-cell vectorized
    pairing with REFERENCE-POINT duplicate avoidance (a pair
    overlapping k cells is claimed only by the cell containing the
    intersection's min corner; Patel & DeWitt PBSM, SIGMOD 1996).
    tests/test_entry_oracles.py forces that plan and compares it with
    this route at sf0.001 (proj_ray/functions/overlay.py)."""
    from proj_ray.functions.overlay import rect_overlay_join

    return rect_overlay_join(
        _event_rects(sf_dir), _supplier_rects(sf_dir),
        "event_id", "s_suppkey", scale=1000, cell_deg=4.0)


_Q71_SQL = """
WITH ev AS (
  SELECT event_id,
         event_id*61803 % 360000 - 180000 AS cx,
         event_id*75487 % 170000 - 85000  AS cy,
         event_id*7919 % 400 + 50         AS hw,
         event_id*104729 % 300 + 50       AS hh
  FROM events),
sup AS (
  SELECT s_suppkey,
         s_suppkey*48271 % 360000 - 180000 AS cx,
         s_suppkey*69621 % 170000 - 85000  AS cy,
         s_suppkey*7919 % 1200 + 1800      AS hw,
         s_suppkey*69997 % 900 + 1500      AS hh
  FROM supplier)
SELECT e.event_id, s.s_suppkey,
       CAST((LEAST(e.cx+e.hw, s.cx+s.hw) - GREATEST(e.cx-e.hw, s.cx-s.hw))
          * (LEAST(e.cy+e.hh, s.cy+s.hh) - GREATEST(e.cy-e.hh, s.cy-s.hh))
          AS BIGINT) AS area
FROM ev e, sup s
WHERE LEAST(e.cx+e.hw, s.cx+s.hw) > GREATEST(e.cx-e.hw, s.cx-s.hw)
  AND LEAST(e.cy+e.hh, s.cy+s.hh) > GREATEST(e.cy-e.hh, s.cy-s.hh)
"""


_FENCES_N = 24


def _fence_segments(n: int = _FENCES_N):
    """n deterministic long fence segments spanning the globe (integer
    milli-degree endpoints /1000)."""
    i = np.arange(n, dtype=np.int64)
    x0 = (i * 15077 % 360000) / 1000.0 - 180.0
    y0 = (i * 26947 % 170000) / 1000.0 - 85.0
    x1 = (i * 40093 % 360000) / 1000.0 - 180.0
    y1 = (i * 56099 % 170000) / 1000.0 - 85.0
    return x0, y0, x1, y1


def _q72_track_crossings(sf_dir: str):
    """Trajectory-vs-fence segment-intersection join: each user's
    event track (ordered by ts, event_id; points derived from
    event_id by the _docs_geo integer recipe) is cut into consecutive
    legs, and PROPER crossings (strict straddle both ways — exact
    int64 cross-product signs at milli-degree precision) are counted
    against 24 broadcast fence segments. Shuffle plan: ONE hash-bucket
    all-to-all on a bucket of user_id + a vectorized legs x fences
    orientation pass per bucket; fences ride ray.put
    (proj_ray/functions/overlay.py segment_crossings)."""
    from proj_ray.functions.overlay import segment_crossings

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def pts(b: dict) -> dict:
        i = np.asarray(b["event_id"], dtype=np.int64)
        lon, lat = _geotag(i)
        return {"event_id": i,
                "user_id": np.asarray(b["user_id"], dtype=np.int64),
                "ts": np.asarray(b["ts"]),
                "lon": lon, "lat": lat}

    return segment_crossings(
        ev.map_batches(pts, batch_format="numpy"),
        "user_id", ["ts", "event_id"], "lon", "lat",
        _fence_segments(), scale=1000)


_Q72_SQL = f"""
WITH pts AS (
  SELECT user_id, ts, event_id,
         event_id*61803 % 360000 - 180000 AS x,
         event_id*75487 % 170000 - 85000  AS y
  FROM events),
legs AS (
  SELECT user_id, x AS bx, y AS by,
         LAG(x) OVER w AS ax, LAG(y) OVER w AS ay
  FROM pts
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
f AS (
  SELECT i AS fence,
         i*15077 % 360000 - 180000 AS fx0,
         i*26947 % 170000 - 85000  AS fy0,
         i*40093 % 360000 - 180000 AS fx1,
         i*56099 % 170000 - 85000  AS fy1
  FROM range({_FENCES_N}) t(i)),
d AS (
  SELECT user_id, fence,
         (fx1-fx0)*(ay-fy0) - (fy1-fy0)*(ax-fx0) AS d1,
         (fx1-fx0)*(by-fy0) - (fy1-fy0)*(bx-fx0) AS d2,
         (bx-ax)*(fy0-ay) - (by-ay)*(fx0-ax) AS d3,
         (bx-ax)*(fy1-ay) - (by-ay)*(fx1-ax) AS d4
  FROM legs, f WHERE ax IS NOT NULL)
SELECT user_id, fence, CAST(COUNT(*) AS BIGINT) AS n_cross
FROM d
WHERE ((d1 > 0 AND d2 < 0) OR (d1 < 0 AND d2 > 0))
  AND ((d3 > 0 AND d4 < 0) OR (d3 < 0 AND d4 > 0))
GROUP BY user_id, fence
"""


_SUBDUP_K = 30


def _q73_substring_dedup(sf_dir: str):
    """Exact substring-duplication stats (Lee et al. 2022,
    arXiv:2107.06499): per document, the character coverage (interval
    union) and count of all 30-char windows occurring >= 2 times
    anywhere in the corpus. Two hash-bucket all-to-alls over
    pre-hashed integers — the substring text never crosses a shuffle;
    `stride` documents the 100-TB subsampling path
    (proj_ray/functions/text.py substring_dup_stats)."""
    from proj_ray.functions.text import substring_dup_stats

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    # the SQL oracle enumerates CHARACTER positions 1..4095: hold the
    # engine to that contract (pure ASCII, max 4095 bytes) so any
    # fixture drift fails loudly instead of silently hash-mismatching
    return substring_dup_stats(docs, k=_SUBDUP_K,
                               assert_max_len=4095, assert_ascii=True)


_Q73_SQL = f"""
WITH g AS (
  -- constant-bound series + filter (DuckDB's range() takes no
  -- column parameters); 4096 comfortably exceeds the max doc length
  SELECT doc_id, CAST(i AS BIGINT) AS pos,
         substr(text, CAST(i AS INT), {_SUBDUP_K}) AS gram
  FROM documents, range(1, 4096) t(i)
  WHERE i <= length(text) - {_SUBDUP_K} + 1
),
d AS (SELECT gram FROM g GROUP BY gram HAVING COUNT(*) >= 2),
m AS (SELECT doc_id, pos FROM g WHERE gram IN (SELECT gram FROM d)),
u AS (
  SELECT doc_id,
         GREATEST(0, pos + {_SUBDUP_K} - GREATEST(pos,
             COALESCE(MAX(pos + {_SUBDUP_K}) OVER (
                 PARTITION BY doc_id ORDER BY pos
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                 0))) AS contrib
  FROM m)
SELECT doc_id, CAST(SUM(contrib) AS BIGINT) AS dup_chars,
       CAST(COUNT(*) AS BIGINT) AS dup_grams
FROM u GROUP BY doc_id
"""


def _q74_cube(sf_dir: str):
    """GROUP BY CUBE over three keys (returnflag, linestatus,
    ship-year): exact int64 quantity sums + counts at ALL 2^3 grouping
    sets from ONE data pass — finest-level streaming associative
    partials (no sort shuffle), the 8-set expansion runs on the
    driver over the finest aggregate, bounded by the key-domain
    product, never the row count
    (proj_ray/functions/stats.py cube_sums)."""
    from proj_ray.functions.stats import cube_sums

    li = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus", "l_shipdate",
                        "l_quantity"])

    def add_year(b: dict) -> dict:
        yr = (np.asarray(b["l_shipdate"]).astype("datetime64[Y]")
              .astype(np.int64) + 1970)
        return {"l_returnflag": np.asarray(b["l_returnflag"]),
                "l_linestatus": np.asarray(b["l_linestatus"]),
                "shipyear": yr.astype("U4"),
                "l_quantity": np.asarray(b["l_quantity"])}

    ds = li.map_batches(add_year, batch_format="numpy")
    return cube_sums(ds, ["l_returnflag", "l_linestatus", "shipyear"],
                     "l_quantity", scale=100)


_Q74_SQL = """
SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
       COALESCE(l_linestatus, 'ALL') AS l_linestatus,
       COALESCE(CAST(year(l_shipdate) AS VARCHAR), 'ALL') AS shipyear,
       CAST(SUM(CAST(round(l_quantity * 100) AS BIGINT)) AS BIGINT)
         AS sum_c,
       CAST(COUNT(*) AS BIGINT) AS n_rows
FROM lineitem
GROUP BY CUBE(l_returnflag, l_linestatus, year(l_shipdate))
"""


def _q75_grouped_stats(sf_dir: str):
    """Grouped sample stddev + Pearson correlation from ONE pass of
    mergeable exact int64 fixed-point moments (n, Sx, Sy, Sxx, Syy,
    Sxy per group; streaming associative combines, no sort shuffle).
    The closed forms are evaluated in float64 over those exact
    integers with the SAME expression tree as the SQL oracle, so the
    match is bit-for-bit — the oracle recomputes the moments, not
    DuckDB's stddev/corr aggregates
    (proj_ray/functions/stats.py grouped_moment_stats)."""
    from proj_ray.functions.stats import grouped_moment_stats

    li = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_quantity", "l_discount"])
    return grouped_moment_stats(li, "l_returnflag", "l_quantity",
                                "l_discount", scale=100)


_Q75_SQL = """
WITH s AS (
  SELECT l_returnflag,
         CAST(COUNT(*) AS BIGINT) AS n,
         SUM(CAST(round(l_quantity * 100) AS BIGINT)) AS sx,
         SUM(CAST(round(l_discount * 100) AS BIGINT)) AS sy,
         SUM(CAST(round(l_quantity * 100) AS BIGINT)
             * CAST(round(l_quantity * 100) AS BIGINT)) AS sxx,
         SUM(CAST(round(l_discount * 100) AS BIGINT)
             * CAST(round(l_discount * 100) AS BIGINT)) AS syy,
         SUM(CAST(round(l_quantity * 100) AS BIGINT)
             * CAST(round(l_discount * 100) AS BIGINT)) AS sxy
  FROM lineitem GROUP BY l_returnflag)
SELECT l_returnflag,
       n AS n_rows,
       sqrt((CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
             - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
            / (CAST(n AS DOUBLE) * CAST(n - 1 AS DOUBLE))) / 100
         AS stddev_x,
       (CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
        - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
       / (sqrt(CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
               - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
          * sqrt(CAST(n AS DOUBLE) * CAST(syy AS DOUBLE)
                 - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE)))
         AS corr_xy
FROM s
"""


def _q76_gram_matrix(sf_dir: str):
    """Distributed Gram (second-moment) matrix over the embedding
    column — the accumulate step of covariance/PCA/linear probes at
    corpus scale. Each block contributes one d x d int64 partial
    (X^T X, single matmul on half-up fixed-point components), so the
    all-to-all moves d^2-sized partial frames, never vectors; the SQL
    oracle unnests and re-joins the same quantized components, so the
    match is exact (proj_ray/functions/ann.py gram_matrix)."""
    from proj_ray.functions.ann import gram_matrix

    emb = _read(sf_dir, "embeddings", columns=["embedding"])
    return gram_matrix(emb, "embedding", scale=1_000_000)


_Q76_SQL = """
WITH q AS (
  SELECT vec_id, i,
         CAST(floor(CAST(e AS DOUBLE) * 1000000 + 0.5) AS BIGINT) AS v
  FROM (
    SELECT vec_id, unnest(embedding) AS e,
           generate_subscripts(embedding, 1) AS i
    FROM embeddings)
)
SELECT a.i AS i, b.i AS j, CAST(SUM(a.v * b.v) AS BIGINT) AS s
FROM q a JOIN q b USING (vec_id)
WHERE a.i <= b.i
GROUP BY a.i, b.i
"""


_Q77_COLS = ["l_discount", "l_extendedprice", "l_quantity", "l_tax"]


def _q77_profile(sf_dir: str):
    """One-pass numeric table profile (warehouse stats collector):
    per column row/null counts, exact min/max (copied, never
    arithmetic) and exact fixed-point sums — the whole profile is a
    single map_batches pass whose all-to-all moves len(cols)-row
    partial frames (proj_ray/functions/stats.py profile_numeric)."""
    from proj_ray.functions.stats import profile_numeric

    li = _read(sf_dir, "lineitem", columns=_Q77_COLS)
    return profile_numeric(li, _Q77_COLS, scale=100)


_Q77_SQL = "\nUNION ALL\n".join(f"""
SELECT '{c}' AS col, CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(COUNT(*) - COUNT({c}) AS BIGINT) AS n_nulls,
       CAST(MIN({c}) AS DOUBLE) AS vmin,
       CAST(MAX({c}) AS DOUBLE) AS vmax,
       CAST(SUM(CAST(round({c} * 100) AS BIGINT)) AS BIGINT) AS sum_c
FROM lineitem""" for c in _Q77_COLS)


_HEX_SIZE_M = 250000.0


def _q78_hex_bin(sf_dir: str):
    """H3-style hexagonal binning: every geotag is assigned a
    pointy-top axial hex cell on the Web-Mercator plane (cube
    rounding) and counted per cell. Assignment + per-block partial
    counts fuse into ONE map_batches pass, so the keyed sum moves
    (cell, n) partials only — the same shuffle discipline as the
    Morton-cell headline. The SQL
    oracle mirrors the projection + cube rounding op-for-op in CASE
    expressions (proj_ray/cells.py hex_axial)."""
    import pandas as pd

    from proj_ray.cells import hex_axial

    ds = _docs_geo(sf_dir)

    def partial(b: dict) -> dict:
        hq, hr = hex_axial(b["lon"], b["lat"], _HEX_SIZE_M)
        g = (pd.DataFrame({"hq": hq, "hr": hr})
             .groupby(["hq", "hr"], as_index=False).size())
        return {"hq": g["hq"].to_numpy(np.int64),
                "hr": g["hr"].to_numpy(np.int64),
                "n": g["size"].to_numpy()}

    return pull_pandas(bucketed_sum(
        ds.map_batches(partial, batch_format="numpy", batch_size=65536),
        ["hq", "hr"], "n", "n"))


_Q78_SQL = f"""
WITH geo AS ({_GEO_SQL}),
m AS (SELECT doc_id,
        6378137.0 * (lon * (pi()/180.0)) AS x,
        6378137.0 * ln(tan(pi()/4.0 + (lat * (pi()/180.0))/2.0)) AS y
      FROM geo),
f AS (SELECT doc_id,
        (sqrt(3.0)/3.0 * x - y/3.0) / {_HEX_SIZE_M!r} AS xf,
        (2.0/3.0 * y) / {_HEX_SIZE_M!r} AS zf
      FROM m),
g AS (SELECT doc_id, xf, zf, -xf - zf AS yf,
        floor(xf + 0.5) AS rx, floor(-xf - zf + 0.5) AS ry,
        floor(zf + 0.5) AS rz
      FROM f),
h AS (SELECT doc_id,
        CASE WHEN abs(rx - xf) > abs(ry - yf)
                  AND abs(rx - xf) > abs(rz - zf)
             THEN -ry - rz ELSE rx END AS hq,
        CASE WHEN NOT (abs(rx - xf) > abs(ry - yf)
                       AND abs(rx - xf) > abs(rz - zf))
                  AND NOT (abs(ry - yf) > abs(rz - zf))
             THEN -rx - ry ELSE rz END AS hr
      FROM g)
SELECT CAST(hq AS BIGINT) AS hq, CAST(hr AS BIGINT) AS hr,
       CAST(COUNT(*) AS BIGINT) AS n
FROM h GROUP BY hq, hr
"""


def _q79_inverted_index(sf_dir: str):
    """Inverted-index integrity view: per-term document frequency plus
    integer posting checksums (sum/min/max of doc ids), min_df=2. The
    build is per-batch partial aggregation (each doc lives in exactly
    one batch, so partial DFs are disjoint and sum exactly) -> term-hash
    bucket co-partition -> vectorized within-bucket combine: one row per
    (batch, term) crosses the shuffle, never the token stream
    (proj_ray/functions/invindex.py). The persisted posting index +
    bucket-pruned lookup path is exercised in tests/test_invindex.py."""
    from proj_ray.functions.invindex import inverted_index_stats

    out = inverted_index_stats(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        min_df=2).to_pandas()
    return out.sort_values("term", kind="stable",
                           ignore_index=True)


_Q79_SQL = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term
  FROM documents
),
d AS (SELECT DISTINCT doc_id, term FROM tok)
SELECT term, CAST(COUNT(*) AS BIGINT) AS df,
       CAST(SUM(doc_id) AS BIGINT) AS id_sum,
       CAST(MIN(doc_id) AS BIGINT) AS id_min,
       CAST(MAX(doc_id) AS BIGINT) AS id_max
FROM d GROUP BY term HAVING COUNT(*) >= 2
"""


_Q80_TERMS = ("data", "merge", "table")


def _q80_bm25(sf_dir: str):
    """BM25 ranked retrieval: top-10 documents for a fixed 3-term
    query. One DF pass (doc + token counts piggybacked as sentinels,
    so avgdl is free) + one scoring pass with the tiny query-idf
    table broadcast; each batch prunes to a local top-k before the
    final sort, which therefore moves <= k rows per block. Per-term
    contributions are fixed-pointed independently and summed as
    int64, so engine and oracle rank bit-identical integers
    (proj_ray/functions/text.py bm25_topk)."""
    from proj_ray.functions.text import bm25_topk

    return bm25_topk(_read(sf_dir, "documents",
                           columns=["doc_id", "text"]),
                     _Q80_TERMS, k=10)


_Q80_SQL = f"""
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term
  FROM documents
),
dl AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS dln
       FROM tok GROUP BY doc_id),
nn AS (SELECT CAST(COUNT(*) AS DOUBLE) AS nd FROM documents),
ad AS (SELECT CAST(SUM(dln) AS DOUBLE) / (SELECT nd FROM nn) AS avgdl
       FROM dl),
q(term) AS (VALUES {", ".join(f"('{t}')" for t in _Q80_TERMS)}),
dfq AS (
  SELECT q.term, CAST(COUNT(DISTINCT tok.doc_id) AS DOUBLE) AS dfc
  FROM q LEFT JOIN tok ON tok.term = q.term GROUP BY q.term
),
tf AS (
  SELECT tok.doc_id, tok.term, CAST(COUNT(*) AS DOUBLE) AS tf
  FROM tok JOIN q ON tok.term = q.term
  GROUP BY tok.doc_id, tok.term
),
w AS (
  SELECT tf.doc_id,
    CAST(floor(
      ln(1 + ((SELECT nd FROM nn) - dfq.dfc + 0.5) / (dfq.dfc + 0.5))
      * ((tf.tf * (1.2 + 1))
         / (tf.tf + 1.2 * ((1 - 0.75) + 0.75
              * (CAST(dl.dln AS DOUBLE) / (SELECT avgdl FROM ad)))))
      * 1000000.0 + 0.5) AS BIGINT) AS wf
  FROM tf
  JOIN dfq ON tf.term = dfq.term
  JOIN dl ON tf.doc_id = dl.doc_id
),
s AS (SELECT doc_id, CAST(SUM(wf) AS BIGINT) AS score_f
      FROM w GROUP BY doc_id)
SELECT CAST(row_number() OVER (ORDER BY score_f DESC, doc_id)
            AS BIGINT) AS rk,
       doc_id, score_f
FROM s ORDER BY score_f DESC, doc_id LIMIT 10
"""


def _parity_split(ds, id_col: str = "doc_id"):
    """(even, odd) id halves — history vs delta for the
    incremental operators, as vectorized Arrow filters."""
    def parity(rem: int):
        def f(b):
            import pyarrow.compute as pc

            ids = pc.cast(b.column(id_col), "int64")
            return b.filter(pc.equal(
                pc.bit_wise_and(ids, 1), rem))
        return f

    return (ds.map_batches(parity(0), batch_format="pyarrow"),
            ds.map_batches(parity(1), batch_format="pyarrow"))


def _q81_dedup_incremental(sf_dir: str):
    """Incremental exact dedup — the daily-increment shape: the even
    doc_ids play the accumulated HISTORY (persisted once as a
    bucket-partitioned (text, canonical_id) parquet index), the odd
    doc_ids play the new shard. Resolution co-partitions the delta's
    per-block partial mins by the index's bucket hash, so each reducer
    reads exactly ONE index partition — history I/O scales with the
    delta, never the corpus (proj_ray/functions/dedup.py
    dedup_index_build / dedup_exact_incremental)."""
    import shutil
    import tempfile

    from proj_ray.functions.dedup import (dedup_exact_incremental,
                                          dedup_index_build)

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    old, new = _parity_split(ds)
    tmp = tempfile.mkdtemp(prefix="q81_dedup_idx_")
    try:
        # 16 buckets: ample for the fixture's distinct-key count (the
        # default 64 just multiplies tiny-file write/read latency)
        dedup_index_build(old, "text", "doc_id", tmp, n_buckets=16)
        out = dedup_exact_incremental(new, tmp, "text", "doc_id",
                                      n_buckets=16).to_pandas()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for c in ("canonical_id", "from_index", "n_new"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("text", kind="stable", ignore_index=True)


_Q81_SQL = """
WITH old AS (SELECT text, doc_id FROM documents WHERE doc_id % 2 = 0),
     neu AS (SELECT text, doc_id FROM documents WHERE doc_id % 2 = 1),
o AS (SELECT text, CAST(MIN(doc_id) AS BIGINT) AS canon_old
      FROM old GROUP BY text),
n AS (SELECT text, CAST(MIN(doc_id) AS BIGINT) AS canon_new,
             CAST(COUNT(*) AS BIGINT) AS n_new
      FROM neu GROUP BY text)
SELECT n.text AS text,
       CAST(COALESCE(o.canon_old, n.canon_new) AS BIGINT)
         AS canonical_id,
       CAST(o.canon_old IS NOT NULL AS BIGINT) AS from_index,
       n.n_new
FROM n LEFT JOIN o ON n.text = o.text
"""


def _q82_minhash_incremental(sf_dir: str):
    """Incremental MinHash near-dup: the even doc_ids' LSH state is
    persisted once (band partitions to probe + hashed shingle sets to
    verify — never text), then the odd-doc delta finds its near-dups
    against history by reading ONLY the band/shingle buckets it hashes
    to. The oracle computes the exact cross-shard substring-5-gram
    Jaccard pair set, so the gate also proves the incremental probe
    loses no pair at this threshold (planted near-dups sit at
    J >= 0.9; q19's band-miss and hash-collision arguments carry over
    verbatim — proj_ray/functions/dedup.py minhash_index_build /
    minhash_incremental)."""
    import shutil
    import tempfile

    from proj_ray.functions.dedup import (minhash_incremental,
                                          minhash_index_build)

    old, new = _parity_split(
        _read(sf_dir, "documents", columns=["doc_id", "text"]))
    # materialize the halves once: build/resolve each run several
    # executions over their input (count + sign + shingle/pick), and
    # a lazy filter chain would re-read the parquet for every one
    old, new = old.materialize(), new.materialize()
    tmp = tempfile.mkdtemp(prefix="q82_minhash_idx_")
    try:
        minhash_index_build(old, "text", "doc_id", tmp, n_buckets=16)
        out = minhash_incremental(new, tmp, "text", "doc_id",
                                  threshold=0.6, n_buckets=16)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out


_Q82_SQL = """
WITH nums AS (
  SELECT unnest(generate_series(
      1, (SELECT max(length(text)) FROM documents))) AS i
),
g AS (
  SELECT DISTINCT d.doc_id, substr(d.text, n.i::INT, 5) AS gram
  FROM documents d JOIN nums n ON n.i <= length(d.text) - 4
),
c AS (SELECT doc_id, count(*) AS sz FROM g GROUP BY doc_id),
p AS (
  SELECT a.doc_id AS id_new, b.doc_id AS id_old, count(*) AS shared
  FROM g a JOIN g b ON a.gram = b.gram
  WHERE a.doc_id % 2 = 1 AND b.doc_id % 2 = 0
  GROUP BY 1, 2)
SELECT p.id_new, p.id_old,
       CAST(p.shared AS DOUBLE) / (ca.sz + cb.sz - p.shared) AS jaccard
FROM p
JOIN c ca ON ca.doc_id = p.id_new
JOIN c cb ON cb.doc_id = p.id_old
WHERE CAST(p.shared AS DOUBLE) / (ca.sz + cb.sz - p.shared) >= 0.6
"""


def _q83_ivf_append(sf_dir: str):
    """Incremental IVF — the daily-increment shape for vectors: the
    index is BUILT from the even vec_ids only, then the odd shard is
    APPENDED via `ivf_append` (routed against the persisted centroids,
    written into the same ivf_list partitions; history never rewritten
    or rescanned). Because the routing rule depends only on the
    centroids, probing build+append must equal a single build over the
    union — so the oracle is q26's full-table SQL verbatim, and the
    gate proves the append path is lossless
    (proj_ray/functions/ann.py ivf_append)."""
    from proj_ray.functions.ann import (ann_ivf_index, formula_centroids,
                                        ivf_append, ivf_build)

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qrows = _query_rows(sf_dir, "embeddings", "vec_id", 5)
    Q = np.stack([np.asarray(r["embedding"], dtype=np.float64)
                  for r in qrows])
    old, new = _parity_split(ds, "vec_id")
    path, ready = _index_dir("ivffa1", sf_dir)
    if not ready:
        ivf_build(old, path,
                  centroids=formula_centroids(32, Q.shape[1]),
                  quantize=1_000_000)
        ivf_append(new, path, quantize=1_000_000)
        _mark_ready("ivffa1", path)
    res = ann_ivf_index(path, Q, k=5, nprobe=14, quantize=1_000_000)
    res = res.rename(columns={"q": "qid", "nid": "neighbor_id"})
    res["qid"] = res["qid"].astype("int64")
    res["neighbor_id"] = res["neighbor_id"].astype("int64")
    res["rank"] = res["rank"].astype("int64")
    return res[["qid", "neighbor_id", "rank"]]


def _q84_json_stats(sf_dir: str):
    """Semi-structured column surface: vectorized JSON field extraction
    (regex fast path + loads fallback) -> per-event_type int stats.
    Engine-added (closest reference analogue: the +key=value grammar of
    src/pj_param.cpp). proj_ray/functions/jsonops.py."""
    from proj_ray.functions.jsonops import json_key_stats

    ds = _read(sf_dir, "events", columns=["event_type", "props"])
    return json_key_stats(ds, "props", "k", "event_type")


_Q84_SQL = """
SELECT event_type, count(*) AS n,
       CAST(sum(coalesce(json_extract_string(props,'$.k')::BIGINT, 0))
            AS BIGINT) AS sum_k,
       max(coalesce(json_extract_string(props,'$.k')::BIGINT, 0)) AS max_k
FROM events GROUP BY event_type
"""


def _q85_pack_sequences(sf_dir: str):
    """Training-sequence packing (concat-and-chunk, seq_len=256) as a
    distributed prefix sum: per-bucket token sums -> driver cumsum of
    the tiny offset vector -> co-partitioned emit -> per-sequence agg.
    proj_ray/functions/packing.py."""
    from proj_ray.functions.packing import pack_sequences

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return pack_sequences(ds, "doc_id", "text", seq_len=256,
                          bucket_size=1 << 10)


_Q85_SQL = """
WITH tok AS (
  SELECT doc_id,
         CASE WHEN length(text) > 0
              THEN length(text) - length(replace(text, ' ', '')) + 1
              ELSE 0 END AS t
  FROM documents
), pos AS (
  SELECT doc_id, t,
         CAST(coalesce(sum(t) OVER (ORDER BY doc_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
              AS BIGINT) AS s
  FROM tok WHERE t > 0
), span AS (
  SELECT doc_id, s, t,
         unnest(generate_series(s // 256, (s + t - 1) // 256)) AS seq_id
  FROM pos
)
SELECT seq_id, count(*) AS n_docs, min(doc_id) AS min_doc,
       max(doc_id) AS max_doc,
       CAST(sum(least(s + t, (seq_id + 1) * 256)
                - greatest(s, seq_id * 256)) AS BIGINT) AS n_tokens
FROM span GROUP BY seq_id
"""


def _q86_bloom_semi_join(sf_dir: str):
    """Bloom-pruned EXACT semi-join: lineitem rows whose order is a
    high-value order (o_totalprice > 450000). The bloom (2^20 bits,
    k=4) is built via fixed-size bitmap partials + OR-combine and
    broadcast once; survivors are exactly verified in a bucketed
    co-partition, so the result is exact and the bloom only prunes the
    exchange. proj_ray/functions/bloomjoin.py."""
    import pandas as pd

    from proj_ray.functions.bloomjoin import bloom_semi_join

    probe = _read(sf_dir, "lineitem",
                  columns=["l_orderkey", "l_quantity", "l_returnflag"])

    def high_value(df: pd.DataFrame) -> pd.DataFrame:
        return df.loc[df["o_totalprice"] > 450000.0, ["o_orderkey"]]

    build = _read(sf_dir, "orders",
                  columns=["o_orderkey", "o_totalprice"]).map_batches(
        high_value, batch_format="pandas")
    sj = bloom_semi_join(probe, build, "l_orderkey", "o_orderkey")

    # Aggregation pushed down to per-block partials (Ray fuses this
    # into the verify stage), then a tiny driver combine over
    # (flag, n, cents) rows — the whole query runs ONE all-to-all.
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df.copy()
        # per-VALUE cents (quantities sit on the 0.01 grid) so the
        # int64 partial sums are blocking-invariant
        d["_c"] = np.rint(d["l_quantity"].to_numpy() * 100).astype(np.int64)
        g = d.groupby("l_returnflag", sort=False).agg(
            n=("_c", "size"), sum_qty_c=("_c", "sum"))
        return pd.DataFrame({
            "l_returnflag": g.index.to_numpy(),
            "n": g["n"].to_numpy(np.int64),
            "sum_qty_c": g["sum_qty_c"].to_numpy(np.int64)})

    parts = sj.map_batches(partial, batch_format="pandas",
                           batch_size=None).to_pandas()
    out = parts.groupby("l_returnflag", sort=False).agg(
        n=("n", "sum"), sum_qty_c=("sum_qty_c", "sum")).reset_index()
    out["n"] = out["n"].astype(np.int64)
    out["sum_qty_c"] = out["sum_qty_c"].astype(np.int64)
    return out


_Q86_SQL = """
SELECT l_returnflag, count(*) AS n,
       CAST(round(sum(l_quantity) * 100) AS BIGINT) AS sum_qty_c
FROM lineitem
WHERE l_orderkey IN (SELECT o_orderkey FROM orders
                     WHERE o_totalprice > 450000.0)
GROUP BY l_returnflag
"""


def _q87_gopher_quality(sf_dir: str):
    """Gopher-style quality rules (Rae et al. 2021 table A1 subset):
    word count, mean word length, distinct stopwords, top-word
    repetition ppm, pass flag — integer arithmetic end-to-end.
    proj_ray/functions/text.py gopher_quality."""
    from proj_ray.functions.text import gopher_quality

    return gopher_quality(_read(sf_dir, "documents",
                                columns=["doc_id", "text"]))


_Q87_SQL = f"""
WITH w AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '[a-z]+')) AS word
  FROM documents
), wc AS (
  SELECT doc_id, word, count(*) AS c FROM w GROUP BY doc_id, word
), per AS (
  SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_words,
         CAST(sum(length(word) * c) AS BIGINT) AS wchars,
         CAST(max(c) AS BIGINT) AS topc,
         CAST(count(CASE WHEN word IN ({{stop}}) THEN 1 END)
              AS BIGINT) AS n_stop_distinct
  FROM wc GROUP BY doc_id
)
SELECT doc_id, n_words, wchars * 1000 // n_words AS mean_wlen_milli,
       n_stop_distinct, topc * 1000000 // n_words AS top_word_ppm,
       CAST((n_words >= 10
             AND wchars * 1000 // n_words BETWEEN 3000 AND 10000
             AND n_stop_distinct >= 2
             AND topc * 1000000 // n_words <= 200000)
            AS BIGINT) AS passes
FROM per
""".replace("{stop}", _STOPLIST_SQL)


def _q88_bloom_anti_join(sf_dir: str):
    """Bloom-pruned EXACT anti-join: orders with no lineitem, aggregated
    by priority. Bloom-negative orders (certain non-members) resolve in
    the stateless probe map with NO exchange; only bloom positives are
    verified in the bucketed co-partition. Aggregation is pushed down
    to per-block partials on both branches + a tiny driver combine.
    Honest caveat for THIS data: most orders DO have lineitems, so the
    bloom prunes little here and the verify shuffle carries ~the whole
    probe side — the bloom-anti shape pays off when the probe is
    mostly absent from the build (e.g. yesterday's keys against
    today's increment); this query exists to exercise the operator
    end-to-end against a SQL oracle.
    proj_ray/functions/bloomjoin.py bloom_anti_join."""
    import pandas as pd

    from proj_ray.functions.bloomjoin import bloom_anti_join

    probe = _read(sf_dir, "orders",
                  columns=["o_orderkey", "o_orderpriority",
                           "o_totalprice"])
    build = _read(sf_dir, "lineitem", columns=["l_orderkey"])
    aj = bloom_anti_join(probe, build, "o_orderkey", "l_orderkey")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df.copy()
        d["_c"] = np.rint(d["o_totalprice"].to_numpy() * 100).astype(
            np.int64)
        g = d.groupby("o_orderpriority", sort=False).agg(
            n=("_c", "size"), sum_price_c=("_c", "sum"))
        return pd.DataFrame({
            "o_orderpriority": g.index.to_numpy(),
            "n": g["n"].to_numpy(np.int64),
            "sum_price_c": g["sum_price_c"].to_numpy(np.int64)})

    parts = aj.map_batches(partial, batch_format="pandas",
                           batch_size=None).to_pandas()
    out = parts.groupby("o_orderpriority", sort=False).agg(
        n=("n", "sum"), sum_price_c=("sum_price_c", "sum")).reset_index()
    out["n"] = out["n"].astype(np.int64)
    out["sum_price_c"] = out["sum_price_c"].astype(np.int64)
    return out


_Q88_SQL = """
SELECT o_orderpriority, count(*) AS n,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS sum_price_c
FROM orders
WHERE o_orderkey NOT IN (SELECT l_orderkey FROM lineitem)
GROUP BY o_orderpriority
"""


def _q89_decontaminate(sf_dir: str):
    """Test-set decontamination: corpus docs (source <> 'src0') sharing
    any word 4-gram with the 'src0' benchmark slice. Benchmark gram
    hashes broadcast once; the corpus is scored in ONE stateless
    map_batches pass — nothing shuffles.
    proj_ray/functions/decontam.py."""
    import pandas as pd

    from proj_ray.functions.decontam import ngram_decontaminate

    docs = _read(sf_dir, "documents",
                 columns=["doc_id", "text", "source"])

    def side(df: pd.DataFrame, bench: bool) -> pd.DataFrame:
        m = df["source"] == "src0"
        return df[m if bench else ~m][["doc_id", "text"]]

    bench = docs.map_batches(lambda d: side(d, True),
                             batch_format="pandas")
    corpus = docs.map_batches(lambda d: side(d, False),
                              batch_format="pandas")
    return ngram_decontaminate(corpus, bench, n=4)


_Q89_SQL = """
WITH w AS (
  SELECT doc_id, source, string_split(text, ' ') AS ws FROM documents
), g AS (
  SELECT DISTINCT doc_id, source,
         array_to_string(ws[i.i:i.i+3], ' ') AS gram
  FROM w JOIN LATERAL (
    SELECT unnest(generate_series(1, greatest(len(ws) - 3, 0))) AS i
  ) AS i ON true
), bg AS (
  SELECT DISTINCT gram FROM g WHERE source = 'src0'
)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_grams,
       CAST(count(CASE WHEN gram IN (SELECT gram FROM bg) THEN 1 END)
            AS BIGINT) AS n_contam
FROM g WHERE source <> 'src0'
GROUP BY doc_id
HAVING count(CASE WHEN gram IN (SELECT gram FROM bg) THEN 1 END) > 0
"""


def _q90_centroid_outliers(sf_dir: str):
    """Hard-example mining: top-5 vectors farthest from their own
    label's centroid, per label — exact int64 distances in quantized
    space, centroid = truncated integer mean (mirrors DuckDB `//`).
    proj_ray/functions/ann.py label_centroid_outliers."""
    from proj_ray.functions.ann import label_centroid_outliers

    ds = _read(sf_dir, "embeddings",
               columns=["vec_id", "embedding", "label"])
    return label_centroid_outliers(ds, k=5)


_Q90_SQL = """
WITH base AS (
  SELECT vec_id, label, CAST(embedding AS DOUBLE[]) AS emb
  FROM embeddings
), q AS (
  SELECT vec_id, CAST(label AS BIGINT) AS label,
         generate_subscripts(emb, 1) AS d,
         CAST(floor(unnest(emb) * 1000000 + 0.5) AS BIGINT) AS x
  FROM base
), c AS (
  SELECT label, d, CAST(sum(x) AS BIGINT) // count(*) AS cx
  FROM q GROUP BY label, d
), dist AS (
  SELECT q.vec_id, q.label,
         CAST(sum((q.x - c.cx) * (q.x - c.cx)) AS BIGINT) AS dist2
  FROM q JOIN c ON q.label = c.label AND q.d = c.d
  GROUP BY q.vec_id, q.label
), r AS (
  SELECT label, vec_id, dist2,
         row_number() OVER (PARTITION BY label
                            ORDER BY dist2 DESC, vec_id) AS rk
  FROM dist
)
SELECT label, vec_id, dist2, CAST(rk AS BIGINT) AS rk
FROM r WHERE rk <= 5
"""


def _q91_gram_coverage(sf_dir: str):
    """LM-quality proxy: per-doc ppm of bigram occurrences that are
    corpus-frequent (global count >= 40). One distributed count over
    (hash, count) pairs, broadcast frequent set, stateless scoring.
    proj_ray/functions/decontam.py frequent_gram_coverage."""
    from proj_ray.functions.decontam import frequent_gram_coverage

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return frequent_gram_coverage(ds, n=2, min_count=40)


_Q91_SQL = """
WITH w AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents
), g AS (
  SELECT doc_id, array_to_string(ws[i.i:i.i+1], ' ') AS gram
  FROM w JOIN LATERAL (
    SELECT unnest(generate_series(1, greatest(len(ws) - 1, 0))) AS i
  ) AS i ON true
), f AS (
  SELECT gram FROM g GROUP BY gram HAVING count(*) >= 40
)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_grams,
       CAST(1000000 * count(CASE WHEN gram IN (SELECT gram FROM f)
                            THEN 1 END) // count(*) AS BIGINT)
           AS freq_ppm
FROM g GROUP BY doc_id
"""


def _q92_clip_retrieval(sf_dir: str):
    """CLIP-shaped image retrieval: decode -> integer stub encoder
    (weights built once per actor in __init__; swap for a model and
    nothing else changes) -> broadcast query matrix -> blocked int64
    matmul with per-block top-k pruning -> per-query combine. Top-3
    most-aligned other images for query images 0..7; the SQL oracle
    regenerates the decoded pixels AND the embedding arithmetically
    (q34's reconstruction extended by the projection), so any codec,
    resample, or encoder drift fails the hash.
    proj_ray/images.py ImageEmbedder / clip_image_topk."""
    from proj_ray.images import ImageEmbedder, clip_image_topk, \
        images_table

    n = _read(sf_dir, "documents").count()
    emb = images_table(
        n, columns=["image_id", "bytes", "fmt"]).map_batches(
        ImageEmbedder, batch_format="numpy", batch_size=256,
        concurrency=(2, 8))
    return clip_image_topk(emb, np.arange(8), k=3)


_Q92_SQL = """
WITH seq AS (SELECT ROW_NUMBER() OVER () - 1 AS i FROM documents),
img AS (SELECT i, CASE WHEN i > 0 AND i % 97 = 0 THEN i - 1 ELSE i END
               AS src FROM seq),
dim AS (SELECT i, src, src % 3 AS f,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 32 ELSE 64 END AS w,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 24 ELSE 48 END AS h
        FROM img),
px AS (SELECT i, src, f, y.y AS y, x.x AS x,
              (y.y * h) // 12 AS sy, (x.x * w) // 16 AS sx
       FROM dim CROSS JOIN range(12) y(y) CROSS JOIN range(16) x(x)),
raw AS (SELECT i, f, y, x,
               (src*37 + sy*11 + sx*7) % 256 AS r,
               (src*53 + sy*5 + sx*13) % 256 AS g,
               (src*97 + (sy+sx)*3) % 256 AS b
        FROM px),
dec AS (SELECT i, y, x,
               CASE WHEN f = 1 THEN (r // 4) * 4 + 2 ELSE r END AS r,
               CASE WHEN f = 1 THEN (g // 4) * 4 + 2 ELSE g END AS g,
               CASE WHEN f = 1 THEN (b // 4) * 4 + 2 ELSE b END AS b
        FROM raw),
emb AS (SELECT i, d.d AS d,
               CAST(SUM(r * (((d.d + 1) * (y + 2 * x)) % 7 - 3)
                      + g * (((d.d + 2) * (2 * y + x)) % 7 - 3)
                      + b * (((d.d + 3) * (y + x)) % 7 - 3))
                    AS BIGINT) AS e
        FROM dec CROSS JOIN range(16) d(d) GROUP BY i, d.d),
sc AS (SELECT q.i AS qid, a.i AS ai,
              CAST(SUM(a.e * q.e) AS BIGINT) AS score
       FROM emb a JOIN emb q ON a.d = q.d AND q.i < 8 AND a.i <> q.i
       GROUP BY q.i, a.i),
r AS (SELECT qid,
             'img' || lpad(CAST(ai AS VARCHAR), 12, '0') AS image_id,
             score,
             ROW_NUMBER() OVER (PARTITION BY qid
                                ORDER BY score DESC,
                                'img' || lpad(CAST(ai AS VARCHAR), 12, '0')
                                ) AS rk
      FROM sc)
SELECT qid, image_id, score, CAST(rk AS BIGINT) AS rk
FROM r WHERE rk <= 3
"""


def _q93_geo_clip_retrieval(sf_dir: str):
    """The geospatial x image FUSION query: for each of the first 8
    valid-geotag query images, the top-3 most-aligned other images
    whose z7 tile lies in the 3x3 ring around the query's tile —
    spatial prune first, exact int64 MIPS re-rank second. One fused
    actor-pool pass computes embedding + carries lon/lat; queries
    broadcast once as (emb, tile) rows.
    proj_ray/images.py clip_geo_topk."""
    from proj_ray.images import (ImageEmbedder, clip_geo_topk,
                                 images_table, make_images_for)

    n = _read(sf_dir, "documents").count()
    emb = images_table(
        n, columns=["image_id", "bytes", "fmt", "lon", "lat"]) \
        .map_batches(ImageEmbedder,
                     fn_constructor_kwargs=dict(
                         passthrough=("lon", "lat")),
                     batch_format="numpy", batch_size=256,
                     concurrency=(2, 8))
    probe = make_images_for(np.arange(32))
    valid = np.flatnonzero(np.asarray(probe["lat"]) != 91.0)[:8]
    return clip_geo_topk(emb, valid, k=3, zoom=7)


_Q93_SQL = f"""
WITH geo AS ({_IMG_GEO_SQL.format(mult=1)}),
t AS (SELECT i, lat, {_TILE_SQL.format(n=128)} FROM geo),
qs AS (SELECT i AS qid, tile_x AS qtx, tile_y AS qty
       FROM t WHERE lat <> 91.0 ORDER BY i LIMIT 8),
seq AS (SELECT ROW_NUMBER() OVER () - 1 AS i FROM documents),
img AS (SELECT i, CASE WHEN i > 0 AND i % 97 = 0 THEN i - 1 ELSE i END
               AS src FROM seq),
dims AS (SELECT i, src, src % 3 AS f,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 32 ELSE 64 END AS w,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 24 ELSE 48 END AS h
        FROM img),
px AS (SELECT i, src, f, y.y AS y, x.x AS x,
              (y.y * h) // 12 AS sy, (x.x * w) // 16 AS sx
       FROM dims CROSS JOIN range(12) y(y) CROSS JOIN range(16) x(x)),
raw AS (SELECT i, f, y, x,
               (src*37 + sy*11 + sx*7) % 256 AS r,
               (src*53 + sy*5 + sx*13) % 256 AS g,
               (src*97 + (sy+sx)*3) % 256 AS b
        FROM px),
dec AS (SELECT i, y, x,
               CASE WHEN f = 1 THEN (r // 4) * 4 + 2 ELSE r END AS r,
               CASE WHEN f = 1 THEN (g // 4) * 4 + 2 ELSE g END AS g,
               CASE WHEN f = 1 THEN (b // 4) * 4 + 2 ELSE b END AS b
        FROM raw),
emb AS (SELECT i, d.d AS d,
               CAST(SUM(r * (((d.d + 1) * (y + 2 * x)) % 7 - 3)
                      + g * (((d.d + 2) * (2 * y + x)) % 7 - 3)
                      + b * (((d.d + 3) * (y + x)) % 7 - 3))
                    AS BIGINT) AS e
        FROM dec CROSS JOIN range(16) d(d) GROUP BY i, d.d),
sc AS (SELECT q.qid, a.i AS ai,
              CAST(SUM(a.e * qe.e) AS BIGINT) AS score
       FROM emb a
       JOIN emb qe ON a.d = qe.d
       JOIN qs q ON qe.i = q.qid
       JOIN t at ON at.i = a.i
       WHERE a.i <> q.qid
         AND abs(at.tile_x - q.qtx) <= 1 AND abs(at.tile_y - q.qty) <= 1
       GROUP BY q.qid, a.i),
r AS (SELECT qid,
             'img' || lpad(CAST(ai AS VARCHAR), 12, '0') AS image_id,
             score,
             ROW_NUMBER() OVER (PARTITION BY qid
                                ORDER BY score DESC,
                                'img' || lpad(CAST(ai AS VARCHAR), 12, '0')
                                ) AS rk
      FROM sc)
SELECT qid, image_id, score, CAST(rk AS BIGINT) AS rk
FROM r WHERE rk <= 3
"""


def _q94_resample_ffill(sf_dir: str):
    """Time-series gap fill: per-user DAILY resample of event values
    with forward fill over empty days. Per-block (user, day) partials
    are the only thing that shuffles; each key group materializes its
    own day range and fills vectorized. Carrying the (n, sum) pair
    instead of a mean keeps the contract integer-exact.
    proj_ray/functions/temporal.py resample_ffill."""
    from proj_ray.functions.temporal import resample_ffill

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])
    return resample_ffill(ds, "user_id", "ts", "value")


_Q94_SQL = """
WITH e AS (
  SELECT user_id,
         CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS bucket,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS c
  FROM events
), agg AS (
  SELECT user_id, bucket, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(c) AS BIGINT) AS sum_c
  FROM e GROUP BY user_id, bucket
), span AS (
  SELECT user_id, min(bucket) AS d0, max(bucket) AS d1
  FROM agg GROUP BY user_id
), grid AS (
  SELECT user_id, unnest(generate_series(d0, d1)) AS bucket FROM span
), j AS (
  SELECT g.user_id, g.bucket,
         coalesce(a.n, 0) AS n, coalesce(a.sum_c, 0) AS sum_c
  FROM grid g LEFT JOIN agg a USING (user_id, bucket)
)
SELECT user_id, bucket, CAST(n AS BIGINT) AS n,
       CAST(sum_c AS BIGINT) AS sum_c,
       CAST(last_value(CASE WHEN n > 0 THEN n END IGNORE NULLS)
            OVER (PARTITION BY user_id ORDER BY bucket) AS BIGINT)
           AS filled_n,
       CAST(last_value(CASE WHEN n > 0 THEN sum_c END IGNORE NULLS)
            OVER (PARTITION BY user_id ORDER BY bucket) AS BIGINT)
           AS filled_sum_c
FROM j
"""


def _q95_top_percentile(sf_dir: str):
    """Curation filter by global order statistics: lineitem rows whose
    price is >= the EXACT 99th-percentile cutoff, ranked. Cutoff via a
    two-level distributed histogram (coarse buckets -> one refined
    bucket) — both exchanged tables are bounded histograms, never n
    rows. proj_ray/functions/percentile.py."""
    from proj_ray.functions.percentile import top_percentile_filter

    ds = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_linenumber", "l_extendedprice"])
    return top_percentile_filter(
        ds, ["l_orderkey", "l_linenumber"], "l_extendedprice", q=0.99)


_Q95_SQL = """
WITH v AS (
  SELECT l_orderkey, l_linenumber,
         CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) AS cents
  FROM lineitem
), nn AS (SELECT count(*) AS n FROM v),
kk AS (SELECT CAST(floor(0.99 * (n - 1)) AS BIGINT) AS k FROM nn),
hist AS (SELECT cents AS c, count(*) AS cnt FROM v GROUP BY cents),
cc AS (SELECT c, sum(cnt) OVER (ORDER BY c) AS cum FROM hist),
cutoff AS (SELECT min(c) AS cut FROM cc, kk WHERE cum >= k + 1)
SELECT l_orderkey, l_linenumber, cents,
       CAST(ROW_NUMBER() OVER (ORDER BY cents DESC, l_orderkey,
                               l_linenumber) AS BIGINT) AS rk
FROM v, cutoff WHERE cents >= cut
"""


def _q96_latest_by_key(sf_dir: str):
    """CDC / upsert compaction: the most recent event per user (latest
    ts, event_id breaking hypothetical ties). Per-block partial argmax
    means one candidate per user per block crosses the exchange.
    proj_ray/functions/temporal.py latest_by_key."""
    import pandas as pd

    from proj_ray.functions.temporal import latest_by_key

    ds = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_id", "event_type",
                        "value"])
    out = latest_by_key(ds, "user_id", "ts", order_cols=("event_id",))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "last_ts_us": df["ts"].to_numpy("datetime64[us]")
                            .astype(np.int64),
            "event_id": df["event_id"].to_numpy(np.int64),
            "event_type": df["event_type"].to_numpy(object),
            "value_c": np.floor(df["value"].to_numpy(np.float64) * 100
                                + 0.5).astype(np.int64)})

    return out.map_batches(finish, batch_format="pandas")


_Q96_SQL = """
SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS last_ts_us, event_id,
       event_type,
       CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_c
FROM (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id
                               ORDER BY ts DESC, event_id DESC) AS rn
  FROM events
) WHERE rn = 1
"""


def _q97_curation_pipeline(sf_dir: str):
    """The composed flagship curation flow: Gopher quality filter +
    4-gram decontamination vs the src0 benchmark slice (FUSED into one
    stateless map — text tokenized once for both), exact dedup (min
    doc_id per text, one co-partition), then concat-and-chunk packing
    at seq_len=256. proj_ray/functions/curation.py."""
    import pandas as pd

    from proj_ray.functions.curation import curation_pipeline

    docs = _read(sf_dir, "documents",
                 columns=["doc_id", "text", "source"])

    def side(df: pd.DataFrame, bench: bool) -> pd.DataFrame:
        m = df["source"] == "src0"
        return df[m if bench else ~m][["doc_id", "text"]]

    bench = docs.map_batches(lambda d: side(d, True),
                             batch_format="pandas")
    corpus = docs.map_batches(lambda d: side(d, False),
                              batch_format="pandas")
    return curation_pipeline(corpus, bench, seq_len=256,
                             bucket_size=1 << 10)


_Q97_SQL = """
WITH corpus AS (
  SELECT doc_id, text FROM documents WHERE source <> 'src0'
), gw AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '[a-z]+')) AS word
  FROM corpus
), gwc AS (
  SELECT doc_id, word, count(*) AS c FROM gw GROUP BY doc_id, word
), gper AS (
  SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_words,
         CAST(sum(length(word) * c) AS BIGINT) AS wchars,
         CAST(max(c) AS BIGINT) AS topc,
         CAST(count(CASE WHEN word IN ({stop}) THEN 1 END)
              AS BIGINT) AS nstop
  FROM gwc GROUP BY doc_id
), gpass AS (
  SELECT doc_id FROM gper
  WHERE n_words >= 10
    AND wchars * 1000 // n_words BETWEEN 3000 AND 10000
    AND nstop >= 2 AND topc * 1000000 // n_words <= 200000
), aw AS (
  SELECT doc_id, source, string_split(text, ' ') AS ws FROM documents
), ag AS (
  SELECT DISTINCT doc_id, source,
         array_to_string(ws[i.i:i.i+3], ' ') AS gram
  FROM aw JOIN LATERAL (
    SELECT unnest(generate_series(1, greatest(len(ws) - 3, 0))) AS i
  ) AS i ON true
), bg AS (
  SELECT DISTINCT gram FROM ag WHERE source = 'src0'
), contam AS (
  SELECT DISTINCT doc_id FROM ag
  WHERE source <> 'src0' AND gram IN (SELECT gram FROM bg)
), surv AS (
  SELECT c.doc_id, c.text FROM corpus c JOIN gpass USING (doc_id)
  WHERE c.doc_id NOT IN (SELECT doc_id FROM contam)
), ded AS (
  SELECT MIN(doc_id) AS doc_id, text FROM surv GROUP BY text
), tok AS (
  SELECT doc_id,
         CASE WHEN length(text) > 0
              THEN length(text) - length(replace(text, ' ', '')) + 1
              ELSE 0 END AS t
  FROM ded
), pos AS (
  SELECT doc_id, t,
         CAST(coalesce(sum(t) OVER (ORDER BY doc_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
              AS BIGINT) AS s
  FROM tok WHERE t > 0
), span AS (
  SELECT doc_id, s, t,
         unnest(generate_series(s // 256, (s + t - 1) // 256)) AS seq_id
  FROM pos
)
SELECT seq_id, count(*) AS n_docs, min(doc_id) AS min_doc,
       max(doc_id) AS max_doc,
       CAST(sum(least(s + t, (seq_id + 1) * 256)
                - greatest(s, seq_id * 256)) AS BIGINT) AS n_tokens
FROM span GROUP BY seq_id
""".replace("{stop}", _STOPLIST_SQL)


def _q98_split_assign(sf_dir: str):
    """Deterministic train/val/test split (8/1/1 by Knuth hash of
    doc_id — stable across runs/re-shards) with per-(lang, split)
    count + char-sum stats. One stateless pass ships only partials.
    proj_ray/functions/sample.py hash_split_stats."""
    from proj_ray.functions.sample import hash_split_stats

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "lang", "n_chars"])
    return hash_split_stats(ds, "doc_id", "lang", "n_chars")


_Q98_SQL = """
WITH s AS (
  SELECT lang, n_chars,
         CASE WHEN ((doc_id % 4294967296) * 2654435761)
                   % 4294967296 % 10 <= 7 THEN 'train'
              WHEN ((doc_id % 4294967296) * 2654435761)
                   % 4294967296 % 10 = 8 THEN 'val'
              ELSE 'test' END AS split
  FROM documents
)
SELECT lang, split, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(n_chars) AS BIGINT) AS w
FROM s GROUP BY lang, split
"""


def _q99_bpe_pairs(sf_dir: str):
    """First BPE merge step of tokenizer training: corpus-wide counts
    of adjacent [a-z][a-z] character pairs, top-20. Per-block partials
    are <= 676 rows, so the driver combines directly — no shuffle at
    any corpus size. proj_ray/functions/text.py bpe_pair_counts."""
    from proj_ray.functions.text import bpe_pair_counts

    return bpe_pair_counts(_read(sf_dir, "documents",
                                 columns=["text"]), k=20)


_Q99_SQL = """
WITH p AS (
  SELECT substr(text, i.i, 2) AS pair
  FROM documents JOIN LATERAL (
    SELECT unnest(generate_series(1, greatest(length(text) - 1, 0)))
        AS i
  ) AS i ON true
), ok AS (
  SELECT pair FROM p WHERE pair NOT LIKE '% %'
), c AS (
  SELECT pair, CAST(count(*) AS BIGINT) AS n FROM ok GROUP BY pair
)
SELECT pair, n,
       CAST(ROW_NUMBER() OVER (ORDER BY n DESC, pair) AS BIGINT) AS rk
FROM c ORDER BY n DESC, pair LIMIT 20
"""


def _q100_source_overlap(sf_dir: str):
    """Cross-partition contamination matrix: distinct word-4-grams
    shared by each unordered source pair — the "how much do my crawl
    snapshots overlap" diagnostic. Only distinct (gram_hash, source)
    rows cross the exchange.
    proj_ray/functions/decontam.py cross_source_gram_overlap."""
    from proj_ray.functions.decontam import cross_source_gram_overlap

    return cross_source_gram_overlap(
        _read(sf_dir, "documents", columns=["source", "text"]), n=4)


_Q100_SQL = """
WITH w AS (
  SELECT source, string_split(text, ' ') AS ws FROM documents
), g AS (
  SELECT DISTINCT source, array_to_string(ws[i.i:i.i+3], ' ') AS gram
  FROM w JOIN LATERAL (
    SELECT unnest(generate_series(1, greatest(len(ws) - 3, 0))) AS i
  ) AS i ON true
)
SELECT a.source AS src_a, b.source AS src_b,
       CAST(count(*) AS BIGINT) AS n_shared_grams
FROM g a JOIN g b ON a.gram = b.gram AND a.source < b.source
GROUP BY a.source, b.source
"""


def _q101_jpeg_fidelity(sf_dir: str):
    """Real-JPEG fidelity gate: decode every stored image (png/qjpg/
    bmp), re-encode it with the REAL baseline JPEG codec
    (proj_ray/jpeg.py — ITU-T T.81 sequential DCT, 4:4:4, per-image
    optimized Huffman tables; replaces the round-1..4 quantize stub for
    fmt='jpeg'), decode that, and count per source format the rows
    whose round-trip PSNR clears the north-rule 40 dB lossy bar. The
    SQL oracle states the INVARIANT — n_psnr_ge_40 == n, with the
    per-format counts derived from the fixture's dup-adjusted format
    rotation — so a codec regression below the bar fails the value
    hash mechanically. The exchange ships (fmt, n, ok) counter
    partials from the task pool; pixels never move."""
    from proj_ray.images import images_table, jpeg_fidelity_partials

    n = _read(sf_dir, "documents").count()
    ds = images_table(n, columns=["bytes", "fmt"])
    parts = ds.map_batches(jpeg_fidelity_partials, batch_format="numpy",
                           batch_size=64).to_pandas()
    out = (parts.groupby("fmt", as_index=False)
           .agg(n=("n_part", "sum"), n_psnr_ge_40=("ok_part", "sum"))
           .sort_values("fmt").reset_index(drop=True))
    out["n"] = out["n"].astype("int64")
    out["n_psnr_ge_40"] = out["n_psnr_ge_40"].astype("int64")
    return out


_Q101_SQL = """
WITH ids AS (
  SELECT CAST(ROW_NUMBER() OVER () - 1 AS BIGINT) AS i FROM documents
),
f AS (
  SELECT CASE (CASE WHEN i > 0 AND i % 97 = 0 THEN i - 1 ELSE i END) % 3
         WHEN 0 THEN 'png' WHEN 1 THEN 'qjpg' ELSE 'bmp' END AS fmt
  FROM ids
)
SELECT fmt, CAST(count(*) AS BIGINT) AS n,
       CAST(count(*) AS BIGINT) AS n_psnr_ge_40
FROM f GROUP BY fmt ORDER BY fmt
"""


def _q102_pii_redact(sf_dir: str):
    """PII scan + redaction stats per source (the scrubbing pass of
    web-curation pipelines). The fixture corpus has no natural PII, so
    the query injects deterministic contact tokens (email for
    doc_id%3==0, IPv4 for %5==0, phone for %7==0) by the same
    arithmetic formula the SQL oracle uses — the images-fixture
    pattern of deterministic augmentation — then runs the engine's
    regex scan/redact operator (functions/text.py pii_scan_redact,
    RE2-compatible patterns). All regex work is pandas-C inside one
    map_batches; only per-source counter partials cross the
    exchange."""
    import pandas as pd
    from proj_ray.functions.text import pii_scan_redact

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "source"])

    def aug(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.Series(df["doc_id"].to_numpy(np.int64))
        t = df["text"].astype(str).reset_index(drop=True)
        em = (" mail u" + d.astype(str) + "@ex" + (d % 7).astype(str)
              + ".com").where(d % 3 == 0, "")
        ip = (" ip 10." + (d % 256).astype(str) + "."
              + ((d // 7) % 256).astype(str) + "."
              + (d % 100).astype(str)).where(d % 5 == 0, "")
        ph = (" tel +1-555-" + (1000 + d % 9000).astype(str)
              ).where(d % 7 == 0, "")
        return pd.DataFrame({
            "source": df["source"].to_numpy(dtype=object),
            "text": t + em + ip + ph})

    return pii_scan_redact(ds.map_batches(aug, batch_format="pandas"))


_Q102_SQL = r"""
WITH aug AS (
  SELECT source,
         text
         || CASE WHEN doc_id % 3 = 0 THEN ' mail u'
                 || CAST(doc_id AS VARCHAR) || '@ex'
                 || CAST(doc_id % 7 AS VARCHAR) || '.com' ELSE '' END
         || CASE WHEN doc_id % 5 = 0 THEN ' ip 10.'
                 || CAST(doc_id % 256 AS VARCHAR) || '.'
                 || CAST((doc_id // 7) % 256 AS VARCHAR) || '.'
                 || CAST(doc_id % 100 AS VARCHAR) ELSE '' END
         || CASE WHEN doc_id % 7 = 0 THEN ' tel +1-555-'
                 || CAST(1000 + doc_id % 9000 AS VARCHAR) ELSE '' END AS t
  FROM documents
),
m AS (
  SELECT source, t,
         len(regexp_extract_all(t,
             '[a-z0-9._]+@[a-z0-9.]+\.[a-z]{2,}')) AS c_email,
         len(regexp_extract_all(t,
             '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b')) AS c_ipv4,
         len(regexp_extract_all(t, '\+1-555-\d{4}')) AS c_phone
  FROM aug
)
SELECT source,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(CASE WHEN c_email > 0 THEN 1 ELSE 0 END) AS BIGINT)
           AS docs_email,
       CAST(sum(CASE WHEN c_ipv4 > 0 THEN 1 ELSE 0 END) AS BIGINT)
           AS docs_ipv4,
       CAST(sum(CASE WHEN c_phone > 0 THEN 1 ELSE 0 END) AS BIGINT)
           AS docs_phone,
       CAST(sum(c_email) AS BIGINT) AS tok_email,
       CAST(sum(c_ipv4) AS BIGINT) AS tok_ipv4,
       CAST(sum(c_phone) AS BIGINT) AS tok_phone,
       CAST(sum(length(regexp_replace(regexp_replace(regexp_replace(t,
            '[a-z0-9._]+@[a-z0-9.]+\.[a-z]{2,}', '<EMAIL>', 'g'),
            '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '<IP>', 'g'),
            '\+1-555-\d{4}', '<PHONE>', 'g'))) AS BIGINT)
           AS redacted_len_sum
FROM m GROUP BY source ORDER BY source
"""


def _q103_repetition_filter(sf_dir: str):
    """Gopher repetition filters (duplicate-n-gram family, Rae et al.
    2021 table A1): per-source mean duplicate-2gram / duplicate-3gram
    ppm and flag counts above 10% — the repetition signal set
    complementing q87's gopher_quality rules. One stateless
    map_batches builds grams from shifted views of the flattened word
    array (no per-row Python); only per-source counter partials cross
    the exchange. Integer ppm arithmetic end-to-end so the SQL oracle
    (unnest-by-generate_series gram assembly) is bit-exact."""
    from proj_ray.functions.text import repetition_signals

    ds = _read(sf_dir, "documents", columns=["text", "source"])
    return repetition_signals(ds)


_Q103_SQL = """
WITH arrs AS (
  SELECT doc_id, source, regexp_extract_all(text, '[a-z]+') AS arr
  FROM documents
),
p2 AS (
  SELECT doc_id, any_value(source) AS source, count(*) AS tot,
         count(DISTINCT g) AS dist
  FROM (SELECT doc_id, source,
               unnest(list_transform(generate_series(1, len(arr) - 1),
                      i -> arr[i] || ' ' || arr[i + 1])) AS g
        FROM arrs)
  GROUP BY doc_id
),
p3 AS (
  SELECT doc_id, any_value(source) AS source, count(*) AS tot,
         count(DISTINCT g) AS dist
  FROM (SELECT doc_id, source,
               unnest(list_transform(generate_series(1, len(arr) - 2),
                      i -> arr[i] || ' ' || arr[i + 1] || ' ' || arr[i + 2]))
               AS g
        FROM arrs)
  GROUP BY doc_id
),
s2 AS (
  SELECT source, count(*) AS n_docs2,
         sum((tot - dist) * 1000000 // tot) AS sum2,
         sum(CASE WHEN (tot - dist) * 1000000 // tot >= 100000
             THEN 1 ELSE 0 END) AS flag2
  FROM p2 GROUP BY source
),
s3 AS (
  SELECT source, count(*) AS n_docs3,
         sum((tot - dist) * 1000000 // tot) AS sum3,
         sum(CASE WHEN (tot - dist) * 1000000 // tot >= 100000
             THEN 1 ELSE 0 END) AS flag3
  FROM p3 GROUP BY source
)
SELECT COALESCE(s2.source, s3.source) AS source,
       CAST(COALESCE(n_docs2, 0) AS BIGINT) AS n_docs2,
       CAST(COALESCE(sum2 // n_docs2, 0) AS BIGINT) AS mean_dup2_ppm,
       CAST(COALESCE(flag2, 0) AS BIGINT) AS flag2,
       CAST(COALESCE(n_docs3, 0) AS BIGINT) AS n_docs3,
       CAST(COALESCE(sum3 // n_docs3, 0) AS BIGINT) AS mean_dup3_ppm,
       CAST(COALESCE(flag3, 0) AS BIGINT) AS flag3
FROM s2 FULL OUTER JOIN s3 USING (source)
ORDER BY source
"""


def _trade_pairs(sf_dir: str):
    """(o_custkey, l_suppkey) trade pairs from orders x lineitem —
    the shared edge source of the graph queries (q104 pagerank, q126
    BFS, q136 SSSP). Broadcast-joins the orders side at most
    `dsutil.BROADCAST_ROWS` rows (`dsutil.driver_table`); above it,
    a hash-bucket co-partition merge (no driver-side join either
    way). Pairs are NOT deduped here — callers dedup in the shape
    their algorithm needs."""
    import pandas as pd
    import ray

    from proj_ray import dsutil
    from proj_ray.stages import BroadcastLookup

    orders_ds, od = dsutil.driver_table(
        _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"]),
        dsutil.BROADCAST_ROWS)
    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey"])

    if od is not None:
        omap = BroadcastLookup(od["o_orderkey"].to_numpy(),
                               {"ck": od["o_custkey"].to_numpy()})
        oref = ray.put(omap)

        def pairs(b: dict) -> dict:
            vals, found = ray.get(oref).take(
                np.asarray(b["l_orderkey"], dtype=np.int64))
            return {"c": vals["ck"][found].astype(np.int64),
                    "s": np.asarray(b["l_suppkey"],
                                    dtype=np.int64)[found]}

        return li.map_batches(pairs, batch_format="numpy")

    def li_rows(b: dict) -> dict:
        k = np.asarray(b["l_orderkey"], dtype=np.int64)
        return {"k": k,
                "v": np.asarray(b["l_suppkey"], dtype=np.int64),
                "side": np.zeros(len(k), np.int8)}

    def o_rows(b: dict) -> dict:
        k = np.asarray(b["o_orderkey"], dtype=np.int64)
        return {"k": k,
                "v": np.asarray(b["o_custkey"], dtype=np.int64),
                "side": np.ones(len(k), np.int8)}

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == 0]
        right = g[g["side"] == 1]
        m = left.merge(right[["k", "v"]].rename(columns={"v": "c"}),
                       on="k")
        return pd.DataFrame({"c": m["c"].to_numpy(np.int64),
                             "s": m["v"].to_numpy(np.int64)})

    return co_partition(
        [li.map_batches(li_rows, batch_format="numpy"),
         orders_ds.map_batches(o_rows, batch_format="numpy")],
        "k", merge)


def _q104_pagerank(sf_dir: str, iters: int = 5):
    """Iterative distributed PageRank over the customer<->supplier
    trade graph (distinct (o_custkey, l_suppkey) pairs from
    orders x lineitem, both directions, suppliers namespaced +1e6),
    5 fixed iterations in integer fixed-point so the SQL oracle —
    chained CTEs, one per iteration — is bit-exact. Returns the
    top-20 nodes by final rank (ties broken by node id).

    Scale shape: the orders->custkey side broadcasts at most
    `dsutil.BROADCAST_ROWS` rows and falls back to a bucketed
    co-partition join above it; pair-dedup is bucketed drop-duplicates.
    The iteration loop runs on the driver at most
    `dsutil.DRIVER_FINISH_ROWS` raw pairs (numpy fixed-point,
    bit-identical) and as the distributed functions/graph.py pagerank
    above it — two hash-bucket all-to-alls per iteration over (node,
    contrib) messages, never a driver-side graph. pytest sets both
    caps to 0 to run BOTH fallbacks."""
    import pandas as pd

    from proj_ray import dsutil
    from proj_ray.functions.graph import pagerank

    ns = 1_000_000
    pr, ep = dsutil.driver_table(_trade_pairs(sf_dir),
                                 dsutil.DRIVER_FINISH_ROWS)
    if ep is not None:
        # raw pair list fits the driver: dedup + numpy fixed-point
        # loop here (bit-identical to the distributed path,
        # pytest-enforced)
        from proj_ray.functions.graph import pagerank_numpy
        ep = ep.drop_duplicates(["c", "s"])
        c = ep["c"].to_numpy(np.int64)
        s = ep["s"].to_numpy(np.int64) + ns
        nodes_a, r_a = pagerank_numpy(np.concatenate([c, s]),
                                      np.concatenate([s, c]),
                                      iters=iters)
        order = np.lexsort((nodes_a, -r_a))[:20]
        return pd.DataFrame({"node": nodes_a[order],
                             "r": r_a[order]})

    def dedup(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["c", "s"])

    pairs_d = co_partition(pr, ["c", "s"], dedup)

    def both(b: dict) -> dict:
        c = np.asarray(b["c"], dtype=np.int64)
        s = np.asarray(b["s"], dtype=np.int64) + ns
        return {"src": np.concatenate([c, s]),
                "dst": np.concatenate([s, c])}

    ranks = pagerank(pairs_d.map_batches(both, batch_format="numpy"),
                     iters=iters)
    top = (ranks.sort(["r", "node"], descending=[True, False])
           .limit(20).to_pandas())
    top["node"] = top["node"].astype(np.int64)
    top["r"] = top["r"].astype(np.int64)
    return top[["node", "r"]]


def _pagerank_oracle_sql(iters: int = 5) -> str:
    sql = """
WITH pairs AS (
  SELECT DISTINCT o_custkey AS c, l_suppkey AS s
  FROM orders JOIN lineitem ON o_orderkey = l_orderkey
),
e AS (
  SELECT c AS src, s + 1000000 AS dst FROM pairs
  UNION ALL SELECT s + 1000000, c FROM pairs
),
outd AS (SELECT src, CAST(count(*) AS BIGINT) AS o FROM e GROUP BY src),
nodes AS (SELECT DISTINCT src AS v FROM e
          UNION SELECT DISTINCT dst FROM e),
r0 AS (SELECT v, CAST(1000000 AS BIGINT) AS r FROM nodes)"""
    for i in range(1, iters + 1):
        sql += f""",
m{i} AS (
  SELECT e.dst AS v, sum(r{i - 1}.r // outd.o) AS c
  FROM e JOIN outd USING (src) JOIN r{i - 1} ON r{i - 1}.v = e.src
  GROUP BY e.dst
),
r{i} AS (
  SELECT n.v,
         CAST(150000 + (85 * COALESCE(m{i}.c, 0)) // 100 AS BIGINT) AS r
  FROM nodes n LEFT JOIN m{i} ON m{i}.v = n.v
)"""
    return sql + f"""
SELECT v AS node, r FROM r{iters} ORDER BY r DESC, v LIMIT 20
"""


_Q104_SQL = _pagerank_oracle_sql(5)


def _q105_funnel(sf_dir: str):
    """Ordered funnel analysis over the events stream (first-match
    semantics): users progressing view -> click -> purchase in strict
    timestamp order, plus total view->purchase conversion latency in
    integer microseconds. n_users counts distinct users within the
    funnel-universe event types (the pruned read both sides use).
    One hash-bucket all-to-all co-partitions events by user; the
    per-bucket pass is pandas-C groupby-min chains; one counter row
    per bucket reaches the driver (functions/temporal.py
    funnel_counts)."""
    from proj_ray.functions.temporal import funnel_counts

    ds = _read(sf_dir, "events",
               columns=["user_id", "event_type", "ts"])
    return funnel_counts(ds, ["view", "click", "purchase"])


_Q105_SQL = """
WITH f AS (SELECT user_id, event_type, ts FROM events
           WHERE event_type IN ('view', 'click', 'purchase')),
s0 AS (SELECT user_id, min(ts) AS t0 FROM f
       WHERE event_type = 'view' GROUP BY user_id),
s1 AS (SELECT f.user_id, min(f.ts) AS t1 FROM f
       JOIN s0 ON f.user_id = s0.user_id AND f.ts > s0.t0
       WHERE f.event_type = 'click' GROUP BY f.user_id),
s2 AS (SELECT f.user_id, min(f.ts) AS t2 FROM f
       JOIN s1 ON f.user_id = s1.user_id AND f.ts > s1.t1
       WHERE f.event_type = 'purchase' GROUP BY f.user_id)
SELECT CAST((SELECT count(DISTINCT user_id) FROM f) AS BIGINT)
           AS n_users,
       CAST((SELECT count(*) FROM s0) AS BIGINT) AS n_view,
       CAST((SELECT count(*) FROM s1) AS BIGINT) AS n_view_click,
       CAST((SELECT count(*) FROM s2) AS BIGINT)
           AS n_view_click_purchase,
       CAST(COALESCE((SELECT sum(epoch_us(s2.t2) - epoch_us(s0.t0))
                      FROM s2 JOIN s0 ON s2.user_id = s0.user_id), 0)
            AS BIGINT) AS sum_convert_us
"""


def _q106_retention(sf_dir: str):
    """Cohort retention matrix over the events stream: cohort = the
    epoch DAY of each user's first event (the fixture spans one
    calendar month, so daily periods give a real matrix); count
    distinct cohort users active at each day offset 0..14. One
    hash-bucket all-to-all over per-batch-deduped (user, day) pairs;
    (cohort, offset, count) partials over the bounded domain reach the
    driver (functions/temporal.py retention_cohorts)."""
    from proj_ray.functions.temporal import retention_cohorts

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    return retention_cohorts(ds, max_offset=14,
                             period_us=86_400_000_000)


_Q106_SQL = """
WITH um AS (
  SELECT DISTINCT user_id,
         epoch_us(ts) // 86400000000 AS mon
  FROM events
),
c AS (SELECT user_id, min(mon) AS m0 FROM um GROUP BY user_id)
SELECT c.m0 AS cohort_mon, um.mon - c.m0 AS off,
       CAST(count(DISTINCT um.user_id) AS BIGINT) AS n_users
FROM um JOIN c USING (user_id)
WHERE um.mon - c.m0 <= 14
GROUP BY 1, 2 ORDER BY 1, 2
"""


def _q107_snapshot_diff(sf_dir: str):
    """CDC snapshot diff over the append-only events stream: the
    latest-per-user state (max (ts, event_id) tuple wins, q96's rule)
    at two cut timestamps, diffed — keys at each cut, keys added
    between cuts, surviving keys whose fixed-point value changed vs
    stayed. ONE hash-bucket all-to-all on user after row/column
    pruning; each bucket computes both snapshots and emits one counter
    row (functions/temporal.py snapshot_diff). The SQL oracle builds
    the two snapshots with QUALIFY row_number()=1 windows and left-
    joins them."""
    from proj_ray.functions.temporal import snapshot_diff

    ds = _read(sf_dir, "events",
               columns=["user_id", "event_id", "ts", "value"])
    return snapshot_diff(ds, "user_id", "ts", "value",
                         "2024-01-11T00:00:00", "2024-01-21T00:00:00",
                         order_cols=("event_id",))


_Q107_SQL = """
WITH s1 AS (
  SELECT user_id, CAST(floor(value * 100 + 0.5) AS BIGINT) AS v
  FROM events WHERE ts <= TIMESTAMP '2024-01-11 00:00:00'
  QUALIFY row_number() OVER (PARTITION BY user_id
                             ORDER BY ts DESC, event_id DESC) = 1
),
s2 AS (
  SELECT user_id, CAST(floor(value * 100 + 0.5) AS BIGINT) AS v
  FROM events WHERE ts <= TIMESTAMP '2024-01-21 00:00:00'
  QUALIFY row_number() OVER (PARTITION BY user_id
                             ORDER BY ts DESC, event_id DESC) = 1
)
SELECT CAST((SELECT count(*) FROM s1) AS BIGINT) AS n_keys_t1,
       CAST((SELECT count(*) FROM s2) AS BIGINT) AS n_keys_t2,
       CAST(sum(CASE WHEN s1.user_id IS NULL THEN 1 ELSE 0 END)
            AS BIGINT) AS n_added,
       CAST(sum(CASE WHEN s1.user_id IS NOT NULL AND s1.v <> s2.v
                THEN 1 ELSE 0 END) AS BIGINT) AS n_changed,
       CAST(sum(CASE WHEN s1.v = s2.v THEN 1 ELSE 0 END) AS BIGINT)
           AS n_unchanged
FROM s2 LEFT JOIN s1 USING (user_id)
"""


def _q108_salted_join(sf_dir: str):
    """Skew-aware salted JOIN with fused aggregation: events (fact,
    user_id is a hot key — cardinality far below row count) joined to
    customer (dim) on user_id = c_custkey, grouped by market segment.
    A bounded Misra-Gries census finds hot keys, their dim rows are
    replicated `salt` ways and the fact rows spread across the salted
    partitions, so no reducer sees more than ~1/salt of a hot key's
    rows; ONE all-to-all total, value pre-quantized to int64 so the
    partial sums are exact (functions/skewjoin.py). pytest asserts
    salt=1 == salt=8 == broadcast-join parity."""
    from proj_ray.functions.skewjoin import salted_join_agg

    fact = _read(sf_dir, "events", columns=["user_id", "value"])
    dim = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    return salted_join_agg(fact, dim, "user_id", "c_custkey",
                           "c_mktsegment", "value", scale=100, salt=8)


_Q108_SQL = """
SELECT c.c_mktsegment,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(floor(e.value * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS sum_value_q
FROM events e JOIN customer c ON e.user_id = c.c_custkey
GROUP BY 1 ORDER BY 1
"""


def _q109_map_match(sf_dir: str):
    """Map-matching: snap each document geotag to the nearest of 64
    synthetic road segments and report per-segment point counts + the
    summed snap metric. The metric is an EXACT integer (deci-degree
    coords, floor-scaled rational point-to-segment distance — see
    stages/mapmatch.py), so argmin has no float ties and the SQL
    oracle reproduces the assignment bit-for-bit. Segments broadcast
    once via ray.put; each batch emits <=64 partial rows."""
    from proj_ray.stages.mapmatch import demo_segments, segment_snap_stats

    return segment_snap_stats(_docs_geo(sf_dir), "lon", "lat",
                              demo_segments(64))


_Q109_SQL = f"""
WITH geo AS ({_GEO_SQL}),
pts AS (
  SELECT doc_id,
         CAST(floor(lon * 10 + 0.5) AS BIGINT) AS px,
         CAST(floor(lat * 10 + 0.5) AS BIGINT) AS py
  FROM geo),
segs AS (
  SELECT s,
         (s * 127) % 3600 - 1800 AS ax,
         (s * 211) % 1700 - 850 AS ay,
         (s * 127) % 3600 - 1800 + (s * 89) % 200 - 100 AS bx,
         (s * 211) % 1700 - 850 + (s * 53) % 200 - 100 AS by
  FROM (SELECT CAST(range AS BIGINT) AS s FROM range(64))),
cand AS (
  SELECT doc_id, s,
         CASE WHEN len2 = 0 OR dot <= 0 THEN d2a * 65536
              WHEN dot >= len2 THEN d2b * 65536
              ELSE ((d2a * len2 - dot * dot) * 65536) // len2
         END AS mq
  FROM (
    SELECT p.doc_id, g.s,
           (g.bx-g.ax)*(g.bx-g.ax) + (g.by-g.ay)*(g.by-g.ay) AS len2,
           (p.px-g.ax)*(g.bx-g.ax) + (p.py-g.ay)*(g.by-g.ay) AS dot,
           (p.px-g.ax)*(p.px-g.ax) + (p.py-g.ay)*(p.py-g.ay) AS d2a,
           (p.px-g.bx)*(p.px-g.bx) + (p.py-g.by)*(p.py-g.by) AS d2b
    FROM pts p CROSS JOIN segs g)),
best AS (
  SELECT doc_id, s, mq,
         row_number() OVER (PARTITION BY doc_id ORDER BY mq, s) AS rn
  FROM cand)
SELECT s AS seg_id, CAST(count(*) AS BIGINT) AS n_pts,
       CAST(sum(mq) AS BIGINT) AS sum_mq
FROM best WHERE rn = 1 GROUP BY 1 ORDER BY 1
"""


def _q110_idw_grid(sf_dir: str):
    """IDW interpolation of document geotag values (n_chars) onto a
    10-degree lattice — the vector -> raster surface-fitting operator.
    Weights are integer-quantized (W // d2) so per-node accumulators
    are order-free exact int64 sums (functions/interpolate.py); the
    SQL oracle mirrors the quantization with BIGINT floor division."""
    from proj_ray.functions.interpolate import idw_grid_stats

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def add_geo(b: dict) -> dict:
        i = np.asarray(b["doc_id"], dtype=np.int64)
        lon, lat = _geotag(i)
        return {"lon": lon, "lat": lat,
                "v": np.asarray(b["n_chars"], dtype=np.int64)}

    return idw_grid_stats(ds.map_batches(add_geo, batch_format="numpy"),
                          "lon", "lat", "v")


_Q110_SQL = """
WITH geo AS (
  SELECT CAST(floor(((doc_id*61803 % 360000)/1000.0 - 180.0) * 10 + 0.5)
              AS BIGINT) AS px,
         CAST(floor(((doc_id*75487 % 170000)/1000.0 - 85.0) * 10 + 0.5)
              AS BIGINT) AS py,
         CAST(n_chars AS BIGINT) AS v
  FROM documents),
nodes AS (
  SELECT -1800 + 100 * i AS gx, -800 + 100 * j AS gy
  FROM (SELECT CAST(range AS BIGINT) AS i FROM range(36)),
       (SELECT CAST(range AS BIGINT) AS j FROM range(17))),
pairs AS (
  SELECT gx, gy, v,
         (px-gx)*(px-gx) + (py-gy)*(py-gy) AS d2
  FROM geo CROSS JOIN nodes
  WHERE (px-gx)*(px-gx) + (py-gy)*(py-gy) <= 22500),
agg AS (
  SELECT gx, gy, CAST(count(*) AS BIGINT) AS n_pts,
         CAST(sum(1073741824 // greatest(d2, 1)) AS BIGINT) AS sum_wq,
         CAST(sum((1073741824 // greatest(d2, 1)) * v) AS BIGINT)
             AS sum_wqv
  FROM pairs GROUP BY 1, 2)
SELECT gx, gy, n_pts, sum_wq, sum_wqv,
       CAST(sum_wqv // greatest(sum_wq, 1) AS BIGINT) AS est_q
FROM agg ORDER BY 1, 2
"""


def _q111_contours(sf_dir: str):
    """Marching-squares contour extraction stats over DEM tiles: for
    the iso-line at 128, each tile reports how many 2x2 cells the
    contour crosses, the segment count (saddles = 2), and a position-
    weighted case checksum pinning every cell's classification
    (proj_ray/raster.py contour_stats). Raster -> vector shape:
    pixels never leave the task; 4 ints per tile cross the wire. The
    SQL oracle re-derives the synthetic DEM and the case bitmask
    arithmetically per cell."""
    from proj_ray.raster import contour_stats, dem_table

    n = _read(sf_dir, "documents").count()
    return contour_stats(dem_table(n, columns=["tile_id", "bytes"]))


# case bit order mirrors raster.marching_cases: SW + 2*SE + 4*NE +
# 8*NW over v[r,c] = (i*31 + r*7 + c*13) % 256 (row 0 = south edge)
_Q111_SQL = """
WITH ids AS (
  SELECT CAST(ROW_NUMBER() OVER () - 1 AS BIGINT) AS i FROM documents
),
cells AS (
  SELECT i, r.r AS r, c.c AS c,
     (CASE WHEN (i*31 + r.r*7 + c.c*13) % 256 >= 128
           THEN 1 ELSE 0 END)
   + 2*(CASE WHEN (i*31 + r.r*7 + (c.c+1)*13) % 256 >= 128
             THEN 1 ELSE 0 END)
   + 4*(CASE WHEN (i*31 + (r.r+1)*7 + (c.c+1)*13) % 256 >= 128
             THEN 1 ELSE 0 END)
   + 8*(CASE WHEN (i*31 + (r.r+1)*7 + c.c*13) % 256 >= 128
             THEN 1 ELSE 0 END) AS cs
  FROM ids CROSS JOIN range(0, 31) r(r) CROSS JOIN range(0, 31) c(c)
)
SELECT i AS tile_id,
       CAST(sum(CASE WHEN cs NOT IN (0, 15) THEN 1 ELSE 0 END)
            AS BIGINT) AS n_cross,
       CAST(sum(CASE WHEN cs IN (0, 15) THEN 0
                     WHEN cs IN (5, 10) THEN 2 ELSE 1 END)
            AS BIGINT) AS n_seg,
       CAST(sum(cs * (r * 31 + c + 1)) AS BIGINT) AS case_chk
FROM cells GROUP BY 1
"""


def _q112_triangles(sf_dir: str):
    """Market-basket graph analysis: build the co-purchase graph
    (parts sharing an order become edges) with a bucketed per-order
    pair expansion, then count triangles EXACTLY with the degree-
    oriented wedge-closing algorithm (Suri & Vassilvitskii WWW'11,
    functions/graph.py triangle_count) — orientation from the lower
    (degree, id) endpoint bounds out-degrees at O(sqrt(m)), so no
    reducer sees a hub's full neighborhood. Every exchange ships
    (int, int) rows only."""
    import pandas as pd

    from proj_ray.functions.graph import _pair_expand, triangle_count

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def tag(b: dict) -> dict:
        return {"o": np.asarray(b["l_orderkey"], dtype=np.int64),
                "p": np.asarray(b["l_partkey"], dtype=np.int64)}

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(subset=["o", "p"])
        o = d["o"].to_numpy(np.int64)
        p = d["p"].to_numpy(np.int64)
        idx = np.lexsort((p, o))
        a, b2 = _pair_expand(o[idx], p[idx])
        return pd.DataFrame({"u": a, "v": b2})

    edges = co_partition(li.map_batches(tag, batch_format="numpy"), "o",
                         pairs)
    return triangle_count(edges)


_Q112_SQL = """
WITH pp AS (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
e AS (
  SELECT DISTINCT a.p AS u, b.p AS v
  FROM pp a JOIN pp b ON a.o = b.o AND a.p < b.p),
tri AS (
  SELECT count(*) AS t
  FROM e e1
  JOIN e e2 ON e2.u = e1.u AND e2.v > e1.v
  JOIN e e3 ON e3.u = e1.v AND e3.v = e2.v)
SELECT CAST((SELECT count(DISTINCT node) FROM
             (SELECT u AS node FROM e UNION ALL SELECT v FROM e))
            AS BIGINT) AS n_nodes,
       CAST((SELECT count(*) FROM e) AS BIGINT) AS n_edges,
       CAST(tri.t AS BIGINT) AS n_triangles
FROM tri
"""


def _q113_image_patches(sf_dir: str):
    """ViT-style patchify pass: decode every image (real codecs incl.
    the lossy qjpg rows), split into a 4x4 patch grid, and accumulate
    exact integer per-patch luminance statistics (lum = 2r+3g+b) plus
    an image-index-weighted checksum that pins every image's per-patch
    contribution (proj_ray/images.py PatchStats). Pixels never leave
    the task; the exchange carries 16 accumulator rows per block. The
    SQL oracle regenerates source pixels + the lossy quantize-decode
    arithmetically, so codec or patch-boundary drift fails the hash."""
    from proj_ray.images import images_table, patch_stats

    n = _read(sf_dir, "documents").count()
    return patch_stats(
        images_table(n, columns=["image_id", "bytes", "fmt"]), grid=4)


_Q113_SQL = """
WITH seq AS (SELECT ROW_NUMBER() OVER () - 1 AS i FROM documents),
img AS (SELECT i, CASE WHEN i > 0 AND i % 97 = 0 THEN i - 1 ELSE i END
               AS src FROM seq),
dim AS (SELECT i, src, src % 3 AS f,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 32 ELSE 64 END AS w,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 24 ELSE 48 END AS h
        FROM img),
px AS (SELECT i, src, f, w, h, y.y AS y, x.x AS x
       FROM dim CROSS JOIN range(48) y(y) CROSS JOIN range(64) x(x)
       WHERE y.y < h AND x.x < w),
raw AS (SELECT i, f, (y*4)//h AS pr, (x*4)//w AS pc,
               (src*37 + y*11 + x*7) % 256 AS r,
               (src*53 + y*5 + x*13) % 256 AS g,
               (src*97 + (y+x)*3) % 256 AS b
        FROM px),
dec AS (SELECT i, pr, pc,
               2*(CASE WHEN f = 1 THEN (r//4)*4+2 ELSE r END)
             + 3*(CASE WHEN f = 1 THEN (g//4)*4+2 ELSE g END)
             +   (CASE WHEN f = 1 THEN (b//4)*4+2 ELSE b END) AS lum
        FROM raw),
per AS (SELECT i, pr, pc, SUM(lum) AS slum FROM dec GROUP BY 1, 2, 3)
SELECT CAST(pr AS BIGINT) AS pr, CAST(pc AS BIGINT) AS pc,
       CAST(count(*) AS BIGINT) AS n_imgs,
       CAST(SUM(slum) AS BIGINT) AS sum_lum,
       CAST(SUM(slum * (i + 1)) AS BIGINT) AS chk
FROM per GROUP BY 1, 2 ORDER BY 1, 2
"""


def _q114_scd2(sf_dir: str):
    """SCD type-2 interval-ization of the events change log: per user,
    consecutive rows (ordered by ts, event_id) collapse into versions
    wherever the value-band state (floor(value/50)) changes; one row per version with
    a 1-based version number and its start timestamp
    (functions/temporal.py scd2_versions). ONE hash-bucket all-to-all
    on the key; per-bucket vectorized multi-key segment pass."""
    from proj_ray.functions.temporal import scd2_versions

    ds = _read(sf_dir, "events",
               columns=["user_id", "event_id", "ts", "value"])

    def add_state(b: dict) -> dict:
        return {"user_id": b["user_id"], "event_id": b["event_id"],
                "ts": b["ts"],
                "state": np.floor(np.asarray(b["value"])
                                  / 50.0).astype(np.int64)}

    return scd2_versions(
        ds.map_batches(add_state, batch_format="numpy"),
        "user_id", "ts", "state", "event_id")


_Q114_SQL = """
WITH e AS (
  SELECT user_id, ts, event_id,
         CAST(floor(value / 50.0) AS BIGINT) AS state
  FROM events),
o AS (
  SELECT user_id, ts, event_id, state,
         lag(state) OVER (PARTITION BY user_id
                          ORDER BY ts, event_id) AS prev
  FROM e),
s AS (
  SELECT user_id, ts, event_id, state
  FROM o WHERE prev IS NULL OR state <> prev)
SELECT user_id,
       CAST(row_number() OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS BIGINT)
           AS ver_no,
       CAST(state AS BIGINT) AS state,
       ts AS ts_from
FROM s
"""


def _q115_hilbert(sf_dir: str):
    """Hilbert-curve spatial keying: every document geotag encoded to
    the order-8 Hilbert index (cells.py hilbert_cell — the locality-
    preserving alternative to the Z-order cell_id: consecutive
    indices are always grid neighbors, so RANGE-partitioning by the
    key keeps spatial neighbors co-located), then per-cell counts.
    Per-block bounded (cell, n) partials; one small combine. The SQL
    oracle unrolls the 8 bit-transform levels as chained CTEs,
    mirroring the rot/reflect algebra op-for-op."""
    from proj_ray.cells import hilbert_cell

    ds = _docs_geo(sf_dir)

    def partial(b: dict) -> dict:
        d = hilbert_cell(b["lon"], b["lat"], 8)
        cells, counts = np.unique(d, return_counts=True)
        return {"hcell": cells, "n": counts.astype(np.int64)}

    parts = ds.map_batches(partial, batch_format="numpy").to_pandas()
    out = parts.groupby("hcell", sort=True)["n"].sum() \
        .reset_index(name="n_docs")
    out["hcell"] = out["hcell"].astype(np.int64)
    out["n_docs"] = out["n_docs"].astype(np.int64)
    return out


def _hilbert_sql_steps() -> str:
    steps = []
    for k, s in enumerate((128, 64, 32, 16, 8, 4, 2, 1)):
        steps.append(f"""h{k + 1} AS (
  SELECT doc_id,
    CASE WHEN (y // {s}) % 2 = 0 THEN
      CASE WHEN (x // {s}) % 2 = 1 THEN 255 - y ELSE y END
    ELSE x END AS x,
    CASE WHEN (y // {s}) % 2 = 0 THEN
      CASE WHEN (x // {s}) % 2 = 1 THEN 255 - x ELSE x END
    ELSE y END AS y,
    d + {s * s} * (CASE
        WHEN (x // {s}) % 2 = 1 AND (y // {s}) % 2 = 1 THEN 2
        WHEN (x // {s}) % 2 = 1 THEN 3
        WHEN (y // {s}) % 2 = 1 THEN 1 ELSE 0 END) AS d
  FROM h{k})""")
    return ",\n".join(steps)


_Q115_SQL = f"""
WITH geo AS ({_GEO_SQL}),
h0 AS (
  SELECT doc_id,
         CAST(least(greatest(floor((lon + 180.0) / 360.0 * 256), 0),
                    255) AS BIGINT) AS x,
         CAST(least(greatest(floor((lat + 85.0) / 170.0 * 256), 0),
                    255) AS BIGINT) AS y,
         CAST(0 AS BIGINT) AS d
  FROM geo),
{_hilbert_sql_steps()}
SELECT d AS hcell, CAST(count(*) AS BIGINT) AS n_docs
FROM h8 GROUP BY 1 ORDER BY 1
"""


def _q116_late_events(sf_dir: str):
    """Watermark / late-event accounting over the stored event stream:
    the watermark at arrival position i (arrival order = event_id) is
    the running max event-time; an event is LATE when it arrives more
    than 2 days behind the watermark. Per event type: totals, late
    counts, worst lateness. Distributed prefix-max with range buckets
    on the arrival position + a driver-side B-row carry scan — ONE
    bucketed all-to-all (functions/temporal.py watermark_lateness)."""
    from proj_ray.functions.temporal import watermark_lateness

    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "event_type"])
    return watermark_lateness(ds, "event_id", "ts", "event_type",
                              late_us=2 * 86400 * 1_000_000)


_Q116_SQL = """
WITH w AS (
  SELECT event_type, ts,
         max(ts) OVER (ORDER BY event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING
                       AND CURRENT ROW) AS wm
  FROM events)
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CASE WHEN date_diff('microsecond', ts, wm)
                          > 172800000000 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_late,
       CAST(max(date_diff('microsecond', ts, wm)) AS BIGINT)
           AS max_late_us
FROM w GROUP BY 1 ORDER BY 1
"""


def _q117_cross_track(sf_dir: str):
    """Great-circle corridor assignment: each geotag joins the route
    (of 8 deterministic great circles) minimizing its spherical
    CROSS-TRACK distance asin(sin(d13) * sin(th13 - th12)) * R, kept
    when within 500 km; per-route counts + meter-quantized distance
    sums (stages/mapmatch.py cross_track_stats). The SQL oracle
    mirrors every transcendental op-for-op (the q57/q58 float
    contract), so the argmin, the corridor filter, and the sums are
    reproduced exactly."""
    from proj_ray.stages.mapmatch import cross_track_stats, \
        route_endpoints

    return cross_track_stats(_docs_geo(sf_dir), "lon", "lat",
                             route_endpoints(8), max_m=500_000)


_Q117_SQL = f"""
WITH geo AS ({_GEO_SQL}),
routes AS (
  SELECT CAST(range AS BIGINT) AS r,
         (range * 29) % 140 - 70 + 0.5 AS lat_a,
         (range * 47) % 340 - 170 + 0.5 AS lon_a,
         (range * 61 + 37) % 140 - 70 + 0.5 AS lat_b,
         (range * 83 + 59) % 340 - 170 + 0.5 AS lon_b
  FROM range(8)),
cand AS (
  SELECT doc_id, r,
    CAST(floor(abs(asin(least(greatest(
      sin(acos(least(greatest(
        sin(radians(lat_a)) * sin(radians(lat))
        + cos(radians(lat_a)) * cos(radians(lat))
          * cos(radians(lon) - radians(lon_a)), -1.0), 1.0)))
      * sin(atan2(sin(radians(lon) - radians(lon_a))
                    * cos(radians(lat)),
                  cos(radians(lat_a)) * sin(radians(lat))
                  - sin(radians(lat_a)) * cos(radians(lat))
                    * cos(radians(lon) - radians(lon_a)))
            - atan2(sin(radians(lon_b) - radians(lon_a))
                      * cos(radians(lat_b)),
                    cos(radians(lat_a)) * sin(radians(lat_b))
                    - sin(radians(lat_a)) * cos(radians(lat_b))
                      * cos(radians(lon_b) - radians(lon_a))))
      , -1.0), 1.0)) * 6371000.0) + 0.5) AS BIGINT) AS mq
  FROM geo CROSS JOIN routes),
best AS (
  SELECT doc_id, r, mq,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY mq, r) AS rn
  FROM cand)
SELECT r AS route_id, CAST(count(*) AS BIGINT) AS n_pts,
       CAST(sum(mq) AS BIGINT) AS sum_dxt_q
FROM best WHERE rn = 1 AND mq <= 500000
GROUP BY 1 ORDER BY 1
"""


def _q118_kmeans_lloyd(sf_dir: str):
    """Full iterative Lloyd k-means (3 iterations, k=8) over the
    embeddings table in exact integer arithmetic: quantized elements,
    exact squared-Euclidean argmin, truncated-integer-mean M-step
    (DuckDB // semantics), empty clusters dropped — so the SQL
    oracle's chained-CTE mirror is bit-exact across ALL iterations
    (functions/ann.py kmeans_lloyd). Per iteration, one pass ships
    k x (dim+2) accumulator rows per block; vectors never shuffle."""
    from proj_ray.functions.ann import kmeans_lloyd

    return kmeans_lloyd(_read(sf_dir, "embeddings",
                              columns=["vec_id", "embedding"]),
                        k=8, iters=3)


def _lloyd_sql_iters(iters: int = 3) -> str:
    steps = []
    for i in range(1, iters + 1):
        steps.append(f"""a{i} AS (
  SELECT e.vec_id, c.cid,
         row_number() OVER (PARTITION BY e.vec_id
             ORDER BY sum((e.v - c.v) * (e.v - c.v)), c.cid) AS rnk
  FROM eq e JOIN c{i - 1} c USING (dim)
  GROUP BY e.vec_id, c.cid),
s{i} AS (SELECT vec_id, cid FROM a{i} WHERE rnk = 1),
c{i} AS (
  SELECT s.cid, e.dim, CAST(sum(e.v) // count(*) AS BIGINT) AS v
  FROM s{i} s JOIN eq e USING (vec_id) GROUP BY 1, 2)""")
    return ",\n".join(steps)


_Q118_SQL = f"""
WITH eq AS (
  SELECT vec_id, d.i AS dim,
         CAST(floor(CAST(embedding[CAST(d.i AS INT)] AS DOUBLE)
                    * 1000000.0 + 0.5) AS BIGINT) AS v
  FROM embeddings CROSS JOIN range(1, 65) d(i)),
c0 AS (SELECT vec_id AS cid, dim, v FROM eq WHERE vec_id < 8),
{_lloyd_sql_iters(3)}
SELECT n.cid, n.n_vecs, k.cchk
FROM (SELECT cid, CAST(count(*) AS BIGINT) AS n_vecs
      FROM s3 GROUP BY 1) n
JOIN (SELECT cid, CAST(sum(v * dim) AS BIGINT) AS cchk
      FROM c3 GROUP BY 1) k USING (cid)
ORDER BY cid
"""


def _q119_dbscan_core(sf_dir: str):
    """Grid-based DBSCAN core-point classification over document
    geotags (eps = 2 deg, min_pts = 4, count includes self): the PBSM
    plan — every point ships once to its home eps-cell and as a ghost
    to the 8 ring cells, ONE all-to-all, per-cell vectorized exact
    integer neighbor counting (functions/dbscan.py). Coordinates
    shift non-negative before the cell floor-division so numpy //
    (floor) and DuckDB // (trunc) agree."""
    from proj_ray.functions.dbscan import dbscan_core_stats

    # per-cell pair counting is the heavy step: its map_groups runs one
    # shuffle partition per input block, so keep the read's split
    return dbscan_core_stats(_docs_geo(sf_dir, small_as_one_block=False),
                             "lon", "lat", "doc_id", eps_mdeg=2000,
                             min_pts=4)


_Q119_SQL = f"""
WITH geo AS ({_GEO_SQL}),
c AS (
  SELECT doc_id,
         CAST(floor(lon * 1000 + 0.5) AS BIGINT) + 1048576 AS x,
         CAST(floor(lat * 1000 + 0.5) AS BIGINT) + 1048576 AS y,
         (CAST(floor(lon * 1000 + 0.5) AS BIGINT) + 1048576)
             // 2000 AS cx,
         (CAST(floor(lat * 1000 + 0.5) AS BIGINT) + 1048576)
             // 2000 AS cy
  FROM geo),
cnt AS (
  SELECT a.doc_id, CAST(count(*) AS BIGINT) AS nbr
  FROM c a
  JOIN c b ON b.cx BETWEEN a.cx - 1 AND a.cx + 1
          AND b.cy BETWEEN a.cy - 1 AND a.cy + 1
          AND (a.x - b.x) * (a.x - b.x)
              + (a.y - b.y) * (a.y - b.y) <= 4000000
  GROUP BY 1)
SELECT CAST(sum(CASE WHEN nbr >= 4 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_core,
       CAST(sum(CASE WHEN nbr >= 4 THEN 0 ELSE 1 END) AS BIGINT)
           AS n_noncore,
       CAST(sum(nbr * (doc_id + 1)) AS BIGINT) AS chk
FROM cnt
"""


def _q120_hotspots(sf_dir: str):
    """Heat-map hotspot detection: zoom-4 tile counts, then every
    tile that is >= 3 AND strictly greater than all 8 neighbors
    (absent neighbor = 0) — the Getis-Ord-style local-maximum pass
    (functions/hotspot.py local_max_cells). The compare scatter ships
    only OCCUPIED (tile, n) rows 9x; points never re-shuffle after
    the count."""
    from proj_ray.functions.hotspot import local_max_cells

    counts = _tile_counts(sf_dir, 4)
    return local_max_cells(counts, "tile_x", "tile_y", "n",
                           min_count=3)


_Q120_SQL = f"""
WITH geo AS ({_GEO_SQL}),
t AS (
  SELECT
    CAST(LEAST(GREATEST(floor(
        (radians(lon) * 6378137.0 + pi() * 6378137.0)
        / (2 * pi() * 6378137.0) * 16), 0), 15) AS BIGINT) AS tx,
    CAST(LEAST(GREATEST(floor(
        (pi() * 6378137.0 - 6378137.0
           * ln(tan(pi()/4 + radians(lat)/2)))
        / (2 * pi() * 6378137.0) * 16), 0), 15) AS BIGINT) AS ty
  FROM geo),
c AS (SELECT tx, ty, CAST(count(*) AS BIGINT) AS n
      FROM t GROUP BY 1, 2)
SELECT a.tx AS tile_x, a.ty AS tile_y, a.n
FROM c a
WHERE a.n >= 3 AND NOT EXISTS (
  SELECT 1 FROM c b
  WHERE b.tx BETWEEN a.tx - 1 AND a.tx + 1
    AND b.ty BETWEEN a.ty - 1 AND a.ty + 1
    AND (b.tx <> a.tx OR b.ty <> a.ty)
    AND b.n >= a.n)
ORDER BY 1, 2
"""


def _q121_ahash_neardup(sf_dir: str):
    """Perceptual-hash image near-dup pairs (the phash-column shape of
    the input hint, with an INTEGER-exact aHash so the oracle can
    reproduce every bit): decode -> 64-bit average hash (images.py
    ahash64_int) -> 8x8-bit band buckets (total recall for hamming<=7
    by pigeonhole) -> chunked SWAR hamming verify <= 6 -> bucketed
    pair dedup (functions/dedup.py hash_band_pairs). Bytes never
    cross a shuffle — only (band, id, hash) triples do."""
    from proj_ray.functions.dedup import hash_band_pairs
    from proj_ray.images import AHasher, images_table

    n = _read(sf_dir, "documents").count()
    # stateless stage -> task pool: an autoscaling actor pool's ramp
    # dominated wall time here (the q101/q127 lesson)
    hashes = images_table(
        n, columns=["image_id", "bytes", "fmt"]).map_batches(
        AHasher(), batch_format="numpy", batch_size=256)
    return hash_band_pairs(hashes, "ahash", "img", max_hamming=6,
                           n_bands=8)


_Q121_SQL = """
WITH seq AS (SELECT ROW_NUMBER() OVER () - 1 AS i FROM documents),
img AS (SELECT i, CASE WHEN i > 0 AND i % 97 = 0 THEN i - 1 ELSE i END
               AS src FROM seq),
dim AS (SELECT i, src, src % 3 AS f,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 32 ELSE 64 END AS w,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 24 ELSE 48 END AS h
        FROM img),
px AS (SELECT i, src, f, w, h, y.y AS y, x.x AS x
       FROM dim CROSS JOIN range(48) y(y) CROSS JOIN range(64) x(x)
       WHERE y.y < h AND x.x < w),
raw AS (SELECT i, f, (y*8)//h AS br, (x*8)//w AS bc,
               (src*37 + y*11 + x*7) % 256 AS r,
               (src*53 + y*5 + x*13) % 256 AS g,
               (src*97 + (y+x)*3) % 256 AS b
        FROM px),
dec AS (SELECT i, br, bc,
               2*(CASE WHEN f = 1 THEN (r//4)*4+2 ELSE r END)
             + 3*(CASE WHEN f = 1 THEN (g//4)*4+2 ELSE g END)
             +   (CASE WHEN f = 1 THEN (b//4)*4+2 ELSE b END) AS lum
        FROM raw),
blk AS (SELECT i, br, bc, SUM(lum) AS bs FROM dec GROUP BY 1, 2, 3),
tot AS (SELECT i, SUM(bs) AS total FROM blk GROUP BY 1),
hsh AS (SELECT b.i,
          CAST(SUM(CASE WHEN bs*64 > total AND (br*8+bc) < 32
                   THEN (CAST(1 AS BIGINT) << CAST(br*8+bc AS INT))
                   ELSE 0 END) AS BIGINT) AS lo,
          CAST(SUM(CASE WHEN bs*64 > total AND (br*8+bc) >= 32
                   THEN (CAST(1 AS BIGINT) << CAST(br*8+bc-32 AS INT))
                   ELSE 0 END) AS BIGINT) AS hi
        FROM blk b JOIN tot USING (i) GROUP BY 1)
SELECT a.i AS id_a, b.i AS id_b,
       CAST(bit_count(xor(a.lo, b.lo))
            + bit_count(xor(a.hi, b.hi)) AS BIGINT) AS hamming
FROM hsh a JOIN hsh b ON a.i < b.i
WHERE bit_count(xor(a.lo, b.lo)) + bit_count(xor(a.hi, b.hi)) <= 6
"""


def _q122_fuzzy_join(sf_dir: str):
    """Fuzzy string self-join (Levenshtein <= 1) over supplier names:
    symmetric-deletion blocking (each string emits O(L) variant hashes
    computed from shared prefix hashes — total recall for k=1 by the
    SymSpell property) -> per-bucket exact BANDED Levenshtein DP
    vectorized across the pair axis -> bucketed pair dedup. Only
    (bucket, id, string) rows cross the shuffle; no all-pairs stage
    (functions/fuzzy.py)."""
    from proj_ray.functions.fuzzy import fuzzy_join

    sup = _read(sf_dir, "supplier", columns=["s_suppkey", "s_name"])
    return fuzzy_join(sup, "s_name", "s_suppkey", max_dist=1)


_Q122_SQL = """
SELECT a.s_suppkey AS id_a, b.s_suppkey AS id_b,
       CAST(levenshtein(a.s_name, b.s_name) AS BIGINT) AS dist
FROM supplier a JOIN supplier b ON a.s_suppkey < b.s_suppkey
WHERE levenshtein(a.s_name, b.s_name) <= 1
"""


def _q123_skyline(sf_dir: str):
    """2-D skyline (Pareto frontier) of parts: minimize retail price,
    maximize size. Per-block local skyline (one vectorized sort +
    running-max sweep reduces each block to a superset of the global
    answer) -> single tiny final sweep; duplicates of a frontier point
    are all retained, matching the NOT-EXISTS dominance oracle
    (functions/skyline.py)."""
    from proj_ray.functions.skyline import skyline2d

    part = _read(sf_dir, "part",
                 columns=["p_partkey", "p_size", "p_retailprice"])

    def widen(batch):
        batch["p_size"] = np.asarray(batch["p_size"]).astype(np.int64)
        return batch

    return skyline2d(part.map_batches(widen, batch_format="numpy"),
                     "p_retailprice", "p_size", ("p_partkey",))


_Q123_SQL = """
SELECT a.p_retailprice, CAST(a.p_size AS BIGINT) AS p_size, a.p_partkey
FROM part a
WHERE NOT EXISTS (
  SELECT 1 FROM part b
  WHERE b.p_retailprice <= a.p_retailprice AND b.p_size >= a.p_size
    AND (b.p_retailprice < a.p_retailprice OR b.p_size > a.p_size))
"""


def _q124_kmv_distinct(sf_dir: str):
    """KMV distinct-count sketch per order priority: k smallest
    bijective 32-bit hashes of the distinct customer keys; estimate =
    (k-1)*2^32 // (h_k+1) in pure integer math so the SQL oracle is
    bit-exact; groups under k distinct report the exact count. Each
    batch ships at most k (group, hash) rows (functions/sketch.py)."""
    from proj_ray.functions.sketch import kmv_distinct

    orders = _read(sf_dir, "orders",
                   columns=["o_orderpriority", "o_custkey"])
    return kmv_distinct(orders, "o_orderpriority", "o_custkey", k=64)


_Q124_SQL = """
WITH d AS (SELECT DISTINCT o_orderpriority AS g, o_custkey AS v
           FROM orders),
h AS (SELECT g, CAST(CAST(v AS HUGEINT) % 4294967296 * 2654435761
                     % 4294967296 AS BIGINT) AS h FROM d),
r AS (SELECT g, h, ROW_NUMBER() OVER (PARTITION BY g ORDER BY h) AS rn,
             COUNT(*) OVER (PARTITION BY g) AS nd FROM h)
SELECT g AS o_orderpriority, CAST(LEAST(nd, 64) AS BIGINT) AS n_kept,
       CAST(h AS BIGINT) AS kth_hash,
       CAST(CASE WHEN nd < 64 THEN nd
                 ELSE 63 * 4294967296 // (h + 1) END AS BIGINT) AS est
FROM r WHERE rn = LEAST(nd, 64)
"""


def _q125_priority_sample(sf_dir: str):
    """Weighted sample of 100 lineitems by priority sampling
    (Duffield-Lund-Thorup): q = (quantity << 32) // (knuth_mix(id)+1)
    in pure integer math, ties by id — bit-exact against the SQL
    mirror. Each block prunes to its local top-100 before the single
    tiny all-to-all (functions/sample.py)."""
    from proj_ray.functions.sample import priority_sample

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_linenumber", "l_quantity"])

    def keyed(batch):
        ok = np.asarray(batch["l_orderkey"], dtype=np.int64)
        ln = np.asarray(batch["l_linenumber"], dtype=np.int64)
        return {"id": ok * 10 + ln,
                "w": np.asarray(batch["l_quantity"]).astype(np.int64)}

    return priority_sample(li.map_batches(keyed, batch_format="numpy"),
                           "w", "id", n=100)


_Q125_SQL = """
WITH t AS (SELECT l_orderkey * 10 + l_linenumber AS id,
                  CAST(l_quantity AS BIGINT) AS w FROM lineitem),
p AS (SELECT id, w,
             CAST(CAST(id AS HUGEINT) % 4294967296 * 2654435761
                  % 4294967296 + 1 AS BIGINT) AS u FROM t)
SELECT id, w, w * 4294967296 // u AS q
FROM p ORDER BY q DESC, id ASC LIMIT 100
"""


def _q126_bfs_hops(sf_dir: str):
    """Exact hop distances (BFS, <= 4 hops) from the smallest-id
    supplier over the customer<->supplier trade graph: iterative
    min-message dataflow — two bucketed all-to-alls per hop over
    (node, dist) messages, never a driver-side graph
    (functions/graph.py bfs_hops). At most
    `dsutil.DRIVER_FINISH_ROWS` raw pairs the pair list BFSes on the
    driver instead (bfs_numpy, bit-identical — the q104 dispatch
    convention; an iterative dataflow pays ~12 exchange latencies for
    a graph whose edge list is a few MB; tests/test_bfs.py holds
    bfs_hops to bfs_numpy). The oracle is a recursive CTE whose
    UNION-deduped (node, depth) state set is bounded by nodes x
    hops."""
    import pandas as pd

    from proj_ray import dsutil
    from proj_ray.functions.graph import bfs_hops

    ns = 1_000_000
    pr, ep = dsutil.driver_table(_trade_pairs(sf_dir),
                                 dsutil.DRIVER_FINISH_ROWS)
    li = _read(sf_dir, "lineitem", columns=["l_suppkey"])
    src = ns + int(li.min("l_suppkey"))
    if ep is not None:
        from proj_ray.functions.graph import bfs_numpy
        ep = ep.drop_duplicates(["c", "s"])
        c = ep["c"].to_numpy(np.int64)
        s = ep["s"].to_numpy(np.int64) + ns
        nodes, dist = bfs_numpy(np.concatenate([c, s]),
                                np.concatenate([s, c]),
                                source=src, max_hops=4)
        return pd.DataFrame({"node": nodes, "dist": dist})

    def dedup(g: pd.DataFrame) -> pd.DataFrame:
        u = g.drop_duplicates(["c", "s"])
        return pd.DataFrame({"a": u["c"].to_numpy(np.int64),
                             "b": u["s"].to_numpy(np.int64) + ns})

    edges = co_partition(pr, ["c", "s"], dedup)
    return bfs_hops(edges, source=src, max_hops=4)


_Q126_SQL = """
WITH RECURSIVE pairs AS (
  SELECT DISTINCT o_custkey AS c, l_suppkey + 1000000 AS s
  FROM orders JOIN lineitem ON o_orderkey = l_orderkey),
e AS (SELECT c AS src, s AS dst FROM pairs
      UNION ALL SELECT s, c FROM pairs),
r AS (SELECT CAST(1000000 + (SELECT MIN(l_suppkey) FROM lineitem)
             AS BIGINT) AS node, 0 AS d
      UNION
      SELECT e.dst, r.d + 1 FROM r JOIN e ON e.src = r.node
      WHERE r.d < 4)
SELECT node, CAST(MIN(d) AS BIGINT) AS dist FROM r GROUP BY node
"""


def _q127_dominant_color(sf_dir: str):
    """Per-image dominant quantized color (4x4x4 RGB buckets, argmax
    count with smallest-bucket tie-break) -> image counts per
    (fmt, dominant bucket). Decode + bincount run in an actor-pool
    stage; only 64 x 3 partial-count rows per batch cross the
    shuffle. Oracle mirrors the pixel generator and codec
    quantization op-for-op (images.py synth_pixels/decode)."""
    import pandas as pd

    from proj_ray.images import decode, images_table

    n = _read(sf_dir, "documents").count()

    def dominant(b: dict) -> dict:
        cnt = len(b["image_id"])
        dom = np.empty(cnt, dtype=np.int64)
        for k in range(cnt):
            px = decode(b["bytes"][k], b["fmt"][k]).astype(np.int64)
            bk = ((px[..., 0] >> 6) * 16 + (px[..., 1] >> 6) * 4
                  + (px[..., 2] >> 6)).ravel()
            dom[k] = int(np.bincount(bk, minlength=64).argmax())
        return {"fmt": b["fmt"], "dom": dom}

    def partial(batch):
        df = pd.DataFrame({"fmt": np.asarray(batch["fmt"]),
                           "dom": np.asarray(batch["dom"])})
        g = df.groupby(["fmt", "dom"], as_index=False).size()
        return g.rename(columns={"size": "n"})

    # stateless stage -> task pool: an autoscaling actor pool's ramp
    # dominated the wall time here (the q101 lesson)
    per_img = images_table(
        n, columns=["image_id", "bytes", "fmt"]).map_batches(
        dominant, batch_format="numpy", batch_size=256)
    return pull_pandas(bucketed_sum(
        per_img.map_batches(partial, batch_format="pandas",
                            batch_size=8192),
        ["fmt", "dom"], "n", "n_images"))


_Q127_SQL = """
WITH seq AS (SELECT ROW_NUMBER() OVER () - 1 AS i FROM documents),
img AS (SELECT i, CASE WHEN i > 0 AND i % 97 = 0 THEN i - 1 ELSE i END
               AS src FROM seq),
dim AS (SELECT i, src, src % 3 AS f,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 32 ELSE 64 END AS w,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 24 ELSE 48 END AS h
        FROM img),
px AS (SELECT i, src, f, y.y AS y, x.x AS x
       FROM dim CROSS JOIN range(48) y(y) CROSS JOIN range(64) x(x)
       WHERE y.y < h AND x.x < w),
raw AS (SELECT i, f,
               (src*37 + y*11 + x*7) % 256 AS r,
               (src*53 + y*5 + x*13) % 256 AS g,
               (src*97 + (y+x)*3) % 256 AS b
        FROM px),
q AS (SELECT i, f,
             CASE WHEN f = 1 THEN (r//4)*4+2 ELSE r END AS rr,
             CASE WHEN f = 1 THEN (g//4)*4+2 ELSE g END AS gg,
             CASE WHEN f = 1 THEN (b//4)*4+2 ELSE b END AS bb
      FROM raw),
cnt AS (SELECT i, f, (rr//64)*16 + (gg//64)*4 + bb//64 AS bucket,
               COUNT(*) AS c
        FROM q GROUP BY 1, 2, 3),
dom AS (SELECT i, f, bucket FROM cnt
        QUALIFY ROW_NUMBER() OVER (PARTITION BY i
                                   ORDER BY c DESC, bucket ASC) = 1)
SELECT CASE f WHEN 0 THEN 'png' WHEN 1 THEN 'qjpg' ELSE 'bmp' END
         AS fmt,
       CAST(bucket AS BIGINT) AS dom,
       COUNT(*) AS n_images
FROM dom GROUP BY 1, 2
"""


def _q128_count_min(sf_dir: str):
    """Count-Min sketch (depth 4 x width 256, fixed odd multiplier row
    hashes) over lineitem supplier keys, judged against the exact
    counts: (suppkey, n_exact, n_est) with n_est the min-of-rows
    bucket counter — integer-exact, so the SQL oracle mirrors the
    sketch bit-for-bit. Counter partials are O(depth*width) per block
    regardless of row count (functions/sketch.py count_min)."""
    from proj_ray.functions.sketch import count_min

    li = _read(sf_dir, "lineitem", columns=["l_suppkey"])
    return count_min(li, "l_suppkey", depth=4, width=256)


_Q128_SQL = """
WITH c AS (SELECT l_suppkey AS k, COUNT(*) AS n
           FROM lineitem GROUP BY 1),
pr AS (SELECT * FROM (VALUES (0, 2654435761), (1, 2246822519),
                             (2, 3266489917), (3, 668265263)) t(j, p)),
h AS (SELECT c.k, c.n, pr.j,
             CAST(CAST(c.k AS HUGEINT) % 4294967296 * pr.p
                  % 4294967296 % 256 AS BIGINT) AS b
      FROM c CROSS JOIN pr),
bs AS (SELECT j, b, SUM(n) AS s FROM h GROUP BY 1, 2),
est AS (SELECT h.k, MIN(bs.s) AS e
        FROM h JOIN bs ON h.j = bs.j AND h.b = bs.b GROUP BY h.k)
SELECT c.k AS l_suppkey, CAST(c.n AS BIGINT) AS n_exact,
       CAST(est.e AS BIGINT) AS n_est
FROM c JOIN est ON c.k = est.k ORDER BY 1
"""


def _q129_pq_adc(sf_dir: str):
    """Product-quantization ADC top-10 (Jegou et al. 2011): 64-dim
    embeddings split into 4 subspaces of 16 dims, each encoded to its
    argmax-int-dot code against the deterministic Hadamard codebook;
    queries (vec_id 0..3) score stored vectors by per-subspace table
    lookup — all in floor(v*1e6+0.5) int64 arithmetic, so the SQL
    oracle mirrors codes, scores and ranks bit-for-bit
    (functions/ann.py pq_adc_topk)."""
    from proj_ray.functions.ann import pq_adc_topk

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return pq_adc_topk(emb, query_ids=range(4), k=10, m=4, ncode=16)


_Q129_SQL = """
WITH q AS (
  SELECT vec_id, i - 1 AS i0,
         CAST(floor(CAST(e AS DOUBLE) * 1000000 + 0.5) AS BIGINT) AS v
  FROM (SELECT vec_id, unnest(embedding) AS e,
               generate_subscripts(embedding, 1) AS i FROM embeddings)),
cb AS (SELECT c.c AS c, d.d AS d,
              1 - 2 * (bit_count(CAST(c.c AS BIGINT)
                                 & CAST(d.d AS BIGINT)) % 2) AS e
       FROM range(16) c(c) CROSS JOIN range(16) d(d)),
dots AS (SELECT q.vec_id, q.i0 // 16 AS j, cb.c,
                SUM(q.v * cb.e) AS dot
         FROM q JOIN cb ON cb.d = q.i0 % 16
         GROUP BY 1, 2, 3),
codes AS (SELECT vec_id, j, c AS code FROM dots
          QUALIFY ROW_NUMBER() OVER (PARTITION BY vec_id, j
                                     ORDER BY dot DESC, c ASC) = 1),
qt AS (SELECT vec_id AS qid, j, c, dot FROM dots WHERE vec_id < 4),
sc AS (SELECT qt.qid AS q, codes.vec_id AS nid, SUM(qt.dot) AS score
       FROM codes JOIN qt ON qt.j = codes.j AND qt.c = codes.code
       GROUP BY 1, 2)
SELECT q, nid, CAST(score AS BIGINT) AS score,
       CAST(ROW_NUMBER() OVER (PARTITION BY q
                               ORDER BY score DESC, nid ASC)
            AS BIGINT) AS rk
FROM sc
QUALIFY rk <= 10
"""


def _q130_staypoints(sf_dir: str):
    """Stay-point detection (GeoLife primitive as gaps-and-islands):
    per-user trajectories in integer micro-degrees (base position per
    3-day bucket + per-event jitter, all modular int math mirrored in
    the oracle), segmented where a consecutive step's exact squared
    displacement exceeds r^2 = 1e8; a stay is a maximal run of >= 5
    pings. One user-bucket all-to-all; vectorized diff + cumsum +
    bincount segment pass (functions/temporal.py staypoints)."""
    from proj_ray.functions.temporal import staypoints

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def pos(b: dict) -> dict:
        e = np.asarray(b["event_id"], dtype=np.int64)
        u = np.asarray(b["user_id"], dtype=np.int64)
        t = np.asarray(b["ts"]).astype("datetime64[us]").astype(np.int64)
        bk = t // 259_200_000_000  # 3-day bucket
        x = (u * 2654435761 + bk * 40503) % 100_000_000 \
            + (e * 7919 % 2001 - 1000)
        y = (u * 2246822519 + bk * 65537) % 100_000_000 \
            + (e * 104729 % 2001 - 1000)
        return {"user_id": u, "ts_us": t, "event_id": e,
                "x": x, "y": y}

    return staypoints(ev.map_batches(pos, batch_format="numpy"),
                      "user_id", "ts_us", r2=100_000_000, min_run=5,
                      tie_col="event_id")


_Q130_SQL = """
WITH p AS (
  SELECT user_id, event_id, epoch_us(ts) AS t,
         (user_id * 2654435761
          + (epoch_us(ts) // 259200000000) * 40503) % 100000000
           + (event_id * 7919 % 2001 - 1000) AS x,
         (user_id * 2246822519
          + (epoch_us(ts) // 259200000000) * 65537) % 100000000
           + (event_id * 104729 % 2001 - 1000) AS y
  FROM events),
lagd AS (
  SELECT user_id, t, event_id, x, y,
         LAG(x) OVER w AS px, LAG(y) OVER w AS py
  FROM p WINDOW w AS (PARTITION BY user_id ORDER BY t, event_id)),
brks AS (
  SELECT user_id, t, event_id,
         CASE WHEN px IS NULL
                   OR (x - px) * (x - px) + (y - py) * (y - py)
                      > 100000000
              THEN 1 ELSE 0 END AS brk
  FROM lagd),
segd AS (
  SELECT user_id,
         SUM(brk) OVER (PARTITION BY user_id ORDER BY t, event_id
                        ROWS BETWEEN UNBOUNDED PRECEDING
                        AND CURRENT ROW) AS seg
  FROM brks),
runs AS (SELECT user_id, seg, COUNT(*) AS len
         FROM segd GROUP BY 1, 2)
SELECT user_id, CAST(SUM(len) AS BIGINT) AS n_points,
       CAST(SUM(CASE WHEN len >= 5 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_stays,
       CAST(MAX(len) AS BIGINT) AS longest_run
FROM runs GROUP BY 1
"""


def _q131_rrf_fusion(sf_dir: str):
    """Hybrid retrieval: BM25 top-50 (lexical, q80's fixed 3-term
    query) fused with exact int64 MIPS top-50 (embedding query
    vec_id=0) by reciprocal-rank fusion, scale//(60+rank) in pure
    integer math (Cormack et al. 2009) — ranks and fused scores are
    SQL-oracle-exact. The corpus-scale work is the two retriever
    passes (each pre-prunes per block); the fuse itself touches only
    the two 50-row lists (functions/ann.py mips_topk, rrf_fuse)."""
    from proj_ray.functions.ann import mips_topk, rrf_fuse
    from proj_ray.functions.text import bm25_topk

    bm = bm25_topk(_read(sf_dir, "documents",
                         columns=["doc_id", "text"]),
                   _Q80_TERMS, k=50)
    ann = mips_topk(_read(sf_dir, "embeddings",
                          columns=["vec_id", "embedding"]),
                    query_id=0, k=50)
    return rrf_fuse([
        bm.rename(columns={"doc_id": "id", "rk": "rank"}),
        ann.rename(columns={"rk": "rank"}),
    ], k=10, c=60)


_Q131_SQL = f"""
WITH bmr AS (
  SELECT doc_id AS id, rk AS r
  FROM ({{q80}}) bm50),
qv AS (
  SELECT i, CAST(floor(CAST(e AS DOUBLE) * 1000000 + 0.5) AS BIGINT)
           AS v
  FROM (SELECT unnest(embedding) AS e,
               generate_subscripts(embedding, 1) AS i
        FROM embeddings WHERE vec_id = 0)),
dv AS (
  SELECT vec_id, i,
         CAST(floor(CAST(e AS DOUBLE) * 1000000 + 0.5) AS BIGINT) AS v
  FROM (SELECT vec_id, unnest(embedding) AS e,
               generate_subscripts(embedding, 1) AS i
        FROM embeddings)),
dots AS (SELECT dv.vec_id, SUM(dv.v * qv.v) AS dot
         FROM dv JOIN qv USING (i) GROUP BY 1),
annr AS (SELECT vec_id AS id,
                ROW_NUMBER() OVER (ORDER BY dot DESC, vec_id) AS r
         FROM dots QUALIFY r <= 50),
ids AS (SELECT id FROM bmr UNION SELECT id FROM annr),
f AS (SELECT ids.id,
        COALESCE((SELECT 1000000000 // (60 + r) FROM bmr
                  WHERE bmr.id = ids.id), 0)
      + COALESCE((SELECT 1000000000 // (60 + r) FROM annr
                  WHERE annr.id = ids.id), 0) AS rrf
      FROM ids)
SELECT CAST(ROW_NUMBER() OVER (ORDER BY rrf DESC, id) AS BIGINT)
         AS rk,
       id, CAST(rrf AS BIGINT) AS rrf
FROM f ORDER BY rrf DESC, id LIMIT 10
""".replace("{q80}", _Q80_SQL.replace("LIMIT 10", "LIMIT 50"))


def _q132_sharpness(sf_dir: str):
    """Blur/sharpness curation gate: per-image integer Laplacian focus
    measure (4p - 4-neighbour sum on the luma plane, luma =
    (299r+587g+114b)//1000), summed as |L| over the interior; an image
    is 'sharp' when sum|L| >= 20 * interior pixels. Decode + conv run
    in an actor-pool stage; only (fmt, n, n_sharp, sum_absl) partial
    counters cross the shuffle. The oracle re-synthesizes pixels and
    codec quantization op-for-op (the q127 contract) and evaluates the
    same Laplacian inline — bit-exact."""
    import pandas as pd

    from proj_ray.images import decode, images_table

    n = _read(sf_dir, "documents").count()
    THR = 20

    def sharp(b: dict) -> dict:
        cnt = len(b["image_id"])
        sabs = np.empty(cnt, dtype=np.int64)
        npx = np.empty(cnt, dtype=np.int64)
        for k in range(cnt):
            px = decode(b["bytes"][k], b["fmt"][k]).astype(np.int64)
            lum = (px[..., 0] * 299 + px[..., 1] * 587
                   + px[..., 2] * 114) // 1000
            L = (4 * lum[1:-1, 1:-1] - lum[:-2, 1:-1]
                 - lum[2:, 1:-1] - lum[1:-1, :-2] - lum[1:-1, 2:])
            sabs[k] = int(np.abs(L).sum())
            npx[k] = L.size
        return {"fmt": b["fmt"], "sabs": sabs, "npx": npx}

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df["sharp"] = (df["sabs"] >= THR * df["npx"]).astype(np.int64)
        g = df.groupby("fmt", as_index=False).agg(
            n_images=("sabs", "size"), n_sharp=("sharp", "sum"),
            total_absl=("sabs", "sum"))
        return g

    # stateless stage -> task pool (the q101 lesson: pool ramp cost)
    out = (images_table(n, columns=["image_id", "bytes", "fmt"])
           .map_batches(sharp, batch_format="numpy", batch_size=256)
           .map_batches(partial, batch_format="pandas",
                        batch_size=8192)
           .to_pandas())
    fin = out.groupby("fmt", as_index=False).sum()
    for c in ("n_images", "n_sharp", "total_absl"):
        fin[c] = fin[c].astype(np.int64)
    return fin.sort_values("fmt").reset_index(drop=True)


_Q132_SQL = """
WITH seq AS (SELECT ROW_NUMBER() OVER () - 1 AS i FROM documents),
img AS (SELECT i, CASE WHEN i > 0 AND i % 97 = 0 THEN i - 1 ELSE i END
               AS src FROM seq),
dim AS (SELECT i, src, src % 3 AS f,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 32 ELSE 64 END AS w,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 24 ELSE 48 END AS h
        FROM img),
pos AS (SELECT i, src, f, y.y AS y, x.x AS x
        FROM dim CROSS JOIN range(48) y(y) CROSS JOIN range(64) x(x)
        WHERE y.y >= 1 AND y.y < h - 1 AND x.x >= 1 AND x.x < w - 1),
off(dx, dy, wt) AS (VALUES (0, 0, 4), (-1, 0, -1), (1, 0, -1),
                           (0, -1, -1), (0, 1, -1)),
pxo AS (SELECT i, src, f, x, y, o.wt, x + o.dx AS xx, y + o.dy AS yy
        FROM pos CROSS JOIN off o),
rgb AS (SELECT i, f, x, y, wt,
               (src*37 + yy*11 + xx*7) % 256 AS r,
               (src*53 + yy*5 + xx*13) % 256 AS g,
               (src*97 + (yy+xx)*3) % 256 AS b
        FROM pxo),
q AS (SELECT i, f, x, y, wt,
             CASE WHEN f = 1 THEN (r//4)*4+2 ELSE r END AS rr,
             CASE WHEN f = 1 THEN (g//4)*4+2 ELSE g END AS gg,
             CASE WHEN f = 1 THEN (b//4)*4+2 ELSE b END AS bb
      FROM rgb),
lum AS (SELECT i, f, x, y,
               SUM(wt * ((rr*299 + gg*587 + bb*114) // 1000)) AS L
        FROM q GROUP BY 1, 2, 3, 4),
img_s AS (SELECT i, f, SUM(ABS(L)) AS sabs, COUNT(*) AS npx
          FROM lum GROUP BY 1, 2)
SELECT CASE f WHEN 0 THEN 'png' WHEN 1 THEN 'qjpg' ELSE 'bmp' END
         AS fmt,
       CAST(COUNT(*) AS BIGINT) AS n_images,
       CAST(SUM(CASE WHEN sabs >= 20 * npx THEN 1 ELSE 0 END)
            AS BIGINT) AS n_sharp,
       CAST(SUM(sabs) AS BIGINT) AS total_absl
FROM img_s GROUP BY 1 ORDER BY 1
"""


def _q133_scene_cuts(sf_dir: str):
    """Video scene-change detection: per video, decode consecutive
    frames (offset-table seek, FVID container) and sum the per-pixel
    |delta luma| (integer luma = (299r+587g+114b)//1000) over each
    adjacent pair; a pair is a cut when the sum exceeds 15000 (~78/px
    on the 16x12 frames). All-integer, so the oracle regenerates both
    frames of every pair arithmetically and must match bit-for-bit.
    Decode runs in an actor-pool stage; only per-video counter rows
    (video_id, n_pairs, n_cuts, max_absdiff) leave the stage."""
    import pandas as pd

    from proj_ray.video import video_frame, video_header, videos_table

    n = _read(sf_dir, "documents").count()
    THR = 15000

    def cuts(b: dict) -> dict:
        cnt = len(b["video_id"])
        n_pairs = np.zeros(cnt, dtype=np.int64)
        n_cuts = np.zeros(cnt, dtype=np.int64)
        mx = np.zeros(cnt, dtype=np.int64)
        for k in range(cnt):
            data = b["bytes"][k]
            nf = video_header(data)[0]
            prev = None
            for f in range(nf):
                px = video_frame(data, f).astype(np.int64)
                lum = (px[..., 0] * 299 + px[..., 1] * 587
                       + px[..., 2] * 114) // 1000
                if prev is not None:
                    d = int(np.abs(lum - prev).sum())
                    n_pairs[k] += 1
                    n_cuts[k] += d > THR
                    mx[k] = max(mx[k], d)
                prev = lum
        return {"video_id": b["video_id"], "n_pairs": n_pairs,
                "n_cuts": n_cuts, "max_absdiff": mx}

    # stateless stage -> task pool (the q101 lesson: pool ramp cost)
    out = (videos_table(n, columns=["video_id", "bytes"])
           .map_batches(cuts, batch_format="numpy", batch_size=128)
           .to_pandas())
    for c in ("n_pairs", "n_cuts", "max_absdiff"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("video_id").reset_index(drop=True)


_Q133_SQL = """
WITH seq AS (SELECT ROW_NUMBER() OVER () - 1 AS i FROM documents),
vid AS (SELECT i, 8 + (i % 5) * 4 AS nf FROM seq),
fr AS (SELECT i, f.f AS f FROM vid CROSS JOIN range(24) f(f)
       WHERE f.f >= 1 AND f.f < nf),
px AS (SELECT i, f, i*131 + f*17 AS s, i*131 + (f-1)*17 AS sp,
              y.y AS y, x.x AS x
       FROM fr CROSS JOIN range(12) y(y) CROSS JOIN range(16) x(x)),
d AS (SELECT i, f,
             SUM(ABS(
               ((s*37 + y*11 + x*7) % 256 * 299
                + (s*53 + y*5 + x*13) % 256 * 587
                + (s*97 + (y+x)*3) % 256 * 114) // 1000
               - ((sp*37 + y*11 + x*7) % 256 * 299
                  + (sp*53 + y*5 + x*13) % 256 * 587
                  + (sp*97 + (y+x)*3) % 256 * 114) // 1000)) AS sd
      FROM px GROUP BY 1, 2)
SELECT 'vid' || lpad(CAST(i AS VARCHAR), 12, '0') AS video_id,
       CAST(COUNT(*) AS BIGINT) AS n_pairs,
       CAST(SUM(CASE WHEN sd > 15000 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_cuts,
       CAST(MAX(sd) AS BIGINT) AS max_absdiff
FROM d GROUP BY 1
"""


def _q134_simplify(sf_dir: str):
    """Per-user Douglas-Peucker trajectory simplification in exact
    integer arithmetic (split iff cross^2 > eps^2*len^2, argmax |cross|
    ties -> lowest seq), over the q130 position synthesis. The oracle
    replays the SAME recursion as a recursive CTE over segment
    intervals (HUGEINT cross*cross) and must reproduce the kept-point
    checksum bit-for-bit (functions/simplify.py)."""
    from proj_ray.functions.simplify import simplify_stats

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def pos(b: dict) -> dict:
        e = np.asarray(b["event_id"], dtype=np.int64)
        u = np.asarray(b["user_id"], dtype=np.int64)
        t = np.asarray(b["ts"]).astype("datetime64[us]").astype(np.int64)
        bk = t // 259_200_000_000
        x = (u * 2654435761 + bk * 40503) % 100_000_000 \
            + (e * 7919 % 2001 - 1000)
        y = (u * 2246822519 + bk * 65537) % 100_000_000 \
            + (e * 104729 % 2001 - 1000)
        return {"user_id": u, "ts_us": t, "event_id": e,
                "x": x, "y": y}

    return simplify_stats(ev.map_batches(pos, batch_format="numpy"),
                          "user_id", "ts_us", eps=2000,
                          tie_col="event_id")


_Q134_SQL = """
WITH RECURSIVE p AS (
  SELECT user_id,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts), event_id) - 1
           AS seq,
         (user_id * 2654435761
          + (epoch_us(ts) // 259200000000) * 40503) % 100000000
           + (event_id * 7919 % 2001 - 1000) AS x,
         (user_id * 2246822519
          + (epoch_us(ts) // 259200000000) * 65537) % 100000000
           + (event_id * 104729 % 2001 - 1000) AS y
  FROM events),
segs(user_id, lo, hi) AS (
  SELECT user_id, 0, MAX(seq) FROM p GROUP BY user_id
  UNION ALL
  SELECT s.user_id,
         CASE t.side WHEN 0 THEN s.lo ELSE s.sp END,
         CASE t.side WHEN 0 THEN s.sp ELSE s.hi END
  FROM (
    SELECT q.user_id, q.lo, q.hi, q.sp
    FROM (
      SELECT r.user_id, r.lo, r.hi, m.seq AS sp,
             (b.x - a.x) * (m.y - a.y)
               - (b.y - a.y) * (m.x - a.x) AS cr,
             b.x - a.x AS dx, b.y - a.y AS dy,
             ROW_NUMBER() OVER (
               PARTITION BY r.user_id, r.lo, r.hi
               ORDER BY ABS((b.x - a.x) * (m.y - a.y)
                            - (b.y - a.y) * (m.x - a.x)) DESC,
                        m.seq ASC) AS rn
      FROM segs r
      JOIN p a ON a.user_id = r.user_id AND a.seq = r.lo
      JOIN p b ON b.user_id = r.user_id AND b.seq = r.hi
      JOIN p m ON m.user_id = r.user_id
              AND m.seq > r.lo AND m.seq < r.hi
    ) q
    WHERE q.rn = 1
      AND CAST(q.cr AS HUGEINT) * q.cr
          > 4000000 * (CAST(q.dx AS HUGEINT) * q.dx
                       + CAST(q.dy AS HUGEINT) * q.dy)
  ) s CROSS JOIN (VALUES (0), (1)) t(side)),
kept AS (
  SELECT DISTINCT user_id, seq FROM (
    SELECT user_id, CAST(lo AS BIGINT) AS seq FROM segs
    UNION ALL
    SELECT user_id, CAST(hi AS BIGINT) FROM segs)),
kp AS (SELECT p.user_id, p.seq, p.x, p.y
       FROM p JOIN kept ON p.user_id = kept.user_id
                       AND p.seq = kept.seq)
SELECT np.user_id, np.n_points, k.n_kept, k.chk
FROM (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_points
      FROM p GROUP BY 1) np
JOIN (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_kept,
             CAST(SUM(seq * 1000003 + x + y) AS BIGINT) AS chk
      FROM kp GROUP BY 1) k
  ON np.user_id = k.user_id
"""


def _q135_hex_smooth(sf_dir: str):
    """Sparse stencil smoothing on the q78 hex grid: smoothed count =
    (6*own + 6-neighbour sum) // 12 per OCCUPIED cell, run as a
    scatter of 7x-replicated weighted partials through ONE hash-bucket
    all-to-all (functions/hotspot.py hex_smooth). Partial per-block
    counts feed the stencil directly — the weighted sums are linear,
    so no exact pre-combine pass is needed."""
    import pandas as pd

    from proj_ray.cells import hex_axial
    from proj_ray.functions.hotspot import hex_smooth

    ds = _docs_geo(sf_dir)

    def partial(b: dict) -> dict:
        hq, hr = hex_axial(b["lon"], b["lat"], _HEX_SIZE_M)
        g = (pd.DataFrame({"hq": hq, "hr": hr})
             .groupby(["hq", "hr"], as_index=False).size())
        return {"hq": g["hq"].to_numpy(np.int64),
                "hr": g["hr"].to_numpy(np.int64),
                "n": g["size"].to_numpy(np.int64)}

    bins = ds.map_batches(partial, batch_format="numpy",
                          batch_size=65536)
    return hex_smooth(bins)


_Q135_SQL = """
WITH bins AS ({q78}),
off(dq, dr, w) AS (VALUES (0, 0, 6), (1, 0, 1), (-1, 0, 1),
                          (0, 1, 1), (0, -1, 1), (1, -1, 1),
                          (-1, 1, 1)),
sc AS (SELECT hq + dq AS q, hr + dr AS r, w * n AS wn,
              CASE WHEN dq = 0 AND dr = 0 THEN n ELSE 0 END AS own
       FROM bins CROSS JOIN off),
agg AS (SELECT q, r, SUM(wn) AS tot, SUM(own) AS own
        FROM sc GROUP BY 1, 2)
SELECT CAST(q AS BIGINT) AS hq, CAST(r AS BIGINT) AS hr,
       CAST(own AS BIGINT) AS n, CAST(tot // 12 AS BIGINT) AS sm
FROM agg WHERE own > 0 ORDER BY 1, 2
""".replace("{q78}", _Q78_SQL)


def _q136_sssp(sf_dir: str):
    """Bounded-round weighted shortest paths (Bellman-Ford as min-plus
    message dataflow, 2 relaxation rounds) from the smallest-id
    supplier over the customer<->supplier trade graph with
    deterministic integer edge weights w = (c*7 + s*13) % 9 + 1 —
    the weighted generalization of q126 (functions/graph.py
    sssp_hops). The oracle is the min-plus semiring power as a
    recursive CTE with an explicit hop counter."""
    import pandas as pd

    from proj_ray.functions.graph import sssp_hops

    ns = 1_000_000
    pr = _trade_pairs(sf_dir)

    def dedup(g: pd.DataFrame) -> pd.DataFrame:
        u = g.drop_duplicates(["c", "s"])
        c = u["c"].to_numpy(np.int64)
        s = u["s"].to_numpy(np.int64)
        return pd.DataFrame({"a": c, "b": s + ns,
                             "w": (c * 7 + s * 13) % 9 + 1})

    edges = co_partition(pr, ["c", "s"], dedup)

    li = _read(sf_dir, "lineitem", columns=["l_suppkey"])
    src = ns + int(li.min("l_suppkey"))
    return sssp_hops(edges, source=src, max_rounds=2)


_Q136_SQL = """
WITH RECURSIVE pairs AS (
  SELECT DISTINCT o_custkey AS c, l_suppkey AS s
  FROM orders JOIN lineitem ON o_orderkey = l_orderkey),
e AS (SELECT c AS src, s + 1000000 AS dst,
             (c * 7 + s * 13) % 9 + 1 AS w FROM pairs
      UNION ALL
      SELECT s + 1000000, c, (c * 7 + s * 13) % 9 + 1 FROM pairs),
r AS (SELECT CAST(1000000 + (SELECT MIN(l_suppkey) FROM lineitem)
             AS BIGINT) AS node, 0 AS d, 0 AS h
      UNION
      SELECT e.dst, r.d + e.w, r.h + 1
      FROM r JOIN e ON e.src = r.node
      WHERE r.h < 2)
SELECT node, CAST(MIN(d) AS BIGINT) AS dist FROM r GROUP BY node
"""


def _q137_weighted_median(sf_dir: str):
    """Exact lower weighted median of line quantity per (returnflag,
    linestatus), weighted by price cents: smallest v with
    2*cumweight >= total — all integer, window-SQL-exact. Per-block
    (group, value) weight partials bound the exchange
    (functions/percentile.py weighted_median)."""
    from proj_ray.functions.percentile import weighted_median

    li = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus", "l_quantity",
                        "l_extendedprice"])

    def keyed(b: dict) -> dict:
        rf = np.asarray(b["l_returnflag"]).astype(object)
        ls = np.asarray(b["l_linestatus"]).astype(object)
        return {"grp": rf + ls,
                "v": np.asarray(b["l_quantity"]).astype(np.int64),
                "w": np.floor(np.asarray(b["l_extendedprice"],
                                         dtype=np.float64) * 100
                              + 0.5).astype(np.int64)}

    return weighted_median(li.map_batches(keyed, batch_format="numpy"),
                           "grp", "v", "w")


_Q137_SQL = """
WITH t AS (SELECT l_returnflag || l_linestatus AS grp,
                  CAST(l_quantity AS BIGINT) AS v,
                  CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
                    AS w
           FROM lineitem),
a AS (SELECT grp, v, SUM(w) AS w FROM t GROUP BY 1, 2),
c AS (SELECT grp, v,
             SUM(w) OVER (PARTITION BY grp ORDER BY v) AS cum,
             SUM(w) OVER (PARTITION BY grp) AS tot FROM a)
SELECT grp, CAST(v AS BIGINT) AS wmedian, CAST(tot AS BIGINT)
         AS total_w
FROM c WHERE 2 * cum >= tot
QUALIFY ROW_NUMBER() OVER (PARTITION BY grp ORDER BY v) = 1
ORDER BY grp
"""


def _q138_transitions(sf_dir: str):
    """Behavioral transition matrix: per-user event streams ordered by
    (ts, event_id) emit consecutive event_type bigrams; counts per
    (from_type, to_type) aggregate with per-bucket partials. One
    user-bucket all-to-all (whole users co-locate, the staypoints
    plan), one vectorized shift-compare per bucket, then a tiny
    (type x type) combine — the Markov-chain estimation pass of a
    clickstream pipeline, window-SQL-exact."""
    import pandas as pd

    ev = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "event_type"])

    def tag(b: dict) -> dict:
        u = np.asarray(b["user_id"], dtype=np.int64)
        return {"user_id": u,
                "ts_us": np.asarray(b["ts"])
                .astype("datetime64[us]").astype(np.int64),
                "event_id": np.asarray(b["event_id"], dtype=np.int64),
                "event_type": b["event_type"]}

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"],
                          kind="stable")
        u = g["user_id"].to_numpy(np.int64)
        t = g["event_type"].to_numpy(object)
        same = u[1:] == u[:-1]
        df = pd.DataFrame({"from_type": t[:-1][same],
                           "to_type": t[1:][same]})
        out = df.groupby(["from_type", "to_type"],
                         as_index=False).size()
        return out.rename(columns={"size": "n"})

    out = co_partition(ev.map_batches(tag, batch_format="numpy",
                                      batch_size=65536),
                       "user_id", pairs).to_pandas()
    fin = out.groupby(["from_type", "to_type"], as_index=False)["n"] \
             .sum()
    fin["n"] = fin["n"].astype(np.int64)
    return fin.sort_values(["from_type", "to_type"],
                           kind="stable", ignore_index=True)


_Q138_SQL = """
WITH s AS (
  SELECT user_id, event_type,
         LAG(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev
  FROM events)
SELECT prev AS from_type, event_type AS to_type,
       CAST(COUNT(*) AS BIGINT) AS n
FROM s WHERE prev IS NOT NULL
GROUP BY 1, 2 ORDER BY 1, 2
"""


def _q139_trend(sf_dir: str):
    """Grouped linear-regression trend (daily value drift per event
    type) via MERGEABLE SUFFICIENT STATISTICS: each block contributes
    one (type, n, Sx, Sy, Sxy, Sxx) partial — x = day offset from
    2024-01-01 (epoch day 19723, fixture-pinned), y = value cents —
    and the slope is reported as the exact integer pair
    (num, den) = (n*Sxy - Sx*Sy, n*Sxx - Sx*Sx), division-free so the
    SQL oracle matches bit-for-bit. The canonical one-pass distributed
    regression shape: the keyed sum moves 6-counter frames, never
    rows."""
    import pandas as pd

    ev = _read(sf_dir, "events",
               columns=["ts", "event_type", "value"])

    def partial(b: dict) -> dict:
        x = (np.asarray(b["ts"]).astype("datetime64[us]")
             .astype(np.int64) // 86_400_000_000) - 19723
        y = np.floor(np.asarray(b["value"], dtype=np.float64) * 100
                     + 0.5).astype(np.int64)
        df = pd.DataFrame({"t": np.asarray(b["event_type"]),
                           "n": np.ones(len(x), np.int64),
                           "sx": x, "sy": y, "sxy": x * y,
                           "sxx": x * x})
        return df.groupby("t", as_index=False).sum()

    cols = ["n", "sx", "sy", "sxy", "sxx"]
    agg = pull_pandas(bucketed_sum(
        ev.map_batches(partial, batch_format="numpy", batch_size=65536),
        "t", cols, cols))
    n, sx, sy = agg["n"], agg["sx"], agg["sy"]
    return pd.DataFrame({"event_type": agg["t"], "n": n,
                         "num": n * agg["sxy"] - sx * sy,
                         "den": n * agg["sxx"] - sx * sx})


_Q139_SQL = """
WITH t AS (
  SELECT event_type,
         epoch_us(ts) // 86400000000 - 19723 AS x,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS y
  FROM events),
a AS (SELECT event_type, COUNT(*) AS n, SUM(x) AS sx, SUM(y) AS sy,
             SUM(x * y) AS sxy, SUM(x * x) AS sxx
      FROM t GROUP BY 1)
SELECT event_type, CAST(n AS BIGINT) AS n,
       CAST(n * sxy - sx * sy AS BIGINT) AS num,
       CAST(n * sxx - sx * sx AS BIGINT) AS den
FROM a ORDER BY 1
"""


def _q140_cdc_chunks(sf_dir: str):
    """Content-defined chunking (the Rabin-fingerprint boundary rule
    of storage dedup / FastCDC-family systems): a cut point falls
    after every 8-byte window whose polynomial hash
    sum(b[i+j] * 257^j) mod 1e9+7 is divisible by 64. Per document:
    (doc_id, n_cuts, n_chunks, cut_chk) with cut_chk the sum of
    1-based window start positions — pinning WHERE the boundaries
    fall, not just how many. Stateless vectorized sliding-window pass;
    the text never crosses a shuffle. The oracle enumerates windows
    with the q73 series machinery (ASCII fixture contract) and must
    match bit-for-bit."""
    import pandas as pd

    M = 1_000_000_007
    P = [pow(257, j, M) for j in range(8)]

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def chunks(b: dict) -> pd.DataFrame:
        ids = np.asarray(b["doc_id"], dtype=np.int64)
        n_cuts = np.zeros(len(ids), np.int64)
        chk = np.zeros(len(ids), np.int64)
        for k, txt in enumerate(np.asarray(b["text"])):
            bs = np.frombuffer(str(txt).encode("utf-8"),
                               dtype=np.uint8).astype(np.int64)
            L = len(bs)
            if L < 8:
                continue
            h = np.zeros(L - 7, dtype=np.int64)
            for j in range(8):
                h += bs[j:L - 7 + j] * P[j]
            cut = np.flatnonzero(h % M % 64 == 0)
            n_cuts[k] = len(cut)
            chk[k] = int((cut + 1).sum())
        return pd.DataFrame({"doc_id": ids, "n_cuts": n_cuts,
                             "n_chunks": n_cuts + 1, "cut_chk": chk})

    out = docs.map_batches(chunks, batch_format="numpy",
                           batch_size=8192).to_pandas()
    return out.sort_values("doc_id", ignore_index=True)


_Q140_SQL = """
WITH nums AS (
  SELECT unnest(generate_series(
      1, (SELECT COALESCE(max(length(text)), 8)
          FROM documents))) AS i),
pos AS (
  SELECT doc_id, text, nums.i AS i
  FROM documents CROSS JOIN nums
  WHERE nums.i <= length(text) - 7),
h AS (
  SELECT doc_id, i,
         (CAST(ord(substr(text, CAST(i AS INT), 1)) AS BIGINT) * 1
          + ord(substr(text, CAST(i + 1 AS INT), 1))
            * CAST(257 AS BIGINT)
          + ord(substr(text, CAST(i + 2 AS INT), 1))
            * CAST(66049 AS BIGINT)
          + ord(substr(text, CAST(i + 3 AS INT), 1))
            * CAST(16974593 AS BIGINT)
          + ord(substr(text, CAST(i + 4 AS INT), 1))
            * CAST(362470373 AS BIGINT)
          + ord(substr(text, CAST(i + 5 AS INT), 1))
            * CAST(154885210 AS BIGINT)
          + ord(substr(text, CAST(i + 6 AS INT), 1))
            * CAST(805498697 AS BIGINT)
          + ord(substr(text, CAST(i + 7 AS INT), 1))
            * CAST(13163680 AS BIGINT))
         % 1000000007 AS hv
  FROM pos),
cuts AS (SELECT doc_id, i FROM h WHERE hv % 64 = 0),
agg AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_cuts,
               CAST(SUM(i) AS BIGINT) AS cut_chk
        FROM cuts GROUP BY 1)
SELECT d.doc_id,
       COALESCE(a.n_cuts, 0) AS n_cuts,
       COALESCE(a.n_cuts, 0) + 1 AS n_chunks,
       COALESCE(a.cut_chk, 0) AS cut_chk
FROM documents d LEFT JOIN agg a ON d.doc_id = a.doc_id
ORDER BY 1
"""


def _q141_stratified_priority(sf_dir: str):
    """Per-source weighted quota: 10 documents per source by priority
    sampling (q = (n_chars << 32) // (knuth_mix(doc_id)+1), ties by
    doc_id) — the data-mixing pass that caps each domain while
    favouring longer documents, bit-exact against the windowed SQL
    (functions/sample.py stratified_priority_sample)."""
    from proj_ray.functions.sample import stratified_priority_sample

    docs = _read(sf_dir, "documents",
                 columns=["doc_id", "source", "n_chars"])
    return stratified_priority_sample(docs, "source", "n_chars",
                                      "doc_id", n=10)


_Q141_SQL = """
WITH p AS (
  SELECT source, doc_id, CAST(n_chars AS BIGINT) AS n_chars,
         n_chars * 4294967296
           // (CAST(doc_id AS HUGEINT) % 4294967296 * 2654435761
               % 4294967296 + 1) AS q
  FROM documents)
SELECT source, doc_id, n_chars, CAST(q AS BIGINT) AS q
FROM p
QUALIFY ROW_NUMBER() OVER (PARTITION BY source
                           ORDER BY q DESC, doc_id) <= 10
ORDER BY source, q DESC, doc_id
"""


def _q142_hist_equalize(sf_dir: str):
    """Per-image histogram equalization on the luma plane (the classic
    integer CDF remap: new = (cdf(v) - cdf_min) * 255 //
    (npx - cdf_min)), reporting (image_id, eq_chk, n_levels) with
    eq_chk the sum of remapped values and n_levels the count of
    distinct output levels — all integer, so the oracle replays the
    synthesis + luma + windowed-CDF remap bit-for-bit. Stateless
    decode+bincount task pool; per-image counter rows out."""
    import pandas as pd

    from proj_ray.images import decode, images_table

    n = _read(sf_dir, "documents").count()

    def equalize(b: dict) -> dict:
        cnt = len(b["image_id"])
        chk = np.zeros(cnt, dtype=np.int64)
        lev = np.zeros(cnt, dtype=np.int64)
        for k in range(cnt):
            px = decode(b["bytes"][k], b["fmt"][k]).astype(np.int64)
            lum = ((px[..., 0] * 299 + px[..., 1] * 587
                    + px[..., 2] * 114) // 1000).ravel()
            hist = np.bincount(lum, minlength=256)
            cdf = np.cumsum(hist)
            npx = int(cdf[-1])
            cmin = int(cdf[np.flatnonzero(hist)[0]])
            if npx == cmin:
                new = np.zeros_like(lum)
            else:
                table = (cdf - cmin) * 255 // (npx - cmin)
                new = table[lum]
            chk[k] = int(new.sum())
            lev[k] = len(np.unique(new))
        return {"image_id": b["image_id"], "eq_chk": chk,
                "n_levels": lev}

    out = (images_table(n, columns=["image_id", "bytes", "fmt"])
           .map_batches(equalize, batch_format="numpy",
                        batch_size=256)
           .to_pandas())
    for c in ("eq_chk", "n_levels"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("image_id", ignore_index=True)


_Q142_SQL = """
WITH seq AS (SELECT ROW_NUMBER() OVER () - 1 AS i FROM documents),
img AS (SELECT i, CASE WHEN i > 0 AND i % 97 = 0 THEN i - 1 ELSE i END
               AS src FROM seq),
dim AS (SELECT i, src, src % 3 AS f,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 32 ELSE 64 END AS w,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 24 ELSE 48 END AS h
        FROM img),
px AS (SELECT i, src, f, y.y AS y, x.x AS x
       FROM dim CROSS JOIN range(48) y(y) CROSS JOIN range(64) x(x)
       WHERE y.y < h AND x.x < w),
raw AS (SELECT i, f,
               (src*37 + y*11 + x*7) % 256 AS r,
               (src*53 + y*5 + x*13) % 256 AS g,
               (src*97 + (y+x)*3) % 256 AS b
        FROM px),
lum AS (SELECT i,
               ((CASE WHEN f = 1 THEN (r//4)*4+2 ELSE r END) * 299
                + (CASE WHEN f = 1 THEN (g//4)*4+2 ELSE g END) * 587
                + (CASE WHEN f = 1 THEN (b//4)*4+2 ELSE b END) * 114)
               // 1000 AS v
        FROM raw),
hist AS (SELECT i, v, COUNT(*) AS c FROM lum GROUP BY 1, 2),
cdf AS (SELECT i, v, c,
               SUM(c) OVER (PARTITION BY i ORDER BY v) AS cdf,
               SUM(c) OVER (PARTITION BY i) AS npx,
               MIN(CASE WHEN c > 0 THEN v END) OVER (PARTITION BY i)
                 AS vmin
        FROM hist),
cm AS (SELECT c1.i, c1.v, c1.cdf, c1.npx, c2.cdf AS cmin
       FROM cdf c1 JOIN cdf c2 ON c1.i = c2.i AND c2.v = c1.vmin),
remap AS (SELECT l.i,
                 CASE WHEN cm.npx = cm.cmin THEN 0
                      ELSE (cm.cdf - cm.cmin) * 255
                           // (cm.npx - cm.cmin) END AS nv
          FROM lum l JOIN cm ON l.i = cm.i AND l.v = cm.v)
SELECT 'img' || lpad(CAST(i AS VARCHAR), 12, '0') AS image_id,
       CAST(SUM(nv) AS BIGINT) AS eq_chk,
       CAST(COUNT(DISTINCT nv) AS BIGINT) AS n_levels
FROM remap GROUP BY 1 ORDER BY 1
"""


def _q143_hist_quantile(sf_dir: str):
    """Mergeable fixed-bin histogram quantile sketch over price cents
    (1024 bins of width 12,000 on [0, 12.288M), values above clamp to
    the last bin): per-block bin-count partials sum associatively; the
    estimator for q is the first bin where cumcount >= ceil(q*n),
    reported as (q_ppm, bin_idx, bin_lo, cum_n) — deterministic
    integers, SQL-window-exact. The one-pass bounded-memory quantile
    shape: the exchange is <= 1024 counters per block regardless of
    rows."""
    import pandas as pd

    W, NB = 12_000, 1024
    li = _read(sf_dir, "lineitem", columns=["l_extendedprice"])

    def partial(b: dict) -> dict:
        cents = np.floor(np.asarray(b["l_extendedprice"],
                                    dtype=np.float64) * 100
                         + 0.5).astype(np.int64)
        bins = np.minimum(cents // W, NB - 1)
        cnt = np.bincount(bins, minlength=NB)
        nz = np.flatnonzero(cnt)
        return {"bin": nz.astype(np.int64), "n": cnt[nz]}

    hist = pull_pandas(bucketed_sum(
        li.map_batches(partial, batch_format="numpy", batch_size=65536),
        "bin", "n", "n")).sort_values("bin")
    bins = hist["bin"].to_numpy()
    cum = np.cumsum(hist["n"].to_numpy())
    n = int(cum[-1])
    rows = []
    for q_ppm in (500_000, 900_000, 990_000):
        target = -(-q_ppm * n // 1_000_000)  # ceil(q*n)
        i = int(np.searchsorted(cum, target))
        rows.append((q_ppm, int(bins[i]), int(bins[i]) * W,
                     int(cum[i])))
    return pd.DataFrame(rows, columns=["q_ppm", "bin_idx", "bin_lo",
                                       "cum_n"]).astype(np.int64)


_Q143_SQL = """
WITH c AS (
  SELECT LEAST(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
               // 12000, 1023) AS bin
  FROM lineitem),
h AS (SELECT bin, COUNT(*) AS n FROM c GROUP BY 1),
cd AS (SELECT bin, SUM(n) OVER (ORDER BY bin) AS cum,
              SUM(n) OVER () AS tot FROM h),
qs(q_ppm) AS (VALUES (500000), (900000), (990000)),
pick AS (
  SELECT qs.q_ppm, cd.bin, cd.cum
  FROM qs JOIN cd ON cd.cum >= (qs.q_ppm * cd.tot + 999999) // 1000000
  QUALIFY ROW_NUMBER() OVER (PARTITION BY qs.q_ppm
                             ORDER BY cd.bin) = 1)
SELECT CAST(q_ppm AS BIGINT) AS q_ppm, CAST(bin AS BIGINT) AS bin_idx,
       CAST(bin * 12000 AS BIGINT) AS bin_lo, CAST(cum AS BIGINT)
         AS cum_n
FROM pick ORDER BY 1
"""


def _q144_dwell_time(sf_dir: str):
    """Time-weighted zone occupancy: each event's dwell time is the
    gap to the user's NEXT event (last event contributes 0),
    attributed to the 10x10-degree-grid tile of the event's position
    (q130 synthesis); output is exact microsecond totals + visit
    counts per tile. One user-bucket all-to-all, vectorized
    shift-diff per bucket, tiny (tile, sums) combine — LEAD-window-
    SQL-exact."""
    import pandas as pd

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def pos(b: dict) -> dict:
        e = np.asarray(b["event_id"], dtype=np.int64)
        u = np.asarray(b["user_id"], dtype=np.int64)
        t = np.asarray(b["ts"]).astype("datetime64[us]").astype(np.int64)
        bk = t // 259_200_000_000
        x = (u * 2654435761 + bk * 40503) % 100_000_000 \
            + (e * 7919 % 2001 - 1000)
        y = (u * 2246822519 + bk * 65537) % 100_000_000 \
            + (e * 104729 % 2001 - 1000)
        return {"user_id": u, "ts_us": t, "event_id": e,
                "tile": (x // 10_000_000) * 16 + y // 10_000_000}

    def dwell(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"],
                          kind="stable")
        u = g["user_id"].to_numpy(np.int64)
        t = g["ts_us"].to_numpy(np.int64)
        tile = g["tile"].to_numpy(np.int64)
        d = np.zeros(len(g), dtype=np.int64)
        if len(g) > 1:
            same = u[1:] == u[:-1]
            d[:-1] = np.where(same, t[1:] - t[:-1], 0)
        out = pd.DataFrame({"tile": tile, "dwell_us": d})
        agg = out.groupby("tile", as_index=False).agg(
            dwell_us=("dwell_us", "sum"), n_visits=("dwell_us", "size"))
        return agg

    out = co_partition(ev.map_batches(pos, batch_format="numpy",
                                      batch_size=65536),
                       "user_id", dwell).to_pandas()
    fin = out.groupby("tile", as_index=False).sum()
    for c in ("dwell_us", "n_visits"):
        fin[c] = fin[c].astype(np.int64)
    return fin.sort_values("tile", ignore_index=True)


_Q144_SQL = """
WITH p AS (
  SELECT user_id, event_id, epoch_us(ts) AS t,
         ((user_id * 2654435761
           + (epoch_us(ts) // 259200000000) * 40503) % 100000000
          + (event_id * 7919 % 2001 - 1000)) // 10000000 * 16
         + ((user_id * 2246822519
             + (epoch_us(ts) // 259200000000) * 65537) % 100000000
            + (event_id * 104729 % 2001 - 1000)) // 10000000 AS tile
  FROM events),
d AS (
  SELECT tile,
         COALESCE(LEAD(t) OVER (PARTITION BY user_id
                                ORDER BY t, event_id) - t, 0)
           AS dwell_us
  FROM p)
SELECT CAST(tile AS BIGINT) AS tile,
       CAST(SUM(dwell_us) AS BIGINT) AS dwell_us,
       CAST(COUNT(*) AS BIGINT) AS n_visits
FROM d GROUP BY 1 ORDER BY 1
"""


_Q145_COLS = ["qty", "disc", "tax", "sday"]


def _q145_corr_matrix(sf_dir: str):
    """Pairwise correlation structure of four bounded-int lineitem
    signals (quantity, discount %, tax %, ship-day offset) in ONE
    pass of mergeable sufficient statistics: each block emits the
    upper triangle of (n, Sx, Sy, Sxy) counters; the exact integer
    Pearson pieces num = n*Sxy - Sx*Sy and den_i = n*Sxx - Sx^2 are
    assembled driver-side — division/sqrt-free, so the SQL oracle
    matches bit-for-bit. The warehouse correlation-scan shape: the
    keyed sum moves 6 counter rows per block."""
    import pandas as pd

    li = _read(sf_dir, "lineitem",
               columns=["l_quantity", "l_discount", "l_tax",
                        "l_shipdate"])

    def partial(b: dict) -> pd.DataFrame:
        cols = {
            "qty": np.asarray(b["l_quantity"]).astype(np.int64),
            "disc": np.floor(np.asarray(b["l_discount"],
                                        dtype=np.float64) * 100
                             + 0.5).astype(np.int64),
            "tax": np.floor(np.asarray(b["l_tax"], dtype=np.float64)
                            * 100 + 0.5).astype(np.int64),
            "sday": (np.asarray(b["l_shipdate"])
                     .astype("datetime64[us]").astype(np.int64)
                     // 86_400_000_000) - 19723,
        }
        rows = []
        n = len(cols["qty"])
        for i, a in enumerate(_Q145_COLS):
            for bn in _Q145_COLS[i + 1:]:
                ca, cb = sorted((a, bn))
                x, y = cols[ca], cols[cb]
                rows.append((ca, cb, n, int(x.sum()), int(y.sum()),
                             int((x * y).sum()), int((x * x).sum()),
                             int((y * y).sum())))
        return pd.DataFrame(rows, columns=["ca", "cb", "n", "sx",
                                           "sy", "sxy", "sxx", "syy"])

    sums = ["n", "sx", "sy", "sxy", "sxx", "syy"]
    agg = pull_pandas(bucketed_sum(
        li.map_batches(partial, batch_format="numpy", batch_size=65536),
        ["ca", "cb"], sums, sums))
    n, sx, sy = agg["n"], agg["sx"], agg["sy"]
    return pd.DataFrame({
        "ca": agg["ca"], "cb": agg["cb"], "n": n,
        "num": n * agg["sxy"] - sx * sy,
        "den_a": n * agg["sxx"] - sx * sx,
        "den_b": n * agg["syy"] - sy * sy})


_Q145_SQL = """
WITH t AS (
  SELECT CAST(l_quantity AS BIGINT) AS qty,
         CAST(floor(l_discount * 100 + 0.5) AS BIGINT) AS disc,
         CAST(floor(l_tax * 100 + 0.5) AS BIGINT) AS tax,
         epoch_us(l_shipdate) // 86400000000 - 19723 AS sday
  FROM lineitem),
p(ca, cb) AS (VALUES ('disc', 'qty'), ('disc', 'sday'),
                     ('disc', 'tax'), ('qty', 'sday'),
                     ('qty', 'tax'), ('sday', 'tax')),
u AS (
  SELECT p.ca, p.cb,
         CASE p.ca WHEN 'qty' THEN qty WHEN 'disc' THEN disc
                   WHEN 'tax' THEN tax ELSE sday END AS x,
         CASE p.cb WHEN 'qty' THEN qty WHEN 'disc' THEN disc
                   WHEN 'tax' THEN tax ELSE sday END AS y
  FROM t CROSS JOIN p),
a AS (SELECT ca, cb, COUNT(*) AS n, SUM(x) AS sx, SUM(y) AS sy,
             SUM(x*y) AS sxy, SUM(x*x) AS sxx, SUM(y*y) AS syy
      FROM u GROUP BY 1, 2)
SELECT ca, cb, CAST(n AS BIGINT) AS n,
       CAST(n * sxy - sx * sy AS BIGINT) AS num,
       CAST(n * sxx - sx * sx AS BIGINT) AS den_a,
       CAST(n * syy - sy * sy AS BIGINT) AS den_b
FROM a ORDER BY 1, 2
"""


def _q146_source_similarity(sf_dir: str):
    """Domain-similarity matrix: each source's whitespace-token count
    vector, compared pairwise by division-free integer cosine pieces
    (dot, |a|^2, |b|^2) over the shared vocabulary — the corpus-mix
    diagnostic a data-mixing pipeline runs. Per-block (source, term,
    n) partials -> one keyed sum -> the small source x source int
    matmul driver-side; token streams never cross the shuffle
    whole."""
    import pandas as pd

    docs = _read(sf_dir, "documents", columns=["source", "text"])

    def partial(b: dict) -> pd.DataFrame:
        s = pd.Series(b["text"]).str.split(" ")
        ex = s.explode()
        src = pd.Series(b["source"]).reindex(ex.index)
        df = pd.DataFrame({"source": src.to_numpy(object),
                           "term": ex.to_numpy(object)})
        return df.groupby(["source", "term"], as_index=False).size() \
                 .rename(columns={"size": "n"})

    tf = pull_pandas(bucketed_sum(
        docs.map_batches(partial, batch_format="numpy", batch_size=8192),
        ["source", "term"], "n", "n"))
    piv = tf.pivot_table(index="term", columns="source", values="n",
                         fill_value=0, aggfunc="sum")
    srcs = sorted(piv.columns)
    M = piv[srcs].to_numpy(np.int64)
    G = M.T @ M
    rows = []
    for i, a in enumerate(srcs):
        for j in range(i + 1, len(srcs)):
            rows.append((a, srcs[j], int(G[i, j]), int(G[i, i]),
                         int(G[j, j])))
    return pd.DataFrame(rows, columns=["src_a", "src_b", "dot",
                                       "norm_a2", "norm_b2"])


_Q146_SQL = """
WITH tok AS (
  SELECT source, unnest(string_split(text, ' ')) AS term
  FROM documents),
tf AS (SELECT source, term, COUNT(*) AS n FROM tok GROUP BY 1, 2),
pairs AS (
  SELECT a.source AS src_a, b.source AS src_b, SUM(a.n * b.n) AS dot
  FROM tf a JOIN tf b ON a.term = b.term AND a.source < b.source
  GROUP BY 1, 2),
norms AS (SELECT source, SUM(n * n) AS n2 FROM tf GROUP BY 1)
SELECT p.src_a, p.src_b, CAST(p.dot AS BIGINT) AS dot,
       CAST(na.n2 AS BIGINT) AS norm_a2, CAST(nb.n2 AS BIGINT)
         AS norm_b2
FROM pairs p
JOIN norms na ON na.source = p.src_a
JOIN norms nb ON nb.source = p.src_b
ORDER BY 1, 2
"""


def _q147_voronoi_assign(sf_dir: str):
    """Spherical Voronoi / nearest-facility assignment: every doc
    geotag assigns to the nearest of 20 deterministic seed points by
    haversine distance, rounded to 0.1 mm int64 BEFORE the argmin
    (ties -> lowest seed id) so assignment and the per-seed
    aggregates (n, sum of distances) are SQL-exact. The seeds
    broadcast once; each batch runs one (B, 20) vectorized distance
    pass and ships per-seed counter partials."""
    import pandas as pd

    R = 6371000.0
    j = np.arange(20, dtype=np.int64)
    slon, slat = np.radians(_geotag(j))

    ds = _docs_geo(sf_dir)

    def assign(b: dict) -> pd.DataFrame:
        lam = np.radians(np.asarray(b["lon"], dtype=np.float64))
        phi = np.radians(np.asarray(b["lat"], dtype=np.float64))
        sp = np.sin((phi[:, None] - slat[None, :]) / 2.0)
        sl = np.sin((lam[:, None] - slon[None, :]) / 2.0)
        a = sp * sp + np.cos(phi)[:, None] * np.cos(slat)[None, :] \
            * sl * sl
        d = 2.0 * R * np.arcsin(np.sqrt(np.minimum(a, 1.0)))
        tmm = np.rint(d * 10000.0).astype(np.int64)
        seed = np.argmin(tmm, axis=1)  # first min = lowest seed id
        dmin = tmm[np.arange(len(seed)), seed]
        g = (pd.DataFrame({"seed": seed.astype(np.int64),
                           "n": np.ones(len(seed), np.int64),
                           "sum_tmm": dmin})
             .groupby("seed", as_index=False).sum())
        return g

    cols = ["n", "sum_tmm"]
    return pull_pandas(bucketed_sum(
        ds.map_batches(assign, batch_format="numpy", batch_size=65536),
        "seed", cols, cols))


_Q147_SQL = f"""
WITH geo AS ({_GEO_SQL}),
seeds AS (
  SELECT j.j AS seed,
         radians((j.j * 61803 % 360000) / 1000.0 - 180.0) AS slon,
         radians((j.j * 75487 % 170000) / 1000.0 - 85.0) AS slat
  FROM range(20) j(j)),
d AS (
  SELECT g.doc_id, s.seed,
         CAST(round(2.0 * 6371000.0 * asin(sqrt(LEAST(
           sin((radians(g.lat) - s.slat) / 2.0)
             * sin((radians(g.lat) - s.slat) / 2.0)
           + cos(s.slat) * cos(radians(g.lat))
             * sin((radians(g.lon) - s.slon) / 2.0)
             * sin((radians(g.lon) - s.slon) / 2.0), 1.0)))
           * 10000.0) AS BIGINT) AS tmm
  FROM geo g CROSS JOIN seeds s),
pick AS (
  SELECT doc_id, seed, tmm FROM d
  QUALIFY ROW_NUMBER() OVER (PARTITION BY doc_id
                             ORDER BY tmm, seed) = 1)
SELECT CAST(seed AS BIGINT) AS seed, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(tmm) AS BIGINT) AS sum_tmm
FROM pick GROUP BY 1 ORDER BY 1
"""


def _q148_gyration(sf_dir: str):
    """Per-user radius of gyration (the Gonzalez-Hidalgo-Barabasi
    mobility statistic) in exact integers: centroid = per-axis
    TRUNCATED integer mean (DuckDB `//` on the positive sums), then
    rg2_sum = sum of exact squared displacements from it — reported
    undivided (n_points, rg2_sum) so the oracle matches bit-for-bit.
    One user-bucket all-to-all; both passes run inside the bucket."""
    import pandas as pd

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def pos(b: dict) -> dict:
        e = np.asarray(b["event_id"], dtype=np.int64)
        u = np.asarray(b["user_id"], dtype=np.int64)
        t = np.asarray(b["ts"]).astype("datetime64[us]").astype(np.int64)
        bk = t // 259_200_000_000
        x = (u * 2654435761 + bk * 40503) % 100_000_000 \
            + (e * 7919 % 2001 - 1000)
        y = (u * 2246822519 + bk * 65537) % 100_000_000 \
            + (e * 104729 % 2001 - 1000)
        return {"user_id": u, "x": x, "y": y}

    def gyr(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for u, gg in g.groupby("user_id", sort=False):
            x = gg["x"].to_numpy(np.int64)
            y = gg["y"].to_numpy(np.int64)
            n = len(x)
            cx = int(x.sum()) // n
            cy = int(y.sum()) // n
            rg2 = int(((x - cx) ** 2 + (y - cy) ** 2).sum())
            rows.append((u, n, rg2))
        return pd.DataFrame(rows, columns=["user_id", "n_points",
                                           "rg2_sum"])

    out = co_partition(ev.map_batches(pos, batch_format="numpy",
                                      batch_size=65536),
                       "user_id", gyr).to_pandas()
    for c in ("n_points", "rg2_sum"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("user_id", ignore_index=True)


_Q148_SQL = """
WITH p AS (
  SELECT user_id,
         (user_id * 2654435761
          + (epoch_us(ts) // 259200000000) * 40503) % 100000000
           + (event_id * 7919 % 2001 - 1000) AS x,
         (user_id * 2246822519
          + (epoch_us(ts) // 259200000000) * 65537) % 100000000
           + (event_id * 104729 % 2001 - 1000) AS y
  FROM events),
c AS (SELECT user_id, COUNT(*) AS n,
             SUM(x) // COUNT(*) AS cx, SUM(y) // COUNT(*) AS cy
      FROM p GROUP BY 1)
SELECT p.user_id, CAST(c.n AS BIGINT) AS n_points,
       CAST(SUM((p.x - c.cx) * (p.x - c.cx)
                + (p.y - c.cy) * (p.y - c.cy)) AS BIGINT) AS rg2_sum
FROM p JOIN c ON p.user_id = c.user_id
GROUP BY p.user_id, c.n ORDER BY 1
"""


def _q149_peak_hour(sf_dir: str):
    """Per-user circadian profile: modal hour-of-day (UTC) of the
    user's events, ties -> lowest hour — the activity-rhythm pass of a
    behavioral pipeline. Per-block (user, hour) count partials bound
    the exchange at 24 x users x blocks; the mode resolves in a
    user-bucket combine. Output (user_id, peak_hour, n_at_peak,
    n_events), window-SQL-exact."""
    import pandas as pd

    ev = _read(sf_dir, "events", columns=["user_id", "ts"])

    def partial(b: dict) -> pd.DataFrame:
        u = np.asarray(b["user_id"], dtype=np.int64)
        h = (np.asarray(b["ts"]).astype("datetime64[us]")
             .astype(np.int64) // 3_600_000_000) % 24
        return (pd.DataFrame({"user_id": u, "hour": h})
                .groupby(["user_id", "hour"], as_index=False).size()
                .rename(columns={"size": "n"}))

    def mode(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["user_id", "hour"], as_index=False)["n"].sum()
        agg = agg.sort_values(["user_id", "n", "hour"],
                              ascending=[True, False, True],
                              kind="mergesort")
        tot = agg.groupby("user_id", as_index=False)["n"].sum() \
                 .rename(columns={"n": "n_events"})
        top = agg.groupby("user_id", sort=False).head(1).rename(
            columns={"hour": "peak_hour", "n": "n_at_peak"})
        out = top.merge(tot, on="user_id")
        return out[["user_id", "peak_hour", "n_at_peak", "n_events"]]

    out = co_partition(ev.map_batches(partial, batch_format="numpy",
                                      batch_size=65536),
                       "user_id", mode).to_pandas()
    for c in ("peak_hour", "n_at_peak", "n_events"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("user_id", ignore_index=True)


_Q149_SQL = """
WITH h AS (
  SELECT user_id, epoch_us(ts) // 3600000000 % 24 AS hour
  FROM events),
c AS (SELECT user_id, hour, COUNT(*) AS n FROM h GROUP BY 1, 2),
t AS (SELECT user_id, SUM(n) AS n_events FROM c GROUP BY 1),
pick AS (
  SELECT user_id, hour, n FROM c
  QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id
                             ORDER BY n DESC, hour) = 1)
SELECT p.user_id, CAST(p.hour AS BIGINT) AS peak_hour,
       CAST(p.n AS BIGINT) AS n_at_peak,
       CAST(t.n_events AS BIGINT) AS n_events
FROM pick p JOIN t ON p.user_id = t.user_id ORDER BY 1
"""


def _q150_gini(sf_dir: str):
    """Per-source Gini inequality of document lengths via the sorted-
    rank identity: G_num = sum over ascending ranks i of
    (2i - n - 1) * x_(i) (tie-order invariant), reported with the
    denominator pieces (n, sum_x) undivided — exact integers, window-
    SQL-exact. The corpus-balance diagnostic of a data-mixing
    pipeline. One source-bucket all-to-all; per-source sort + dot
    inside the bucket."""
    import pandas as pd

    docs = _read(sf_dir, "documents", columns=["source", "n_chars"])

    def tag(b: dict) -> pd.DataFrame:
        return pd.DataFrame({"source": np.asarray(b["source"]),
                             "x": np.asarray(b["n_chars"])
                             .astype(np.int64)})

    def gini(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for s, gg in g.groupby("source", sort=False):
            x = np.sort(gg["x"].to_numpy(np.int64))
            n = len(x)
            i = np.arange(1, n + 1, dtype=np.int64)
            rows.append((s, n, int(((2 * i - n - 1) * x).sum()),
                         int(x.sum())))
        return pd.DataFrame(rows, columns=["source", "n", "g_num",
                                           "sum_x"])

    out = co_partition(docs.map_batches(tag, batch_format="numpy",
                                        batch_size=65536),
                       "source", gini).to_pandas()
    for c in ("n", "g_num", "sum_x"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("source", kind="stable",
                           ignore_index=True)


_Q150_SQL = """
WITH r AS (
  SELECT source, CAST(n_chars AS BIGINT) AS x,
         ROW_NUMBER() OVER (PARTITION BY source ORDER BY n_chars)
           AS rn,
         COUNT(*) OVER (PARTITION BY source) AS n
  FROM documents)
SELECT source, CAST(n AS BIGINT) AS n,
       CAST(SUM((2 * rn - n - 1) * x) AS BIGINT) AS g_num,
       CAST(SUM(x) AS BIGINT) AS sum_x
FROM r GROUP BY source, n ORDER BY source
"""


def _q151_morans_i(sf_dir: str):
    """Global Moran's I spatial autocorrelation of the zoom-4 tile
    counts under rook (4-neighbor) adjacency, in exact integer
    arithmetic: with x_i the count of tile i over the FULL 16x16
    lattice (empty tiles = 0), n = 256 cells and S = sum x, the
    scaled deviation d_i = n*x_i - S is an integer and
        I = (n * i_num) / (w_pairs * i_den),
        i_num = sum over directed rook pairs of d_i * d_j,
        i_den = sum of d_i^2
    after the 1/n^2 mean factors cancel — components reported
    undivided so the oracle matches bit-for-bit. The only data pass
    is the distributed tile count (per-block partials into one
    bounded groupby); the lattice fold runs on 256 SF-invariant rows
    (the q120 local-max convention). int64 bound: i_num <=
    w_pairs * (n*S)^2 requires S < ~2e8 docs; shard the lattice
    statistic by row-band above that."""
    import pandas as pd

    counts = pull_pandas(_tile_counts(sf_dir, 4))
    grid = np.zeros((16, 16), dtype=np.int64)
    grid[counts["tile_x"].to_numpy(np.int64),
         counts["tile_y"].to_numpy(np.int64)] = \
        counts["n"].to_numpy(np.int64)
    n = grid.size
    s = int(grid.sum())
    d = n * grid - s
    num = int((d[:-1, :] * d[1:, :]).sum()) * 2 \
        + int((d[:, :-1] * d[:, 1:]).sum()) * 2
    den = int((d * d).sum())
    w = 2 * (2 * 16 * 15)
    return pd.DataFrame({"n_cells": [np.int64(n)],
                         "w_pairs": [np.int64(w)],
                         "s_total": [np.int64(s)],
                         "i_num": [np.int64(num)],
                         "i_den": [np.int64(den)]})


_Q151_SQL = f"""
WITH geo AS ({_GEO_SQL}),
t AS (
  SELECT
    CAST(LEAST(GREATEST(floor(
        (radians(lon) * 6378137.0 + pi() * 6378137.0)
        / (2 * pi() * 6378137.0) * 16), 0), 15) AS BIGINT) AS tx,
    CAST(LEAST(GREATEST(floor(
        (pi() * 6378137.0 - 6378137.0
           * ln(tan(pi()/4 + radians(lat)/2)))
        / (2 * pi() * 6378137.0) * 16), 0), 15) AS BIGINT) AS ty
  FROM geo),
c AS (SELECT tx, ty, CAST(count(*) AS BIGINT) AS n
      FROM t GROUP BY 1, 2),
lat AS (SELECT x.x AS tx, y.y AS ty
        FROM range(16) x(x) CROSS JOIN range(16) y(y)),
g AS (SELECT l.tx, l.ty, COALESCE(c.n, 0) AS n
      FROM lat l LEFT JOIN c ON l.tx = c.tx AND l.ty = c.ty),
d AS (SELECT tx, ty, 256 * n - (SELECT SUM(n) FROM g) AS d FROM g)
SELECT CAST(256 AS BIGINT) AS n_cells,
       CAST(960 AS BIGINT) AS w_pairs,
       CAST((SELECT SUM(n) FROM g) AS BIGINT) AS s_total,
       CAST((SELECT SUM(a.d * b.d) FROM d a JOIN d b
             ON abs(a.tx - b.tx) + abs(a.ty - b.ty) = 1)
            AS BIGINT) AS i_num,
       CAST((SELECT SUM(d * d) FROM d) AS BIGINT) AS i_den
"""


def _q152_quadtree(sf_dir: str):
    """Adaptive quadtree refinement of the doc geotags: starting from
    the single root tile, any cell holding more than thr = max(1,
    n_docs // 64) points splits into its 4 children, to max depth 6 —
    the leaf set is the density-adaptive spatial partitioning a
    skew-aware ingest would shard by. The ONE data pass is the
    distributed zoom-6 tile count (per-block partials, one bounded
    groupby); the pyramid (2x2 sum per level) and the reachability
    walk (a node is a leaf iff every proper ancestor split and it
    does not) fold <= 4096 SF-invariant lattice rows on the driver.
    Output (z, x, y, n) per leaf, empty leaves included — exact
    integers, recursive-CTE-free oracle via a level table + NOT
    EXISTS ancestor check."""
    import pandas as pd

    total = _read(sf_dir, "documents", columns=["doc_id"]).count()
    thr = max(1, total // 64)
    counts = pull_pandas(_tile_counts(sf_dir, 6))
    grid = np.zeros((64, 64), dtype=np.int64)
    grid[counts["tile_x"].to_numpy(np.int64),
         counts["tile_y"].to_numpy(np.int64)] = \
        counts["n"].to_numpy(np.int64)
    levels = {6: grid}
    for z in range(5, -1, -1):
        g = levels[z + 1]
        levels[z] = (g.reshape(g.shape[0] // 2, 2,
                               g.shape[1] // 2, 2)
                     .sum(axis=(1, 3)))
    rows = []
    reach = np.ones((1, 1), dtype=bool)
    for z in range(7):
        n = levels[z]
        leaf = reach & ((n <= thr) | (z == 6))
        xs, ys = np.nonzero(leaf)
        rows.append(pd.DataFrame({
            "z": np.full(len(xs), z, dtype=np.int64),
            "x": xs.astype(np.int64), "y": ys.astype(np.int64),
            "n": n[xs, ys]}))
        if z < 6:
            split = reach & (n > thr)
            reach = np.kron(split, np.ones((2, 2), dtype=bool))
    out = pd.concat(rows, ignore_index=True)
    return out.sort_values(["z", "x", "y"], ignore_index=True)


_Q152_SQL = f"""
WITH geo AS ({_GEO_SQL}),
t AS (
  SELECT
    CAST(LEAST(GREATEST(floor(
        (radians(lon) * 6378137.0 + pi() * 6378137.0)
        / (2 * pi() * 6378137.0) * 64), 0), 63) AS BIGINT) AS tx,
    CAST(LEAST(GREATEST(floor(
        (pi() * 6378137.0 - 6378137.0
           * ln(tan(pi()/4 + radians(lat)/2)))
        / (2 * pi() * 6378137.0) * 64), 0), 63) AS BIGINT) AS ty
  FROM geo),
c6 AS (SELECT tx, ty, CAST(count(*) AS BIGINT) AS n
       FROM t GROUP BY 1, 2),
l6 AS (SELECT x.x AS tx, y.y AS ty, COALESCE(c6.n, 0) AS n
       FROM range(64) x(x) CROSS JOIN range(64) y(y)
       LEFT JOIN c6 ON c6.tx = x.x AND c6.ty = y.y),
lv AS (SELECT z.z AS z, tx >> CAST(6 - z.z AS INT) AS x,
              ty >> CAST(6 - z.z AS INT) AS y,
              CAST(SUM(n) AS BIGINT) AS n
       FROM l6 CROSS JOIN range(7) z(z) GROUP BY 1, 2, 3),
thr AS (SELECT GREATEST(1, (SELECT CAST(count(*) AS BIGINT)
                            FROM documents) // 64) AS t)
SELECT v.z, v.x, v.y, v.n
FROM lv v, thr
WHERE (v.n <= thr.t OR v.z = 6)
  AND NOT EXISTS (
    SELECT 1 FROM lv a, thr
    WHERE a.z < v.z
      AND a.x = v.x >> CAST(v.z - a.z AS INT)
      AND a.y = v.y >> CAST(v.z - a.z AS INT)
      AND a.n <= thr.t)
ORDER BY 1, 2, 3
"""


def _q153_snap_segments(sf_dir: str):
    """Map-matching: snap every doc geotag (milli-degree integer
    coords) to the nearest of 24 deterministic road segments — the
    GPS-trace-to-road-network assignment pass. The snapped point is
    the segment's clamped projection computed ENTIRELY in int64:
    tnum = clamp(dot, 0, len2), snapped = a + trunc(d * tnum / len2)
    per axis (truncation toward zero on both sides — DuckDB's `//`),
    so the squared snap distance and the argmin (ties -> lowest
    seg_id) are SQL-exact. Segments broadcast as module constants;
    each batch is one (B, 24) vectorized pass shipping per-segment
    (n, sum_d2) partials."""
    import pandas as pd

    j = np.arange(24, dtype=np.int64)
    ax = j * 92821 % 360000 - 180000
    ay = j * 68111 % 170000 - 85000
    dx = j * 48271 % 120000 - 60000
    dy = j * 16807 % 60000 - 30000
    len2 = dx * dx + dy * dy

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def trunc_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (np.sign(a) * (np.abs(a) // b)).astype(np.int64)

    def snap(b: dict) -> pd.DataFrame:
        i = np.asarray(b["doc_id"], dtype=np.int64)
        px = (i * 61803 % 360000 - 180000)[:, None]
        py = (i * 75487 % 170000 - 85000)[:, None]
        tnum = np.clip((px - ax) * dx + (py - ay) * dy, 0, len2)
        rx = px - (ax + trunc_div(dx * tnum, len2))
        ry = py - (ay + trunc_div(dy * tnum, len2))
        d2 = rx * rx + ry * ry
        seg = np.argmin(d2, axis=1)  # first min = lowest seg_id
        dmin = d2[np.arange(len(seg)), seg]
        g = (pd.DataFrame({"seg_id": seg.astype(np.int64),
                           "n": np.ones(len(seg), np.int64),
                           "sum_d2": dmin})
             .groupby("seg_id", as_index=False).sum())
        return g

    cols = ["n", "sum_d2"]
    return pull_pandas(bucketed_sum(
        ds.map_batches(snap, batch_format="numpy", batch_size=65536),
        "seg_id", cols, cols))


_Q153_SQL = """
WITH p AS (
  SELECT doc_id, doc_id * 61803 % 360000 - 180000 AS px,
         doc_id * 75487 % 170000 - 85000 AS py
  FROM documents),
seg AS (
  SELECT j.j AS seg_id,
         j.j * 92821 % 360000 - 180000 AS ax,
         j.j * 68111 % 170000 - 85000 AS ay,
         j.j * 48271 % 120000 - 60000 AS dx,
         j.j * 16807 % 60000 - 30000 AS dy
  FROM range(24) j(j)),
f AS (
  SELECT p.doc_id, s.seg_id, p.px, p.py, s.ax, s.ay, s.dx, s.dy,
         s.dx * s.dx + s.dy * s.dy AS len2,
         LEAST(GREATEST((p.px - s.ax) * s.dx
                        + (p.py - s.ay) * s.dy, 0),
               s.dx * s.dx + s.dy * s.dy) AS tnum
  FROM p CROSS JOIN seg s),
d AS (
  SELECT doc_id, seg_id,
         (px - (ax + dx * tnum // len2)) * (px - (ax + dx * tnum // len2))
       + (py - (ay + dy * tnum // len2)) * (py - (ay + dy * tnum // len2))
           AS d2
  FROM f),
pick AS (
  SELECT doc_id, seg_id, d2 FROM d
  QUALIFY ROW_NUMBER() OVER (PARTITION BY doc_id
                             ORDER BY d2, seg_id) = 1)
SELECT CAST(seg_id AS BIGINT) AS seg_id,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(d2) AS BIGINT) AS sum_d2
FROM pick GROUP BY 1 ORDER BY 1
"""


def _q154_mann_kendall(sf_dir: str):
    """Spatiotemporal trend detection: per zoom-3 tile, the
    Mann-Kendall S statistic (sum over ordered day pairs of
    sign(c_j - c_i)) and the Theil-Sen slope (LOWER median of the
    pairwise slopes trunc((c_j - c_i) * 1e6 / (d_j - d_i))) of the
    tile's daily event counts — the emerging/fading-hotspot pass of a
    space-time cube, fully integer-exact (sign sums, truncating
    division, order-statistic median). Per-block (tile, day) count
    partials bound the exchange at tiles x days x blocks; the O(d^2)
    pair fold (d <= #days, ~30) runs vectorized inside one
    tile-bucket combine. Tiles with a single active day report
    (0, 0)."""
    import pandas as pd

    from proj_ray.stages import with_tiles

    ev = _read(sf_dir, "events", columns=["event_id", "ts"])

    def tag(b: dict) -> dict:
        i = np.asarray(b["event_id"], dtype=np.int64)
        day = (np.asarray(b["ts"]).astype("datetime64[us]")
               .astype(np.int64) // 86_400_000_000)
        lon, lat = _geotag(i)
        return {"lon": lon, "lat": lat, "day": day}

    def partial(b: dict) -> pd.DataFrame:
        g = (pd.DataFrame({"tile_x": b["tile_x"],
                           "tile_y": b["tile_y"],
                           "day": b["day"]})
             .groupby(["tile_x", "tile_y", "day"], as_index=False)
             .size().rename(columns={"size": "n"}))
        return g

    def trend(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["tile_x", "tile_y", "day"],
                        as_index=False)["n"].sum()
        rows = []
        for (tx, ty), gg in agg.groupby(["tile_x", "tile_y"],
                                        sort=False):
            gg = gg.sort_values("day")
            d = gg["day"].to_numpy(np.int64)
            c = gg["n"].to_numpy(np.int64)
            iu, ju = np.triu_indices(len(d), k=1)
            if len(iu) == 0:
                rows.append((tx, ty, len(d), 0, 0))
                continue
            dn = c[ju] - c[iu]
            s = int(np.sign(dn).sum())
            num = dn * 1_000_000
            den = d[ju] - d[iu]
            slopes = np.sort(np.sign(num) * (np.abs(num) // den))
            med = int(slopes[(len(slopes) - 1) // 2])
            rows.append((tx, ty, len(d), s, med))
        return pd.DataFrame(rows, columns=["tile_x", "tile_y",
                                           "n_days", "mk_s",
                                           "ts_slope"])

    out = (with_tiles(ev.map_batches(tag, batch_format="numpy",
                                     batch_size=65536), zoom=3)
           .map_batches(partial, batch_format="pandas",
                        batch_size=65536))
    out = co_partition(out, ["tile_x", "tile_y"], trend).to_pandas()
    for c in ("tile_x", "tile_y", "n_days", "mk_s", "ts_slope"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values(["tile_x", "tile_y"], ignore_index=True)


_Q154_SQL = """
WITH e AS (
  SELECT epoch_us(ts) // 86400000000 AS day,
         (event_id * 61803 % 360000) / 1000.0 - 180.0 AS lon,
         (event_id * 75487 % 170000) / 1000.0 - 85.0 AS lat
  FROM events),
t AS (
  SELECT day,
    CAST(LEAST(GREATEST(floor(
        (radians(lon) * 6378137.0 + pi() * 6378137.0)
        / (2 * pi() * 6378137.0) * 8), 0), 7) AS BIGINT) AS tx,
    CAST(LEAST(GREATEST(floor(
        (pi() * 6378137.0 - 6378137.0
           * ln(tan(pi()/4 + radians(lat)/2)))
        / (2 * pi() * 6378137.0) * 8), 0), 7) AS BIGINT) AS ty
  FROM e),
c AS (SELECT tx, ty, day, CAST(count(*) AS BIGINT) AS n
      FROM t GROUP BY 1, 2, 3),
p AS (
  SELECT a.tx, a.ty, sign(b.n - a.n) AS sg,
         (b.n - a.n) * 1000000 // (b.day - a.day) AS slope
  FROM c a JOIN c b
    ON a.tx = b.tx AND a.ty = b.ty AND a.day < b.day),
mk AS (SELECT tx, ty, CAST(SUM(sg) AS BIGINT) AS mk_s
       FROM p GROUP BY 1, 2),
med AS (
  SELECT tx, ty, slope FROM (
    SELECT tx, ty, slope,
           ROW_NUMBER() OVER (PARTITION BY tx, ty
                              ORDER BY slope) AS rn,
           COUNT(*) OVER (PARTITION BY tx, ty) AS m
    FROM p) WHERE rn = (m + 1) // 2),
nd AS (SELECT tx, ty, CAST(COUNT(*) AS BIGINT) AS n_days
       FROM c GROUP BY 1, 2)
SELECT nd.tx AS tile_x, nd.ty AS tile_y, nd.n_days,
       CAST(COALESCE(mk.mk_s, 0) AS BIGINT) AS mk_s,
       CAST(COALESCE(med.slope, 0) AS BIGINT) AS ts_slope
FROM nd
LEFT JOIN mk ON nd.tx = mk.tx AND nd.ty = mk.ty
LEFT JOIN med ON nd.tx = med.tx AND nd.ty = med.ty
ORDER BY 1, 2
"""


def _q155_glcm(sf_dir: str):
    """Per-format GLCM (gray-level co-occurrence matrix) texture
    statistics: each stored image decodes through the REAL codecs,
    its pixels quantize to 8 luma levels ((2r+3g+b) // 192), and the
    horizontal-offset (dx=1) co-occurrence histogram yields the
    classic Haralick pieces in exact integers — contrast
    sum(c * (la-lb)^2) and energy sum(c^2) — summed per format.
    Decode + bincount run in the task-pool map stage (the q127
    shape); only (fmt, 3 counters) rows per image cross the shuffle.
    Oracle mirrors the pixel generator and codec quantization
    op-for-op (images.py synth_pixels/decode)."""
    from proj_ray.images import decode, images_table

    n = _read(sf_dir, "documents").count()
    la = np.arange(64, dtype=np.int64) // 8
    lb = np.arange(64, dtype=np.int64) % 8
    wt = (la - lb) ** 2

    def texture(b: dict) -> dict:
        cnt_imgs = len(b["image_id"])
        npair = np.empty(cnt_imgs, dtype=np.int64)
        con = np.empty(cnt_imgs, dtype=np.int64)
        en = np.empty(cnt_imgs, dtype=np.int64)
        for k in range(cnt_imgs):
            px = decode(b["bytes"][k], b["fmt"][k]).astype(np.int64)
            lev = (2 * px[..., 0] + 3 * px[..., 1]
                   + px[..., 2]) // 192
            a = lev[:, :-1].ravel()
            c = lev[:, 1:].ravel()
            h = np.bincount(a * 8 + c, minlength=64).astype(np.int64)
            npair[k] = len(a)
            con[k] = int((h * wt).sum())
            en[k] = int((h * h).sum())
        return {"fmt": np.asarray(b["fmt"]), "n_pairs": npair,
                "contrast": con, "energy": en}

    per = images_table(
        n, columns=["image_id", "bytes", "fmt"]).map_batches(
        texture, batch_format="numpy", batch_size=256)
    cols = ["n_pairs", "contrast", "energy"]
    return pull_pandas(bucketed_sum(per, "fmt", cols, cols))


_Q155_SQL = """
WITH seq AS (SELECT ROW_NUMBER() OVER () - 1 AS i FROM documents),
img AS (SELECT i, CASE WHEN i > 0 AND i % 97 = 0 THEN i - 1 ELSE i END
               AS src FROM seq),
dim AS (SELECT i, src, src % 3 AS f,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 32 ELSE 64 END AS w,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 24 ELSE 48 END AS h
        FROM img),
px AS (SELECT i, src, f, w, y.y AS y, x.x AS x
       FROM dim CROSS JOIN range(48) y(y) CROSS JOIN range(64) x(x)
       WHERE y.y < h AND x.x < w),
raw AS (SELECT i, f, y, x,
               (src*37 + y*11 + x*7) % 256 AS r,
               (src*53 + y*5 + x*13) % 256 AS g,
               (src*97 + (y+x)*3) % 256 AS b
        FROM px),
lv AS (SELECT i, f, y, x,
              (2*(CASE WHEN f = 1 THEN (r//4)*4+2 ELSE r END)
             + 3*(CASE WHEN f = 1 THEN (g//4)*4+2 ELSE g END)
             +   (CASE WHEN f = 1 THEN (b//4)*4+2 ELSE b END)) // 192
                AS l
        FROM raw),
pr AS (SELECT a.i, a.f, a.l AS la, b.l AS lb
       FROM lv a JOIN lv b
         ON a.i = b.i AND a.y = b.y AND b.x = a.x + 1),
per AS (SELECT i, f, la, lb, CAST(COUNT(*) AS BIGINT) AS c
        FROM pr GROUP BY 1, 2, 3, 4),
pi AS (SELECT i, f, SUM(c) AS np_,
              SUM(c * (la - lb) * (la - lb)) AS con,
              SUM(c * c) AS en
       FROM per GROUP BY 1, 2)
SELECT CASE f WHEN 0 THEN 'png' WHEN 1 THEN 'qjpg' ELSE 'bmp' END
         AS fmt,
       CAST(SUM(np_) AS BIGINT) AS n_pairs,
       CAST(SUM(con) AS BIGINT) AS contrast,
       CAST(SUM(en) AS BIGINT) AS energy
FROM pi GROUP BY 1 ORDER BY 1
"""


def _q156_heaps(sf_dir: str):
    """Heaps'-law vocabulary growth: distinct-token count of the first
    ceil(n*k/4) documents for k = 1..4 — the corpus-composition curve
    a data-mixing pipeline tracks while ingesting. Key identity:
    vocab(N) = #{terms whose FIRST document id < N}, so ONE
    distributed per-term min-doc pass (per-block partial mins,
    vocabulary-sized, through a term-hash-bucket combine — the
    token stream itself never crosses the all-to-all) answers every
    threshold; the 4 cutoff counts fold as per-block partials.
    Tokenization mirrors the q59 contract (split on single space,
    empties kept)."""
    import pandas as pd

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    nd = docs.count()
    cutoffs = np.array([(nd * k + 3) // 4 for k in (1, 2, 3, 4)],
                       dtype=np.int64)

    def partial(b: dict) -> pd.DataFrame:
        df = pd.DataFrame({"doc_id": np.asarray(b["doc_id"],
                                                dtype=np.int64),
                           "term": np.asarray(b["text"])})
        df["term"] = df["term"].str.split(" ")
        df = df.explode("term")
        return df.groupby("term", as_index=False)["doc_id"].min()

    def term_min(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("term", as_index=False)["doc_id"].min()
        out["doc_id"] = out["doc_id"].astype(np.int64)
        return out

    fst = co_partition(docs.map_batches(partial, batch_format="numpy",
                                        batch_size=4096),
                       "term", term_min)

    def cnt(b: dict) -> dict:
        fd = np.asarray(b["doc_id"], dtype=np.int64)
        return {"k": np.arange(1, 5, dtype=np.int64),
                "vocab": (fd[:, None] < cutoffs[None, :])
                .sum(axis=0).astype(np.int64)}

    out = (fst.map_batches(cnt, batch_format="numpy",
                           batch_size=65536)
           .to_pandas().groupby("k", as_index=False)["vocab"].sum())
    out["n_docs_prefix"] = cutoffs
    out["k"] = out["k"].astype(np.int64)
    out["vocab"] = out["vocab"].astype(np.int64)
    return out[["k", "n_docs_prefix", "vocab"]]


_Q156_SQL = """
WITH n AS (SELECT CAST(COUNT(*) AS BIGINT) AS nd FROM documents),
tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS term
        FROM documents),
fst AS (SELECT term, MIN(doc_id) AS fd FROM tok GROUP BY term),
th AS (SELECT k.k AS k, (nd * k.k + 3) // 4 AS cutoff
       FROM range(1, 5) k(k), n)
SELECT CAST(th.k AS BIGINT) AS k,
       CAST(th.cutoff AS BIGINT) AS n_docs_prefix,
       CAST((SELECT COUNT(*) FROM fst WHERE fd < th.cutoff)
            AS BIGINT) AS vocab
FROM th ORDER BY 1
"""


def _q157_bearing_hist(sf_dir: str):
    """Per-user movement-direction histogram: consecutive trajectory
    displacements (the q148 integer positions, ordered by ts then
    event_id) classify into 8 bearing octants by PURE SIGN TESTS —
    oct = 4*[|dy| > |dx|] + 2*[dx < 0] + [dy < 0] — so the histogram
    and the per-octant L1 step-length sums are trigonometry-free
    exact integers (zero displacements drop). The directional-bias
    fingerprint of a mobility pipeline. One user-bucket all-to-all;
    sort + diff + bincount run vectorized inside the bucket."""
    import pandas as pd

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def pos(b: dict) -> dict:
        e = np.asarray(b["event_id"], dtype=np.int64)
        u = np.asarray(b["user_id"], dtype=np.int64)
        t = np.asarray(b["ts"]).astype("datetime64[us]").astype(np.int64)
        bk = t // 259_200_000_000
        x = (u * 2654435761 + bk * 40503) % 100_000_000 \
            + (e * 7919 % 2001 - 1000)
        y = (u * 2246822519 + bk * 65537) % 100_000_000 \
            + (e * 104729 % 2001 - 1000)
        return {"user_id": u, "t": t, "e": e, "x": x, "y": y}

    def hist(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "t", "e"], kind="mergesort")
        u = g["user_id"].to_numpy(np.int64)
        x = g["x"].to_numpy(np.int64)
        y = g["y"].to_numpy(np.int64)
        same = u[1:] == u[:-1]
        dx = (x[1:] - x[:-1])[same]
        dy = (y[1:] - y[:-1])[same]
        uu = u[1:][same]
        move = (dx != 0) | (dy != 0)
        dx, dy, uu = dx[move], dy[move], uu[move]
        oct_ = (4 * (np.abs(dy) > np.abs(dx)).astype(np.int64)
                + 2 * (dx < 0).astype(np.int64)
                + (dy < 0).astype(np.int64))
        out = (pd.DataFrame({"user_id": uu, "octant": oct_,
                             "n": np.ones(len(uu), np.int64),
                             "sum_l1": np.abs(dx) + np.abs(dy)})
               .groupby(["user_id", "octant"], as_index=False).sum())
        return out

    out = co_partition(ev.map_batches(pos, batch_format="numpy",
                                      batch_size=65536),
                       "user_id", hist).to_pandas()
    for c in ("octant", "n", "sum_l1"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values(["user_id", "octant"], ignore_index=True)


_Q157_SQL = """
WITH p AS (
  SELECT user_id, ts, event_id,
         (user_id * 2654435761
          + (epoch_us(ts) // 259200000000) * 40503) % 100000000
           + (event_id * 7919 % 2001 - 1000) AS x,
         (user_id * 2246822519
          + (epoch_us(ts) // 259200000000) * 65537) % 100000000
           + (event_id * 104729 % 2001 - 1000) AS y
  FROM events),
d AS (
  SELECT user_id,
         x - LAG(x) OVER (PARTITION BY user_id
                          ORDER BY ts, event_id) AS dx,
         y - LAG(y) OVER (PARTITION BY user_id
                          ORDER BY ts, event_id) AS dy
  FROM p),
m AS (SELECT user_id, dx, dy FROM d
      WHERE dx IS NOT NULL AND (dx <> 0 OR dy <> 0))
SELECT user_id,
       CAST(4 * (CASE WHEN abs(dy) > abs(dx) THEN 1 ELSE 0 END)
          + 2 * (CASE WHEN dx < 0 THEN 1 ELSE 0 END)
          +     (CASE WHEN dy < 0 THEN 1 ELSE 0 END) AS BIGINT)
         AS octant,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(abs(dx) + abs(dy)) AS BIGINT) AS sum_l1
FROM m GROUP BY 1, 2 ORDER BY 1, 2
"""


def _q158_exploration(sf_dir: str):
    """Exploration curve: per day, how many (user, zoom-4 tile) pairs
    are visited for the FIRST time — the novelty-seeking metric of
    the mobility literature (new-location discovery rate), plus the
    day's total event count. Two-level aggregation, both bounded:
    per-block (user, tile, min day) partials into a (user, tile)-
    bucket min combine, then per-day count partials — raw events
    cross no all-to-all. Exact integers; windowed-SQL oracle."""
    import pandas as pd

    from proj_ray.stages import with_tiles

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def tag(b: dict) -> dict:
        i = np.asarray(b["event_id"], dtype=np.int64)
        day = (np.asarray(b["ts"]).astype("datetime64[us]")
               .astype(np.int64) // 86_400_000_000)
        lon, lat = _geotag(i)
        return {"user_id": np.asarray(b["user_id"], dtype=np.int64),
                "day": day,
                "lon": lon, "lat": lat}

    tiles = with_tiles(ev.map_batches(tag, batch_format="numpy",
                                      batch_size=65536), zoom=4)

    def partial(b: dict) -> pd.DataFrame:
        g = (pd.DataFrame({"user_id": b["user_id"],
                           "tile_x": b["tile_x"],
                           "tile_y": b["tile_y"],
                           "day": b["day"]})
             .groupby(["user_id", "tile_x", "tile_y"],
                      as_index=False)
             .agg(fd=("day", "min"), n=("day", "size")))
        return g

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(["user_id", "tile_x", "tile_y"],
                         as_index=False)
               .agg(fd=("fd", "min"), n=("n", "sum")))
        day_new = (out.groupby("fd", as_index=False)
                   .size().rename(columns={"fd": "day",
                                           "size": "n_new"}))
        day_new["n_new"] = day_new["n_new"].astype(np.int64)
        return day_new

    new_per_day = (co_partition(
        tiles.map_batches(partial, batch_format="pandas",
                          batch_size=65536),
        ["user_id", "tile_x", "tile_y"], combine)
        .to_pandas().groupby("day", as_index=False)["n_new"].sum())

    def day_cnt(b: dict) -> pd.DataFrame:
        g = (pd.DataFrame({"day": b["day"]})
             .groupby("day", as_index=False).size()
             .rename(columns={"size": "n_events"}))
        return g

    totals = (tiles.map_batches(day_cnt, batch_format="numpy",
                                batch_size=65536)
              .to_pandas().groupby("day", as_index=False)
              ["n_events"].sum())
    out = new_per_day.merge(totals, on="day")
    for c in ("day", "n_new", "n_events"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("day", ignore_index=True)


_Q158_SQL = """
WITH e AS (
  SELECT user_id, epoch_us(ts) // 86400000000 AS day,
         (event_id * 61803 % 360000) / 1000.0 - 180.0 AS lon,
         (event_id * 75487 % 170000) / 1000.0 - 85.0 AS lat
  FROM events),
t AS (
  SELECT user_id, day,
    CAST(LEAST(GREATEST(floor(
        (radians(lon) * 6378137.0 + pi() * 6378137.0)
        / (2 * pi() * 6378137.0) * 16), 0), 15) AS BIGINT) AS tx,
    CAST(LEAST(GREATEST(floor(
        (pi() * 6378137.0 - 6378137.0
           * ln(tan(pi()/4 + radians(lat)/2)))
        / (2 * pi() * 6378137.0) * 16), 0), 15) AS BIGINT) AS ty
  FROM e),
fst AS (SELECT user_id, tx, ty, MIN(day) AS fd
        FROM t GROUP BY 1, 2, 3),
nw AS (SELECT fd AS day, CAST(COUNT(*) AS BIGINT) AS n_new
       FROM fst GROUP BY 1),
tot AS (SELECT day, CAST(COUNT(*) AS BIGINT) AS n_events
        FROM t GROUP BY 1)
SELECT CAST(nw.day AS BIGINT) AS day, nw.n_new, tot.n_events
FROM nw JOIN tot ON nw.day = tot.day ORDER BY 1
"""


def _q159_gearys_c(sf_dir: str):
    """Geary's C spatial autocorrelation of the zoom-4 tile counts
    under rook adjacency — the local-contrast complement to q151's
    Moran's I (squared neighbor DIFFERENCES instead of deviation
    products), exact integers throughout:
        C = (n-1) * n^2 * c_num / (2 * w_pairs * c_den),
        c_num = sum over directed rook pairs of (x_i - x_j)^2,
        c_den = sum of (n*x_i - S)^2
    with components reported undivided. Same scale shape as q151:
    one distributed tile count, then a 256-row lattice fold."""
    import pandas as pd

    counts = pull_pandas(_tile_counts(sf_dir, 4))
    grid = np.zeros((16, 16), dtype=np.int64)
    grid[counts["tile_x"].to_numpy(np.int64),
         counts["tile_y"].to_numpy(np.int64)] = \
        counts["n"].to_numpy(np.int64)
    n = grid.size
    s = int(grid.sum())
    d = n * grid - s
    num = int(((grid[:-1, :] - grid[1:, :]) ** 2).sum()) * 2 \
        + int(((grid[:, :-1] - grid[:, 1:]) ** 2).sum()) * 2
    den = int((d * d).sum())
    return pd.DataFrame({"n_cells": [np.int64(n)],
                         "w_pairs": [np.int64(960)],
                         "s_total": [np.int64(s)],
                         "c_num": [np.int64(num)],
                         "c_den": [np.int64(den)]})


_Q159_SQL = f"""
WITH geo AS ({_GEO_SQL}),
t AS (
  SELECT
    CAST(LEAST(GREATEST(floor(
        (radians(lon) * 6378137.0 + pi() * 6378137.0)
        / (2 * pi() * 6378137.0) * 16), 0), 15) AS BIGINT) AS tx,
    CAST(LEAST(GREATEST(floor(
        (pi() * 6378137.0 - 6378137.0
           * ln(tan(pi()/4 + radians(lat)/2)))
        / (2 * pi() * 6378137.0) * 16), 0), 15) AS BIGINT) AS ty
  FROM geo),
c AS (SELECT tx, ty, CAST(count(*) AS BIGINT) AS n
      FROM t GROUP BY 1, 2),
lat AS (SELECT x.x AS tx, y.y AS ty
        FROM range(16) x(x) CROSS JOIN range(16) y(y)),
g AS (SELECT l.tx, l.ty, COALESCE(c.n, 0) AS n
      FROM lat l LEFT JOIN c ON l.tx = c.tx AND l.ty = c.ty),
d AS (SELECT tx, ty, n, 256 * n - (SELECT SUM(n) FROM g) AS d FROM g)
SELECT CAST(256 AS BIGINT) AS n_cells,
       CAST(960 AS BIGINT) AS w_pairs,
       CAST((SELECT SUM(n) FROM g) AS BIGINT) AS s_total,
       CAST((SELECT SUM((a.n - b.n) * (a.n - b.n))
             FROM d a JOIN d b
             ON abs(a.tx - b.tx) + abs(a.ty - b.ty) = 1)
            AS BIGINT) AS c_num,
       CAST((SELECT SUM(d * d) FROM d) AS BIGINT) AS c_den
"""


def _q160_ripley_k(sf_dir: str):
    """Ripley's K point-pattern statistic: the exact count of
    unordered doc-geotag pairs within planar distance r, for r in
    {2000, 5000, 10000} milli-degrees — the multi-scale clustering
    curve of spatial statistics, reported undivided as (r, n_pairs)
    plus n_points so K(r) = area * 2*n_pairs / n^2 is a driver-side
    division. PBSM shape (the q71 overlay convention): points
    replicate to their 3x3 neighborhood of 10000-milli-degree cells
    (cell size = r_max, so every qualifying pair co-locates), ONE
    hash-bucket all-to-all, and each pair counts exactly once at the
    cell of its lexicographically-smaller endpoint (reference-point
    rule, Patel & DeWitt SIGMOD'96; functions/pointpattern.py,
    brute-parity-tested). Shifted nonnegative coords keep numpy/SQL
    floor-vs-trunc division identical."""
    from proj_ray.functions.pointpattern import pair_counts_within

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    n_points = ds.count()

    def coords(b: dict) -> dict:
        i = np.asarray(b["doc_id"], dtype=np.int64)
        return {"x": i * 61803 % 360000, "y": i * 75487 % 170000,
                "pid": i}

    out = pair_counts_within(
        ds.map_batches(coords, batch_format="numpy",
                       batch_size=65536),
        [2000, 5000, 10000], cell=10000)
    out["n_points"] = np.int64(n_points)
    return out


_Q160_SQL = """
WITH p AS (
  SELECT doc_id, doc_id * 61803 % 360000 AS sx,
         doc_id * 75487 % 170000 AS sy
  FROM documents),
c AS (SELECT doc_id, sx, sy, sx // 10000 AS cx, sy // 10000 AS cy
      FROM p),
a9 AS (SELECT c.doc_id, c.sx, c.sy,
              c.cx + dx.d AS tcx, c.cy + dy.d AS tcy
       FROM c, (VALUES (-1), (0), (1)) dx(d),
               (VALUES (-1), (0), (1)) dy(d)),
pr AS (
  SELECT (a.sx - b.sx) * (a.sx - b.sx)
       + (a.sy - b.sy) * (a.sy - b.sy) AS d2
  FROM a9 a JOIN c b ON b.cx = a.tcx AND b.cy = a.tcy
  WHERE b.sx > a.sx
     OR (b.sx = a.sx AND (b.sy > a.sy
         OR (b.sy = a.sy AND b.doc_id > a.doc_id)))),
radii AS (SELECT * FROM (VALUES (2000), (5000), (10000)) r(r))
SELECT CAST(radii.r AS BIGINT) AS r,
       CAST((SELECT COUNT(*) FROM pr
             WHERE pr.d2 <= radii.r * radii.r) AS BIGINT) AS n_pairs,
       CAST((SELECT COUNT(*) FROM p) AS BIGINT) AS n_points
FROM radii ORDER BY 1
"""


def _q161_knox(sf_dir: str):
    """Knox space-time interaction statistic over the events stream:
    n_knox = exact count of unordered event pairs close in BOTH
    space (planar d2 <= r^2, r = 10000 milli-degrees) and time
    (|day_i - day_j| <= 3), with the marginals needed for the Knox
    expectation — n_space (close in space regardless of time,
    q160's PBSM reference-point count with the day column riding
    along) and n_time (close in time regardless of location,
    computed WITHOUT an all-pairs pass from the <= 31-row day
    histogram: sum c_a*c_b over ordered close day pairs plus
    C(c,2) within days). The disease-cluster / event-burst detector
    of spatial epidemiology, all counts exact int64
    (functions/pointpattern.py pair_counts_within, the q160 kernel
    with the time dimension riding along)."""
    import pandas as pd

    from proj_ray.functions.pointpattern import pair_counts_within

    R = 10000
    TAU = 3
    ev = _read(sf_dir, "events", columns=["event_id", "ts"])
    n_points = ev.count()

    def coords(b: dict) -> dict:
        i = np.asarray(b["event_id"], dtype=np.int64)
        return {"x": i * 61803 % 360000, "y": i * 75487 % 170000,
                "t": (np.asarray(b["ts"]).astype("datetime64[us]")
                      .astype(np.int64) // 86_400_000_000),
                "pid": i}

    res = pair_counts_within(
        ev.map_batches(coords, batch_format="numpy",
                       batch_size=65536),
        [R], cell=R, time_col="t", tau=TAU)
    sp = {"n_space": int(res["n_pairs"].iloc[0]),
          "n_knox": int(res["n_pairs_time"].iloc[0])}

    def day_hist(b: dict) -> pd.DataFrame:
        day = (np.asarray(b["ts"]).astype("datetime64[us]")
               .astype(np.int64) // 86_400_000_000)
        g = (pd.DataFrame({"day": day})
             .groupby("day", as_index=False).size()
             .rename(columns={"size": "c"}))
        return g

    dc = (ev.map_batches(day_hist, batch_format="numpy",
                         batch_size=65536)
          .to_pandas().groupby("day", as_index=False)["c"].sum())
    d = dc["day"].to_numpy(np.int64)
    c = dc["c"].to_numpy(np.int64)
    cross = (d[None, :] > d[:, None]) & (d[None, :] - d[:, None] <= TAU)
    n_time = int((c[:, None] * c[None, :] * cross).sum()) \
        + int((c * (c - 1) // 2).sum())
    return pd.DataFrame({
        "r": [np.int64(R)], "tau": [np.int64(TAU)],
        "n_points": [np.int64(n_points)],
        "n_space": [np.int64(sp["n_space"])],
        "n_time": [np.int64(n_time)],
        "n_knox": [np.int64(sp["n_knox"])]})


_Q161_SQL = """
WITH e AS (
  SELECT event_id, epoch_us(ts) // 86400000000 AS day,
         event_id * 61803 % 360000 AS sx,
         event_id * 75487 % 170000 AS sy
  FROM events),
c AS (SELECT *, sx // 10000 AS cx, sy // 10000 AS cy FROM e),
a9 AS (SELECT c.event_id, c.sx, c.sy, c.day,
              c.cx + dx.d AS tcx, c.cy + dy.d AS tcy
       FROM c, (VALUES (-1), (0), (1)) dx(d),
               (VALUES (-1), (0), (1)) dy(d)),
pr AS (
  SELECT (a.sx - b.sx) * (a.sx - b.sx)
       + (a.sy - b.sy) * (a.sy - b.sy) AS d2,
         abs(a.day - b.day) AS dt
  FROM a9 a JOIN c b ON b.cx = a.tcx AND b.cy = a.tcy
  WHERE b.sx > a.sx
     OR (b.sx = a.sx AND (b.sy > a.sy
         OR (b.sy = a.sy AND b.event_id > a.event_id)))),
dc AS (SELECT day, CAST(COUNT(*) AS BIGINT) AS c FROM e GROUP BY 1),
nt AS (
  SELECT CAST(COALESCE((SELECT SUM(a.c * b.c) FROM dc a JOIN dc b
                ON b.day > a.day AND b.day <= a.day + 3), 0)
            + (SELECT SUM(c * (c - 1) // 2) FROM dc)
              AS BIGINT) AS n_time)
SELECT CAST(10000 AS BIGINT) AS r, CAST(3 AS BIGINT) AS tau,
       CAST((SELECT COUNT(*) FROM e) AS BIGINT) AS n_points,
       CAST((SELECT COUNT(*) FROM pr
             WHERE d2 <= 100000000) AS BIGINT) AS n_space,
       nt.n_time,
       CAST((SELECT COUNT(*) FROM pr
             WHERE d2 <= 100000000 AND dt <= 3) AS BIGINT) AS n_knox
FROM nt
"""


def _q162_image_moments(sf_dir: str):
    """Raw image moments — the building blocks of centroid/Hu shape
    descriptors — over the decoded luma channel (2r+3g+b), in exact
    integers: per image m_pq = sum over pixels of x^p * y^q * lum for
    (p,q) in {(0,0),(1,0),(0,1),(2,0),(1,1),(0,2)}, summed per
    format. Decode + the six weighted reductions run in the task-pool
    map stage; one 8-counter row per image crosses the shuffle.
    Oracle mirrors the pixel generator + codec quantization
    op-for-op."""
    from proj_ray.images import decode, images_table

    n = _read(sf_dir, "documents").count()

    def moments(b: dict) -> dict:
        cnt = len(b["image_id"])
        out = {k: np.empty(cnt, dtype=np.int64)
               for k in ("m00", "m10", "m01", "m20", "m11", "m02")}
        for k in range(cnt):
            px = decode(b["bytes"][k], b["fmt"][k]).astype(np.int64)
            lum = 2 * px[..., 0] + 3 * px[..., 1] + px[..., 2]
            h, w = lum.shape
            x = np.arange(w, dtype=np.int64)[None, :]
            y = np.arange(h, dtype=np.int64)[:, None]
            out["m00"][k] = int(lum.sum())
            out["m10"][k] = int((lum * x).sum())
            out["m01"][k] = int((lum * y).sum())
            out["m20"][k] = int((lum * x * x).sum())
            out["m11"][k] = int((lum * x * y).sum())
            out["m02"][k] = int((lum * y * y).sum())
        out["fmt"] = np.asarray(b["fmt"])
        out["one"] = np.ones(cnt, np.int64)
        return out

    per = images_table(
        n, columns=["image_id", "bytes", "fmt"]).map_batches(
        moments, batch_format="numpy", batch_size=256)
    cols = ["m00", "m10", "m01", "m20", "m11", "m02"]
    return pull_pandas(bucketed_sum(per, "fmt", ["one", *cols],
                                    ["n_images", *cols]))


_Q162_SQL = """
WITH seq AS (SELECT ROW_NUMBER() OVER () - 1 AS i FROM documents),
img AS (SELECT i, CASE WHEN i > 0 AND i % 97 = 0 THEN i - 1 ELSE i END
               AS src FROM seq),
dim AS (SELECT i, src, src % 3 AS f,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 32 ELSE 64 END AS w,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 24 ELSE 48 END AS h
        FROM img),
px AS (SELECT i, src, f, y.y AS y, x.x AS x
       FROM dim CROSS JOIN range(48) y(y) CROSS JOIN range(64) x(x)
       WHERE y.y < h AND x.x < w),
raw AS (SELECT i, f, y, x,
               (src*37 + y*11 + x*7) % 256 AS r,
               (src*53 + y*5 + x*13) % 256 AS g,
               (src*97 + (y+x)*3) % 256 AS b
        FROM px),
lm AS (SELECT i, f, y, x,
              2*(CASE WHEN f = 1 THEN (r//4)*4+2 ELSE r END)
            + 3*(CASE WHEN f = 1 THEN (g//4)*4+2 ELSE g END)
            +   (CASE WHEN f = 1 THEN (b//4)*4+2 ELSE b END) AS lum
       FROM raw),
pi AS (SELECT i, f, SUM(lum) AS m00, SUM(lum*x) AS m10,
              SUM(lum*y) AS m01, SUM(lum*x*x) AS m20,
              SUM(lum*x*y) AS m11, SUM(lum*y*y) AS m02
       FROM lm GROUP BY 1, 2)
SELECT CASE f WHEN 0 THEN 'png' WHEN 1 THEN 'qjpg' ELSE 'bmp' END
         AS fmt,
       CAST(COUNT(*) AS BIGINT) AS n_images,
       CAST(SUM(m00) AS BIGINT) AS m00, CAST(SUM(m10) AS BIGINT) AS m10,
       CAST(SUM(m01) AS BIGINT) AS m01, CAST(SUM(m20) AS BIGINT) AS m20,
       CAST(SUM(m11) AS BIGINT) AS m11, CAST(SUM(m02) AS BIGINT) AS m02
FROM pi GROUP BY 1 ORDER BY 1
"""


def _q163_od_matrix(sf_dir: str):
    """Origin-destination matrix: per (user, day), the zoom-3 tile of
    the user's FIRST event is the origin and of the LAST event the
    destination (order by ts then event_id, both sides); count trips
    per (origin, destination) tile pair — the commute-flow aggregate
    of transport planning, complementing q138's consecutive-step
    Markov transitions. One user-bucket all-to-all; the first/last
    extraction is a vectorized sorted segment pass."""
    import pandas as pd

    from proj_ray.stages import with_tiles

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def tag(b: dict) -> dict:
        i = np.asarray(b["event_id"], dtype=np.int64)
        t = np.asarray(b["ts"]).astype("datetime64[us]").astype(np.int64)
        lon, lat = _geotag(i)
        return {"user_id": np.asarray(b["user_id"], dtype=np.int64),
                "e": i, "t": t, "day": t // 86_400_000_000,
                "lon": lon, "lat": lat}

    tiles = with_tiles(ev.map_batches(tag, batch_format="numpy",
                                      batch_size=65536), zoom=3)

    def bucket(b: dict) -> pd.DataFrame:
        df = pd.DataFrame({k: b[k] for k in
                           ("user_id", "day", "t", "e",
                            "tile_x", "tile_y")})
        return df

    def od(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "day", "t", "e"],
                          kind="mergesort")
        key = g[["user_id", "day"]].to_numpy(np.int64)
        new = np.r_[True, (key[1:] != key[:-1]).any(axis=1)]
        first = np.flatnonzero(new)
        last = np.r_[first[1:] - 1, len(g) - 1]
        tx = g["tile_x"].to_numpy(np.int64)
        ty = g["tile_y"].to_numpy(np.int64)
        out = (pd.DataFrame({"o_x": tx[first], "o_y": ty[first],
                             "d_x": tx[last], "d_y": ty[last]})
               .groupby(["o_x", "o_y", "d_x", "d_y"],
                        as_index=False).size()
               .rename(columns={"size": "n_trips"}))
        return out

    out = (co_partition(tiles.map_batches(bucket, batch_format="numpy",
                                          batch_size=65536),
                        "user_id", od)
           .to_pandas()
           .groupby(["o_x", "o_y", "d_x", "d_y"], as_index=False)
           ["n_trips"].sum())
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.sort_values(["o_x", "o_y", "d_x", "d_y"],
                           ignore_index=True)


_Q163_SQL = """
WITH e AS (
  SELECT user_id, event_id, ts,
         epoch_us(ts) // 86400000000 AS day,
         (event_id * 61803 % 360000) / 1000.0 - 180.0 AS lon,
         (event_id * 75487 % 170000) / 1000.0 - 85.0 AS lat
  FROM events),
t AS (
  SELECT user_id, day, ts, event_id,
    CAST(LEAST(GREATEST(floor(
        (radians(lon) * 6378137.0 + pi() * 6378137.0)
        / (2 * pi() * 6378137.0) * 8), 0), 7) AS BIGINT) AS tx,
    CAST(LEAST(GREATEST(floor(
        (pi() * 6378137.0 - 6378137.0
           * ln(tan(pi()/4 + radians(lat)/2)))
        / (2 * pi() * 6378137.0) * 8), 0), 7) AS BIGINT) AS ty
  FROM e),
r AS (
  SELECT user_id, day, tx, ty,
         ROW_NUMBER() OVER (PARTITION BY user_id, day
                            ORDER BY ts, event_id) AS rn_a,
         ROW_NUMBER() OVER (PARTITION BY user_id, day
                            ORDER BY ts DESC, event_id DESC) AS rn_d
  FROM t),
od AS (
  SELECT o.user_id, o.day, o.tx AS o_x, o.ty AS o_y,
         d.tx AS d_x, d.ty AS d_y
  FROM r o JOIN r d ON o.user_id = d.user_id AND o.day = d.day
  WHERE o.rn_a = 1 AND d.rn_d = 1)
SELECT o_x, o_y, d_x, d_y, CAST(COUNT(*) AS BIGINT) AS n_trips
FROM od GROUP BY 1, 2, 3, 4 ORDER BY 1, 2, 3, 4
"""


def _q164_colocation(sf_dir: str):
    """Co-location pattern mining (Shekhar & Huang, SSTD'01 support
    counting): for every unordered pair of event TYPES, in how many
    (zoom-3 tile, day) space-time cells do both types occur — the
    spatial-association support table. Per-block partials reduce to
    DISTINCT (cell, type) rows before the single cell-bucket
    all-to-all; the per-cell pair expansion is bounded by C(5,2)
    types. Exact integers."""
    import pandas as pd

    from proj_ray.stages import with_tiles

    ev = _read(sf_dir, "events",
               columns=["event_id", "event_type", "ts"])

    def tag(b: dict) -> dict:
        i = np.asarray(b["event_id"], dtype=np.int64)
        lon, lat = _geotag(i)
        return {"event_type": np.asarray(b["event_type"]),
                "day": (np.asarray(b["ts"]).astype("datetime64[us]")
                        .astype(np.int64) // 86_400_000_000),
                "lon": lon, "lat": lat}

    tiles = with_tiles(ev.map_batches(tag, batch_format="numpy",
                                      batch_size=65536), zoom=3)

    def distinct(b: dict) -> pd.DataFrame:
        df = (pd.DataFrame({"tile_x": b["tile_x"],
                            "tile_y": b["tile_y"],
                            "day": b["day"],
                            "event_type": b["event_type"]})
              .drop_duplicates())
        return df

    def pair_counts(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(
            subset=["tile_x", "tile_y", "day", "event_type"])
        rows = []
        for _, gg in g.groupby(["tile_x", "tile_y", "day"],
                               sort=False):
            ts_ = sorted(gg["event_type"].tolist())
            for a in range(len(ts_)):
                for bsub in range(a + 1, len(ts_)):
                    rows.append((ts_[a], ts_[bsub]))
        if not rows:
            return pd.DataFrame({"type_a": pd.Series([], dtype=str),
                                 "type_b": pd.Series([], dtype=str),
                                 "support": pd.Series([],
                                                      dtype=np.int64)})
        out = (pd.DataFrame(rows, columns=["type_a", "type_b"])
               .groupby(["type_a", "type_b"], as_index=False).size()
               .rename(columns={"size": "support"}))
        return out

    out = (co_partition(tiles.map_batches(distinct, batch_format="numpy",
                                          batch_size=65536),
                        ["tile_x", "tile_y", "day"], pair_counts)
           .to_pandas()
           .groupby(["type_a", "type_b"], as_index=False)
           ["support"].sum())
    out["support"] = out["support"].astype(np.int64)
    return out.sort_values(["type_a", "type_b"], ignore_index=True)


_Q164_SQL = """
WITH e AS (
  SELECT event_type, epoch_us(ts) // 86400000000 AS day,
         (event_id * 61803 % 360000) / 1000.0 - 180.0 AS lon,
         (event_id * 75487 % 170000) / 1000.0 - 85.0 AS lat
  FROM events),
t AS (
  SELECT DISTINCT event_type, day,
    CAST(LEAST(GREATEST(floor(
        (radians(lon) * 6378137.0 + pi() * 6378137.0)
        / (2 * pi() * 6378137.0) * 8), 0), 7) AS BIGINT) AS tx,
    CAST(LEAST(GREATEST(floor(
        (pi() * 6378137.0 - 6378137.0
           * ln(tan(pi()/4 + radians(lat)/2)))
        / (2 * pi() * 6378137.0) * 8), 0), 7) AS BIGINT) AS ty
  FROM e)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       CAST(COUNT(*) AS BIGINT) AS support
FROM t a JOIN t b
  ON a.tx = b.tx AND a.ty = b.ty AND a.day = b.day
 AND a.event_type < b.event_type
GROUP BY 1, 2 ORDER BY 1, 2
"""


def _q165_skipgrams(sf_dir: str):
    """Global top-25 skip-gram pairs (ordered token pairs at distance
    1 or 2 within a document) — the context-window co-occurrence
    counts a word2vec-style embedding pipeline accumulates. Pair
    extraction is fully vectorized: the batch's tokens concatenate
    into one array with doc indices, and offset-1/offset-2 shifts
    with a same-doc mask emit pairs without any per-row loop. Counts
    combine per (pair)-hash bucket with a per-bucket top-25 prune
    (safe: ranking is count desc then lexicographic, and every pair's
    total lives in exactly one bucket), so the driver merges <= 25
    rows per bucket."""
    import pandas as pd

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def pairs(b: dict) -> pd.DataFrame:
        texts = np.asarray(b["text"])
        toks_l = [t.split(" ") for t in texts]
        lens = np.array([len(t) for t in toks_l], dtype=np.int64)
        toks = np.concatenate([np.asarray(t, dtype=object)
                               for t in toks_l]) \
            if len(toks_l) else np.empty(0, dtype=object)
        di = np.repeat(np.arange(len(lens)), lens)
        fr = []
        for off in (1, 2):
            if len(toks) <= off:
                continue
            m = di[off:] == di[:-off]
            fr.append(pd.DataFrame({"term_a": toks[:-off][m],
                                    "term_b": toks[off:][m]}))
        if not fr:
            return pd.DataFrame({"term_a": pd.Series([], dtype=str),
                                 "term_b": pd.Series([], dtype=str),
                                 "n": pd.Series([], dtype=np.int64)})
        return (pd.concat(fr, ignore_index=True)
                .groupby(["term_a", "term_b"], as_index=False).size()
                .rename(columns={"size": "n"}))

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["term_a", "term_b"], as_index=False)["n"].sum()
        out = out.sort_values(["n", "term_a", "term_b"],
                              ascending=[False, True, True],
                              kind="mergesort").head(25)
        out["n"] = out["n"].astype(np.int64)
        return out

    cand = co_partition(docs.map_batches(pairs, batch_format="numpy",
                                         batch_size=4096),
                        ["term_a", "term_b"], topk).to_pandas()
    out = (cand.sort_values(["n", "term_a", "term_b"],
                            ascending=[False, True, True],
                            kind="mergesort").head(25)
           .reset_index(drop=True))
    out["n"] = out["n"].astype(np.int64)
    return out


_Q165_SQL = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term,
         generate_subscripts(string_split(text, ' '), 1) AS pos
  FROM documents),
pr AS (
  SELECT a.term AS term_a, b.term AS term_b
  FROM tok a JOIN tok b
    ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
  UNION ALL
  SELECT a.term, b.term
  FROM tok a JOIN tok b
    ON a.doc_id = b.doc_id AND b.pos = a.pos + 2)
SELECT term_a, term_b, CAST(COUNT(*) AS BIGINT) AS n
FROM pr GROUP BY 1, 2
ORDER BY n DESC, term_a, term_b LIMIT 25
"""


def _q166_benford(sf_dir: str):
    """Benford first-digit audit of order totals: the distribution of
    the leading significant digit of o_totalprice in integer cents —
    the fraud/data-quality screen. The digit extracts EXACTLY by
    repeated integer division (no float log10, whose misrounding at
    power-of-10 boundaries would diverge from SQL's string head);
    per-block 9-bin partials make the exchange O(blocks)."""
    import pandas as pd

    orders = _read(sf_dir, "orders", columns=["o_totalprice"])

    def digits(b: dict) -> pd.DataFrame:
        cents = np.rint(np.asarray(b["o_totalprice"], np.float64)
                        * 100).astype(np.int64)
        d = cents.copy()
        while (d >= 10).any():
            d = np.where(d >= 10, d // 10, d)
        g = (pd.DataFrame({"digit": d})
             .groupby("digit", as_index=False).size()
             .rename(columns={"size": "n_orders"}))
        return g

    out = (orders.map_batches(digits, batch_format="numpy",
                              batch_size=65536)
           .to_pandas().groupby("digit", as_index=False)
           ["n_orders"].sum())
    for c in ("digit", "n_orders"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("digit", ignore_index=True)


_Q166_SQL = """
SELECT CAST(substr(CAST(CAST(round(o_totalprice * 100) AS BIGINT)
                        AS VARCHAR), 1, 1) AS BIGINT) AS digit,
       CAST(COUNT(*) AS BIGINT) AS n_orders
FROM orders GROUP BY 1 ORDER BY 1
"""


def _q167_dup_histogram(sf_dir: str):
    """Duplicate-cluster size histogram: for each multiplicity k, how
    many DISTINCT texts occur exactly k times — the dedup-planning
    diagnostic (how much shrink will exact dedup buy). Per-block
    (text, partial count) rows reduce in a text-hash bucket combine
    (distinct-text-sized exchange, the q11 contract), then the
    k-histogram folds as bounded partials."""
    import pandas as pd

    docs = _read(sf_dir, "documents", columns=["text"])

    def partial(b: dict) -> pd.DataFrame:
        return (pd.DataFrame({"text": np.asarray(b["text"])})
                .groupby("text", as_index=False).size()
                .rename(columns={"size": "c"}))

    def hist(g: pd.DataFrame) -> pd.DataFrame:
        per = g.groupby("text", as_index=False)["c"].sum()
        out = (per.groupby("c", as_index=False).size()
               .rename(columns={"c": "k", "size": "n_groups"}))
        return out

    out = (co_partition(docs.map_batches(partial, batch_format="numpy",
                                         batch_size=65536),
                        "text", hist)
           .to_pandas().groupby("k", as_index=False)
           ["n_groups"].sum())
    for c in ("k", "n_groups"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("k", ignore_index=True)


_Q167_SQL = """
WITH c AS (SELECT text, CAST(COUNT(*) AS BIGINT) AS k
           FROM documents GROUP BY 1)
SELECT k, CAST(COUNT(*) AS BIGINT) AS n_groups
FROM c GROUP BY 1 ORDER BY 1
"""


def _q168_interarrival(sf_dir: str):
    """Inter-arrival time distribution: per-user consecutive event
    gaps (seconds, ordered by ts then event_id) bucketed into
    power-of-2 bins — the burstiness fingerprint of an event stream.
    The bin index is EXACT integer work (np.digitize against the
    2^k table, mirrored in SQL by counting powers <= gap; no float
    log2). One user-bucket all-to-all; gaps and bins vectorize inside
    the bucket; the global histogram folds 40-bin partials."""
    import pandas as pd

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    powers = (1 << np.arange(40, dtype=np.int64))

    def tag(b: dict) -> dict:
        return {"user_id": np.asarray(b["user_id"], dtype=np.int64),
                "e": np.asarray(b["event_id"], dtype=np.int64),
                "t": np.asarray(b["ts"]).astype("datetime64[us]")
                .astype(np.int64)}

    def hist(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "t", "e"], kind="mergesort")
        u = g["user_id"].to_numpy(np.int64)
        t = g["t"].to_numpy(np.int64)
        same = u[1:] == u[:-1]
        gap = ((t[1:] - t[:-1]) // 1_000_000)[same]
        bucket = np.digitize(gap, powers).astype(np.int64)
        out = (pd.DataFrame({"bucket": bucket, "gap": gap})
               .groupby("bucket", as_index=False)
               .agg(n_gaps=("gap", "size"), sum_gap_s=("gap", "sum")))
        return out

    out = (co_partition(ev.map_batches(tag, batch_format="numpy",
                                       batch_size=65536),
                        "user_id", hist)
           .to_pandas().groupby("bucket", as_index=False)
           .agg(n_gaps=("n_gaps", "sum"),
                sum_gap_s=("sum_gap_s", "sum")))
    for c in ("bucket", "n_gaps", "sum_gap_s"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("bucket", ignore_index=True)


_Q168_SQL = """
WITH g AS (
  SELECT (epoch_us(ts)
          - LAG(epoch_us(ts)) OVER (PARTITION BY user_id
                                    ORDER BY ts, event_id))
         // 1000000 AS gap
  FROM events),
b AS (
  SELECT gap,
         (SELECT CAST(COUNT(*) AS BIGINT) FROM range(40) k(k)
          WHERE (CAST(1 AS BIGINT) << CAST(k.k AS INT)) <= g.gap)
           AS bucket
  FROM g WHERE gap IS NOT NULL)
SELECT bucket, CAST(COUNT(*) AS BIGINT) AS n_gaps,
       CAST(SUM(gap) AS BIGINT) AS sum_gap_s
FROM b GROUP BY 1 ORDER BY 1
"""


def _copurchase_edges(sf_dir: str):
    """Canonical deduped co-purchase edge set (parts sharing an order,
    u < v) — the q112 construction factored for reuse by the graph-
    statistics queries: per-order pair expansion co-partitioned on the
    order, then a dedup co-partitioned on the pair. Returns a Dataset
    (u, v)."""
    import pandas as pd

    from proj_ray.functions.graph import _pair_expand

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def tag(b: dict) -> dict:
        return {"o": np.asarray(b["l_orderkey"], dtype=np.int64),
                "p": np.asarray(b["l_partkey"], dtype=np.int64)}

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(subset=["o", "p"])
        o = d["o"].to_numpy(np.int64)
        p = d["p"].to_numpy(np.int64)
        idx = np.lexsort((p, o))
        a, b2 = _pair_expand(o[idx], p[idx])
        return pd.DataFrame({"u": a, "v": b2})

    def dedup(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(subset=["u", "v"])

    return co_partition(
        co_partition(li.map_batches(tag, batch_format="numpy"), "o",
                     pairs),
        ["u", "v"], dedup)


_COPURCH_SQL = """
pp AS (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
e AS (
  SELECT DISTINCT a.p AS u, b.p AS v
  FROM pp a JOIN pp b ON a.o = b.o AND a.p < b.p),
deg AS (
  SELECT node, CAST(COUNT(*) AS BIGINT) AS deg FROM
    (SELECT u AS node FROM e UNION ALL SELECT v FROM e)
  GROUP BY 1)
"""


def _q169_degree_hist(sf_dir: str):
    """Degree-distribution histogram of the co-purchase graph (the
    power-law diagnostic every graph pipeline starts with): for each
    degree value, the number of nodes holding it. Edge dedup + degree
    sum + histogram all run as bounded bucket partials; only (int,
    int) rows cross any exchange."""
    import pandas as pd

    from proj_ray.functions.graph import degree_table

    deg = degree_table(_copurchase_edges(sf_dir))

    def hist(b: dict) -> pd.DataFrame:
        g = (pd.DataFrame({"deg": b["deg"]})
             .groupby("deg", as_index=False).size()
             .rename(columns={"size": "n_nodes"}))
        return g

    out = (deg.map_batches(hist, batch_format="numpy",
                           batch_size=65536)
           .to_pandas().groupby("deg", as_index=False)
           ["n_nodes"].sum())
    for c in ("deg", "n_nodes"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("deg", ignore_index=True)


_Q169_SQL = f"""
WITH {_COPURCH_SQL}
SELECT deg, CAST(COUNT(*) AS BIGINT) AS n_nodes
FROM deg GROUP BY 1 ORDER BY 1
"""


def _q170_assortativity(sf_dir: str):
    """Degree-assortativity sufficient statistics of the co-purchase
    graph — exact integers from which Pearson's degree correlation is
    one driver-side division: m = |E|, s1 = sum over edges of
    (du + dv) = sum over nodes of deg^2, s2 = sum over edges of
    (du^2 + dv^2) = sum over nodes of deg^3 (both via the DEGREE
    table, no edge join), and s3 = sum over edges of du*dv, the one
    term that genuinely needs degrees attached to edges —
    functions/graph.py attach_degrees, which triangle_count's exchange
    path runs too. All exchanges ship int rows."""
    import pandas as pd

    from proj_ray.functions.graph import attach_degrees, degree_table

    edges = _copurchase_edges(sf_dir).materialize()
    deg = degree_table(edges).materialize()

    def node_stats(b: dict) -> pd.DataFrame:
        d = np.asarray(b["deg"], dtype=np.int64)
        return pd.DataFrame({"n": [np.int64(len(d))],
                             "s1": [np.int64((d * d).sum())],
                             "s2": [np.int64((d ** 3).sum())]})

    ns = (deg.map_batches(node_stats, batch_format="numpy",
                          batch_size=65536).to_pandas().sum())

    cur = attach_degrees(edges, deg)

    def s3_partial(b: dict) -> pd.DataFrame:
        du = np.asarray(b["du"], dtype=np.int64)
        dv = np.asarray(b["dv"], dtype=np.int64)
        return pd.DataFrame({"m": [np.int64(len(du))],
                             "s3": [np.int64((du * dv).sum())]})

    es = (cur.map_batches(s3_partial, batch_format="numpy",
                          batch_size=65536).to_pandas().sum())
    return pd.DataFrame({
        "n_nodes": [np.int64(ns["n"])],
        "n_edges": [np.int64(es["m"])],
        "s1": [np.int64(ns["s1"])],
        "s2": [np.int64(ns["s2"])],
        "s3": [np.int64(es["s3"])]})


_Q170_SQL = f"""
WITH {_COPURCH_SQL},
ej AS (
  SELECT a.deg AS du, b.deg AS dv
  FROM e JOIN deg a ON e.u = a.node JOIN deg b ON e.v = b.node)
SELECT CAST((SELECT COUNT(*) FROM deg) AS BIGINT) AS n_nodes,
       CAST((SELECT COUNT(*) FROM e) AS BIGINT) AS n_edges,
       CAST((SELECT SUM(deg * deg) FROM deg) AS BIGINT) AS s1,
       CAST((SELECT SUM(deg * deg * deg) FROM deg) AS BIGINT) AS s2,
       CAST((SELECT SUM(du * dv) FROM ej) AS BIGINT) AS s3
"""


def _q171_clustering_coeff(sf_dir: str):
    """Global clustering-coefficient pieces of the co-purchase graph:
    n_wedges = sum over nodes of C(deg, 2) (a degree-table fold — no
    pair expansion) and n_triangles from the degree-oriented exact
    counter (functions/graph.py triangle_count); the coefficient
    3T / W is one driver-side division. Reported undivided with the
    node/edge counts."""
    import pandas as pd

    from proj_ray.functions.graph import degree_table, triangle_count

    edges = _copurchase_edges(sf_dir).materialize()
    deg = degree_table(edges)

    def wedge_partial(b: dict) -> pd.DataFrame:
        d = np.asarray(b["deg"], dtype=np.int64)
        return pd.DataFrame({"w": [np.int64((d * (d - 1) // 2).sum())]})

    w = int(deg.map_batches(wedge_partial, batch_format="numpy",
                            batch_size=65536).to_pandas()["w"].sum())
    tri = triangle_count(edges)
    return pd.DataFrame({
        "n_nodes": tri["n_nodes"].astype(np.int64),
        "n_edges": tri["n_edges"].astype(np.int64),
        "n_wedges": [np.int64(w)],
        "n_triangles": tri["n_triangles"].astype(np.int64)})


_Q171_SQL = f"""
WITH {_COPURCH_SQL},
tri AS (
  SELECT count(*) AS t
  FROM e e1
  JOIN e e2 ON e2.u = e1.u AND e2.v > e1.v
  JOIN e e3 ON e3.u = e1.v AND e3.v = e2.v)
SELECT CAST((SELECT COUNT(*) FROM deg) AS BIGINT) AS n_nodes,
       CAST((SELECT COUNT(*) FROM e) AS BIGINT) AS n_edges,
       CAST((SELECT SUM(deg * (deg - 1) // 2) FROM deg)
            AS BIGINT) AS n_wedges,
       CAST(tri.t AS BIGINT) AS n_triangles
FROM tri
"""


def _q172_attribution(sf_dir: str):
    """Last-touch marketing attribution: every 'purchase' event
    attributes to the user's most recent 'click' strictly before it
    and within 7 days (ties on ts -> later event_id); purchases with
    no qualifying click report under hour -1. Output: attributed-
    purchase counts per click hour-of-day. One user-bucket
    all-to-all; inside the bucket the latest-click lookup is a
    per-user vectorized searchsorted, not a pair join."""
    import pandas as pd

    ev = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "event_type"])
    WINDOW = 7 * 86_400_000_000

    def tag(b: dict) -> pd.DataFrame:
        ty = np.asarray(b["event_type"])
        keep = (ty == "click") | (ty == "purchase")
        u = np.asarray(b["user_id"], dtype=np.int64)[keep]
        df = pd.DataFrame({
            "user_id": u,
            "e": np.asarray(b["event_id"], dtype=np.int64)[keep],
            "t": np.asarray(b["ts"]).astype("datetime64[us]")
            .astype(np.int64)[keep],
            "is_click": (ty[keep] == "click")})
        return df

    def attribute(g: pd.DataFrame) -> pd.DataFrame:
        hours = []
        for _, gg in g.groupby("user_id", sort=False):
            gg = gg.sort_values(["t", "e"], kind="mergesort")
            ck = gg[gg["is_click"]]
            pu = gg[~gg["is_click"]]
            if not len(pu):
                continue
            tp = pu["t"].to_numpy(np.int64)
            if len(ck):
                tc = ck["t"].to_numpy(np.int64)
                idx = np.searchsorted(tc, tp, side="left") - 1
                ok = (idx >= 0)
                tcl = np.where(ok, tc[np.maximum(idx, 0)], 0)
                ok &= (tp - tcl) <= WINDOW
                h = np.where(ok, (tcl // 3_600_000_000) % 24, -1)
            else:
                h = np.full(len(tp), -1, dtype=np.int64)
            hours.append(h.astype(np.int64))
        if not hours:
            return pd.DataFrame({"click_hour": pd.Series(
                [], dtype=np.int64), "n_purchases": pd.Series(
                [], dtype=np.int64)})
        out = (pd.DataFrame({"click_hour": np.concatenate(hours)})
               .groupby("click_hour", as_index=False).size()
               .rename(columns={"size": "n_purchases"}))
        return out

    out = (co_partition(ev.map_batches(tag, batch_format="numpy",
                                       batch_size=65536),
                        "user_id", attribute)
           .to_pandas().groupby("click_hour", as_index=False)
           ["n_purchases"].sum())
    for c in ("click_hour", "n_purchases"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("click_hour", ignore_index=True)


_Q172_SQL = """
WITH p AS (
  SELECT event_id, user_id, epoch_us(ts) AS t FROM events
  WHERE event_type = 'purchase'),
c AS (
  SELECT user_id, epoch_us(ts) AS t FROM events
  WHERE event_type = 'click'),
att AS (
  SELECT p.event_id, c.t AS ct,
         ROW_NUMBER() OVER (PARTITION BY p.event_id
                            ORDER BY c.t DESC) AS rn
  FROM p JOIN c ON p.user_id = c.user_id
   AND c.t < p.t AND p.t - c.t <= 604800000000),
best AS (SELECT event_id, ct FROM att WHERE rn = 1),
lab AS (
  SELECT p.event_id,
         CASE WHEN best.ct IS NULL THEN -1
              ELSE best.ct // 3600000000 % 24 END AS click_hour
  FROM p LEFT JOIN best ON p.event_id = best.event_id)
SELECT CAST(click_hour AS BIGINT) AS click_hour,
       CAST(COUNT(*) AS BIGINT) AS n_purchases
FROM lab GROUP BY 1 ORDER BY 1
"""


def _q173_setdist(sf_dir: str):
    """Point-set distances from each user's trajectory to a reference
    facility set (the 20 q147 seeds in milli-degree integer coords):
    chamfer_sum = sum over the user's points of the min squared
    distance to any seed, hausdorff_max = the directed discrete
    Hausdorff distance (max of those mins) — the shape-similarity
    primitives of trajectory retrieval, exact int64 end to end. The
    seed matrix is a module constant inside the kernel ((B, 20)
    vectorized); per-user partials combine via (sum, max) in one
    user-bucket exchange — no pairwise track join."""
    import pandas as pd

    j = np.arange(20, dtype=np.int64)
    sx = j * 61803 % 360000 - 180000
    sy = j * 75487 % 170000 - 85000

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def mins(b: dict) -> pd.DataFrame:
        e = np.asarray(b["event_id"], dtype=np.int64)
        u = np.asarray(b["user_id"], dtype=np.int64)
        t = np.asarray(b["ts"]).astype("datetime64[us]").astype(np.int64)
        bk = t // 259_200_000_000
        # +360000/+170000 before the mod keeps the dividend
        # nonnegative (the jitter can push the base below 0), so
        # numpy's floor-mod and DuckDB's trunc-mod agree
        x = ((u * 2654435761 + bk * 40503) % 100_000_000
             + (e * 7919 % 2001 - 1000)
             + 360000) % 360000 - 180000
        y = ((u * 2246822519 + bk * 65537) % 100_000_000
             + (e * 104729 % 2001 - 1000)
             + 170000) % 170000 - 85000
        d2 = (x[:, None] - sx) ** 2 + (y[:, None] - sy) ** 2
        dmin = d2.min(axis=1)
        g = (pd.DataFrame({"user_id": u, "dmin": dmin})
             .groupby("user_id", as_index=False)
             .agg(n_points=("dmin", "size"),
                  chamfer_sum=("dmin", "sum"),
                  hausdorff_max=("dmin", "max")))
        return g

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("user_id", as_index=False)
               .agg(n_points=("n_points", "sum"),
                    chamfer_sum=("chamfer_sum", "sum"),
                    hausdorff_max=("hausdorff_max", "max")))
        return out

    out = co_partition(ev.map_batches(mins, batch_format="numpy",
                                      batch_size=65536),
                       "user_id", combine).to_pandas()
    for c in ("n_points", "chamfer_sum", "hausdorff_max"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("user_id", ignore_index=True)


_Q173_SQL = """
WITH p AS (
  SELECT user_id, event_id,
         (((user_id * 2654435761
            + (epoch_us(ts) // 259200000000) * 40503) % 100000000
           + (event_id * 7919 % 2001 - 1000))
          + 360000) % 360000 - 180000 AS x,
         (((user_id * 2246822519
            + (epoch_us(ts) // 259200000000) * 65537) % 100000000
           + (event_id * 104729 % 2001 - 1000))
          + 170000) % 170000 - 85000 AS y
  FROM events),
seeds AS (
  SELECT j.j * 61803 % 360000 - 180000 AS sx,
         j.j * 75487 % 170000 - 85000 AS sy
  FROM range(20) j(j)),
m AS (
  SELECT user_id, event_id,
         MIN((x - sx) * (x - sx) + (y - sy) * (y - sy)) AS dmin
  FROM p CROSS JOIN seeds
  GROUP BY user_id, event_id)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_points,
       CAST(SUM(dmin) AS BIGINT) AS chamfer_sum,
       CAST(MAX(dmin) AS BIGINT) AS hausdorff_max
FROM m GROUP BY 1 ORDER BY 1
"""


def _q174_tile_turnover(sf_dir: str):
    """Active-tile turnover: for each consecutive day pair (d, d+1),
    the Jaccard pieces of the two days' ACTIVE zoom-4 tile sets —
    n_inter, n_union (plus each day's set size) as exact integers;
    the churn-rate series of a monitoring pipeline. The distinct
    (day, tile) reduction runs as per-block partials into one
    bucket dedup (<= 256 x days rows total); the day-pair fold is a
    bounded driver pass over that tiny set."""
    import pandas as pd

    from proj_ray.stages import with_tiles

    ev = _read(sf_dir, "events", columns=["event_id", "ts"])

    def tag(b: dict) -> dict:
        i = np.asarray(b["event_id"], dtype=np.int64)
        lon, lat = _geotag(i)
        return {"day": (np.asarray(b["ts"]).astype("datetime64[us]")
                        .astype(np.int64) // 86_400_000_000),
                "lon": lon, "lat": lat}

    def distinct(b: dict) -> pd.DataFrame:
        return (pd.DataFrame({"day": b["day"], "tx": b["tile_x"],
                              "ty": b["tile_y"]})
                .drop_duplicates())

    cells = (with_tiles(ev.map_batches(tag, batch_format="numpy",
                                       batch_size=65536), zoom=4)
             .map_batches(distinct, batch_format="numpy",
                          batch_size=65536)
             .to_pandas().drop_duplicates())
    days = np.sort(cells["day"].unique())
    sets = {int(d): set(map(tuple, cells[cells["day"] == d]
                            [["tx", "ty"]].to_numpy()))
            for d in days}
    rows = []
    for d in days[:-1]:
        if int(d) + 1 not in sets:
            continue
        a, b = sets[int(d)], sets[int(d) + 1]
        rows.append((int(d), len(a), len(b), len(a & b), len(a | b)))
    return pd.DataFrame(rows, columns=["day", "n_day", "n_next",
                                       "n_inter", "n_union"]) \
        .astype(np.int64)


_Q174_SQL = """
WITH e AS (
  SELECT epoch_us(ts) // 86400000000 AS day,
         (event_id * 61803 % 360000) / 1000.0 - 180.0 AS lon,
         (event_id * 75487 % 170000) / 1000.0 - 85.0 AS lat
  FROM events),
t AS (
  SELECT DISTINCT day,
    CAST(LEAST(GREATEST(floor(
        (radians(lon) * 6378137.0 + pi() * 6378137.0)
        / (2 * pi() * 6378137.0) * 16), 0), 15) AS BIGINT) AS tx,
    CAST(LEAST(GREATEST(floor(
        (pi() * 6378137.0 - 6378137.0
           * ln(tan(pi()/4 + radians(lat)/2)))
        / (2 * pi() * 6378137.0) * 16), 0), 15) AS BIGINT) AS ty
  FROM e),
d AS (SELECT DISTINCT day FROM t),
pairs AS (
  SELECT a.day FROM d a JOIN d b ON b.day = a.day + 1)
SELECT CAST(p.day AS BIGINT) AS day,
       CAST((SELECT COUNT(*) FROM t WHERE t.day = p.day)
            AS BIGINT) AS n_day,
       CAST((SELECT COUNT(*) FROM t WHERE t.day = p.day + 1)
            AS BIGINT) AS n_next,
       CAST((SELECT COUNT(*) FROM t a JOIN t b
             ON a.tx = b.tx AND a.ty = b.ty
            AND a.day = p.day AND b.day = p.day + 1)
            AS BIGINT) AS n_inter,
       CAST((SELECT COUNT(*) FROM
             (SELECT tx, ty FROM t WHERE day = p.day
              UNION
              SELECT tx, ty FROM t WHERE day = p.day + 1))
            AS BIGINT) AS n_union
FROM pairs p ORDER BY 1
"""


def _q175_assoc_rules(sf_dir: str):
    """Market-basket association rules: the global top-25 part pairs
    by basket co-occurrence support (ties -> lexicographic pair),
    each with its endpoints' individual basket counts — the exact
    integer pieces of confidence(a=>b) = support/a_n and lift. The
    pair expansion reuses the per-order co-partition machinery
    (functions/graph.py _pair_expand) but COUNTS duplicate pairs
    (support), pruned per pair bucket to the top 25 before a
    bounded driver merge; the per-part basket counts for the <= 50
    surviving parts come from one distinct-reduced count pass."""
    import pandas as pd

    from proj_ray.functions.graph import _pair_expand

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def tag(b: dict) -> dict:
        return {"o": np.asarray(b["l_orderkey"], dtype=np.int64),
                "p": np.asarray(b["l_partkey"], dtype=np.int64)}

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(subset=["o", "p"])
        o = d["o"].to_numpy(np.int64)
        p = d["p"].to_numpy(np.int64)
        idx = np.lexsort((p, o))
        a, b2 = _pair_expand(o[idx], p[idx])
        return (pd.DataFrame({"u": a, "v": b2})
                .groupby(["u", "v"], as_index=False).size()
                .rename(columns={"size": "support"}))

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["u", "v"], as_index=False)["support"].sum()
        out = out.sort_values(["support", "u", "v"],
                              ascending=[False, True, True],
                              kind="mergesort").head(25)
        out["support"] = out["support"].astype(np.int64)
        return out

    cand = co_partition(
        co_partition(li.map_batches(tag, batch_format="numpy"), "o",
                     pairs),
        ["u", "v"], topk).to_pandas()
    top = (cand.sort_values(["support", "u", "v"],
                            ascending=[False, True, True],
                            kind="mergesort").head(25)
           .reset_index(drop=True))

    # basket counts for the surviving parts: distinct-reduced partials
    need = np.unique(np.concatenate([top["u"].to_numpy(np.int64),
                                     top["v"].to_numpy(np.int64)]))

    def part_counts(b: dict) -> pd.DataFrame:
        df = (pd.DataFrame({"o": b["l_orderkey"], "p": b["l_partkey"]})
              .drop_duplicates())
        df = df[df["p"].isin(need)]
        g = df.groupby("p", as_index=False).size() \
              .rename(columns={"size": "n"})
        return g

    pc = (li.map_batches(part_counts, batch_format="numpy",
                         batch_size=65536)
          .to_pandas().groupby("p", as_index=False)["n"].sum())
    cnt = dict(zip(pc["p"].astype(np.int64), pc["n"].astype(np.int64)))
    top["a_n"] = top["u"].map(cnt).astype(np.int64)
    top["b_n"] = top["v"].map(cnt).astype(np.int64)
    for c in ("u", "v", "support"):
        top[c] = top[c].astype(np.int64)
    return top[["u", "v", "support", "a_n", "b_n"]]


_Q175_SQL = """
WITH pp AS (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
pairs AS (
  SELECT a.p AS u, b.p AS v, CAST(COUNT(*) AS BIGINT) AS support
  FROM pp a JOIN pp b ON a.o = b.o AND a.p < b.p
  GROUP BY 1, 2),
top AS (
  SELECT u, v, support FROM pairs
  ORDER BY support DESC, u, v LIMIT 25),
pc AS (SELECT p, CAST(COUNT(*) AS BIGINT) AS n FROM pp GROUP BY 1)
SELECT top.u, top.v, top.support, a.n AS a_n, b.n AS b_n
FROM top JOIN pc a ON top.u = a.p JOIN pc b ON top.v = b.p
ORDER BY support DESC, u, v
"""


def _q176_haar_energy(sf_dir: str):
    """Level-1 Haar wavelet energy signature per image format: each
    decoded luma plane (2r+3g+b; every fixture dimension is even)
    folds into 2x2 blocks whose four UNNORMALIZED Haar coefficients
    ll = a+b+c+d, lh = a-b+c-d, hl = a+b-c-d, hh = a-b-c+d are exact
    integers; the per-subband energy sums (sum of coeff^2) separate
    smooth content from horizontal/vertical/diagonal detail — the
    texture-vs-flat compressibility signature. One 5-counter row per
    image crosses the shuffle; the oracle regenerates pixels + codec
    quantization and mirrors the block fold with y//2, x//2 sign
    aggregation."""
    from proj_ray.images import decode, images_table

    n = _read(sf_dir, "documents").count()

    def energy(b: dict) -> dict:
        cnt = len(b["image_id"])
        out = {k: np.empty(cnt, dtype=np.int64)
               for k in ("e_ll", "e_lh", "e_hl", "e_hh")}
        for k in range(cnt):
            px = decode(b["bytes"][k], b["fmt"][k]).astype(np.int64)
            lum = 2 * px[..., 0] + 3 * px[..., 1] + px[..., 2]
            a = lum[0::2, 0::2]
            bq = lum[0::2, 1::2]
            c = lum[1::2, 0::2]
            d = lum[1::2, 1::2]
            ll = a + bq + c + d
            lh = a - bq + c - d
            hl = a + bq - c - d
            hh = a - bq - c + d
            out["e_ll"][k] = int((ll * ll).sum())
            out["e_lh"][k] = int((lh * lh).sum())
            out["e_hl"][k] = int((hl * hl).sum())
            out["e_hh"][k] = int((hh * hh).sum())
        out["fmt"] = np.asarray(b["fmt"])
        out["one"] = np.ones(cnt, np.int64)
        return out

    per = images_table(
        n, columns=["image_id", "bytes", "fmt"]).map_batches(
        energy, batch_format="numpy", batch_size=256)
    cols = ["e_ll", "e_lh", "e_hl", "e_hh"]
    return pull_pandas(bucketed_sum(per, "fmt", ["one", *cols],
                                    ["n_images", *cols]))


_Q176_SQL = """
WITH seq AS (SELECT ROW_NUMBER() OVER () - 1 AS i FROM documents),
img AS (SELECT i, CASE WHEN i > 0 AND i % 97 = 0 THEN i - 1 ELSE i END
               AS src FROM seq),
dim AS (SELECT i, src, src % 3 AS f,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 32 ELSE 64 END AS w,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 24 ELSE 48 END AS h
        FROM img),
px AS (SELECT i, src, f, y.y AS y, x.x AS x
       FROM dim CROSS JOIN range(48) y(y) CROSS JOIN range(64) x(x)
       WHERE y.y < h AND x.x < w),
raw AS (SELECT i, f, y, x,
               (src*37 + y*11 + x*7) % 256 AS r,
               (src*53 + y*5 + x*13) % 256 AS g,
               (src*97 + (y+x)*3) % 256 AS b
        FROM px),
lm AS (SELECT i, f, y, x,
              2*(CASE WHEN f = 1 THEN (r//4)*4+2 ELSE r END)
            + 3*(CASE WHEN f = 1 THEN (g//4)*4+2 ELSE g END)
            +   (CASE WHEN f = 1 THEN (b//4)*4+2 ELSE b END) AS lum
       FROM raw),
blk AS (
  SELECT i, f, y // 2 AS by_, x // 2 AS bx,
         SUM(lum) AS ll,
         SUM(lum * (CASE WHEN x % 2 = 0 THEN 1 ELSE -1 END)) AS lh,
         SUM(lum * (CASE WHEN y % 2 = 0 THEN 1 ELSE -1 END)) AS hl,
         SUM(lum * (CASE WHEN (x + y) % 2 = 0 THEN 1 ELSE -1 END))
           AS hh
  FROM lm GROUP BY 1, 2, 3, 4),
pi AS (SELECT i, f, SUM(ll*ll) AS e_ll, SUM(lh*lh) AS e_lh,
              SUM(hl*hl) AS e_hl, SUM(hh*hh) AS e_hh
       FROM blk GROUP BY 1, 2)
SELECT CASE f WHEN 0 THEN 'png' WHEN 1 THEN 'qjpg' ELSE 'bmp' END
         AS fmt,
       CAST(COUNT(*) AS BIGINT) AS n_images,
       CAST(SUM(e_ll) AS BIGINT) AS e_ll,
       CAST(SUM(e_lh) AS BIGINT) AS e_lh,
       CAST(SUM(e_hl) AS BIGINT) AS e_hl,
       CAST(SUM(e_hh) AS BIGINT) AS e_hh
FROM pi GROUP BY 1 ORDER BY 1
"""


def _q177_rle_runs(sf_dir: str):
    """Run-length compressibility audit: each decoded image
    thresholds to a binary mask (lum > 765 = half the 6x255 luma
    range) and the number of horizontal RLE runs = per-row
    transitions + rows, plus the set-pixel count — exact integers
    predicting mask compressibility, summed per format. The oracle
    counts transitions by joining x with x+1 on the regenerated
    pixels."""
    from proj_ray.images import decode, images_table

    n = _read(sf_dir, "documents").count()

    def runs(b: dict) -> dict:
        cnt = len(b["image_id"])
        n_runs = np.empty(cnt, dtype=np.int64)
        n_set = np.empty(cnt, dtype=np.int64)
        for k in range(cnt):
            px = decode(b["bytes"][k], b["fmt"][k]).astype(np.int64)
            m = (2 * px[..., 0] + 3 * px[..., 1]
                 + px[..., 2]) > 765
            trans = int((m[:, 1:] != m[:, :-1]).sum())
            n_runs[k] = trans + m.shape[0]
            n_set[k] = int(m.sum())
        return {"fmt": np.asarray(b["fmt"]), "one": np.ones(cnt, np.int64),
                "n_runs": n_runs, "n_set": n_set}

    per = images_table(
        n, columns=["image_id", "bytes", "fmt"]).map_batches(
        runs, batch_format="numpy", batch_size=256)
    return pull_pandas(bucketed_sum(per, "fmt", ["one", "n_runs", "n_set"],
                                    ["n_images", "n_runs", "n_set"]))


_Q177_SQL = """
WITH seq AS (SELECT ROW_NUMBER() OVER () - 1 AS i FROM documents),
img AS (SELECT i, CASE WHEN i > 0 AND i % 97 = 0 THEN i - 1 ELSE i END
               AS src FROM seq),
dim AS (SELECT i, src, src % 3 AS f,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 32 ELSE 64 END AS w,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 24 ELSE 48 END AS h
        FROM img),
px AS (SELECT i, src, f, h, y.y AS y, x.x AS x
       FROM dim CROSS JOIN range(48) y(y) CROSS JOIN range(64) x(x)
       WHERE y.y < h AND x.x < w),
raw AS (SELECT i, f, h, y, x,
               (src*37 + y*11 + x*7) % 256 AS r,
               (src*53 + y*5 + x*13) % 256 AS g,
               (src*97 + (y+x)*3) % 256 AS b
        FROM px),
msk AS (SELECT i, f, h, y, x,
               CASE WHEN 2*(CASE WHEN f = 1 THEN (r//4)*4+2 ELSE r END)
                       + 3*(CASE WHEN f = 1 THEN (g//4)*4+2 ELSE g END)
                       +   (CASE WHEN f = 1 THEN (b//4)*4+2 ELSE b END)
                       > 765 THEN 1 ELSE 0 END AS m
        FROM raw),
tr AS (SELECT a.i, a.f,
              CAST(COUNT(*) FILTER (a.m <> b.m) AS BIGINT) AS trans
       FROM msk a JOIN msk b
         ON a.i = b.i AND a.y = b.y AND b.x = a.x + 1
       GROUP BY 1, 2),
st AS (SELECT i, f, h, CAST(SUM(m) AS BIGINT) AS n_set
       FROM msk GROUP BY 1, 2, 3)
SELECT CASE st.f WHEN 0 THEN 'png' WHEN 1 THEN 'qjpg' ELSE 'bmp' END
         AS fmt,
       CAST(COUNT(*) AS BIGINT) AS n_images,
       CAST(SUM(tr.trans + st.h) AS BIGINT) AS n_runs,
       CAST(SUM(st.n_set) AS BIGINT) AS n_set
FROM st JOIN tr ON st.i = tr.i
GROUP BY 1 ORDER BY 1
"""


def _q178_outliers(sf_dir: str):
    """Exact grouped z-score outlier counts over event values: per
    event type, how many events satisfy (x - mean)^2 > 9 * variance
    (|z| > 3) — WITHOUT floats anywhere. Pass 1 accumulates exact
    (n, S = sum qx, Q = sum qx^2) per type on milli-quantized values;
    the flag (n*qx - S)^2 > 9*(n*Q - S^2) would overflow int64, so
    the driver turns it into |n*qx - S| > t with t = isqrt(9*(n*Q -
    S^2)) in arbitrary-precision Python (exact: |d| > t <=> d^2 >
    t^2 >= threshold), and pass 2 broadcasts the tiny (type, n, S,
    t) table and counts with one int64 comparison per row. The SQL
    oracle does the same predicate in HUGEINT."""
    import math

    import pandas as pd
    import ray

    ev = _read(sf_dir, "events", columns=["event_type", "value"])

    def stats(b: dict) -> pd.DataFrame:
        q = _milli(b["value"], 1000)
        g = (pd.DataFrame({"event_type": np.asarray(b["event_type"]),
                           "n": np.ones(len(q), np.int64),
                           "s": q, "q2": q * q})
             .groupby("event_type", as_index=False).sum())
        return g

    st = (ev.map_batches(stats, batch_format="numpy",
                         batch_size=65536)
          .to_pandas().groupby("event_type", as_index=False).sum())
    st["t"] = [int(math.isqrt(9 * (int(n) * int(q2) - int(s) ** 2)))
               for n, s, q2 in zip(st["n"], st["s"], st["q2"])]
    ref = ray.put({r["event_type"]: (int(r["n"]), int(r["s"]),
                                     int(r["t"]))
                   for _, r in st.iterrows()})

    def flag(b: dict) -> pd.DataFrame:
        tab = ray.get(ref)
        ty = np.asarray(b["event_type"])
        q = _milli(b["value"], 1000)
        out = np.zeros(len(q), dtype=np.int64)
        for t, (n, s, thr) in tab.items():
            m = ty == t
            d = n * q[m] - s
            out[m] = (np.abs(d) > thr)
        g = (pd.DataFrame({"event_type": ty, "n_outliers": out,
                           "n_events": np.ones(len(q), np.int64)})
             .groupby("event_type", as_index=False).sum())
        return g

    out = (ev.map_batches(flag, batch_format="numpy",
                          batch_size=65536)
           .to_pandas().groupby("event_type", as_index=False).sum())
    for c in ("n_outliers", "n_events"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("event_type",
                           ignore_index=True)[["event_type",
                                               "n_events",
                                               "n_outliers"]]


_Q178_SQL = """
WITH q AS (
  SELECT event_type,
         CAST(round(value * 1000) AS BIGINT) AS x
  FROM events),
st AS (
  SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(x) AS BIGINT) AS s,
         CAST(SUM(CAST(x AS HUGEINT) * x) AS HUGEINT) AS q2
  FROM q GROUP BY 1)
SELECT q.event_type,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(COUNT(*) FILTER (
         CAST(st.n AS HUGEINT) * q.x - st.s IS NOT NULL AND
         (CAST(st.n AS HUGEINT) * q.x - st.s)
           * (CAST(st.n AS HUGEINT) * q.x - st.s)
           > 9 * (st.n * st.q2 - CAST(st.s AS HUGEINT) * st.s))
            AS BIGINT) AS n_outliers
FROM q JOIN st ON q.event_type = st.event_type
GROUP BY 1 ORDER BY 1
"""


def _q179_ewma_bursts(sf_dir: str):
    """EWMA control chart over per-type daily event counts: the
    fixed-point recurrence ewma_d = (3 * x_d * 1000 + 7 *
    ewma_{d-1}) // 10 (alpha = 0.3, scale 1000, seeded with the
    first day's count) flags burst days where 10 * x_d * 1000 >
    15 * ewma_{d-1} (count > 1.5x the smoothed level) — the
    streaming anomaly gate of an ops pipeline, bit-reproducible
    because every step is integer. The distributed work is the
    (type, day) count pass (bounded partials); the <= 31-step
    sequential fold per type runs on the driver, mirrored by a
    recursive-CTE oracle over day ranks."""
    import pandas as pd

    ev = _read(sf_dir, "events", columns=["event_type", "ts"])

    def partial(b: dict) -> pd.DataFrame:
        g = (pd.DataFrame({
            "event_type": np.asarray(b["event_type"]),
            "day": (np.asarray(b["ts"]).astype("datetime64[us]")
                    .astype(np.int64) // 86_400_000_000)})
            .groupby(["event_type", "day"], as_index=False).size()
            .rename(columns={"size": "n"}))
        return g

    dc = (ev.map_batches(partial, batch_format="numpy",
                         batch_size=65536)
          .to_pandas()
          .groupby(["event_type", "day"], as_index=False)["n"].sum())
    rows = []
    for ty, g in dc.groupby("event_type", sort=True):
        g = g.sort_values("day")
        x = g["n"].to_numpy(np.int64)
        ewma = int(x[0]) * 1000
        bursts = 0
        for v in x[1:]:
            if 10 * int(v) * 1000 > 15 * ewma:
                bursts += 1
            ewma = (3 * int(v) * 1000 + 7 * ewma) // 10
        rows.append((ty, len(x), bursts, ewma))
    return pd.DataFrame(rows, columns=["event_type", "n_days",
                                       "n_bursts", "ewma_final"]) \
        .astype({"n_days": np.int64, "n_bursts": np.int64,
                 "ewma_final": np.int64})


_Q179_SQL = """
WITH RECURSIVE dc AS (
  SELECT event_type, epoch_us(ts) // 86400000000 AS day,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2),
r AS (
  SELECT event_type, day, n,
         ROW_NUMBER() OVER (PARTITION BY event_type
                            ORDER BY day) AS rk
  FROM dc),
walk(event_type, rk, ewma, bursts) AS (
  SELECT event_type, rk, n * 1000, CAST(0 AS BIGINT)
  FROM r WHERE rk = 1
  UNION ALL
  SELECT r.event_type, r.rk,
         (3 * r.n * 1000 + 7 * w.ewma) // 10,
         w.bursts + CASE WHEN 10 * r.n * 1000 > 15 * w.ewma
                         THEN 1 ELSE 0 END
  FROM walk w JOIN r ON r.event_type = w.event_type
   AND r.rk = w.rk + 1)
SELECT w.event_type, CAST(w.rk AS BIGINT) AS n_days,
       CAST(w.bursts AS BIGINT) AS n_bursts,
       CAST(w.ewma AS BIGINT) AS ewma_final
FROM walk w
QUALIFY ROW_NUMBER() OVER (PARTITION BY w.event_type
                           ORDER BY w.rk DESC) = 1
ORDER BY 1
"""


def _q180_user_extents(sf_dir: str):
    """Per-user spatial envelope (MBR): min/max of the integer
    trajectory coordinates plus the exact envelope area — the
    bounding-box statistics a spatial index bulk-load partitions by.
    Pure (min, max) partial aggregation: per-block partials into one
    user groupby; nothing else crosses the wire."""
    import pandas as pd

    from ray.data.aggregate import Count, Max, Min

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def pos(b: dict) -> dict:
        e = np.asarray(b["event_id"], dtype=np.int64)
        u = np.asarray(b["user_id"], dtype=np.int64)
        t = np.asarray(b["ts"]).astype("datetime64[us]").astype(np.int64)
        bk = t // 259_200_000_000
        return {"user_id": u,
                "x": (u * 2654435761 + bk * 40503) % 100_000_000
                + (e * 7919 % 2001 - 1000),
                "y": (u * 2246822519 + bk * 65537) % 100_000_000
                + (e * 104729 % 2001 - 1000)}

    out = (ev.map_batches(pos, batch_format="numpy",
                          batch_size=65536)
           .groupby("user_id")
           .aggregate(Count(alias_name="n_points"),
                      Min("x", alias_name="x_min"),
                      Max("x", alias_name="x_max"),
                      Min("y", alias_name="y_min"),
                      Max("y", alias_name="y_max"))
           .to_pandas())
    out["area"] = ((out["x_max"] - out["x_min"])
                   * (out["y_max"] - out["y_min"])).astype(np.int64)
    for c in ("n_points", "x_min", "x_max", "y_min", "y_max"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("user_id", ignore_index=True)


_Q180_SQL = """
WITH p AS (
  SELECT user_id,
         (user_id * 2654435761
          + (epoch_us(ts) // 259200000000) * 40503) % 100000000
           + (event_id * 7919 % 2001 - 1000) AS x,
         (user_id * 2246822519
          + (epoch_us(ts) // 259200000000) * 65537) % 100000000
           + (event_id * 104729 % 2001 - 1000) AS y
  FROM events)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_points,
       CAST(MIN(x) AS BIGINT) AS x_min, CAST(MAX(x) AS BIGINT) AS x_max,
       CAST(MIN(y) AS BIGINT) AS y_min, CAST(MAX(y) AS BIGINT) AS y_max,
       CAST((MAX(x) - MIN(x)) * (MAX(y) - MIN(y)) AS BIGINT) AS area
FROM p GROUP BY 1 ORDER BY 1
"""


def _q181_hhi(sf_dir: str):
    """Herfindahl-Hirschman concentration of sources per zoom-3 tile:
    with c_s the count of source s in the tile, report n_total and
    sum_sq = sum of c_s^2 — HHI = sum_sq / n_total^2 is one driver
    division away, and the undivided integer pieces are SQL-exact.
    The diversity screen of a data-mixing pipeline, one bounded
    two-key groupby."""
    import pandas as pd

    from proj_ray.stages import with_tiles

    docs = _read(sf_dir, "documents", columns=["doc_id", "source"])

    def add_geo(b: dict) -> dict:
        i = np.asarray(b["doc_id"], dtype=np.int64)
        lon, lat = _geotag(i)
        return {"source": np.asarray(b["source"]),
                "lon": lon, "lat": lat}

    def partial(b: dict) -> pd.DataFrame:
        return (pd.DataFrame({"tx": b["tile_x"], "ty": b["tile_y"],
                              "source": b["source"]})
                .groupby(["tx", "ty", "source"], as_index=False)
                .size().rename(columns={"size": "c"}))

    sc = (with_tiles(docs.map_batches(add_geo, batch_format="numpy",
                                      batch_size=65536), zoom=3)
          .map_batches(partial, batch_format="pandas",
                       batch_size=65536)
          .to_pandas()
          .groupby(["tx", "ty", "source"], as_index=False)["c"].sum())
    out = (sc.assign(c2=sc["c"] ** 2)
           .groupby(["tx", "ty"], as_index=False)
           .agg(n_total=("c", "sum"), sum_sq=("c2", "sum")))
    for c in ("tx", "ty", "n_total", "sum_sq"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values(["tx", "ty"], ignore_index=True)


_Q181_SQL = f"""
WITH geo AS ({_GEO_SQL}),
t AS (
  SELECT d.source,
    CAST(LEAST(GREATEST(floor(
        (radians(g.lon) * 6378137.0 + pi() * 6378137.0)
        / (2 * pi() * 6378137.0) * 8), 0), 7) AS BIGINT) AS tx,
    CAST(LEAST(GREATEST(floor(
        (pi() * 6378137.0 - 6378137.0
           * ln(tan(pi()/4 + radians(g.lat)/2)))
        / (2 * pi() * 6378137.0) * 8), 0), 7) AS BIGINT) AS ty
  FROM geo g JOIN documents d ON g.doc_id = d.doc_id),
c AS (SELECT tx, ty, source, CAST(COUNT(*) AS BIGINT) AS c
      FROM t GROUP BY 1, 2, 3)
SELECT tx, ty, CAST(SUM(c) AS BIGINT) AS n_total,
       CAST(SUM(c * c) AS BIGINT) AS sum_sq
FROM c GROUP BY 1, 2 ORDER BY 1, 2
"""


def _q182_covisits(sf_dir: str):
    """Contact-graph mining: the top-25 user pairs by co-visitation
    count — the number of (zoom-4 tile, day) space-time cells where
    BOTH users were present (each cell counts once per pair). The
    distinct (cell, user) reduction runs as per-block partials; the
    per-cell pair expansion reuses the vectorized wedge generator
    (functions/graph.py _pair_expand) inside one cell-bucket
    exchange; pair counts prune to 25 per pair-hash bucket before a
    bounded driver merge."""
    import pandas as pd

    from proj_ray.functions.graph import _pair_expand

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def tag(b: dict) -> dict:
        i = np.asarray(b["event_id"], dtype=np.int64)
        t = np.asarray(b["ts"]).astype("datetime64[us]").astype(np.int64)
        lon, lat = _geotag(i)
        return {"user_id": np.asarray(b["user_id"], dtype=np.int64),
                "day": t // 86_400_000_000,
                "lon": lon, "lat": lat}

    def distinct(b: dict) -> pd.DataFrame:
        df = (pd.DataFrame({"tx": b["tile_x"], "ty": b["tile_y"],
                            "day": b["day"],
                            "user_id": b["user_id"]})
              .drop_duplicates())
        df["cell"] = ((df["tx"].to_numpy(np.int64) * 16
                       + df["ty"].to_numpy(np.int64)) * 1_000_000
                      + df["day"].to_numpy(np.int64) % 1_000_000)
        return df[["cell", "user_id"]]

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(subset=["cell", "user_id"])
        c = d["cell"].to_numpy(np.int64)
        u = d["user_id"].to_numpy(np.int64)
        idx = np.lexsort((u, c))
        a, b2 = _pair_expand(c[idx], u[idx])
        return (pd.DataFrame({"u_a": a, "u_b": b2})
                .groupby(["u_a", "u_b"], as_index=False).size()
                .rename(columns={"size": "n_cells"}))

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["u_a", "u_b"], as_index=False)["n_cells"].sum()
        out = out.sort_values(["n_cells", "u_a", "u_b"],
                              ascending=[False, True, True],
                              kind="mergesort").head(25)
        out["n_cells"] = out["n_cells"].astype(np.int64)
        return out

    from proj_ray.stages import with_tiles

    cells = (with_tiles(ev.map_batches(tag, batch_format="numpy",
                                       batch_size=65536), zoom=4)
             .map_batches(distinct, batch_format="numpy",
                          batch_size=65536))
    cand = co_partition(co_partition(cells, "cell", pairs),
                        ["u_a", "u_b"], topk).to_pandas()
    if cand.empty:
        cand = pd.DataFrame({"u_a": pd.Series([], dtype=np.int64),
                             "u_b": pd.Series([], dtype=np.int64),
                             "n_cells": pd.Series([],
                                                  dtype=np.int64)})
    out = (cand.sort_values(["n_cells", "u_a", "u_b"],
                            ascending=[False, True, True],
                            kind="mergesort").head(25)
           .reset_index(drop=True))
    for c in ("u_a", "u_b", "n_cells"):
        out[c] = out[c].astype(np.int64)
    return out


_Q182_SQL = """
WITH e AS (
  SELECT user_id, epoch_us(ts) // 86400000000 AS day,
         (event_id * 61803 % 360000) / 1000.0 - 180.0 AS lon,
         (event_id * 75487 % 170000) / 1000.0 - 85.0 AS lat
  FROM events),
t AS (
  SELECT DISTINCT user_id, day,
    CAST(LEAST(GREATEST(floor(
        (radians(lon) * 6378137.0 + pi() * 6378137.0)
        / (2 * pi() * 6378137.0) * 16), 0), 15) AS BIGINT) AS tx,
    CAST(LEAST(GREATEST(floor(
        (pi() * 6378137.0 - 6378137.0
           * ln(tan(pi()/4 + radians(lat)/2)))
        / (2 * pi() * 6378137.0) * 16), 0), 15) AS BIGINT) AS ty
  FROM e)
SELECT a.user_id AS u_a, b.user_id AS u_b,
       CAST(COUNT(*) AS BIGINT) AS n_cells
FROM t a JOIN t b
  ON a.tx = b.tx AND a.ty = b.ty AND a.day = b.day
 AND a.user_id < b.user_id
GROUP BY 1, 2
ORDER BY n_cells DESC, u_a, u_b LIMIT 25
"""


def _q183_adoption(sf_dir: str):
    """Cumulative adoption curve: per day, the number of users whose
    FIRST event falls on that day and the running total of users
    seen so far — the q156 first-occurrence identity applied to
    users over time. One per-user min-day pass (per-block partial
    mins, user-bucket combine); the <= #days cumulative fold runs on
    the driver. Window-SQL-exact."""
    import pandas as pd

    ev = _read(sf_dir, "events", columns=["user_id", "ts"])

    def partial(b: dict) -> pd.DataFrame:
        g = (pd.DataFrame({
            "user_id": np.asarray(b["user_id"], dtype=np.int64),
            "day": (np.asarray(b["ts"]).astype("datetime64[us]")
                    .astype(np.int64) // 86_400_000_000)})
            .groupby("user_id", as_index=False)["day"].min())
        return g

    def umin(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("user_id", as_index=False)["day"].min()
        out["day"] = out["day"].astype(np.int64)
        return out

    fst = co_partition(ev.map_batches(partial, batch_format="numpy",
                                      batch_size=65536),
                       "user_id", umin).to_pandas()
    per_day = (fst.groupby("day", as_index=False).size()
               .rename(columns={"size": "n_new_users"})
               .sort_values("day", ignore_index=True))
    per_day["n_cum"] = per_day["n_new_users"].cumsum()
    for c in ("day", "n_new_users", "n_cum"):
        per_day[c] = per_day[c].astype(np.int64)
    return per_day


_Q183_SQL = """
WITH f AS (
  SELECT user_id, MIN(epoch_us(ts) // 86400000000) AS day
  FROM events GROUP BY 1),
d AS (SELECT day, CAST(COUNT(*) AS BIGINT) AS n_new_users
      FROM f GROUP BY 1)
SELECT CAST(day AS BIGINT) AS day, n_new_users,
       CAST(SUM(n_new_users) OVER (ORDER BY day) AS BIGINT) AS n_cum
FROM d ORDER BY 1
"""


def _q184_orientation_tensor(sf_dir: str):
    """Movement-anisotropy structure tensor per user: the exact
    integer second moments of consecutive trajectory displacements —
    sxx = sum dx^2, sxy = sum dx*dy, syy = sum dy^2 (ordered by ts
    then event_id) — whose eigen-decomposition (a driver-side 2x2)
    gives the principal movement direction and anisotropy ratio; the
    directional-bias complement of q157's octant histogram. One
    user-bucket all-to-all, vectorized diff inside the bucket."""
    import pandas as pd

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def pos(b: dict) -> dict:
        e = np.asarray(b["event_id"], dtype=np.int64)
        u = np.asarray(b["user_id"], dtype=np.int64)
        t = np.asarray(b["ts"]).astype("datetime64[us]").astype(np.int64)
        bk = t // 259_200_000_000
        return {"user_id": u, "t": t, "e": e,
                "x": (u * 2654435761 + bk * 40503) % 100_000_000
                + (e * 7919 % 2001 - 1000),
                "y": (u * 2246822519 + bk * 65537) % 100_000_000
                + (e * 104729 % 2001 - 1000)}

    def tensor(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "t", "e"], kind="mergesort")
        u = g["user_id"].to_numpy(np.int64)
        x = g["x"].to_numpy(np.int64)
        y = g["y"].to_numpy(np.int64)
        same = u[1:] == u[:-1]
        dx = (x[1:] - x[:-1])[same]
        dy = (y[1:] - y[:-1])[same]
        uu = u[1:][same]
        out = (pd.DataFrame({"user_id": uu,
                             "n_steps": np.ones(len(uu), np.int64),
                             "sxx": dx * dx, "sxy": dx * dy,
                             "syy": dy * dy})
               .groupby("user_id", as_index=False).sum())
        return out

    out = co_partition(ev.map_batches(pos, batch_format="numpy",
                                      batch_size=65536),
                       "user_id", tensor).to_pandas()
    for c in ("n_steps", "sxx", "sxy", "syy"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("user_id", ignore_index=True)


_Q184_SQL = """
WITH p AS (
  SELECT user_id, ts, event_id,
         (user_id * 2654435761
          + (epoch_us(ts) // 259200000000) * 40503) % 100000000
           + (event_id * 7919 % 2001 - 1000) AS x,
         (user_id * 2246822519
          + (epoch_us(ts) // 259200000000) * 65537) % 100000000
           + (event_id * 104729 % 2001 - 1000) AS y
  FROM events),
d AS (
  SELECT user_id,
         x - LAG(x) OVER (PARTITION BY user_id
                          ORDER BY ts, event_id) AS dx,
         y - LAG(y) OVER (PARTITION BY user_id
                          ORDER BY ts, event_id) AS dy
  FROM p)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_steps,
       CAST(SUM(dx * dx) AS BIGINT) AS sxx,
       CAST(SUM(dx * dy) AS BIGINT) AS sxy,
       CAST(SUM(dy * dy) AS BIGINT) AS syy
FROM d WHERE dx IS NOT NULL
GROUP BY 1 ORDER BY 1
"""


def _q185_percolation(sf_dir: str):
    """Percolation structure of the OCCUPIED zoom-4 tiles: connected
    components under rook adjacency — n_clusters and the largest
    cluster's tile count, the geospatial percolation diagnostic
    (does the corpus footprint form one connected landmass?). The
    data pass is the distributed tile count; the component labeling
    runs on <= 256 lattice cells driver-side (vectorized min-label
    sweeps to fixpoint). The oracle mirrors with a bounded-iteration
    recursive min-label CTE over the occupied-tile adjacency."""
    import pandas as pd

    counts = pull_pandas(_tile_counts(sf_dir, 4))
    occ = np.zeros((16, 16), dtype=bool)
    occ[counts["tile_x"].to_numpy(np.int64),
        counts["tile_y"].to_numpy(np.int64)] = True
    lab = np.where(occ, np.arange(256).reshape(16, 16), 10_000)
    while True:
        new = lab.copy()
        new[1:, :] = np.minimum(new[1:, :], lab[:-1, :])
        new[:-1, :] = np.minimum(new[:-1, :], lab[1:, :])
        new[:, 1:] = np.minimum(new[:, 1:], lab[:, :-1])
        new[:, :-1] = np.minimum(new[:, :-1], lab[:, 1:])
        new = np.where(occ, new, 10_000)
        if (new == lab).all():
            break
        lab = new
    labs = lab[occ]
    _, sizes = np.unique(labs, return_counts=True)
    return pd.DataFrame({
        "n_occupied": [np.int64(occ.sum())],
        "n_clusters": [np.int64(len(sizes))],
        "max_cluster": [np.int64(sizes.max() if len(sizes) else 0)]})


_Q185_SQL = f"""
WITH RECURSIVE geo AS ({_GEO_SQL}),
t AS (
  SELECT
    CAST(LEAST(GREATEST(floor(
        (radians(lon) * 6378137.0 + pi() * 6378137.0)
        / (2 * pi() * 6378137.0) * 16), 0), 15) AS BIGINT) AS tx,
    CAST(LEAST(GREATEST(floor(
        (pi() * 6378137.0 - 6378137.0
           * ln(tan(pi()/4 + radians(lat)/2)))
        / (2 * pi() * 6378137.0) * 16), 0), 15) AS BIGINT) AS ty
  FROM geo),
occ AS (SELECT DISTINCT tx, ty FROM t),
lbl(it, tx, ty, lab) AS (
  SELECT 0, tx, ty, tx * 16 + ty FROM occ
  UNION ALL
  SELECT l.it + 1, l.tx, l.ty,
         LEAST(l.lab,
               (SELECT COALESCE(MIN(n.lab), l.lab) FROM lbl n
                WHERE n.it = l.it
                  AND abs(n.tx - l.tx) + abs(n.ty - l.ty) = 1))
  FROM lbl l WHERE l.it < 255),
fin AS (SELECT tx, ty, lab FROM lbl WHERE it = 255),
cl AS (SELECT lab, CAST(COUNT(*) AS BIGINT) AS sz
       FROM fin GROUP BY 1)
SELECT CAST((SELECT COUNT(*) FROM occ) AS BIGINT) AS n_occupied,
       CAST((SELECT COUNT(*) FROM cl) AS BIGINT) AS n_clusters,
       CAST((SELECT MAX(sz) FROM cl) AS BIGINT) AS max_cluster
"""


def _q186_rhumb_length(sf_dir: str):
    """Per-source rhumb-line (loxodrome) track length — the constant-
    bearing counterpart of q54's great-circle legs: each consecutive
    leg uses the meridian-parts formula d = R * sqrt(dphi^2 +
    q^2 * dlam^2) with q = dphi/dpsi (psi the Mercator latitude,
    q = cos(phi) on the exact-equal-latitude branch) and antimeridian
    wrap of dlam, every trig/log call mirrored op-for-op in the
    oracle; legs round to 0.1 mm BEFORE the int64 sum. One
    source-bucket all-to-all, vectorized leg pass."""
    import pandas as pd

    R = 6371000.0
    docs = _read(sf_dir, "documents", columns=["doc_id", "source"])

    def tag(b: dict) -> pd.DataFrame:
        i = np.asarray(b["doc_id"], dtype=np.int64)
        lon, lat = _geotag(i)
        return pd.DataFrame({
            "doc_id": i, "source": np.asarray(b["source"]),
            "lon": lon, "lat": lat})

    def legs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["source", "doc_id"], kind="mergesort")
        src = g["source"].to_numpy()
        lam = np.radians(g["lon"].to_numpy(np.float64))
        phi = np.radians(g["lat"].to_numpy(np.float64))
        same = src[1:] == src[:-1]
        p1, p2 = phi[:-1][same], phi[1:][same]
        l1, l2 = lam[:-1][same], lam[1:][same]
        dphi = p2 - p1
        dlam = l2 - l1
        dlam = np.where(dlam > np.pi, dlam - 2 * np.pi,
                        np.where(dlam < -np.pi, dlam + 2 * np.pi,
                                 dlam))
        dpsi = (np.log(np.tan(np.pi / 4 + p2 / 2))
                - np.log(np.tan(np.pi / 4 + p1 / 2)))
        q = np.where(dpsi != 0.0, np.divide(
            dphi, np.where(dpsi == 0.0, 1.0, dpsi)), np.cos(p1))
        d = R * np.sqrt(dphi * dphi + q * q * dlam * dlam)
        tmm = np.rint(d * 10000.0).astype(np.int64)
        out = (pd.DataFrame({"source": src[1:][same], "tmm": tmm})
               .groupby("source", as_index=False)
               .agg(rhumb_tmm=("tmm", "sum"), n_legs=("tmm", "size")))
        return out

    out = co_partition(docs.map_batches(tag, batch_format="numpy",
                                        batch_size=65536),
                       "source", legs).to_pandas()
    for c in ("rhumb_tmm", "n_legs"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("source", ignore_index=True)


_Q186_SQL = """
WITH g AS (
  SELECT source, doc_id,
         radians((doc_id * 61803 % 360000) / 1000.0 - 180.0) AS lam,
         radians((doc_id * 75487 % 170000) / 1000.0 - 85.0) AS phi
  FROM documents),
p AS (
  SELECT source, lam, phi,
         LAG(lam) OVER w AS plam, LAG(phi) OVER w AS pphi
  FROM g WINDOW w AS (PARTITION BY source ORDER BY doc_id)),
d AS (
  SELECT source,
         phi - pphi AS dphi,
         CASE WHEN lam - plam > pi() THEN lam - plam - 2 * pi()
              WHEN lam - plam < -pi() THEN lam - plam + 2 * pi()
              ELSE lam - plam END AS dlam,
         ln(tan(pi()/4 + phi/2)) - ln(tan(pi()/4 + pphi/2)) AS dpsi,
         pphi
  FROM p WHERE plam IS NOT NULL),
leg AS (
  SELECT source,
         6371000.0 * sqrt(dphi * dphi
           + (CASE WHEN dpsi <> 0.0 THEN dphi / dpsi
                   ELSE cos(pphi) END)
           * (CASE WHEN dpsi <> 0.0 THEN dphi / dpsi
                   ELSE cos(pphi) END) * dlam * dlam) AS dist
  FROM d)
SELECT source,
       CAST(SUM(CAST(round(dist * 10000.0) AS BIGINT)) AS BIGINT)
         AS rhumb_tmm,
       CAST(COUNT(*) AS BIGINT) AS n_legs
FROM leg GROUP BY 1 ORDER BY 1
"""


def _q187_lcp_stats(sf_dir: str):
    """Neighbor longest-common-prefix statistics per source: sort the
    source's texts, take the LCP length of each adjacent pair, and
    report (n_docs, max_lcp, sum_lcp) — the near-duplicate-prefix
    screen behind suffix-array dedup (adjacent-in-sorted-order pairs
    maximize LCP). One source-bucket all-to-all; the sort + LCP walk
    run inside the bucket. ASCII corpus assumption (shared with q73):
    Python code-point order == DuckDB byte collation."""
    import pandas as pd

    docs = _read(sf_dir, "documents", columns=["source", "text"])

    def lcp(a: str, b: str) -> int:
        n = min(len(a), len(b))
        k = 0
        while k < n and a[k] == b[k]:
            k += 1
        return k

    def stats(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for s, gg in g.groupby("source", sort=False):
            ts_ = sorted(gg["text"].tolist())
            ls = [lcp(ts_[i], ts_[i + 1])
                  for i in range(len(ts_) - 1)]
            rows.append((s, len(ts_),
                         max(ls) if ls else 0, sum(ls)))
        return pd.DataFrame(rows, columns=["source", "n_docs",
                                           "max_lcp", "sum_lcp"])

    out = co_partition(merged(docs, ["source", "text"]), "source",
                       stats).to_pandas()
    for c in ("n_docs", "max_lcp", "sum_lcp"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("source", ignore_index=True)


_Q187_SQL = """
WITH r AS (
  SELECT source, text,
         LAG(text) OVER (PARTITION BY source ORDER BY text) AS prev
  FROM documents),
l AS (
  SELECT source,
         COALESCE((SELECT MAX(k.k) FROM range(1, 2001) k(k)
                   WHERE k.k <= LEAST(length(text), length(prev))
                     AND substr(text, 1, CAST(k.k AS INT))
                         = substr(prev, 1, CAST(k.k AS INT))), 0)
           AS lcp
  FROM r WHERE prev IS NOT NULL),
n AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs
      FROM documents GROUP BY 1)
SELECT n.source, n.n_docs,
       CAST(COALESCE(MAX(l.lcp), 0) AS BIGINT) AS max_lcp,
       CAST(COALESCE(SUM(l.lcp), 0) AS BIGINT) AS sum_lcp
FROM n LEFT JOIN l ON n.source = l.source
GROUP BY 1, 2 ORDER BY 1
"""


def _q188_ks_lengths(sf_dir: str):
    """Two-sample Kolmogorov-Smirnov statistic pieces, per source vs
    the whole corpus, over document lengths — the drift detector of
    a data-mixing pipeline — in exact integer arithmetic: with N
    total docs, n_s the source's docs, and cumulative counts
    cum_s(x) / cum_g(x) at each distinct length x, report d_num =
    max over x of |N * cum_s(x) - n_s * cum_g(x)| (so D = d_num /
    (N * n_s) is one driver division). The data pass is one bounded
    (source, n_chars) histogram; the CDF grid fold runs driver-side
    on sources x distinct-lengths rows."""
    import pandas as pd

    docs = _read(sf_dir, "documents", columns=["source", "n_chars"])

    def partial(b: dict) -> pd.DataFrame:
        return (pd.DataFrame({"source": np.asarray(b["source"]),
                              "n_chars": np.asarray(b["n_chars"],
                                                    np.int64)})
                .groupby(["source", "n_chars"], as_index=False)
                .size().rename(columns={"size": "c"}))

    h = (docs.map_batches(partial, batch_format="numpy",
                          batch_size=65536)
         .to_pandas()
         .groupby(["source", "n_chars"], as_index=False)["c"].sum())
    vals = np.sort(h["n_chars"].unique())
    n_total = int(h["c"].sum())
    gl = (h.groupby("n_chars")["c"].sum()
          .reindex(vals, fill_value=0).cumsum().to_numpy(np.int64))
    rows = []
    for s, g in h.groupby("source", sort=True):
        cs = (g.set_index("n_chars")["c"]
              .reindex(vals, fill_value=0).cumsum()
              .to_numpy(np.int64))
        ns = int(g["c"].sum())
        d = int(np.abs(n_total * cs - ns * gl).max())
        rows.append((s, ns, d))
    return pd.DataFrame(rows, columns=["source", "n_docs",
                                       "d_num"]) \
        .astype({"n_docs": np.int64, "d_num": np.int64})


_Q188_SQL = """
WITH h AS (
  SELECT source, n_chars, CAST(COUNT(*) AS BIGINT) AS c
  FROM documents GROUP BY 1, 2),
vals AS (SELECT DISTINCT n_chars FROM documents),
srcs AS (SELECT DISTINCT source FROM documents),
grid AS (SELECT s.source, v.n_chars
         FROM srcs s CROSS JOIN vals v),
j AS (SELECT g.source, g.n_chars, COALESCE(h.c, 0) AS c
      FROM grid g LEFT JOIN h
        ON g.source = h.source AND g.n_chars = h.n_chars),
cum AS (SELECT source, n_chars,
               SUM(c) OVER (PARTITION BY source
                            ORDER BY n_chars) AS cum_s
        FROM j),
gt AS (SELECT n_chars, SUM(c) AS c FROM h GROUP BY 1),
gc AS (SELECT n_chars, SUM(c) OVER (ORDER BY n_chars) AS cum_g
       FROM gt),
ns AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs
       FROM documents GROUP BY 1),
tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM documents)
SELECT cum.source, ns.n_docs,
       CAST(MAX(abs(tot.n * cum.cum_s - ns.n_docs * gc.cum_g))
            AS BIGINT) AS d_num
FROM cum JOIN gc ON cum.n_chars = gc.n_chars
JOIN ns ON cum.source = ns.source CROSS JOIN tot
GROUP BY 1, 2 ORDER BY 1
"""


def _q189_local_moran(sf_dir: str):
    """Local Moran (LISA, Anselin 1995) pieces per occupied zoom-4
    tile: with the q151 scaled deviations d_i = 256*x_i - S, each
    tile reports d_i, the sum of its rook neighbors' deviations, the
    local numerator d_i * neigh_sum (positive = part of a
    cluster, negative = an outlier), and its LISA quadrant (1 = HH,
    2 = LH, 3 = LL, 4 = HL by the signs, 0 when either side is 0) —
    all exact integers. Same scale shape as q151: one distributed
    count, 256-cell lattice fold."""
    import pandas as pd

    counts = pull_pandas(_tile_counts(sf_dir, 4))
    grid = np.zeros((16, 16), dtype=np.int64)
    grid[counts["tile_x"].to_numpy(np.int64),
         counts["tile_y"].to_numpy(np.int64)] = \
        counts["n"].to_numpy(np.int64)
    s = int(grid.sum())
    d = 256 * grid - s
    nb_sum = np.zeros_like(d)
    nb_sum[1:, :] += d[:-1, :]
    nb_sum[:-1, :] += d[1:, :]
    nb_sum[:, 1:] += d[:, :-1]
    nb_sum[:, :-1] += d[:, 1:]
    occ = grid > 0
    xs, ys = np.nonzero(occ)
    di = d[xs, ys]
    nsum = nb_sum[xs, ys]
    quad = np.where((di > 0) & (nsum > 0), 1,
                    np.where((di < 0) & (nsum > 0), 2,
                             np.where((di < 0) & (nsum < 0), 3,
                                      np.where((di > 0) & (nsum < 0),
                                               4, 0))))
    return pd.DataFrame({
        "tile_x": xs.astype(np.int64), "tile_y": ys.astype(np.int64),
        "d_i": di, "neigh_sum": nsum,
        "local_num": di * nsum,
        "quad": quad.astype(np.int64)})


_Q189_SQL = f"""
WITH geo AS ({_GEO_SQL}),
t AS (
  SELECT
    CAST(LEAST(GREATEST(floor(
        (radians(lon) * 6378137.0 + pi() * 6378137.0)
        / (2 * pi() * 6378137.0) * 16), 0), 15) AS BIGINT) AS tx,
    CAST(LEAST(GREATEST(floor(
        (pi() * 6378137.0 - 6378137.0
           * ln(tan(pi()/4 + radians(lat)/2)))
        / (2 * pi() * 6378137.0) * 16), 0), 15) AS BIGINT) AS ty
  FROM geo),
c AS (SELECT tx, ty, CAST(count(*) AS BIGINT) AS n
      FROM t GROUP BY 1, 2),
lat AS (SELECT x.x AS tx, y.y AS ty
        FROM range(16) x(x) CROSS JOIN range(16) y(y)),
g AS (SELECT l.tx, l.ty, COALESCE(c.n, 0) AS n
      FROM lat l LEFT JOIN c ON l.tx = c.tx AND l.ty = c.ty),
d AS (SELECT tx, ty, n, 256 * n - (SELECT SUM(n) FROM g) AS d FROM g),
nbs AS (
  SELECT a.tx, a.ty, a.n, a.d,
         CAST(COALESCE(SUM(b.d), 0) AS BIGINT) AS neigh_sum
  FROM d a LEFT JOIN d b
    ON abs(a.tx - b.tx) + abs(a.ty - b.ty) = 1
  GROUP BY 1, 2, 3, 4)
SELECT tx AS tile_x, ty AS tile_y, CAST(d AS BIGINT) AS d_i,
       neigh_sum, CAST(d * neigh_sum AS BIGINT) AS local_num,
       CAST(CASE WHEN d > 0 AND neigh_sum > 0 THEN 1
                 WHEN d < 0 AND neigh_sum > 0 THEN 2
                 WHEN d < 0 AND neigh_sum < 0 THEN 3
                 WHEN d > 0 AND neigh_sum < 0 THEN 4
                 ELSE 0 END AS BIGINT) AS quad
FROM nbs WHERE n > 0 ORDER BY 1, 2
"""


def _q190_getis_ord(sf_dir: str):
    """Getis-Ord Gi* pieces per occupied zoom-4 tile: local_sum9 =
    the tile's own count plus its 8 queen neighbors (the Gi*
    numerator before normalization), w_i = the number of lattice
    cells in that window (8 at corners..9 interior), and the global
    total — exact integers from which Gi* is driver-side float
    algebra. The smoothing complement of q120's strict local-max
    hotspots. One distributed count, bounded lattice fold."""
    import pandas as pd

    counts = pull_pandas(_tile_counts(sf_dir, 4))
    grid = np.zeros((16, 16), dtype=np.int64)
    grid[counts["tile_x"].to_numpy(np.int64),
         counts["tile_y"].to_numpy(np.int64)] = \
        counts["n"].to_numpy(np.int64)
    pad = np.zeros((18, 18), dtype=np.int64)
    pad[1:-1, 1:-1] = grid
    win = sum(pad[1 + dx:17 + dx, 1 + dy:17 + dy]
              for dx in (-1, 0, 1) for dy in (-1, 0, 1))
    ones = np.zeros((18, 18), dtype=np.int64)
    ones[1:-1, 1:-1] = 1
    wcnt = sum(ones[1 + dx:17 + dx, 1 + dy:17 + dy]
               for dx in (-1, 0, 1) for dy in (-1, 0, 1))
    occ = grid > 0
    xs, ys = np.nonzero(occ)
    return pd.DataFrame({
        "tile_x": xs.astype(np.int64), "tile_y": ys.astype(np.int64),
        "n": grid[xs, ys],
        "local_sum9": win[xs, ys],
        "w_i": wcnt[xs, ys],
        "s_total": np.full(len(xs), int(grid.sum()),
                           dtype=np.int64)})


_Q190_SQL = f"""
WITH geo AS ({_GEO_SQL}),
t AS (
  SELECT
    CAST(LEAST(GREATEST(floor(
        (radians(lon) * 6378137.0 + pi() * 6378137.0)
        / (2 * pi() * 6378137.0) * 16), 0), 15) AS BIGINT) AS tx,
    CAST(LEAST(GREATEST(floor(
        (pi() * 6378137.0 - 6378137.0
           * ln(tan(pi()/4 + radians(lat)/2)))
        / (2 * pi() * 6378137.0) * 16), 0), 15) AS BIGINT) AS ty
  FROM geo),
c AS (SELECT tx, ty, CAST(count(*) AS BIGINT) AS n
      FROM t GROUP BY 1, 2),
lat AS (SELECT x.x AS tx, y.y AS ty
        FROM range(16) x(x) CROSS JOIN range(16) y(y)),
g AS (SELECT l.tx, l.ty, COALESCE(c.n, 0) AS n
      FROM lat l LEFT JOIN c ON l.tx = c.tx AND l.ty = c.ty),
win AS (
  SELECT a.tx, a.ty, a.n,
         CAST(SUM(b.n) AS BIGINT) AS local_sum9,
         CAST(COUNT(*) AS BIGINT) AS w_i
  FROM g a JOIN g b
    ON b.tx BETWEEN a.tx - 1 AND a.tx + 1
   AND b.ty BETWEEN a.ty - 1 AND a.ty + 1
  GROUP BY 1, 2, 3)
SELECT tx AS tile_x, ty AS tile_y, n, local_sum9, w_i,
       CAST((SELECT SUM(n) FROM g) AS BIGINT) AS s_total
FROM win WHERE n > 0 ORDER BY 1, 2
"""


def _q191_variogram(sf_dir: str):
    """Empirical semivariogram of document length over space — the
    geostatistics primitive behind kriging: per lag band [lo, hi)
    milli-degrees, the exact pair count and sum of squared n_chars
    differences (gamma(h) = sum / (2n) is one driver division).
    PBSM reference-point pair generation with the value column
    riding along (functions/pointpattern.py variogram_bands,
    brute-parity-tested)."""
    from proj_ray.functions.pointpattern import variogram_bands

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def coords(b: dict) -> dict:
        i = np.asarray(b["doc_id"], dtype=np.int64)
        return {"x": i * 61803 % 360000, "y": i * 75487 % 170000,
                "v": np.asarray(b["n_chars"], dtype=np.int64),
                "pid": i}

    return variogram_bands(
        ds.map_batches(coords, batch_format="numpy",
                       batch_size=65536),
        [(0, 2000), (2000, 5000), (5000, 10000)], cell=10000)


_Q191_SQL = """
WITH p AS (
  SELECT doc_id, doc_id * 61803 % 360000 AS sx,
         doc_id * 75487 % 170000 AS sy,
         CAST(n_chars AS BIGINT) AS v
  FROM documents),
c AS (SELECT doc_id, sx, sy, v, sx // 10000 AS cx, sy // 10000 AS cy
      FROM p),
a9 AS (SELECT c.doc_id, c.sx, c.sy, c.v,
              c.cx + dx.d AS tcx, c.cy + dy.d AS tcy
       FROM c, (VALUES (-1), (0), (1)) dx(d),
               (VALUES (-1), (0), (1)) dy(d)),
pr AS (
  SELECT (a.sx - b.sx) * (a.sx - b.sx)
       + (a.sy - b.sy) * (a.sy - b.sy) AS d2,
         (a.v - b.v) * (a.v - b.v) AS dv2
  FROM a9 a JOIN c b ON b.cx = a.tcx AND b.cy = a.tcy
  WHERE b.sx > a.sx
     OR (b.sx = a.sx AND (b.sy > a.sy
         OR (b.sy = a.sy AND b.doc_id > a.doc_id)))),
bands AS (SELECT * FROM (VALUES (0, 2000), (2000, 5000),
                                (5000, 10000)) b(lo, hi))
SELECT CAST(bands.lo AS BIGINT) AS lo,
       CAST(bands.hi AS BIGINT) AS hi,
       CAST((SELECT COUNT(*) FROM pr
             WHERE pr.d2 >= bands.lo * bands.lo
               AND pr.d2 < bands.hi * bands.hi)
            AS BIGINT) AS n_pairs,
       CAST((SELECT COALESCE(SUM(pr.dv2), 0) FROM pr
             WHERE pr.d2 >= bands.lo * bands.lo
               AND pr.d2 < bands.hi * bands.hi)
            AS BIGINT) AS sum_sq_diff
FROM bands ORDER BY 1
"""


def _q192_box_counting(sf_dir: str):
    """Box-counting (Minkowski) dimension pieces of the doc-geotag
    footprint: the number of OCCUPIED tiles at every zoom 0..6 —
    the log-log slope of N(z) vs box size estimates the fractal
    dimension of the spatial support. ONE zoom-6 distributed count
    pass; every coarser level folds by 2x2 OR on the <= 4096-cell
    lattice (the q152 pyramid, occupancy instead of sums)."""
    import pandas as pd

    counts = pull_pandas(_tile_counts(sf_dir, 6))
    occ = np.zeros((64, 64), dtype=bool)
    occ[counts["tile_x"].to_numpy(np.int64),
        counts["tile_y"].to_numpy(np.int64)] = True
    rows = []
    cur = occ
    for z in range(6, -1, -1):
        rows.append((z, int(cur.sum())))
        if z:
            cur = (cur.reshape(cur.shape[0] // 2, 2,
                               cur.shape[1] // 2, 2)
                   .any(axis=(1, 3)))
    out = pd.DataFrame(sorted(rows),
                       columns=["z", "n_occupied"])
    return out.astype(np.int64)


_Q192_SQL = f"""
WITH geo AS ({_GEO_SQL}),
t AS (
  SELECT
    CAST(LEAST(GREATEST(floor(
        (radians(lon) * 6378137.0 + pi() * 6378137.0)
        / (2 * pi() * 6378137.0) * 64), 0), 63) AS BIGINT) AS tx,
    CAST(LEAST(GREATEST(floor(
        (pi() * 6378137.0 - 6378137.0
           * ln(tan(pi()/4 + radians(lat)/2)))
        / (2 * pi() * 6378137.0) * 64), 0), 63) AS BIGINT) AS ty
  FROM geo),
occ6 AS (SELECT DISTINCT tx, ty FROM t)
SELECT CAST(z.z AS BIGINT) AS z,
       CAST((SELECT COUNT(*) FROM
             (SELECT DISTINCT tx >> CAST(6 - z.z AS INT),
                     ty >> CAST(6 - z.z AS INT) FROM occ6))
            AS BIGINT) AS n_occupied
FROM range(7) z(z) ORDER BY 1
"""


def _q193_runner_up(sf_dir: str):
    """Per-tile dominance margin: the most and second-most frequent
    SOURCE in each zoom-3 tile (ties -> lexicographically smaller
    source) with their count gap — the label-margin diagnostic of a
    data-mixing pipeline (low margin = contested region). Per-block
    (tile, source) partials into one tile-bucket combine; the top-2
    pick is a per-tile sorted head. Tiles with a single source
    report runner_up = '' and margin = n_top."""
    import pandas as pd

    from proj_ray.stages import with_tiles

    docs = _read(sf_dir, "documents", columns=["doc_id", "source"])

    def add_geo(b: dict) -> dict:
        i = np.asarray(b["doc_id"], dtype=np.int64)
        lon, lat = _geotag(i)
        return {"source": np.asarray(b["source"]),
                "lon": lon, "lat": lat}

    def partial(b: dict) -> pd.DataFrame:
        g = (pd.DataFrame({"tx": b["tile_x"], "ty": b["tile_y"],
                           "source": b["source"]})
             .groupby(["tx", "ty", "source"], as_index=False)
             .size().rename(columns={"size": "c"}))
        return g

    def top2(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["tx", "ty", "source"],
                        as_index=False)["c"].sum()
        agg = agg.sort_values(["tx", "ty", "c", "source"],
                              ascending=[True, True, False, True],
                              kind="mergesort")
        rows = []
        for (tx, ty), gg in agg.groupby(["tx", "ty"], sort=False):
            top = gg.iloc[0]
            if len(gg) > 1:
                run = gg.iloc[1]
                rows.append((tx, ty, top["source"], int(top["c"]),
                             run["source"], int(run["c"]),
                             int(top["c"]) - int(run["c"])))
            else:
                rows.append((tx, ty, top["source"], int(top["c"]),
                             "", 0, int(top["c"])))
        return pd.DataFrame(rows, columns=["tile_x", "tile_y",
                                           "top_source", "n_top",
                                           "runner_up", "n_second",
                                           "margin"])

    out = (with_tiles(docs.map_batches(add_geo, batch_format="numpy",
                                       batch_size=65536), zoom=3)
           .map_batches(partial, batch_format="pandas",
                        batch_size=65536))
    out = co_partition(out, ["tx", "ty"], top2).to_pandas()
    for c in ("tile_x", "tile_y", "n_top", "n_second", "margin"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values(["tile_x", "tile_y"], ignore_index=True)


_Q193_SQL = f"""
WITH geo AS ({_GEO_SQL}),
t AS (
  SELECT d.source,
    CAST(LEAST(GREATEST(floor(
        (radians(g.lon) * 6378137.0 + pi() * 6378137.0)
        / (2 * pi() * 6378137.0) * 8), 0), 7) AS BIGINT) AS tx,
    CAST(LEAST(GREATEST(floor(
        (pi() * 6378137.0 - 6378137.0
           * ln(tan(pi()/4 + radians(g.lat)/2)))
        / (2 * pi() * 6378137.0) * 8), 0), 7) AS BIGINT) AS ty
  FROM geo g JOIN documents d ON g.doc_id = d.doc_id),
c AS (SELECT tx, ty, source, CAST(COUNT(*) AS BIGINT) AS c
      FROM t GROUP BY 1, 2, 3),
r AS (SELECT tx, ty, source, c,
             ROW_NUMBER() OVER (PARTITION BY tx, ty
                                ORDER BY c DESC, source) AS rk
      FROM c)
SELECT a.tx AS tile_x, a.ty AS tile_y,
       a.source AS top_source, a.c AS n_top,
       COALESCE(b.source, '') AS runner_up,
       CAST(COALESCE(b.c, 0) AS BIGINT) AS n_second,
       CAST(a.c - COALESCE(b.c, 0) AS BIGINT) AS margin
FROM r a LEFT JOIN r b
  ON a.tx = b.tx AND a.ty = b.ty AND b.rk = 2
WHERE a.rk = 1 ORDER BY 1, 2
"""


def _q194_co_coverage(sf_dir: str):
    """Source spatial co-coverage matrix: for every source pair, the
    number of zoom-4 tiles BOTH cover, with each side's own tile
    count — the footprint-overlap complement of q146's term-vector
    similarity. One distinct-(source, tile) reduction (bounded at
    sources x 256 rows); the pair fold runs on that tiny table."""
    import pandas as pd

    from proj_ray.stages import with_tiles

    docs = _read(sf_dir, "documents", columns=["doc_id", "source"])

    def add_geo(b: dict) -> dict:
        i = np.asarray(b["doc_id"], dtype=np.int64)
        lon, lat = _geotag(i)
        return {"source": np.asarray(b["source"]),
                "lon": lon, "lat": lat}

    def distinct(b: dict) -> pd.DataFrame:
        return (pd.DataFrame({"source": b["source"],
                              "tx": b["tile_x"], "ty": b["tile_y"]})
                .drop_duplicates())

    cells = (with_tiles(docs.map_batches(add_geo,
                                         batch_format="numpy",
                                         batch_size=65536), zoom=4)
             .map_batches(distinct, batch_format="numpy",
                          batch_size=65536)
             .to_pandas().drop_duplicates())
    sets = {s: set(map(tuple, g[["tx", "ty"]].to_numpy()))
            for s, g in cells.groupby("source")}
    srcs = sorted(sets)
    rows = []
    for a in range(len(srcs)):
        for b in range(a + 1, len(srcs)):
            sa, sb = srcs[a], srcs[b]
            rows.append((sa, sb, len(sets[sa]), len(sets[sb]),
                         len(sets[sa] & sets[sb])))
    out = pd.DataFrame(rows, columns=["source_a", "source_b",
                                      "n_a", "n_b", "n_both"])
    for c in ("n_a", "n_b", "n_both"):
        out[c] = out[c].astype(np.int64)
    return out


_Q194_SQL = f"""
WITH geo AS ({_GEO_SQL}),
t AS (
  SELECT DISTINCT d.source,
    CAST(LEAST(GREATEST(floor(
        (radians(g.lon) * 6378137.0 + pi() * 6378137.0)
        / (2 * pi() * 6378137.0) * 16), 0), 15) AS BIGINT) AS tx,
    CAST(LEAST(GREATEST(floor(
        (pi() * 6378137.0 - 6378137.0
           * ln(tan(pi()/4 + radians(g.lat)/2)))
        / (2 * pi() * 6378137.0) * 16), 0), 15) AS BIGINT) AS ty
  FROM geo g JOIN documents d ON g.doc_id = d.doc_id),
n AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n
      FROM t GROUP BY 1)
SELECT a.source AS source_a, b.source AS source_b,
       na.n AS n_a, nb.n AS n_b,
       CAST(COUNT(*) FILTER (x.tx IS NOT NULL) AS BIGINT) AS n_both
FROM n na JOIN n nb ON na.source < nb.source
JOIN (SELECT DISTINCT source FROM t) a ON a.source = na.source
JOIN (SELECT DISTINCT source FROM t) b ON b.source = nb.source
LEFT JOIN (
  SELECT p.source AS sa, q.source AS sb, p.tx, p.ty
  FROM t p JOIN t q
    ON p.tx = q.tx AND p.ty = q.ty AND p.source < q.source) x
  ON x.sa = a.source AND x.sb = b.source
GROUP BY 1, 2, 3, 4 ORDER BY 1, 2
"""


def _q195_chi_square(sf_dir: str):
    """Chi-square independence pieces for the (source x lang)
    contingency table: per cell the observed count o, row total
    r_n, column total c_n and grand total — the numerator
    (o * N - r_n * c_n)^2 and denominator r_n * c_n * N of each
    cell's contribution are exact-integer driver algebra. One
    two-key count pass; totals fold from the bounded cell table."""
    def one(b: dict) -> dict:
        return {**b, "one": np.ones(len(b["lang"]), np.int64)}

    docs = _read(sf_dir, "documents", columns=["source", "lang"])
    cells = pull_pandas(bucketed_sum(
        docs.map_batches(one, batch_format="numpy"), ["source", "lang"],
        "one", "o"))
    rn = cells.groupby("source")["o"].sum().rename("r_n")
    cn = cells.groupby("lang")["o"].sum().rename("c_n")
    out = (cells.merge(rn, left_on="source", right_index=True)
           .merge(cn, left_on="lang", right_index=True))
    out["n_total"] = int(cells["o"].sum())
    return out.sort_values(["source", "lang"], ignore_index=True)


_Q195_SQL = """
WITH c AS (SELECT source, lang, CAST(COUNT(*) AS BIGINT) AS o
           FROM documents GROUP BY 1, 2),
r AS (SELECT source, CAST(SUM(o) AS BIGINT) AS r_n
      FROM c GROUP BY 1),
l AS (SELECT lang, CAST(SUM(o) AS BIGINT) AS c_n FROM c GROUP BY 1),
t AS (SELECT CAST(SUM(o) AS BIGINT) AS n_total FROM c)
SELECT c.source, c.lang, c.o, r.r_n, l.c_n, t.n_total
FROM c JOIN r ON c.source = r.source
JOIN l ON c.lang = l.lang CROSS JOIN t
ORDER BY 1, 2
"""


def _q196_spearman(sf_dir: str):
    """Exact Spearman rank correlation pieces between document length
    (n_chars) and whitespace token count, with ROW_NUMBER ranking
    (ties broken by doc_id, mirrored in the oracle): reports n and
    sum_d2 = sum of squared rank differences, so rho = 1 -
    6*sum_d2/(n(n^2-1)) is one driver division. Global ranks WITHOUT
    a global sort: a bounded key histogram gives each key its
    exclusive prefix count (broadcast), and the intra-key order by
    doc_id resolves inside key-bucket groups — two rank passes plus
    one doc-bucket join, every exchange bounded."""
    import pandas as pd
    import ray

    from proj_ray.functions.text import simple_token_count

    docs = _read(sf_dir, "documents",
                 columns=["doc_id", "n_chars", "text"])

    def feats(b: dict) -> dict:
        return {"doc_id": np.asarray(b["doc_id"], dtype=np.int64),
                "k1": np.asarray(b["n_chars"], dtype=np.int64),
                "k2": simple_token_count(b["text"]).astype(np.int64)}

    base = docs.map_batches(feats, batch_format="numpy",
                            batch_size=65536).materialize()

    def rank_table(key: str):
        def hist(b: dict) -> pd.DataFrame:
            g = (pd.DataFrame({"k": b[key]})
                 .groupby("k", as_index=False).size())
            return g

        h = (base.map_batches(hist, batch_format="numpy",
                              batch_size=65536)
             .to_pandas().groupby("k", as_index=False)["size"].sum()
             .sort_values("k"))
        keys = h["k"].to_numpy(np.int64)
        pref = np.r_[0, h["size"].to_numpy(np.int64).cumsum()[:-1]]
        ref = ray.put((keys, pref))

        def tag(b: dict) -> pd.DataFrame:
            return pd.DataFrame({"doc_id": b["doc_id"], "k": b[key]})

        def assign(g: pd.DataFrame) -> pd.DataFrame:
            ks, pf = ray.get(ref)
            g = g.sort_values(["k", "doc_id"], kind="mergesort")
            intra = g.groupby("k").cumcount().to_numpy(np.int64) + 1
            base_r = pf[np.searchsorted(ks, g["k"].to_numpy(np.int64))]
            return pd.DataFrame({
                "doc_id": g["doc_id"].to_numpy(np.int64),
                "rank": base_r + intra})

        return co_partition(base.map_batches(tag, batch_format="numpy",
                                             batch_size=65536),
                            "k", assign)

    r1 = rank_table("k1")
    r2 = rank_table("k2")

    def side(col):
        def f(b: dict) -> pd.DataFrame:
            d = np.asarray(b["doc_id"], dtype=np.int64)
            df = pd.DataFrame({"doc_id": d,
                               "r1": np.zeros(len(d), np.int64),
                               "r2": np.zeros(len(d), np.int64)})
            df[col] = np.asarray(b["rank"], dtype=np.int64)
            return df
        return f

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("doc_id", as_index=False)[["r1", "r2"]].sum()
        d = m["r1"].to_numpy(np.int64) - m["r2"].to_numpy(np.int64)
        return pd.DataFrame({"n": [np.int64(len(m))],
                             "sum_d2": [np.int64((d * d).sum())]})

    parts = co_partition(
        [r1.map_batches(side("r1"), batch_format="numpy", batch_size=65536),
         r2.map_batches(side("r2"), batch_format="numpy", batch_size=65536)],
        "doc_id", combine).to_pandas().sum()
    return pd.DataFrame({"n": [np.int64(parts["n"])],
                         "sum_d2": [np.int64(parts["sum_d2"])]})


_Q196_SQL = """
WITH f AS (
  SELECT doc_id, n_chars,
         CASE WHEN length(text) > 0
              THEN length(text) - length(replace(text, ' ', '')) + 1
              ELSE 0 END AS n_tok
  FROM documents),
r AS (
  SELECT doc_id,
         ROW_NUMBER() OVER (ORDER BY n_chars, doc_id) AS r1,
         ROW_NUMBER() OVER (ORDER BY n_tok, doc_id) AS r2
  FROM f)
SELECT CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM((r1 - r2) * (r1 - r2)) AS BIGINT) AS sum_d2
FROM r
"""


def _q197_cusum(sf_dir: str):
    """CUSUM changepoint detection per event type: with daily counts
    x_1..x_D and S = sum x, the scaled deviations d_i = D*x_i - S
    sum to zero, so the maximum |partial sum| locates the strongest
    level shift — report (n_days, max_abs_cusum, cp_day = the
    earliest day attaining it) in exact integers. Distributed
    (type, day) count partials; the <= 31-step scan folds
    driver-side; window-SQL oracle."""
    import pandas as pd

    ev = _read(sf_dir, "events", columns=["event_type", "ts"])

    def partial(b: dict) -> pd.DataFrame:
        return (pd.DataFrame({
            "event_type": np.asarray(b["event_type"]),
            "day": (np.asarray(b["ts"]).astype("datetime64[us]")
                    .astype(np.int64) // 86_400_000_000)})
            .groupby(["event_type", "day"], as_index=False).size()
            .rename(columns={"size": "n"}))

    dc = (ev.map_batches(partial, batch_format="numpy",
                         batch_size=65536)
          .to_pandas()
          .groupby(["event_type", "day"], as_index=False)["n"].sum())
    rows = []
    for ty, g in dc.groupby("event_type", sort=True):
        g = g.sort_values("day")
        x = g["n"].to_numpy(np.int64)
        d = g["day"].to_numpy(np.int64)
        dev = len(x) * x - int(x.sum())
        cs = np.cumsum(dev)
        k = int(np.argmax(np.abs(cs)))
        rows.append((ty, len(x), int(np.abs(cs).max()), int(d[k])))
    return pd.DataFrame(rows, columns=["event_type", "n_days",
                                       "max_abs_cusum", "cp_day"]) \
        .astype({"n_days": np.int64, "max_abs_cusum": np.int64,
                 "cp_day": np.int64})


_Q197_SQL = """
WITH dc AS (
  SELECT event_type, epoch_us(ts) // 86400000000 AS day,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2),
st AS (SELECT event_type, CAST(COUNT(*) AS BIGINT) AS d_days,
              CAST(SUM(n) AS BIGINT) AS s
       FROM dc GROUP BY 1),
cs AS (
  SELECT dc.event_type, dc.day, st.d_days,
         SUM(st.d_days * dc.n - st.s)
           OVER (PARTITION BY dc.event_type ORDER BY dc.day)
           AS cusum
  FROM dc JOIN st ON dc.event_type = st.event_type)
SELECT event_type, CAST(d_days AS BIGINT) AS n_days,
       CAST(MAX(abs(cusum)) AS BIGINT) AS max_abs_cusum,
       CAST(MIN(day) FILTER (
         abs(cusum) = (SELECT MAX(abs(c2.cusum)) FROM cs c2
                       WHERE c2.event_type = cs.event_type))
            AS BIGINT) AS cp_day
FROM cs GROUP BY 1, 2 ORDER BY 1
"""


def _q198_lag_autocorr(sf_dir: str):
    """Lag-1 temporal autocorrelation pieces of the per-(tile, day)
    event counts, pooled over zoom-3 tiles: n_pairs, sum_x, sum_y,
    sum_xy, sum_x2, sum_y2 over consecutive-day pairs within each
    tile (dense day grid per tile, absent days = 0) — Pearson r of
    (x_d, x_{d+1}) is driver algebra on the exact integer moments;
    the persistence diagnostic of a space-time cube. Distributed
    count partials; the dense-grid pairing folds on the bounded
    (tile, day) table."""
    import pandas as pd

    from proj_ray.stages import with_tiles

    ev = _read(sf_dir, "events", columns=["event_id", "ts"])

    def tag(b: dict) -> dict:
        i = np.asarray(b["event_id"], dtype=np.int64)
        lon, lat = _geotag(i)
        return {"day": (np.asarray(b["ts"]).astype("datetime64[us]")
                        .astype(np.int64) // 86_400_000_000),
                "lon": lon, "lat": lat}

    def partial(b: dict) -> pd.DataFrame:
        return (pd.DataFrame({"tx": b["tile_x"], "ty": b["tile_y"],
                              "day": b["day"]})
                .groupby(["tx", "ty", "day"], as_index=False).size()
                .rename(columns={"size": "n"}))

    dc = (with_tiles(ev.map_batches(tag, batch_format="numpy",
                                    batch_size=65536), zoom=3)
          .map_batches(partial, batch_format="pandas",
                       batch_size=65536)
          .to_pandas()
          .groupby(["tx", "ty", "day"], as_index=False)["n"].sum())
    d0 = int(dc["day"].min())
    d1 = int(dc["day"].max())
    days = np.arange(d0, d1 + 1, dtype=np.int64)
    acc = dict(n_pairs=0, sum_x=0, sum_y=0, sum_xy=0,
               sum_x2=0, sum_y2=0)
    for _, g in dc.groupby(["tx", "ty"], sort=False):
        c = (g.set_index("day")["n"]
             .reindex(days, fill_value=0).to_numpy(np.int64))
        x, y = c[:-1], c[1:]
        acc["n_pairs"] += len(x)
        acc["sum_x"] += int(x.sum())
        acc["sum_y"] += int(y.sum())
        acc["sum_xy"] += int((x * y).sum())
        acc["sum_x2"] += int((x * x).sum())
        acc["sum_y2"] += int((y * y).sum())
    return pd.DataFrame({k: [np.int64(v)] for k, v in acc.items()})


_Q198_SQL = """
WITH e AS (
  SELECT epoch_us(ts) // 86400000000 AS day,
         (event_id * 61803 % 360000) / 1000.0 - 180.0 AS lon,
         (event_id * 75487 % 170000) / 1000.0 - 85.0 AS lat
  FROM events),
t AS (
  SELECT day,
    CAST(LEAST(GREATEST(floor(
        (radians(lon) * 6378137.0 + pi() * 6378137.0)
        / (2 * pi() * 6378137.0) * 8), 0), 7) AS BIGINT) AS tx,
    CAST(LEAST(GREATEST(floor(
        (pi() * 6378137.0 - 6378137.0
           * ln(tan(pi()/4 + radians(lat)/2)))
        / (2 * pi() * 6378137.0) * 8), 0), 7) AS BIGINT) AS ty
  FROM e),
c AS (SELECT tx, ty, day, CAST(COUNT(*) AS BIGINT) AS n
      FROM t GROUP BY 1, 2, 3),
dr AS (SELECT MIN(day) AS d0, MAX(day) AS d1 FROM c),
tiles AS (SELECT x.x AS tx, y.y AS ty
          FROM range(8) x(x) CROSS JOIN range(8) y(y)),
grid AS (SELECT tiles.tx, tiles.ty, dr.d0 + dd.dd AS day
         FROM tiles, dr, range(0, 31) dd(dd)
         WHERE dr.d0 + dd.dd <= dr.d1),
full_ AS (SELECT g.tx, g.ty, g.day, COALESCE(c.n, 0) AS n
          FROM grid g LEFT JOIN c
            ON g.tx = c.tx AND g.ty = c.ty AND g.day = c.day),
pr AS (
  SELECT a.n AS x, b.n AS y
  FROM full_ a JOIN full_ b
    ON a.tx = b.tx AND a.ty = b.ty AND b.day = a.day + 1)
SELECT CAST(COUNT(*) AS BIGINT) AS n_pairs,
       CAST(SUM(x) AS BIGINT) AS sum_x,
       CAST(SUM(y) AS BIGINT) AS sum_y,
       CAST(SUM(x * y) AS BIGINT) AS sum_xy,
       CAST(SUM(x * x) AS BIGINT) AS sum_x2,
       CAST(SUM(y * y) AS BIGINT) AS sum_y2
FROM pr
"""


def _q199_max_silence(sf_dir: str):
    """Per-user maximum silent period: the longest gap (seconds)
    between consecutive events (ordered by ts then event_id) and the
    start timestamp (epoch seconds) of that gap, earliest on ties —
    the churn-risk signal. One user-bucket all-to-all, vectorized
    diff + argmax inside the bucket; window-SQL oracle."""
    import pandas as pd

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def tag(b: dict) -> dict:
        return {"user_id": np.asarray(b["user_id"], dtype=np.int64),
                "e": np.asarray(b["event_id"], dtype=np.int64),
                "t": np.asarray(b["ts"]).astype("datetime64[us]")
                .astype(np.int64)}

    def scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "t", "e"], kind="mergesort")
        rows = []
        for u, gg in g.groupby("user_id", sort=False):
            t = gg["t"].to_numpy(np.int64)
            if len(t) < 2:
                continue
            gaps = (t[1:] - t[:-1]) // 1_000_000
            k = int(np.argmax(gaps))
            rows.append((u, len(t) - 1, int(gaps[k]),
                         int(t[k] // 1_000_000)))
        return pd.DataFrame(rows, columns=["user_id", "n_gaps",
                                           "max_gap_s",
                                           "gap_start_s"])

    out = co_partition(ev.map_batches(tag, batch_format="numpy",
                                      batch_size=65536),
                       "user_id", scan).to_pandas()
    for c in ("n_gaps", "max_gap_s", "gap_start_s"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("user_id", ignore_index=True)


_Q199_SQL = """
WITH g AS (
  SELECT user_id, epoch_us(ts) AS t,
         (LEAD(epoch_us(ts)) OVER (PARTITION BY user_id
                                   ORDER BY ts, event_id)
          - epoch_us(ts)) // 1000000 AS gap
  FROM events),
v AS (SELECT user_id, t, gap FROM g WHERE gap IS NOT NULL)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_gaps,
       CAST(MAX(gap) AS BIGINT) AS max_gap_s,
       CAST(MIN(t) FILTER (
         gap = (SELECT MAX(v2.gap) FROM v v2
                WHERE v2.user_id = v.user_id)) // 1000000
            AS BIGINT) AS gap_start_s
FROM v GROUP BY 1 ORDER BY 1
"""


def _q200_spatial_curation(sf_dir: str):
    """Composed spatial-curation flagship (the q97 idea on the
    geospatial axis): geotag docs -> drop exact-duplicate texts
    (keep min doc_id) -> drop low-quality docs (n_chars < 40) ->
    zoom-3 tiles -> per-tile quota of the 10 LONGEST surviving docs
    (ties -> lowest doc_id) -> per-tile (n_candidates, n_kept,
    sum_len_kept, checksum = sum of kept doc_ids * 31). Every stage
    is a bounded exchange the suite already uses (text-hash dedup,
    stateless filter, tile count, per-tile head-k); one query pins
    the whole chain's exactness."""
    import pandas as pd

    from proj_ray.stages import with_tiles

    docs = _read(sf_dir, "documents",
                 columns=["doc_id", "text", "n_chars"])

    def keep_min(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.sort_values("doc_id")
               .drop_duplicates(subset=["text"], keep="first"))
        return out[out["n_chars"] >= 40][["doc_id", "n_chars"]]

    surv = co_partition(merged(docs, ["doc_id", "text", "n_chars"]),
                        "text", keep_min)

    def add_geo(b: dict) -> dict:
        i = np.asarray(b["doc_id"], dtype=np.int64)
        lon, lat = _geotag(i)
        return {"doc_id": i,
                "n_chars": np.asarray(b["n_chars"], np.int64),
                "lon": lon, "lat": lat}

    def prune(b: dict) -> pd.DataFrame:
        df = pd.DataFrame({"doc_id": b["doc_id"],
                           "n_chars": b["n_chars"],
                           "tx": b["tile_x"], "ty": b["tile_y"]})
        # per-block pre-prune: only 10 candidates per tile survive
        # the exchange, plus the block's per-tile census
        cen = (df.groupby(["tx", "ty"], as_index=False).size()
               .rename(columns={"size": "n_cand"}))
        df = df.sort_values(["tx", "ty", "n_chars", "doc_id"],
                            ascending=[True, True, False, True],
                            kind="mergesort")
        top = df.groupby(["tx", "ty"], sort=False).head(10)
        top = top.assign(n_cand=np.int64(0))
        cen = cen.assign(doc_id=np.int64(-1),
                         n_chars=np.int64(0))
        return pd.concat([top, cen[top.columns]], ignore_index=True)

    def quota(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for (tx, ty), gg in g.groupby(["tx", "ty"], sort=False):
            n_cand = int(gg["n_cand"].sum())
            cand = gg[gg["doc_id"] >= 0].sort_values(
                ["n_chars", "doc_id"], ascending=[False, True],
                kind="mergesort").head(10)
            rows.append((tx, ty, n_cand, len(cand),
                         int(cand["n_chars"].sum()),
                         int((cand["doc_id"] * 31).sum())))
        return pd.DataFrame(rows, columns=["tile_x", "tile_y",
                                           "n_candidates", "n_kept",
                                           "sum_len_kept",
                                           "checksum"])

    out = (with_tiles(surv.map_batches(add_geo,
                                       batch_format="numpy",
                                       batch_size=65536), zoom=3)
           .map_batches(prune, batch_format="pandas",
                        batch_size=65536))
    out = co_partition(out, ["tx", "ty"], quota).to_pandas()
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.sort_values(["tile_x", "tile_y"], ignore_index=True)


_Q200_SQL = """
WITH dd AS (
  SELECT MIN(doc_id) AS doc_id, MAX(n_chars) AS n_chars
  FROM documents GROUP BY text),
surv AS (SELECT doc_id, n_chars FROM dd WHERE n_chars >= 40),
g AS (
  SELECT doc_id, n_chars,
         (doc_id * 61803 % 360000) / 1000.0 - 180.0 AS lon,
         (doc_id * 75487 % 170000) / 1000.0 - 85.0 AS lat
  FROM surv),
t AS (
  SELECT doc_id, n_chars,
    CAST(LEAST(GREATEST(floor(
        (radians(lon) * 6378137.0 + pi() * 6378137.0)
        / (2 * pi() * 6378137.0) * 8), 0), 7) AS BIGINT) AS tx,
    CAST(LEAST(GREATEST(floor(
        (pi() * 6378137.0 - 6378137.0
           * ln(tan(pi()/4 + radians(lat)/2)))
        / (2 * pi() * 6378137.0) * 8), 0), 7) AS BIGINT) AS ty
  FROM g),
r AS (
  SELECT tx, ty, doc_id, n_chars,
         ROW_NUMBER() OVER (PARTITION BY tx, ty
                            ORDER BY n_chars DESC, doc_id) AS rk
  FROM t),
cen AS (SELECT tx, ty, CAST(COUNT(*) AS BIGINT) AS n_candidates
        FROM t GROUP BY 1, 2),
kept AS (SELECT tx, ty, CAST(COUNT(*) AS BIGINT) AS n_kept,
                CAST(SUM(n_chars) AS BIGINT) AS sum_len_kept,
                CAST(SUM(doc_id * 31) AS BIGINT) AS checksum
         FROM r WHERE rk <= 10 GROUP BY 1, 2)
SELECT cen.tx AS tile_x, cen.ty AS tile_y, cen.n_candidates,
       kept.n_kept, kept.sum_len_kept, kept.checksum
FROM cen JOIN kept ON cen.tx = kept.tx AND cen.ty = kept.ty
ORDER BY 1, 2
"""


def _q201_utm_zones(sf_dir: str):
    """UTM zone occupancy histogram: every doc geotag classifies to
    its (zone 1..60, hemisphere) cell by the standard 6-degree zone
    rule (the q16 kernel's zone logic at aggregate level) — the
    shard-planning census a UTM-partitioned ingest runs first.
    Integer zone arithmetic on milli-degree coords (no float
    division); per-block 120-bin partials."""
    import pandas as pd

    docs = _read(sf_dir, "documents", columns=["doc_id"])

    def zones(b: dict) -> pd.DataFrame:
        i = np.asarray(b["doc_id"], dtype=np.int64)
        lon_m = i * 61803 % 360000          # [0, 360000) shifted
        lat_m = i * 75487 % 170000 - 85000
        zone = np.minimum(lon_m // 6000 + 1, 60)
        hemi = np.where(lat_m >= 0, "N", "S")
        g = (pd.DataFrame({"zone": zone, "hemi": hemi})
             .groupby(["zone", "hemi"], as_index=False).size()
             .rename(columns={"size": "n"}))
        return g

    out = (docs.map_batches(zones, batch_format="numpy",
                            batch_size=65536)
           .to_pandas().groupby(["zone", "hemi"], as_index=False)
           ["n"].sum())
    for c in ("zone", "n"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values(["zone", "hemi"], ignore_index=True)


_Q201_SQL = """
WITH p AS (
  SELECT doc_id * 61803 % 360000 AS lon_m,
         doc_id * 75487 % 170000 - 85000 AS lat_m
  FROM documents)
SELECT CAST(LEAST(lon_m // 6000 + 1, 60) AS BIGINT) AS zone,
       CASE WHEN lat_m >= 0 THEN 'N' ELSE 'S' END AS hemi,
       CAST(COUNT(*) AS BIGINT) AS n
FROM p GROUP BY 1, 2 ORDER BY 1, 2
"""


def _q202_convergence(sf_dir: str):
    """Spherical meridian convergence per UTM zone: gamma =
    atan2(tan(lon - lon0) * sin(lat), 1) at each doc geotag (lon0
    the zone's central meridian), micro-radian-rounded per point
    BEFORE the int64 sums — per zone (n, sum_gamma_urad,
    sum_abs_urad), the grid-declination statistic a map-sheet
    pipeline tabulates (spherical form of the proj -S factor;
    ellipsoidal gamma is covered by the factors kernels in pytest).
    Trig mirrored op-for-op; one 60-bin partial aggregation."""
    import pandas as pd

    docs = _read(sf_dir, "documents", columns=["doc_id"])

    def conv(b: dict) -> pd.DataFrame:
        i = np.asarray(b["doc_id"], dtype=np.int64)
        lon_m = i * 61803 % 360000
        lat_m = i * 75487 % 170000 - 85000
        zone = np.minimum(lon_m // 6000 + 1, 60)
        lon0_m = (zone - 1) * 6000 + 3000
        dlam = (lon_m - lon0_m).astype(np.float64) / 1000.0
        lat = lat_m.astype(np.float64) / 1000.0
        gam = np.arctan2(np.tan(np.radians(dlam))
                         * np.sin(np.radians(lat)), 1.0)
        urad = np.rint(gam * 1e6).astype(np.int64)
        g = (pd.DataFrame({"zone": zone, "u": urad})
             .groupby("zone", as_index=False)
             .agg(n=("u", "size"), sum_gamma_urad=("u", "sum"),
                  sum_abs_urad=("u", lambda s: np.abs(
                      s.to_numpy(np.int64)).sum())))
        return g

    out = (docs.map_batches(conv, batch_format="numpy",
                            batch_size=65536)
           .to_pandas().groupby("zone", as_index=False)
           .agg(n=("n", "sum"),
                sum_gamma_urad=("sum_gamma_urad", "sum"),
                sum_abs_urad=("sum_abs_urad", "sum")))
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("zone", ignore_index=True)


_Q202_SQL = """
WITH p AS (
  SELECT doc_id * 61803 % 360000 AS lon_m,
         doc_id * 75487 % 170000 - 85000 AS lat_m
  FROM documents),
z AS (
  SELECT LEAST(lon_m // 6000 + 1, 60) AS zone,
         (lon_m - ((LEAST(lon_m // 6000 + 1, 60) - 1) * 6000
                   + 3000)) / 1000.0 AS dlam,
         lat_m / 1000.0 AS lat
  FROM p),
g AS (
  SELECT zone,
         CAST(round(atan2(tan(radians(dlam)) * sin(radians(lat)),
                          1.0) * 1000000.0) AS BIGINT) AS u
  FROM z)
SELECT CAST(zone AS BIGINT) AS zone,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(u) AS BIGINT) AS sum_gamma_urad,
       CAST(SUM(abs(u)) AS BIGINT) AS sum_abs_urad
FROM g GROUP BY 1 ORDER BY 1
"""


def _q203_grts_sample(sf_dir: str):
    """Spatially-balanced systematic sampling (the GRTS idea:
    stride through a locality-preserving curve ordering): a doc is
    sampled iff its order-8 Hilbert key satisfies h % 61 == 0 — a
    prime stride through key space, so the sample spreads evenly
    over the map instead of clustering like a doc_id stride would.
    Per source: population count, sample count and an id checksum.
    Stateless map over the existing Hilbert kernel (cells.py
    hilbert_cell, the q115 machinery); the oracle reuses the
    8-level bit-transform CTE chain."""
    import pandas as pd

    from proj_ray.cells import hilbert_cell

    docs = _read(sf_dir, "documents", columns=["doc_id", "source"])

    def pick(b: dict) -> pd.DataFrame:
        i = np.asarray(b["doc_id"], dtype=np.int64)
        lon, lat = _geotag(i)
        h = hilbert_cell(lon, lat, 8)
        take = (h % 61 == 0)
        g = (pd.DataFrame({"source": np.asarray(b["source"]),
                           "n_docs": np.ones(len(i), np.int64),
                           "n_sampled": take.astype(np.int64),
                           "checksum": np.where(take, i * 31, 0)})
             .groupby("source", as_index=False).sum())
        return g

    out = (docs.map_batches(pick, batch_format="numpy",
                            batch_size=65536)
           .to_pandas().groupby("source", as_index=False).sum())
    for c in ("n_docs", "n_sampled", "checksum"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("source", ignore_index=True)


_Q203_SQL = f"""
WITH geo AS ({_GEO_SQL}),
h0 AS (
  SELECT doc_id,
         CAST(least(greatest(floor((lon + 180.0) / 360.0 * 256), 0),
                    255) AS BIGINT) AS x,
         CAST(least(greatest(floor((lat + 85.0) / 170.0 * 256), 0),
                    255) AS BIGINT) AS y,
         CAST(0 AS BIGINT) AS d
  FROM geo),
{_hilbert_sql_steps()},
s AS (SELECT h8.doc_id, h8.d, dc.source
      FROM h8 JOIN documents dc ON h8.doc_id = dc.doc_id)
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(COUNT(*) FILTER (d % 61 = 0) AS BIGINT) AS n_sampled,
       CAST(COALESCE(SUM(doc_id * 31) FILTER (d % 61 = 0), 0)
            AS BIGINT) AS checksum
FROM s GROUP BY 1 ORDER BY 1
"""


def _q204_cluster_sample(sf_dir: str):
    """Two-stage cluster sampling (the survey-methodology design):
    stage 1 selects primary sampling units — zoom-3 tiles with
    (tx * 8 + ty) % 7 == 3; stage 2 takes the 5 lowest doc_ids
    within each selected tile. Per selected tile: population size,
    sample size, and the sampled-id sum. Per-block 5-row pre-prune
    ahead of the tile-bucket combine (the q200 quota shape)."""
    import pandas as pd

    from proj_ray.stages import with_tiles

    tiles = with_tiles(_docs_geo(sf_dir), zoom=3)

    def prune(b: dict) -> pd.DataFrame:
        df = pd.DataFrame({"doc_id": b["doc_id"],
                           "tx": b["tile_x"], "ty": b["tile_y"]})
        df = df[(df["tx"] * 8 + df["ty"]) % 7 == 3]
        cen = (df.groupby(["tx", "ty"], as_index=False).size()
               .rename(columns={"size": "n_pop"}))
        top = (df.sort_values(["tx", "ty", "doc_id"])
               .groupby(["tx", "ty"], sort=False).head(5)
               .assign(n_pop=np.int64(0)))
        cen = cen.assign(doc_id=np.int64(-1))
        return pd.concat([top, cen[top.columns]], ignore_index=True)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for (tx, ty), gg in g.groupby(["tx", "ty"], sort=False):
            n_pop = int(gg["n_pop"].sum())
            cand = gg[gg["doc_id"] >= 0].sort_values(
                "doc_id").head(5)
            rows.append((tx, ty, n_pop, len(cand),
                         int(cand["doc_id"].sum())))
        return pd.DataFrame(rows, columns=["tile_x", "tile_y",
                                           "n_pop", "n_sampled",
                                           "sum_ids"])

    out = co_partition(tiles.map_batches(prune, batch_format="pandas",
                                         batch_size=65536),
                       ["tx", "ty"], fold).to_pandas()
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.sort_values(["tile_x", "tile_y"], ignore_index=True)


_Q204_SQL = f"""
WITH geo AS ({_GEO_SQL}),
t AS (
  SELECT doc_id,
    CAST(LEAST(GREATEST(floor(
        (radians(lon) * 6378137.0 + pi() * 6378137.0)
        / (2 * pi() * 6378137.0) * 8), 0), 7) AS BIGINT) AS tx,
    CAST(LEAST(GREATEST(floor(
        (pi() * 6378137.0 - 6378137.0
           * ln(tan(pi()/4 + radians(lat)/2)))
        / (2 * pi() * 6378137.0) * 8), 0), 7) AS BIGINT) AS ty
  FROM geo),
sel AS (SELECT * FROM t WHERE (tx * 8 + ty) % 7 = 3),
r AS (SELECT tx, ty, doc_id,
             ROW_NUMBER() OVER (PARTITION BY tx, ty
                                ORDER BY doc_id) AS rk
      FROM sel)
SELECT tx AS tile_x, ty AS tile_y,
       CAST(COUNT(*) AS BIGINT) AS n_pop,
       CAST(COUNT(*) FILTER (rk <= 5) AS BIGINT) AS n_sampled,
       CAST(SUM(doc_id) FILTER (rk <= 5) AS BIGINT) AS sum_ids
FROM r GROUP BY 1, 2 ORDER BY 1, 2
"""


def _q205_correlogram(sf_dir: str):
    """Spatial correlogram: Moran's I pieces at THREE lattice scales
    (zoom 3, 4, 5) from ONE zoom-5 count pass — coarser grids fold by
    2x2 sums (the q152 pyramid), so scale dependence costs no extra
    data passes. Per zoom: n_cells, w_pairs (directed rook pairs of
    the full s x s lattice), s_total, i_num, i_den — exact integers,
    q151's scaled-deviation construction at each scale."""
    import pandas as pd

    counts = pull_pandas(_tile_counts(sf_dir, 5))
    grid = np.zeros((32, 32), dtype=np.int64)
    grid[counts["tile_x"].to_numpy(np.int64),
         counts["tile_y"].to_numpy(np.int64)] = \
        counts["n"].to_numpy(np.int64)
    grids = {5: grid}
    for z in (4, 3):
        g = grids[z + 1]
        grids[z] = (g.reshape(g.shape[0] // 2, 2,
                              g.shape[1] // 2, 2).sum(axis=(1, 3)))
    rows = []
    for z in (3, 4, 5):
        g = grids[z]
        s = g.shape[0]
        n = s * s
        tot = int(g.sum())
        d = n * g - tot
        num = int((d[:-1, :] * d[1:, :]).sum()) * 2 \
            + int((d[:, :-1] * d[:, 1:]).sum()) * 2
        den = int((d * d).sum())
        rows.append((z, n, 2 * (2 * s * (s - 1)), tot, num, den))
    return pd.DataFrame(rows, columns=["z", "n_cells", "w_pairs",
                                       "s_total", "i_num", "i_den"]) \
        .astype(np.int64)


_Q205_SQL = f"""
WITH geo AS ({_GEO_SQL}),
t AS (
  SELECT
    CAST(LEAST(GREATEST(floor(
        (radians(lon) * 6378137.0 + pi() * 6378137.0)
        / (2 * pi() * 6378137.0) * 32), 0), 31) AS BIGINT) AS tx,
    CAST(LEAST(GREATEST(floor(
        (pi() * 6378137.0 - 6378137.0
           * ln(tan(pi()/4 + radians(lat)/2)))
        / (2 * pi() * 6378137.0) * 32), 0), 31) AS BIGINT) AS ty
  FROM geo),
c5 AS (SELECT tx, ty, CAST(count(*) AS BIGINT) AS n
       FROM t GROUP BY 1, 2),
zs AS (SELECT z.z AS z, CAST(1 << CAST(z.z AS INT) AS BIGINT) AS s
       FROM range(3, 6) z(z)),
lat AS (SELECT zs.z, zs.s, x.x AS tx, y.y AS ty
        FROM zs CROSS JOIN range(32) x(x) CROSS JOIN range(32) y(y)
        WHERE x.x < zs.s AND y.y < zs.s),
g AS (SELECT l.z, l.s, l.tx, l.ty,
             COALESCE((SELECT SUM(c5.n) FROM c5
                       WHERE c5.tx >> CAST(5 - l.z AS INT) = l.tx
                         AND c5.ty >> CAST(5 - l.z AS INT) = l.ty),
                      0) AS n
      FROM lat l),
d AS (SELECT z, s, tx, ty,
             s * s * n - (SELECT SUM(n) FROM g g2
                          WHERE g2.z = g.z) AS d
      FROM g)
SELECT zs.z,
       CAST(zs.s * zs.s AS BIGINT) AS n_cells,
       CAST(2 * (2 * zs.s * (zs.s - 1)) AS BIGINT) AS w_pairs,
       CAST((SELECT SUM(n) FROM g WHERE g.z = zs.z)
            AS BIGINT) AS s_total,
       CAST((SELECT SUM(a.d * b.d) FROM d a JOIN d b
             ON a.z = zs.z AND b.z = zs.z
            AND abs(a.tx - b.tx) + abs(a.ty - b.ty) = 1)
            AS BIGINT) AS i_num,
       CAST((SELECT SUM(d.d * d.d) FROM d WHERE d.z = zs.z)
            AS BIGINT) AS i_den
FROM zs ORDER BY 1
"""


def _q206_key_skew(sf_dir: str):
    """Join-key skew audit: Gini inequality of the lineitem rows per
    l_orderkey — the statistic a shuffle planner consults before
    choosing a salted join (q150's sorted-rank identity applied to
    KEY FREQUENCIES instead of value columns). The key-count table
    builds with per-block partials; the rank fold runs in one
    key-bucket exchange shipping (key, count) only."""
    import pandas as pd

    li = _read(sf_dir, "lineitem", columns=["l_orderkey"])

    def partial(b: dict) -> pd.DataFrame:
        k, c = np.unique(np.asarray(b["l_orderkey"], np.int64),
                         return_counts=True)
        return pd.DataFrame({"k": k, "c": c.astype(np.int64)})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("k", as_index=False)["c"].sum()

    counts = co_partition(li.map_batches(partial, batch_format="numpy",
                                         batch_size=65536),
                          "k", fold).to_pandas()
    x = np.sort(counts["c"].to_numpy(np.int64))
    n = len(x)
    i = np.arange(1, n + 1, dtype=np.int64)
    return pd.DataFrame({
        "n_keys": [np.int64(n)],
        "g_num": [np.int64(((2 * i - n - 1) * x).sum())],
        "sum_rows": [np.int64(x.sum())],
        "max_key_rows": [np.int64(x[-1] if n else 0)]})


_Q206_SQL = """
WITH c AS (SELECT l_orderkey, CAST(COUNT(*) AS BIGINT) AS c
           FROM lineitem GROUP BY 1),
r AS (SELECT c, ROW_NUMBER() OVER (ORDER BY c) AS rn,
             COUNT(*) OVER () AS n
      FROM c)
SELECT CAST(MAX(n) AS BIGINT) AS n_keys,
       CAST(SUM((2 * rn - n - 1) * c) AS BIGINT) AS g_num,
       CAST(SUM(c) AS BIGINT) AS sum_rows,
       CAST(MAX(c) AS BIGINT) AS max_key_rows
FROM r
"""


def _q207_temporal_motifs(sf_dir: str):
    """Temporal motif counts: ordered event-type pairs (a -> b) where
    b happens STRICTLY after a and within 1 hour, within the same
    user — the time-windowed generalization of q138's
    consecutive-step transitions (a pair here need not be adjacent).
    One user-bucket all-to-all; inside the bucket the window
    expansion is searchsorted bounds + a repeat/flat index pass, no
    per-pair Python."""
    import pandas as pd

    ev = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "event_type"])
    W = 3_600_000_000

    def tag(b: dict) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": np.asarray(b["user_id"], dtype=np.int64),
            "e": np.asarray(b["event_id"], dtype=np.int64),
            "t": np.asarray(b["ts"]).astype("datetime64[us]")
            .astype(np.int64),
            "ty": np.asarray(b["event_type"])})

    def motifs(g: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for _, gg in g.groupby("user_id", sort=False):
            gg = gg.sort_values(["t", "e"], kind="mergesort")
            t = gg["t"].to_numpy(np.int64)
            ty = gg["ty"].to_numpy()
            lo = np.searchsorted(t, t, side="right")
            hi = np.searchsorted(t, t + W, side="right")
            cnt = hi - lo
            if cnt.sum() == 0:
                continue
            src = np.repeat(np.arange(len(t)), cnt)
            dst = (np.arange(len(src))
                   - np.repeat(np.cumsum(cnt) - cnt, cnt)
                   + np.repeat(lo, cnt))
            frames.append(pd.DataFrame({"type_a": ty[src],
                                        "type_b": ty[dst]}))
        if not frames:
            return pd.DataFrame({"type_a": pd.Series([], dtype=str),
                                 "type_b": pd.Series([], dtype=str),
                                 "n": pd.Series([], dtype=np.int64)})
        out = (pd.concat(frames, ignore_index=True)
               .groupby(["type_a", "type_b"], as_index=False).size()
               .rename(columns={"size": "n"}))
        return out

    out = (co_partition(ev.map_batches(tag, batch_format="numpy",
                                       batch_size=65536),
                        "user_id", motifs)
           .to_pandas()
           .groupby(["type_a", "type_b"], as_index=False)["n"].sum())
    out["n"] = out["n"].astype(np.int64)
    return out.sort_values(["type_a", "type_b"], ignore_index=True)


_Q207_SQL = """
SELECT a.event_type AS type_a, b.event_type AS type_b,
       CAST(COUNT(*) AS BIGINT) AS n
FROM events a JOIN events b
  ON a.user_id = b.user_id
 AND b.ts > a.ts
 AND epoch_us(b.ts) - epoch_us(a.ts) <= 3600000000
GROUP BY 1, 2 ORDER BY 1, 2
"""


def _q208_vignetting(sf_dir: str):
    """Vignetting / border-darkening audit per format: exact luma
    sums and pixel counts of the 2-pixel border ring vs the
    interior of every decoded image — the lens/crop QA screen of an
    image-ingest pipeline (border mean << center mean flags
    vignettes; here it pins codec + geometry exactness). One
    4-counter row per image; oracle regenerates pixels + the qjpg
    quantization."""
    from proj_ray.images import decode, images_table

    n = _read(sf_dir, "documents").count()

    def ring(b: dict) -> dict:
        cnt = len(b["image_id"])
        out = {k: np.empty(cnt, dtype=np.int64)
               for k in ("sum_border", "n_border",
                         "sum_center", "n_center")}
        for k in range(cnt):
            px = decode(b["bytes"][k], b["fmt"][k]).astype(np.int64)
            lum = 2 * px[..., 0] + 3 * px[..., 1] + px[..., 2]
            h, w = lum.shape
            m = np.zeros((h, w), dtype=bool)
            m[:2, :] = m[-2:, :] = True
            m[:, :2] = m[:, -2:] = True
            out["sum_border"][k] = int(lum[m].sum())
            out["n_border"][k] = int(m.sum())
            out["sum_center"][k] = int(lum[~m].sum())
            out["n_center"][k] = int((~m).sum())
        out["fmt"] = np.asarray(b["fmt"])
        out["one"] = np.ones(cnt, np.int64)
        return out

    per = images_table(
        n, columns=["image_id", "bytes", "fmt"]).map_batches(
        ring, batch_format="numpy", batch_size=256)
    cols = ["sum_border", "n_border", "sum_center", "n_center"]
    return pull_pandas(bucketed_sum(per, "fmt", ["one", *cols],
                                    ["n_images", *cols]))


_Q208_SQL = """
WITH seq AS (SELECT ROW_NUMBER() OVER () - 1 AS i FROM documents),
img AS (SELECT i, CASE WHEN i > 0 AND i % 97 = 0 THEN i - 1 ELSE i END
               AS src FROM seq),
dim AS (SELECT i, src, src % 3 AS f,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 32 ELSE 64 END AS w,
               CASE src % 3 WHEN 0 THEN 16 WHEN 1 THEN 24 ELSE 48 END AS h
        FROM img),
px AS (SELECT i, src, f, w, h, y.y AS y, x.x AS x
       FROM dim CROSS JOIN range(48) y(y) CROSS JOIN range(64) x(x)
       WHERE y.y < h AND x.x < w),
raw AS (SELECT i, f, w, h, y, x,
               (src*37 + y*11 + x*7) % 256 AS r,
               (src*53 + y*5 + x*13) % 256 AS g,
               (src*97 + (y+x)*3) % 256 AS b
        FROM px),
lm AS (SELECT i, f, y, x,
              CASE WHEN y < 2 OR y >= h - 2 OR x < 2 OR x >= w - 2
                   THEN 1 ELSE 0 END AS brd,
              2*(CASE WHEN f = 1 THEN (r//4)*4+2 ELSE r END)
            + 3*(CASE WHEN f = 1 THEN (g//4)*4+2 ELSE g END)
            +   (CASE WHEN f = 1 THEN (b//4)*4+2 ELSE b END) AS lum
       FROM raw)
SELECT CASE f WHEN 0 THEN 'png' WHEN 1 THEN 'qjpg' ELSE 'bmp' END
         AS fmt,
       CAST(COUNT(DISTINCT i) AS BIGINT) AS n_images,
       CAST(SUM(lum * brd) AS BIGINT) AS sum_border,
       CAST(SUM(brd) AS BIGINT) AS n_border,
       CAST(SUM(lum * (1 - brd)) AS BIGINT) AS sum_center,
       CAST(SUM(1 - brd) AS BIGINT) AS n_center
FROM lm GROUP BY 1 ORDER BY 1
"""


def _q209_time_pcf(sf_dir: str):
    """Temporal pair-correlation function: exact unordered event-pair
    counts within |day_i - day_j| <= tau for tau in {1, 3, 7} —
    computed WITHOUT any pair pass from the <= 31-row day histogram
    (cross terms over close day pairs plus C(c,2) within days, the
    q161 n_time identity swept over lags). The burstiness-vs-lag
    curve of an event stream; one bounded histogram pass."""
    import pandas as pd

    ev = _read(sf_dir, "events", columns=["ts"])

    def day_hist(b: dict) -> pd.DataFrame:
        day = (np.asarray(b["ts"]).astype("datetime64[us]")
               .astype(np.int64) // 86_400_000_000)
        return (pd.DataFrame({"day": day})
                .groupby("day", as_index=False).size()
                .rename(columns={"size": "c"}))

    dc = (ev.map_batches(day_hist, batch_format="numpy",
                         batch_size=65536)
          .to_pandas().groupby("day", as_index=False)["c"].sum())
    d = dc["day"].to_numpy(np.int64)
    c = dc["c"].to_numpy(np.int64)
    within = int((c * (c - 1) // 2).sum())
    rows = []
    for tau in (1, 3, 7):
        cross = (d[None, :] > d[:, None]) \
            & (d[None, :] - d[:, None] <= tau)
        rows.append((tau, within
                     + int((c[:, None] * c[None, :] * cross).sum())))
    return pd.DataFrame(rows, columns=["tau", "n_pairs"]) \
        .astype(np.int64)


_Q209_SQL = """
WITH dc AS (
  SELECT epoch_us(ts) // 86400000000 AS day,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM events GROUP BY 1),
taus AS (SELECT * FROM (VALUES (1), (3), (7)) t(tau))
SELECT CAST(taus.tau AS BIGINT) AS tau,
       CAST((SELECT SUM(c * (c - 1) // 2) FROM dc)
          + COALESCE((SELECT SUM(a.c * b.c) FROM dc a JOIN dc b
                      ON b.day > a.day
                     AND b.day <= a.day + taus.tau), 0)
            AS BIGINT) AS n_pairs
FROM taus ORDER BY 1
"""


def _q210_winsorized(sf_dir: str):
    """Exact winsorized aggregates per event type: values
    milli-quantize to int64, the p5/p95 bounds are TRUE order
    statistics (the value at rank ceil(0.05*n) / ceil(0.95*n) —
    well-defined regardless of tie order), and the robust sum clips
    every value into [p5, p95] — the outlier-resistant mean's exact
    integer pieces. Pass 1 builds bounded per-(type, value)
    histograms (per-block partials); the rank thresholds read off
    the cumulative histogram driver-side and broadcast; pass 2 is a
    stateless clip-sum. Mirrors q95's histogram order-statistics at
    per-group granularity."""
    import pandas as pd
    import ray

    ev = _read(sf_dir, "events", columns=["event_type", "value"])

    def hist(b: dict) -> pd.DataFrame:
        return (pd.DataFrame({"event_type": np.asarray(
            b["event_type"]), "v": _milli(b["value"], 1000)})
            .groupby(["event_type", "v"], as_index=False).size()
            .rename(columns={"size": "c"}))

    h = (ev.map_batches(hist, batch_format="numpy",
                        batch_size=65536)
         .to_pandas()
         .groupby(["event_type", "v"], as_index=False)["c"].sum())
    bounds = {}
    for ty, g in h.groupby("event_type", sort=True):
        g = g.sort_values("v")
        v = g["v"].to_numpy(np.int64)
        cs = g["c"].to_numpy(np.int64).cumsum()
        n = int(cs[-1])
        k_lo = (n * 5 + 99) // 100
        k_hi = (n * 95 + 99) // 100
        lo = int(v[np.searchsorted(cs, k_lo)])
        hi = int(v[np.searchsorted(cs, k_hi)])
        bounds[ty] = (lo, hi)
    ref = ray.put(bounds)

    def clip_sum(b: dict) -> pd.DataFrame:
        tab = ray.get(ref)
        ty = np.asarray(b["event_type"])
        v = _milli(b["value"], 1000)
        missing = set(pd.unique(ty)) - tab.keys()
        if missing:
            raise ValueError(f"event_type {min(map(repr, missing))} has "
                             "no p5/p95 bounds from the histogram pass")
        out = np.zeros(len(v), dtype=np.int64)
        for t, (lo, hi) in tab.items():
            m = ty == t
            out[m] = np.clip(v[m], lo, hi)
        return (pd.DataFrame({"event_type": ty, "w": out,
                              "n": np.ones(len(v), np.int64)})
                .groupby("event_type", as_index=False).sum())

    out = (ev.map_batches(clip_sum, batch_format="numpy",
                          batch_size=65536)
           .to_pandas().groupby("event_type", as_index=False).sum())
    out["p5_q"] = out["event_type"].map(
        lambda t: bounds[t][0]).astype(np.int64)
    out["p95_q"] = out["event_type"].map(
        lambda t: bounds[t][1]).astype(np.int64)
    out = out.rename(columns={"w": "winsor_sum", "n": "n_events"})
    for c in ("winsor_sum", "n_events"):
        out[c] = out[c].astype(np.int64)
    return out[["event_type", "n_events", "p5_q", "p95_q",
                "winsor_sum"]].sort_values("event_type",
                                           ignore_index=True)


_Q210_SQL = """
WITH q AS (
  SELECT event_type,
         CAST(round(value * 1000) AS BIGINT) AS v
  FROM events),
r AS (
  SELECT event_type, v,
         ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY v)
           AS rn,
         COUNT(*) OVER (PARTITION BY event_type) AS n
  FROM q),
lo AS (SELECT event_type, v AS p5_q FROM r
       WHERE rn = (n * 5 + 99) // 100),
hi AS (SELECT event_type, v AS p95_q FROM r
       WHERE rn = (n * 95 + 99) // 100)
SELECT q.event_type,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(MIN(lo.p5_q) AS BIGINT) AS p5_q,
       CAST(MIN(hi.p95_q) AS BIGINT) AS p95_q,
       CAST(SUM(LEAST(GREATEST(q.v, lo.p5_q), hi.p95_q))
            AS BIGINT) AS winsor_sum
FROM q JOIN lo ON q.event_type = lo.event_type
JOIN hi ON q.event_type = hi.event_type
GROUP BY 1 ORDER BY 1
"""


def _q211_mad(sf_dir: str):
    """Exact median absolute deviation per event type — the robust
    scale estimator completing q210's winsorized location: the
    median is the order statistic at rank ceil(n/2) of the bounded
    per-(type, value) histogram; a second histogram pass over
    |v - median| (medians broadcast) yields MAD as ITS rank-ceil(n/2)
    order statistic. Two bounded histogram exchanges, no sort of raw
    rows; every quantity an exact int64."""
    import pandas as pd
    import ray

    ev = _read(sf_dir, "events", columns=["event_type", "value"])

    def hist(b: dict) -> pd.DataFrame:
        return (pd.DataFrame({"event_type": np.asarray(
            b["event_type"]), "v": _milli(b["value"], 1000)})
            .groupby(["event_type", "v"], as_index=False).size()
            .rename(columns={"size": "c"}))

    def order_stat(h: pd.DataFrame) -> dict:
        out = {}
        for ty, g in h.groupby("event_type", sort=True):
            g = g.sort_values("v")
            v = g["v"].to_numpy(np.int64)
            cs = g["c"].to_numpy(np.int64).cumsum()
            n = int(cs[-1])
            out[ty] = (int(v[np.searchsorted(cs, (n + 1) // 2)]), n)
        return out

    h1 = (ev.map_batches(hist, batch_format="numpy",
                         batch_size=65536)
          .to_pandas()
          .groupby(["event_type", "v"], as_index=False)["c"].sum())
    med = order_stat(h1)
    ref = ray.put({t: m for t, (m, _) in med.items()})

    def hist_dev(b: dict) -> pd.DataFrame:
        tab = ray.get(ref)
        ty = np.asarray(b["event_type"])
        v = _milli(b["value"], 1000)
        missing = set(pd.unique(ty)) - tab.keys()
        if missing:
            raise ValueError(f"event_type {min(map(repr, missing))} has "
                             "no median from the histogram pass")
        dev = np.zeros(len(v), dtype=np.int64)
        for t, m in tab.items():
            msk = ty == t
            dev[msk] = np.abs(v[msk] - m)
        return (pd.DataFrame({"event_type": ty, "v": dev})
                .groupby(["event_type", "v"], as_index=False).size()
                .rename(columns={"size": "c"}))

    h2 = (ev.map_batches(hist_dev, batch_format="numpy",
                         batch_size=65536)
          .to_pandas()
          .groupby(["event_type", "v"], as_index=False)["c"].sum())
    mad = order_stat(h2)
    rows = [(t, med[t][1], med[t][0], mad[t][0])
            for t in sorted(med)]
    return pd.DataFrame(rows, columns=["event_type", "n_events",
                                       "median_q", "mad_q"]) \
        .astype({"n_events": np.int64, "median_q": np.int64,
                 "mad_q": np.int64})


_Q211_SQL = """
WITH q AS (
  SELECT event_type,
         CAST(round(value * 1000) AS BIGINT) AS v
  FROM events),
r AS (
  SELECT event_type, v,
         ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY v)
           AS rn,
         COUNT(*) OVER (PARTITION BY event_type) AS n
  FROM q),
med AS (SELECT event_type, v AS m, n FROM r
        WHERE rn = (n + 1) // 2),
d AS (
  SELECT q.event_type, abs(q.v - med.m) AS v
  FROM q JOIN med ON q.event_type = med.event_type),
r2 AS (
  SELECT event_type, v,
         ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY v)
           AS rn,
         COUNT(*) OVER (PARTITION BY event_type) AS n
  FROM d)
SELECT med.event_type, CAST(med.n AS BIGINT) AS n_events,
       CAST(med.m AS BIGINT) AS median_q,
       CAST(r2.v AS BIGINT) AS mad_q
FROM med JOIN r2 ON med.event_type = r2.event_type
WHERE r2.rn = (r2.n + 1) // 2
ORDER BY 1
"""


def entry() -> Any:
    """Flagship: images -> cells -> tiles -> PIP join -> per-tile agg."""
    return _q21_images_tiles("/root/testdata/sf0.001")


# The query registry, one row per query: (name, fn, oracle SQL,
# timed_by_bench). queries() and oracle_sql() read it, and bench.py's
# suite times the rows marked True. An oracle that is generated (q17,
# q32, q68) is given as its generator, called only by oracle_sql().
_QUERIES: list[tuple[str, Callable[[str], Any],
                     str | Callable[[], str], bool]] = [
    ("q01_pricing_summary", _q01_pricing, _Q01_SQL, True),
    ("q02_order_status", _q02_order_status, _Q02_SQL, False),
    ("q03_top_customers", _q03_top_customers, _Q03_SQL, False),
    ("q04_events_by_type", _q04_events_by_type, _Q04_SQL, False),
    ("q05_webmerc", _q05_webmerc, _Q05_SQL, True),
    ("q06_tiles", _q06_tiles, _Q06_SQL, False),
    ("q07_tile_counts", _q07_tile_counts, _Q07_SQL, True),
    ("q08_grid_cells", _q08_grid_cells, _Q08_SQL, False),
    ("q09_pip_rect_join", _q09_pip_rect, _Q09_SQL, True),
    ("q10_knn", _q10_knn, _Q10_SQL, True),
    ("q11_dedup_exact", _q11_dedup_exact, _Q11_SQL, True),
    ("q12_token_stats", _q12_token_stats, _Q12_SQL, False),
    ("q13_part_brand", _q13_part_brand, _Q13_SQL, False),
    ("q14_ann_cosine", _q14_ann, _Q14_SQL, True),
    ("q15_region_nation", _q15_region_nation, _Q15_SQL, False),
    ("q16_utm", _q16_utm, _Q16_SQL, True),
    ("q17_geodesic", _q17_geodesic, _gen_q17_sql, False),
    ("q18_text_quality", _q18_text_quality, _Q18_SQL, True),
    ("q19_minhash_pairs", _q19_minhash_pairs, _Q19_SQL, False),
    ("q20_simhash", _q20_simhash, _Q20_SQL, False),
    ("q21_images_tiles", _q21_images_tiles, _Q21_SQL, False),
    ("q22_images_join", _q22_images_join, _Q22_SQL, False),
    ("q23_ann_ivf", _q23_ivf, _Q14_SQL, False),
    ("q24_dedup_images", _q24_dedup_images, _Q24_SQL, False),
    ("q25_merc_scale", _q25_merc_scale, _Q25_SQL, False),
    ("q26_ann_ivf_indexed", _q26_ann_ivf_indexed, _Q26_SQL, False),
    ("q27_knn_indexed", _q27_knn_indexed, _Q10_SQL, False),
    ("q28_datum_shift", _q28_datum_shift, _Q28_SQL, False),
    ("q29_ngram_jaccard", _q29_ngram_jaccard, _Q29_SQL, False),
    ("q30_asof_join", _q30_asof_join, _Q30_SQL, False),
    ("q31_window_agg", _q31_window_agg, _Q31_SQL, False),
    ("q32_geodesic_direct", _q32_geodesic_direct, _gen_q32_sql, False),
    ("q33_dedup_embedding", _q33_dedup_embedding, _Q33_SQL, True),
    ("q34_images_resize", _q34_images_resize, _Q34_SQL, True),
    ("q35_video_frames", _q35_video_frames, _Q35_SQL, True),
    ("q36_audio_features", _q36_audio_features, _Q36_SQL, True),
    ("q37_range_join", _q37_range_join, _Q37_SQL, False),
    ("q38_sessionize", _q38_sessionize, _Q38_SQL, True),
    ("q39_stratified_sample", _q39_stratified_sample, _Q39_SQL, False),
    ("q40_topk_per_group", _q40_topk_per_group, _Q40_SQL, False),
    ("q41_grouped_quantiles", _q41_grouped_quantiles, _Q41_SQL, True),
    ("q42_count_distinct", _q42_count_distinct, _Q42_SQL, False),
    ("q43_geohash", _q43_geohash, _Q43_SQL, False),
    ("q44_polygon_burn", _q44_polygon_burn, _Q44_SQL, False),
    ("q45_dwithin_join", _q45_dwithin_join, _Q45_SQL, True),
    ("q46_rolling_window", _q46_rolling_window, _Q46_SQL, True),
    ("q47_pivot", _q47_pivot, _Q47_SQL, True),
    ("q48_anti_join", _q48_anti_join, _Q48_SQL, False),
    ("q49_zonal_stats", _q49_zonal_stats, _Q49_SQL, True),
    ("q50_rollup", _q50_rollup, _Q50_SQL, False),
    ("q51_heavy_hitters", _q51_heavy_hitters, _Q51_SQL, True),
    ("q52_revenue_by_nation", _q52_revenue_by_nation, _Q52_SQL, True),
    ("q53_unpivot", _q53_unpivot, _Q53_SQL, False),
    ("q54_track_length", _q54_track_length, _Q54_SQL, False),
    ("q55_raster_warp", _q55_raster_warp, _Q55_SQL, False),
    ("q56_raster_sample", _q56_raster_sample, _Q56_SQL, False),
    ("q57_hillshade", _q57_hillshade, _Q57_SQL, False),
    ("q58_laea_warp", _q58_laea_warp, _Q58_SQL, False),
    ("q59_tfidf", _q59_tfidf, _Q59_SQL, False),
    ("q60_pmi_pairs", _q60_pmi_pairs, _Q60_SQL, False),
    ("q61_dedup_clusters", _q61_dedup_clusters, _Q61_SQL, False),
    ("q62_dedup_pipeline", _q62_dedup_pipeline, _Q62_SQL, False),
    ("q63_kmeans_estep", _q63_kmeans_estep, _Q63_SQL, False),
    ("q64_global_sort", _q64_global_sort, _Q64_SQL, False),
    ("q65_blob_stats", _q65_blob_stats, _Q65_SQL, False),
    ("q66_raster_pyramid", _q66_raster_pyramid, _Q66_SQL, False),
    ("q67_track_densify", _q67_track_densify, _Q67_SQL, False),
    ("q68_pip_polygons", _q68_pip_polygons, _q68_sql, False),
    ("q69_bounds_cover", _q69_bounds_cover, _Q69_SQL, False),
    ("q70_dedup_embedding_lsh", _q70_dedup_embedding_lsh, _Q70_SQL, False),
    ("q71_overlay_area", _q71_overlay_area, _Q71_SQL, True),
    ("q72_track_crossings", _q72_track_crossings, _Q72_SQL, True),
    ("q73_substring_dedup", _q73_substring_dedup, _Q73_SQL, True),
    ("q74_cube", _q74_cube, _Q74_SQL, True),
    ("q75_grouped_stats", _q75_grouped_stats, _Q75_SQL, True),
    ("q76_gram_matrix", _q76_gram_matrix, _Q76_SQL, True),
    ("q77_profile", _q77_profile, _Q77_SQL, True),
    ("q78_hex_bin", _q78_hex_bin, _Q78_SQL, True),
    ("q79_inverted_index", _q79_inverted_index, _Q79_SQL, True),
    ("q80_bm25", _q80_bm25, _Q80_SQL, True),
    ("q81_dedup_incremental", _q81_dedup_incremental, _Q81_SQL, True),
    ("q82_minhash_incremental", _q82_minhash_incremental, _Q82_SQL, True),
    ("q83_ivf_append", _q83_ivf_append, _Q26_SQL, True),
    ("q84_json_stats", _q84_json_stats, _Q84_SQL, True),
    ("q85_pack_sequences", _q85_pack_sequences, _Q85_SQL, True),
    ("q86_bloom_semi_join", _q86_bloom_semi_join, _Q86_SQL, True),
    ("q87_gopher_quality", _q87_gopher_quality, _Q87_SQL, True),
    ("q88_bloom_anti_join", _q88_bloom_anti_join, _Q88_SQL, True),
    ("q89_decontaminate", _q89_decontaminate, _Q89_SQL, True),
    ("q90_centroid_outliers", _q90_centroid_outliers, _Q90_SQL, True),
    ("q91_gram_coverage", _q91_gram_coverage, _Q91_SQL, True),
    ("q92_clip_retrieval", _q92_clip_retrieval, _Q92_SQL, True),
    ("q93_geo_clip_retrieval", _q93_geo_clip_retrieval, _Q93_SQL, True),
    ("q94_resample_ffill", _q94_resample_ffill, _Q94_SQL, True),
    ("q95_top_percentile", _q95_top_percentile, _Q95_SQL, True),
    ("q96_latest_by_key", _q96_latest_by_key, _Q96_SQL, True),
    ("q97_curation_pipeline", _q97_curation_pipeline, _Q97_SQL, True),
    ("q98_split_assign", _q98_split_assign, _Q98_SQL, True),
    ("q99_bpe_pairs", _q99_bpe_pairs, _Q99_SQL, True),
    ("q100_source_overlap", _q100_source_overlap, _Q100_SQL, True),
    ("q101_jpeg_fidelity", _q101_jpeg_fidelity, _Q101_SQL, True),
    ("q102_pii_redact", _q102_pii_redact, _Q102_SQL, True),
    ("q103_repetition_filter", _q103_repetition_filter, _Q103_SQL, True),
    ("q104_pagerank", _q104_pagerank, _Q104_SQL, True),
    ("q105_funnel", _q105_funnel, _Q105_SQL, True),
    ("q106_retention", _q106_retention, _Q106_SQL, True),
    ("q107_snapshot_diff", _q107_snapshot_diff, _Q107_SQL, True),
    ("q108_salted_join", _q108_salted_join, _Q108_SQL, True),
    ("q109_map_match", _q109_map_match, _Q109_SQL, True),
    ("q110_idw_grid", _q110_idw_grid, _Q110_SQL, True),
    ("q111_contours", _q111_contours, _Q111_SQL, True),
    ("q112_triangles", _q112_triangles, _Q112_SQL, True),
    ("q113_image_patches", _q113_image_patches, _Q113_SQL, True),
    ("q114_scd2", _q114_scd2, _Q114_SQL, True),
    ("q115_hilbert", _q115_hilbert, _Q115_SQL, True),
    ("q116_late_events", _q116_late_events, _Q116_SQL, True),
    ("q117_cross_track", _q117_cross_track, _Q117_SQL, True),
    ("q118_kmeans_lloyd", _q118_kmeans_lloyd, _Q118_SQL, True),
    ("q119_dbscan_core", _q119_dbscan_core, _Q119_SQL, True),
    ("q120_hotspots", _q120_hotspots, _Q120_SQL, True),
    ("q121_ahash_neardup", _q121_ahash_neardup, _Q121_SQL, True),
    ("q122_fuzzy_join", _q122_fuzzy_join, _Q122_SQL, True),
    ("q123_skyline", _q123_skyline, _Q123_SQL, True),
    ("q124_kmv_distinct", _q124_kmv_distinct, _Q124_SQL, True),
    ("q125_priority_sample", _q125_priority_sample, _Q125_SQL, True),
    ("q126_bfs_hops", _q126_bfs_hops, _Q126_SQL, True),
    ("q127_dominant_color", _q127_dominant_color, _Q127_SQL, True),
    ("q128_count_min", _q128_count_min, _Q128_SQL, True),
    ("q129_pq_adc", _q129_pq_adc, _Q129_SQL, True),
    ("q130_staypoints", _q130_staypoints, _Q130_SQL, True),
    ("q131_rrf_fusion", _q131_rrf_fusion, _Q131_SQL, True),
    ("q132_sharpness", _q132_sharpness, _Q132_SQL, True),
    ("q133_scene_cuts", _q133_scene_cuts, _Q133_SQL, True),
    ("q134_simplify", _q134_simplify, _Q134_SQL, True),
    ("q135_hex_smooth", _q135_hex_smooth, _Q135_SQL, True),
    ("q136_sssp", _q136_sssp, _Q136_SQL, True),
    ("q137_weighted_median", _q137_weighted_median, _Q137_SQL, True),
    ("q138_transitions", _q138_transitions, _Q138_SQL, True),
    ("q139_trend", _q139_trend, _Q139_SQL, True),
    ("q140_cdc_chunks", _q140_cdc_chunks, _Q140_SQL, True),
    ("q141_stratified_priority", _q141_stratified_priority, _Q141_SQL, True),
    ("q142_hist_equalize", _q142_hist_equalize, _Q142_SQL, True),
    ("q143_hist_quantile", _q143_hist_quantile, _Q143_SQL, True),
    ("q144_dwell_time", _q144_dwell_time, _Q144_SQL, True),
    ("q145_corr_matrix", _q145_corr_matrix, _Q145_SQL, True),
    ("q146_source_similarity", _q146_source_similarity, _Q146_SQL, True),
    ("q147_voronoi_assign", _q147_voronoi_assign, _Q147_SQL, True),
    ("q148_gyration", _q148_gyration, _Q148_SQL, True),
    ("q149_peak_hour", _q149_peak_hour, _Q149_SQL, True),
    ("q150_gini", _q150_gini, _Q150_SQL, True),
    ("q151_morans_i", _q151_morans_i, _Q151_SQL, False),
    ("q152_quadtree", _q152_quadtree, _Q152_SQL, False),
    ("q153_snap_segments", _q153_snap_segments, _Q153_SQL, False),
    ("q154_mann_kendall", _q154_mann_kendall, _Q154_SQL, False),
    ("q155_glcm", _q155_glcm, _Q155_SQL, False),
    ("q156_heaps", _q156_heaps, _Q156_SQL, False),
    ("q157_bearing_hist", _q157_bearing_hist, _Q157_SQL, False),
    ("q158_exploration", _q158_exploration, _Q158_SQL, False),
    ("q159_gearys_c", _q159_gearys_c, _Q159_SQL, False),
    ("q160_ripley_k", _q160_ripley_k, _Q160_SQL, False),
    ("q161_knox", _q161_knox, _Q161_SQL, False),
    ("q162_image_moments", _q162_image_moments, _Q162_SQL, False),
    ("q163_od_matrix", _q163_od_matrix, _Q163_SQL, False),
    ("q164_colocation", _q164_colocation, _Q164_SQL, False),
    ("q165_skipgrams", _q165_skipgrams, _Q165_SQL, False),
    ("q166_benford", _q166_benford, _Q166_SQL, False),
    ("q167_dup_histogram", _q167_dup_histogram, _Q167_SQL, False),
    ("q168_interarrival", _q168_interarrival, _Q168_SQL, False),
    ("q169_degree_hist", _q169_degree_hist, _Q169_SQL, False),
    ("q170_assortativity", _q170_assortativity, _Q170_SQL, False),
    ("q171_clustering_coeff", _q171_clustering_coeff, _Q171_SQL, False),
    ("q172_attribution", _q172_attribution, _Q172_SQL, False),
    ("q173_setdist", _q173_setdist, _Q173_SQL, False),
    ("q174_tile_turnover", _q174_tile_turnover, _Q174_SQL, False),
    ("q175_assoc_rules", _q175_assoc_rules, _Q175_SQL, False),
    ("q176_haar_energy", _q176_haar_energy, _Q176_SQL, False),
    ("q177_rle_runs", _q177_rle_runs, _Q177_SQL, False),
    ("q178_outliers", _q178_outliers, _Q178_SQL, False),
    ("q179_ewma_bursts", _q179_ewma_bursts, _Q179_SQL, False),
    ("q180_user_extents", _q180_user_extents, _Q180_SQL, False),
    ("q181_hhi", _q181_hhi, _Q181_SQL, False),
    ("q182_covisits", _q182_covisits, _Q182_SQL, False),
    ("q183_adoption", _q183_adoption, _Q183_SQL, False),
    ("q184_orientation_tensor", _q184_orientation_tensor, _Q184_SQL, False),
    ("q185_percolation", _q185_percolation, _Q185_SQL, False),
    ("q186_rhumb_length", _q186_rhumb_length, _Q186_SQL, False),
    ("q187_lcp_stats", _q187_lcp_stats, _Q187_SQL, False),
    ("q188_ks_lengths", _q188_ks_lengths, _Q188_SQL, False),
    ("q189_local_moran", _q189_local_moran, _Q189_SQL, False),
    ("q190_getis_ord", _q190_getis_ord, _Q190_SQL, False),
    ("q191_variogram", _q191_variogram, _Q191_SQL, False),
    ("q192_box_counting", _q192_box_counting, _Q192_SQL, False),
    ("q193_runner_up", _q193_runner_up, _Q193_SQL, False),
    ("q194_co_coverage", _q194_co_coverage, _Q194_SQL, False),
    ("q195_chi_square", _q195_chi_square, _Q195_SQL, False),
    ("q196_spearman", _q196_spearman, _Q196_SQL, False),
    ("q197_cusum", _q197_cusum, _Q197_SQL, False),
    ("q198_lag_autocorr", _q198_lag_autocorr, _Q198_SQL, False),
    ("q199_max_silence", _q199_max_silence, _Q199_SQL, False),
    ("q200_spatial_curation", _q200_spatial_curation, _Q200_SQL, False),
    ("q201_utm_zones", _q201_utm_zones, _Q201_SQL, False),
    ("q202_convergence", _q202_convergence, _Q202_SQL, False),
    ("q203_grts_sample", _q203_grts_sample, _Q203_SQL, False),
    ("q204_cluster_sample", _q204_cluster_sample, _Q204_SQL, False),
    ("q205_correlogram", _q205_correlogram, _Q205_SQL, False),
    ("q206_key_skew", _q206_key_skew, _Q206_SQL, False),
    ("q207_temporal_motifs", _q207_temporal_motifs, _Q207_SQL, False),
    ("q208_vignetting", _q208_vignetting, _Q208_SQL, False),
    ("q209_time_pcf", _q209_time_pcf, _Q209_SQL, False),
    ("q210_winsorized", _q210_winsorized, _Q210_SQL, False),
    ("q211_mad", _q211_mad, _Q211_SQL, False),
]


def queries() -> dict[str, Callable[[str], Any]]:
    return {name: fn for name, fn, _sql, _bench in _QUERIES}


def oracle_sql() -> dict[str, str]:
    return {name: sql() if callable(sql) else sql
            for name, _fn, sql, _bench in _QUERIES}
