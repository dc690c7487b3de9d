"""The headline spatial pipeline: synth geotags -> webmerc cells ->
z/x/y tiles -> PIP join vs broadcast polygon index -> per-tile counts.

Aggregation paths:
- `bucketed_sum`: the engine's one keyed integer sum, the
  driver-or-exchange combine of a (key, partial) table; every
  integer group-by count or sum in the engine goes through it (a count
  is a sum of per-row 1s or per-block partial counts). Keys are one
  column or several, of any Arrow type; null keys form one group, as
  in SQL; several value columns sum in one pass.
  `dsutil.driver_table` materializes its input once; a table of at
  most DRIVER_FINISH_ROWS rows is pulled as Arrow and summed on the
  driver by `key_sum` (NumPy, int64, no exchange) and goes back as
  `dsutil.from_arrow` blocks of the one-block rule; a larger one is
  summed by `key_sum` per bucket of `exchange.co_partition`. A key
  other than one integer column without nulls is first reduced to
  int64 group codes (`_group_codes`).
- `headline_spatial`: fused actor stage emits per-batch partial
  (tile, count) pairs; the combine moves O(#tiles × #blocks) rows —
  the shuffle-minimal shape.
- `tile_counts_salted`: per-tile counts of a Dataset. One
  `dsutil.driver_table` call materializes the per-block partials and,
  under DRIVER_FINISH_ROWS rows, pulls them as Arrow, and the same
  per-key sum as `bucketed_sum` finishes them on the driver. Above
  that the combine runs distributed with explicit skew handling: a
  census finds hot tiles (images.geotags plants Zipfian metro
  hotspots), their partials split into `salt` deterministic sub-keys
  before the exchange, and the sub-counts merge after. The salt
  bounds the largest single reducer group at 100-TB skew.
- `tile_counts_salted_fused`: census-free salting of synthetic geotags
  in one streaming execution.
Tables that are already finished (the census, the salted sums) are read
back with `dsutil.pull_arrow`, never with `iter_batches`, which starts
a new streaming execution on each call.
Counts are identical on every path (tests assert it). DRIVER_FINISH_ROWS
is the `proj_ray.dsutil` cap of every driver finish, read at call time
and passed to `dsutil.driver_table`, which chooses every route in the
engine that pulls a table to the driver (`state.resumable_write`'s
too); a broadcast join's small side uses `dsutil.BROADCAST_ROWS`.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from proj_ray import dsutil
from proj_ray.dsutil import pull_pandas  # noqa: F401  (re-export)
from proj_ray.stages import _f64, _with_columns


def geotag_dataset(n_rows: int, parallelism: int | None = None):
    """Geotagged rows without pixel payloads: the spatial-bench input
    (arithmetic-only synthesis, embarrassingly parallel).

    Synthesis hangs off rd.range so every block carries its REAL row
    count: a from_items shard-descriptor source (1-row blocks) let
    downstream maps with explicit batch_size (with_tiles' 128k)
    BUNDLE the whole input into 1-9 fused tasks — the salted-agg
    pipeline ran near-serial at any cpu count (36 s for 24M rows at 4
    cpus vs 11.6 s after this fix; scaling eff 0.25 -> ~0.9)."""
    import ray.data as rd

    from proj_ray.images import geotags

    if parallelism is None:
        # size by BLOCK ROWS, not block count: ~384k rows/block keeps
        # every per-block temporary under glibc's mmap threshold (the
        # round-5 chunking lesson) at any input size, with a floor of
        # 64 blocks so small inputs still parallelize
        parallelism = max(64, (n_rows + 384_000 - 1) // 384_000)

    def gen(batch):
        lon, lat = geotags(batch.column("id").to_numpy())
        return _with_columns(batch.rename_columns(["image_id"]),
                             {"lon": lon, "lat": lat})

    return rd.range(n_rows, override_num_blocks=max(parallelism, 1)) \
        .map_batches(gen, batch_format="pyarrow")


class FusedSpatialStage:
    """One fused actor stage: synth geotags -> webmerc cells -> z/x/y
    tiles -> PIP join -> per-batch partial tile counts.

    The polygon index is fetched from the object store once per actor;
    the whole per-row path is a single pass over NumPy arrays, so the
    only shuffle left is the tiny (tile, partial_count) groupby. This is
    the fuse-the-sandwich pattern (SURVEY §1.5: compose kernels inside
    ONE map_batches fn)."""

    CHUNK = 65536  # rows per inner pass: ~3 MB working set stays cache-
    # resident, easing memory-bandwidth contention across workers

    def __init__(self, index_ref, zoom: int, totals_only: bool = False):
        self.index_ref = index_ref
        self.index = None
        self.zoom = zoom
        # totals_only: emit one (0, batch_total) row instead of per-tile
        # partials — the minimal sufficient statistic when the consumer
        # only needs the matched count
        self.totals_only = totals_only

    def __call__(self, batch: dict) -> dict:
        if self.index is None:
            import ray

            self.index = ray.get(self.index_ref)
        from proj_ray.cells import cell_id
        from proj_ray.images import geotags
        from proj_ray.tiles import tile_assign

        outs = []
        for s, c in zip(batch["start"], batch["count"]):
            s = int(s)
            c = int(c)
            for cs in range(s, s + c, self.CHUNK):
                idx = np.arange(cs, min(cs + self.CHUNK, s + c),
                                dtype=np.int64)
                lon, lat = geotags(idx)
                cell = cell_id(lon, lat, self.zoom)
                tx, ty, valid = tile_assign(lon, lat, self.zoom)
                pts, polys = self.index.query(lon, lat)
                kept = pts[valid[pts]]
                key = tx[kept] * np.int64(1 << 30) + ty[kept]
                _ = cell  # cell ids computed to exercise the kernel path
                cells_u, counts = np.unique(key, return_counts=True)
                if self.totals_only:
                    outs.append((np.zeros(1, np.int64),
                                 np.array([counts.sum()], np.int64)))
                else:
                    outs.append((cells_u, counts))
        keys = np.concatenate([o[0] for o in outs]) if outs else \
            np.empty(0, np.int64)
        cnts = np.concatenate([o[1] for o in outs]) if outs else \
            np.empty(0, np.int64)
        return {"tile_key": keys, "partial_n": cnts.astype(np.int64)}


def default_polygon_index():
    """The bench/driver 16-rectangle layer as a PolygonIndex."""
    from proj_ray.join import PolygonIndex

    rects = [(j, -180.0 + j * 22.0 + 0.0005,
              -60.0 + (j % 8) * 15.0 + 0.0005, 18.0, 12.0)
             for j in range(16)]
    ids = [r[0] for r in rects]
    rx = [np.array([x0, x0 + w, x0 + w, x0]) for _, x0, y0, w, h in rects]
    ry = [np.array([y0, y0, y0 + h, y0 + h]) for _, x0, y0, w, h in rects]
    return PolygonIndex(ids, rx, ry)


def headline_spatial(n_rows: int, num_cpus: int = 32, zoom: int = 10,
                     index=None, combine: str = "total"):
    """Run the fused pipeline; returns (matched_rows, tile_counts_df).

    combine="total" (the benchmark metric): per-batch partial (tile,
    count) pairs stream to the driver and only their sum is kept — no
    shuffle. combine="tiles": per-tile counts through bucketed_sum.
    Note the synthetic geotags have no spatial locality per block, so
    at zoom 10 partial counts barely compress (~#matched rows of
    partials), and above bucketed_sum's driver cap the combine is a
    real shuffle — that per-tile path is benchmarked separately
    (tile_counts_salted), where the salt also handles the Zipf
    hotspots."""
    import ray
    import ray.data as rd

    ref = ray.put(index if index is not None else default_polygon_index())
    par = max(num_cpus * 4, 16)
    shard = max(1, n_rows // par)
    items = [{"start": s, "count": min(shard, n_rows - s)}
             for s in range(0, n_rows, shard)]
    stage = FusedSpatialStage(ref, zoom, totals_only=(combine == "total"))
    ds = rd.from_items(items).map_batches(
        stage, batch_format="numpy", batch_size=4)
    if combine == "tiles":
        agg = bucketed_sum(ds, "tile_key", "partial_n", "n").to_pandas()
        return int(agg["n"].sum()), agg
    total = 0
    for b in ds.iter_batches(batch_format="numpy"):
        total += int(b["partial_n"].sum())
    return total, None


def bucketed_sum(parts, key_col, val_col, out_col):
    """Keyed sum of a (key, partial) table into (key columns, out_col
    int64), run eagerly: `dsutil.driver_table` materializes the input
    once, in the same execution as whatever feeds it (an already
    materialized input costs nothing more). The engine's one keyed
    integer sum: a group-by count is the sum of a per-row 1, or of a
    per-block partial count, that the caller's map emits.

    `key_col` is a column name or a list of them, of any Arrow type
    (int, float, string, ..., with nulls); `val_col` and `out_col` are
    a name or equal-length lists of names of integer columns. Null keys
    form one group, as in SQL's GROUP BY, and an output key column
    keeps its input's Arrow type.

    One per-key sum (`key_sum`: a stable argsort and `np.add.reduceat`
    on int64, exact at any total) runs on both routes: on the table
    pulled as Arrow when it has at most DRIVER_FINISH_ROWS rows, so no
    exchange runs, and otherwise once per bucket of
    `exchange.co_partition`. A single integer key without nulls is
    summed as it is; any other key first becomes int64 group codes
    (`_group_codes`). The exchange sorts on the small int bucket
    column, never on the keys themselves: ray.data's
    `groupby(key).aggregate(Sum(...))` runs a Python loop over every
    KEY on both the map and reduce sides (~80 us/row measured — 4.9 s
    for a 131k-row partial table at 4 cpus). The driver route's table
    has its keys ascending (nulls last) and goes back through
    `dsutil.from_arrow`, in blocks of at most ONE_BLOCK_ROWS rows; the
    exchange route's keys ascend within each bucket. An empty input
    gives a typed zero-row table (int64 where the input has no type to
    keep)."""
    return _finish_sum(*dsutil.driver_table(
        parts, dsutil.DRIVER_FINISH_ROWS, arrow=True),
        key_col, val_col, out_col)


def key_sum(keys, vals) -> tuple[np.ndarray, np.ndarray]:
    """(distinct keys ascending, sum of `vals` per key), both int64.
    `vals` is one array, or a 2-D (rows, columns) array summed column
    by column. Exact: int64 throughout, no float weights."""
    keys = np.asarray(keys, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.int64)
    if not len(keys):
        return keys, np.empty(vals.shape, np.int64)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(vals[order], starts)


def _names(col) -> list[str]:
    return [col] if isinstance(col, str) else list(col)


def _group_codes(cols) -> tuple[np.ndarray, np.ndarray]:
    """(int64 group code per row, the index of one row of each code) of
    the key columns `cols` (Arrow). Each column is factorized with
    `pd.factorize(sort=True, use_na_sentinel=False)` and each pair of
    code columns is combined and factorized again, so codes stay below
    the row count. Codes ascend with the keys (nulls last), and the
    nulls of a column are one group."""
    import pandas as pd
    import pyarrow.compute as pc

    codes = None
    for col in cols:
        if pa.types.is_dictionary(col.type):
            col = pc.cast(col, col.type.value_type)
        c, u = pd.factorize(col.to_pandas(types_mapper=pd.ArrowDtype),
                            sort=True, use_na_sentinel=False)
        codes = c if codes is None else \
            pd.factorize(codes * len(u) + c, sort=True)[0]
    codes = codes.astype(np.int64)
    first = np.empty(int(codes.max()) + 1 if len(codes) else 0, np.int64)
    first[codes] = np.arange(len(codes))
    return codes, first


def _sum_table(table, key_col, val_col, out_col):
    """`bucketed_sum` of one Arrow table (the pulled table or one
    exchange bucket): the key columns, keys ascending, then one int64
    sum per value column."""
    keys, vals, outs = _names(key_col), _names(val_col), _names(out_col)
    if not table.num_rows:  # an empty input may have no typed columns
        typed = {f.name: f.type for f in table.schema
                 if f.name in keys and not pa.types.is_null(f.type)}
        table = pa.table({c: pa.array([], typed.get(c, pa.int64()))
                          for c in keys + vals})
    v = [table.column(c).to_numpy() for c in vals]
    v = v[0] if len(v) == 1 else np.column_stack(v)
    key = table.column(keys[0])
    if (len(keys) == 1 and pa.types.is_integer(key.type)
            and not key.null_count):
        k, sums = key_sum(key.to_numpy(), v)
        out = [pa.array(k, key.type)]
    else:
        codes, first = _group_codes([table.column(c) for c in keys])
        sums = key_sum(codes, v)[1]
        out = [table.column(c).take(first) for c in keys]
    sums = sums.reshape(len(sums), len(outs))
    return pa.table(dict(zip(keys + outs, out + [
        np.ascontiguousarray(sums[:, j]) for j in range(len(outs))])))


def _finish_sum(parts, table, key_col, val_col, out_col):
    """`bucketed_sum` after `dsutil.driver_table` chose its route: the
    pulled Arrow `table`, or the materialized `parts` when `table` is
    None. An empty input gives a typed zero-row table on either
    route."""
    from proj_ray.exchange import co_partition

    if table is None:
        if parts.count():
            return co_partition(
                parts, _names(key_col),
                lambda g: _sum_table(g, key_col, val_col, out_col),
                batch_format="pyarrow")
        table = dsutil.pull_arrow(parts)
    return dsutil.from_arrow(_sum_table(table, key_col, val_col, out_col))


class FusedSaltedTileStage:
    """One fused stage for the shuffle bench: synth geotags -> tile
    assignment -> per-batch unique-combine -> UNCONDITIONAL two-level
    salt, over {start, count} shard descriptors (so no row-wide data
    ever crosses an operator boundary — the round-5 lesson: each
    boundary pays an Arrow block build + batch re-slice ~0.3 us/row,
    which HALVED the map phase's throughput when synthesis and tiling
    were separate operators).

    Census-free salting: every key gets a per-batch deterministic
    sub-key (not only census-detected hot keys). Because the stage
    emits pre-combined partials, the salt inflates only the final
    merged table (<= #tiles x salt rows), never the shuffle volume —
    each partial row carries exactly one salted key. Skew bound: a hot
    tile's partials (one row per contributing batch) split across
    `salt` reducer sub-keys, same guarantee the censused path gives,
    with zero barrier jobs. This is the classic two-phase/salted
    aggregation (pre-aggregate locally, re-aggregate by salted key)."""

    CHUNK = 384_000  # rows per inner pass: temporaries stay under
    # glibc's mmap threshold (the round-5 kernel-chunking lesson)

    def __init__(self, zoom: int, salt: int):
        self.zoom = zoom
        self.salt = salt

    def __call__(self, batch: dict) -> dict:
        from proj_ray.functions._hash import splitmix64
        from proj_ray.images import geotags
        from proj_ray.tiles import tile_assign

        ks, ns = [], []
        for s, c in zip(batch["start"], batch["count"]):
            s = int(s)
            c = int(c)
            for cs in range(s, s + c, self.CHUNK):
                idx = np.arange(cs, min(cs + self.CHUNK, s + c),
                                dtype=np.int64)
                lon, lat = geotags(idx)
                tx, ty, _valid = tile_assign(lon, lat, self.zoom)
                key = tx * np.int64(1 << 30) + ty
                uk, cnt = np.unique(key, return_counts=True)
                ks.append(uk)
                ns.append(cnt.astype(np.int64))
        k = np.concatenate(ks) if ks else np.empty(0, np.int64)
        n = np.concatenate(ns) if ns else np.empty(0, np.int64)
        # combine across the batch's chunks, then salt with one
        # deterministic content-derived sub-key per batch
        uk, inv = np.unique(k, return_inverse=True)
        sm = np.zeros(len(uk), dtype=np.int64)
        np.add.at(sm, inv, n)
        sub = np.int64(splitmix64(np.asarray(
            [abs(int(sm.sum())) + len(sm)], dtype=np.uint64))[0]
            % np.uint64(self.salt))
        return {"cell_salted": uk * np.int64(self.salt) + sub,
                "n_part": sm}


def tile_counts_salted_fused(n_rows: int, zoom: int = 7, salt: int = 16,
                             num_cpus: int | None = None):
    """Census-free salted per-tile counts: fused shard-descriptor stage
    (synthesis + tiling + local combine + salt) -> bucketed_sum ->
    driver un-salt merge. bucketed_sum materializes the map pass and
    sums its partials on the driver while they fit DRIVER_FINISH_ROWS;
    above that it runs one `exchange.co_partition`.

    Above its driver cap the censused `tile_counts_salted` needs up to
    four executions (map + materialize, coalesce, census, salted
    combine) around the census barrier; this path needs at most two
    (the map, then the exchange) at any size, because unconditional
    salting removes the need to KNOW which keys are hot before the
    shuffle. Returns a pandas DataFrame of (tile_key, n) — counts are
    identical to the censused and unsalted paths (tests assert parity).

    Coarse shards, one task per cpu: tasks = num_cpus (par = 2x
    shards bundled 2/batch), since the synthetic work is perfectly
    uniform; more shards only multiply partial rows (one row per
    distinct salted key PER BATCH) and task-launch gaps. Shard size is
    capped at 24 M rows so a 100-TB input still gets balanced,
    retryable tasks rather than hour-long ones. The map runs alone in
    its execution (bucketed_sum materializes it before any exchange),
    so no downstream operator's resource reservation can starve it."""
    import pandas as pd
    import ray.data as rd

    if num_cpus is None:
        num_cpus = dsutil.cluster_cpus()
    par = max(2 * num_cpus, 2, -(-n_rows // 24_000_000))
    shard = max(1, n_rows // par)
    items = [{"start": s, "count": min(shard, n_rows - s)}
             for s in range(0, n_rows, shard)]
    stage = FusedSaltedTileStage(zoom, salt)
    parts = rd.from_items(items).map_batches(
        stage, batch_format="numpy", batch_size=2)
    merged = dsutil.pull_arrow(
        bucketed_sum(parts, "cell_salted", "n_part", "n_sub"))
    k, n = key_sum(merged.column("cell_salted").to_numpy() // salt,
                   merged.column("n_sub").to_numpy())
    return pd.DataFrame({"tile_key": k, "n": n})


def _combine_partials(b):
    uk, inv = np.unique(b.column("tile_key").to_numpy(),
                        return_inverse=True)
    s = np.zeros(len(uk), dtype=np.int64)
    np.add.at(s, inv, np.asarray(b.column("n_part").to_numpy(),
                                 dtype=np.int64))
    return pa.table({"tile_key": uk, "n_part": s})


def tile_counts_salted(ds, zoom: int = 7, threshold: int | None = None,
                       salt: int = 16, salted: bool = True):
    """Per-tile counts (tile_key int64, n int64) of a (lon, lat)
    Dataset, with explicit skew handling when the combine has to run
    distributed.

    One map pass computes per-block partial counts (tile assignment,
    key packing and a unique-combine hand-fused into ONE fn on whole
    blocks: separate map operators paid ~0.3 us/row at every operator
    boundary) and materializes them, so the raw rows are read once.
    Like every map here it runs on Arrow batches: it reads only `lon`
    and `lat` as NumPy and returns a new Arrow (tile_key, n_part)
    table, so Ray never infers the type of an int64 NumPy column (see
    the `proj_ray.stages` docstring).
    Then the partial table (#tiles x #blocks rows at most) decides,
    through one `dsutil.driver_table` call:

    - at or under DRIVER_FINISH_ROWS rows it is pulled and summed on
      the driver with no exchange, since the state already fits there;
    - above it the combine runs distributed: the partials are
      coalesced, a bucketed_sum census finds tiles with at least
      `threshold` rows, each block's partial for a hot tile gets one
      of `salt` deterministic sub-keys so a hot reducer group splits
      `salt` ways, and a salted bucketed_sum plus an un-salt merge
      finish it. `salted=False` skips the census and the salt.

    Counts are identical on every route (tests assert it). An empty
    input gives a zero-row, typed table; it always finishes on the
    driver."""
    def tile_partials(b):
        from proj_ray.tiles import tile_assign

        tx, ty, _valid = tile_assign(_f64(b, "lon"), _f64(b, "lat"), zoom)
        key = tx * np.int64(1 << 30) + ty
        keys, counts = np.unique(key, return_counts=True)
        return pa.table({"tile_key": keys,
                         "n_part": counts.astype(np.int64)})

    parts, table = dsutil.driver_table(
        ds.map_batches(tile_partials, batch_format="pyarrow",
                       batch_size=None), dsutil.DRIVER_FINISH_ROWS,
        arrow=True)
    if table is not None:
        return _finish_sum(parts, table, "tile_key", "n_part", "n")

    ncpu = dsutil.cluster_cpus()
    if parts.num_blocks() > 2 * ncpu:
        # coalesce to ~2 blocks per CPU and re-combine: the sort
        # exchange prices O(map_blocks x reducers) objects (64 16k-row
        # partial blocks measured ~5 s slower end-to-end than the same
        # rows in 8 blocks), and merged blocks collapse duplicate keys.
        # Its own job: an in-chain repartition would become the whole
        # plan's block target and re-serialize the map above
        parts = (parts.repartition(2 * ncpu)
                 .map_batches(_combine_partials, batch_format="pyarrow",
                              batch_size=None)
                 .materialize())
    if not salted:
        return bucketed_sum(parts, "tile_key", "n_part", "n")
    if threshold is None:
        threshold = 10000
    census = dsutil.pull_arrow(bucketed_sum(parts, "tile_key", "n_part",
                                            "n"))
    hot_sorted = np.sort(census.column("tile_key").to_numpy()[
        census.column("n").to_numpy() >= threshold])

    def salt_parts(b):
        from proj_ray.functions._hash import splitmix64

        keys = np.asarray(b.column("tile_key").to_numpy(), dtype=np.int64)
        n = np.asarray(b.column("n_part").to_numpy(), dtype=np.int64)
        if len(hot_sorted):
            pos = np.searchsorted(hot_sorted, keys)
            pos[pos >= len(hot_sorted)] = 0
            is_hot = hot_sorted[pos] == keys
        else:
            is_hot = np.zeros(len(keys), dtype=bool)
        # one deterministic content-derived sub-key per batch: each
        # block's partial for a hot tile lands on one of `salt` reducers
        sub = np.int64(splitmix64(np.asarray(
            [abs(int(n.sum())) + len(n)], dtype=np.uint64))[0]
            % np.uint64(salt))
        return pa.table({"cell_salted": keys * np.int64(salt)
                         + np.where(is_hot, sub, np.int64(0)),
                         "n_part": n})

    part = bucketed_sum(parts.map_batches(salt_parts,
                                          batch_format="pyarrow"),
                        "cell_salted", "n_part", "n_sub")

    def unsalt(b):
        return pa.table({
            "tile_key": b.column("cell_salted").to_numpy() // salt,
            "n_sub": b.column("n_sub")})

    # un-salt merge: the salted output is <= #tiles + #hot*salt rows, so
    # it usually finishes on the driver
    return bucketed_sum(part.map_batches(unsalt, batch_format="pyarrow"),
                        "tile_key", "n_sub", "n")

