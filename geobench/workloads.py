"""The three benchmark workloads, each driven through `proj_ray`'s public
API, with an independent check of every output.

A workload has four phases:

  setup()   inputs from the seed, table write, index build, warm-up
            (timed as `setup_s`)
  oracle()  an independent NumPy computation of the expected output on
            the same inputs (untimed)
  op()      one timed operation: a whole pipeline run for the batch
            workloads, one query for knn_lookup
  check()   compares one op's output with the oracle (untimed)

Calls into the program go through module attributes (`stages.reproject`,
not a from-import) so that a traced run can wrap them.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

import inputs

TMERC = "+proj=tmerc +lon_0=180 +ellps=WGS84"

# sizes per scale: "full" is what the benchmark measures, "toy" is for
# the self-test
SIZES = {
    "full": {"tile_join": {"points": 100_000, "polygons": 1000, "files": 8},
             "tile_export": {"points": 200_000, "files": 8},
             "knn_lookup": {"points": 400_000, "subset": 10_000,
                            "files": 16, "level": 8}},
    "toy": {"tile_join": {"points": 20_000, "polygons": 200, "files": 2},
            "tile_export": {"points": 20_000, "files": 2},
            "knn_lookup": {"points": 20_000, "subset": 4_000,
                           "files": 2, "level": 6}},
}


def tile_key(tx, ty) -> np.ndarray:
    return np.asarray(tx, np.int64) * np.int64(1 << 30) \
        + np.asarray(ty, np.int64)


def numpy_tiles(lon, lat, zoom: int):
    """Slippy-map tile of each point by the textbook formula, written
    independently of `proj_ray.tiles`."""
    n = 1 << zoom
    lon = np.asarray(lon, np.float64)
    phi = np.radians(np.asarray(lat, np.float64))
    tx = np.floor((lon + 180.0) / 360.0 * n)
    ty = np.floor((1.0 - np.log(np.tan(phi) + 1.0 / np.cos(phi)) / np.pi)
                  / 2.0 * n)
    return (np.clip(tx, 0, n - 1).astype(np.int64),
            np.clip(ty, 0, n - 1).astype(np.int64))


def _tile_partials(batch: dict) -> dict:
    """Per-batch partial counts of joined rows per tile."""
    ok = np.asarray(batch["tile_valid"]) & np.isfinite(
        np.asarray(batch["x"], np.float64))
    key = tile_key(batch["tile_x"], batch["tile_y"])[ok]
    uk, cnt = np.unique(key, return_counts=True)
    return {"tile_key": uk, "n": cnt.astype(np.int64)}


def _with_prefix(batch: dict) -> dict:
    """z4 parent tile of a z14 tile key: the output partition."""
    k = np.asarray(batch["tile_key"], np.int64)
    tx, ty = k >> 30, k & ((1 << 30) - 1)
    batch["prefix"] = (tx >> 10) * 16 + (ty >> 10)
    return batch


class Workload:
    name = ""
    op_unit = "run"
    min_ops = 2  # per kind of op (untraced, traced) in one run

    def __init__(self, seed: int, workdir: str, scale: str = "full"):
        self.seed = seed
        self.workdir = workdir
        self.scale = scale
        self.size = SIZES[scale][self.name]
        self.expected = None
        self.context: dict = {}

    def rows_per_op(self) -> int:
        return self.size["points"]

    def fresh_dir(self, tag: str) -> str:
        path = os.path.join(self.workdir, tag)
        shutil.rmtree(path, ignore_errors=True)
        return path

    def setup(self, rep: int) -> None:
        raise NotImplementedError

    def oracle(self) -> None:
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def warm_up(self) -> None:
        """Ops run before timing (start-up of Ray workers and pools);
        they leave no trace in what the timed ops record."""
        self.op()

    def check(self, out) -> bool:
        raise NotImplementedError


class TileJoin(Workload):
    """read_parquet -> reproject (tmerc) -> with_tiles z10 -> PIP join ->
    per-batch partial tile counts -> one bucketed_sum -> pull."""

    name = "tile_join"
    zoom = 10

    def setup(self, rep: int) -> None:
        import ray

        from proj_ray import join

        self.points = inputs.points(self.seed, self.size["points"])
        self.table = self.fresh_dir(f"table-{rep}")
        inputs.write_table(self.points, self.table, self.size["files"])
        self.poly = inputs.polygons(self.seed, self.size["polygons"])
        self.index = join.PolygonIndex(*self.poly)
        self.index_ref = ray.put(self.index)
        self.warm_up()

    def op(self):
        import ray.data as rd

        from proj_ray import dsutil, stages
        from proj_ray.pipelines import spatial

        ds = rd.read_parquet(self.table)
        ds = stages.reproject(ds, TMERC)
        ds = stages.with_tiles(ds, self.zoom)
        ds = stages.spatial_join(ds, self.index_ref)
        ds = ds.map_batches(_tile_partials, batch_format="numpy",
                            batch_size=None)
        agg = spatial.bucketed_sum(ds, "tile_key", "n", "n").materialize()
        return dsutil.pull_pandas(agg)

    def oracle(self) -> None:
        """bbox prefilter over lon-sorted points, then `join.pip_oracle`
        per polygon; tiles by the NumPy formula."""
        from proj_ray import join

        lon, lat = self.points["lon"], self.points["lat"]
        order = np.argsort(lon, kind="stable")
        slon = lon[order]
        hit_pts, candidates = [], 0
        _, rings_lon, rings_lat = self.poly
        for rx, ry in zip(rings_lon, rings_lat):
            x = np.asarray(rx)
            if x.max() - x.min() > 180.0:  # crosses the antimeridian
                xs = np.where(x < 0, x + 360.0, x)
                spans = [(xs.min(), 180.0), (-180.0, xs.max() - 360.0)]
            else:
                spans = [(x.min(), x.max())]
            cand = np.concatenate([
                order[np.searchsorted(slon, a, "left"):
                      np.searchsorted(slon, b, "right")] for a, b in spans])
            cand = cand[(lat[cand] >= np.min(ry)) & (lat[cand] <= np.max(ry))]
            candidates += len(cand)
            if not len(cand):
                continue
            inside = join.pip_oracle(lon[cand], lat[cand], rx, ry)
            hit_pts.append(cand[inside])
        hits = np.concatenate(hit_pts)
        tx, ty = numpy_tiles(lon[hits], lat[hits], self.zoom)
        keys, counts = np.unique(tile_key(tx, ty), return_counts=True)
        self.expected = (keys, counts)
        self.context.update(matched_pairs=int(len(hits)),
                            bbox_candidate_pairs=int(candidates),
                            tiles=int(len(keys)),
                            checksum=_checksum(keys, counts))

    def check(self, out) -> bool:
        keys, counts = self.expected
        got = out.sort_values("tile_key")
        return (np.array_equal(got["tile_key"].to_numpy(np.int64), keys)
                and np.array_equal(got["n"].to_numpy(np.int64), counts))


class TileExport(Workload):
    """tile_counts_salted(zoom=14, salt=16) -> resumable_write of the
    per-tile counts, partitioned by z4 tile-key prefix."""

    name = "tile_export"
    zoom = 14

    def setup(self, rep: int) -> None:
        self.points = inputs.points(self.seed, self.size["points"])
        self.table = self.fresh_dir(f"table-{rep}")
        inputs.write_table(self.points, self.table, self.size["files"])
        self.n_out = 0
        self.warm_up()

    def warm_up(self) -> None:
        self.check(self.op())  # the check deletes the written files

    def op(self):
        import ray.data as rd

        from proj_ray import state
        from proj_ray.pipelines import spatial

        self.n_out += 1
        out_dir = self.fresh_dir(f"export-{self.n_out}")
        tc = spatial.tile_counts_salted(rd.read_parquet(self.table),
                                        zoom=self.zoom, salt=16)
        summary = state.resumable_write(
            tc.map_batches(_with_prefix, batch_format="numpy"),
            out_dir, "prefix")
        return out_dir, summary

    def oracle(self) -> None:
        tx, ty = numpy_tiles(self.points["lon"], self.points["lat"],
                             self.zoom)
        keys, counts = np.unique(tile_key(tx, ty), return_counts=True)
        self.expected = (keys, counts)
        self.context.update(tiles=int(len(keys)),
                            checksum=_checksum(keys, counts))

    def check(self, out) -> bool:
        """Read the written files and manifest back; rows, partitions and
        per-tile counts must all agree. The output is deleted after."""
        import pyarrow.parquet as pq

        out_dir, summary = out
        try:
            files = sorted(f for f in os.listdir(out_dir)
                           if f.startswith("part-"))
            mdir = os.path.join(out_dir, "_manifest")
            manifest = {}
            for f in os.listdir(mdir):
                with open(os.path.join(mdir, f)) as fh:
                    entry = json.load(fh)
                manifest[entry["pid"]] = entry
            tables, ok = [], True
            for f in files:
                pid = f[len("part-"):-len(".parquet")]
                t = pq.read_table(os.path.join(out_dir, f))
                ok &= manifest.get(pid, {}).get("rows") == t.num_rows
                ok &= bool(np.all(t.column("prefix").to_numpy()
                                  == int(pid)))
                tables.append(t)
            ok &= len(files) == len(manifest) == summary["written"]
            self.context["partitions_written"] = len(files)
            self.context["bytes_written"] = sum(
                e["bytes"] for e in manifest.values())
            self.context["rows_written"] = sum(t.num_rows for t in tables)
            if self.expected is None:
                return ok
            keys, counts = self.expected
            k = np.concatenate([t.column("tile_key").to_numpy()
                                for t in tables])
            n = np.concatenate([t.column("n").to_numpy() for t in tables])
            o = np.argsort(k, kind="stable")
            return bool(ok and np.array_equal(k[o], keys)
                        and np.array_equal(n[o], counts))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


class KnnLookup(Workload):
    """knn_build over a seeded subset once; then one knn_index call with
    k=10 per query, closed loop, one client."""

    name = "knn_lookup"
    op_unit = "query"
    # enough queries that at least 10 samples lie beyond the p90
    min_ops = 100
    k = 10

    def setup(self, rep: int) -> None:
        import ray.data as rd

        from proj_ray import stages

        pts = inputs.points(self.seed, self.size["points"])
        rng = np.random.default_rng([self.seed, 5])
        pick = np.sort(rng.choice(len(pts["id"]), self.size["subset"],
                                  replace=False))
        self.points = {c: v[pick] for c, v in pts.items()}
        self.table = self.fresh_dir(f"table-{rep}")
        inputs.write_table(self.points, self.table, self.size["files"])
        self.index_dir = self.fresh_dir(f"knn-{rep}")
        ds = rd.read_parquet(self.table,
                             override_num_blocks=self.size["files"])
        stages.knn_build(ds, self.index_dir,
                         level=self.size["level"], id_col="id")
        self.qlon, self.qlat = inputs.knn_queries(self.seed, 4096)
        self.n_q = 0
        self.stats: list[dict] = []
        self.warm_up()

    def warm_up(self) -> None:
        for _ in range(2):
            self.op()
        self.n_q = 0
        self.stats = []

    def op(self):
        from proj_ray import stages

        i = self.n_q % len(self.qlon)
        self.n_q += 1
        st: dict = {}
        res = stages.knn_index(self.index_dir, [self.qlon[i]],
                               [self.qlat[i]], k=self.k, _stats=st)
        self.stats.append(st)
        return i, res

    def oracle(self) -> None:
        """Exact brute force on the plane, ordered by (dist, id)."""
        a = 6378137.0
        lon, lat = self.points["lon"], self.points["lat"]
        self._x = a * lon * (np.pi / 180.0)
        self._y = a * np.arcsinh(np.tan(lat * (np.pi / 180.0)))
        self.expected = {}

    def _dist(self, i: int, rows=slice(None)) -> np.ndarray:
        """Planar distance from query `i` to the points at `rows`."""
        a = 6378137.0
        qx = a * self.qlon[i] * (np.pi / 180.0)
        qy = a * np.arcsinh(np.tan(self.qlat[i] * (np.pi / 180.0)))
        return np.sqrt((self._x[rows] - qx) ** 2 + (self._y[rows] - qy) ** 2)

    def _brute(self, i: int):
        d = self._dist(i)
        best = np.lexsort((self.points["id"], d))[:self.k]
        return self.points["id"][best], d[best]

    def check(self, out) -> bool:
        """Rank by rank, the returned id must be the brute-force id, or
        one whose own brute-force distance ties (to 1e-9) with that
        rank's; ids must be distinct. So an id only moves within a group
        of equal distances, never to another distance."""
        i, res = out
        if i not in self.expected:
            self.expected[i] = self._brute(i)
        ids, dist = self.expected[i]
        got_ids = res["nid"].to_numpy(np.int64)
        got_d = res["dist"].to_numpy(np.float64)
        if (len(got_ids) != len(ids) or len(set(got_ids)) != len(got_ids)
                or not np.allclose(got_d, dist, rtol=1e-9, atol=0)):
            return False
        # the subset's ids are ascending, so an id's row is a bisection
        all_ids = self.points["id"]
        row = np.minimum(np.searchsorted(all_ids, got_ids), len(all_ids) - 1)
        return bool(np.all(all_ids[row] == got_ids)
                    and np.all((got_ids == ids)
                               | np.isclose(self._dist(i, row), dist,
                                            rtol=1e-9, atol=0)))


WORKLOADS = {w.name: w for w in (TileJoin, TileExport, KnnLookup)}


def _checksum(keys: np.ndarray, counts: np.ndarray) -> int:
    """Order-free 63-bit checksum of a (tile_key, count) table."""
    from proj_ray.functions import _hash

    h = _hash.splitmix64(np.asarray(keys, np.int64)) * np.asarray(
        counts, np.uint64)
    return int(np.bitwise_xor.reduce(h) & np.uint64((1 << 63) - 1))
