import numpy as np
import pytest


def test_reproject_dataset(ray_session):
    import ray.data as rd

    from proj_ray.stages import reproject

    rows = [{"lon": 12.0, "lat": 55.0}, {"lon": 2.0, "lat": 49.0}]
    out = reproject(rd.from_items(rows),
                    "+proj=utm +zone=32 +ellps=WGS84").to_pandas()
    # the two rows are two blocks, returned in either order: match by key
    assert len(out) == 2
    x = out.set_index(["lon", "lat"])["x"]
    assert abs(x[(12.0, 55.0)] - 691875.632137542) < 1e-6


def _payload_table(lon_chunks):
    """Six rows: id, a two-chunk-or-not lon, lat, a stale string `x`,
    and payload columns of types a NumPy round trip would not keep."""
    import pyarrow as pa

    lon = pa.chunked_array(lon_chunks, type=pa.float64())
    return pa.table({
        "id": pa.array(np.arange(6, dtype=np.int64)),
        "lon": lon,
        "lat": pa.array([45.0, 10.0, -20.0, 30.0, 0.25, -60.0]),
        "x": pa.array(["stale"] * 6),
        "tag": pa.array(["a", "b", "a", "c", "b", "a"]).dictionary_encode(),
        "caption": pa.array(["one", "", "three", None, "five", "six"],
                            type=pa.large_string()),
        "ts": pa.array([0, 1_700_000_000_123, None, 5, 6, 7],
                       type=pa.timestamp("ms", tz="UTC")),
        "emb": pa.array([[1.0, 2.0], [], None, [3.5], [0.0, -1.0, 2.0],
                         [4.0]], type=pa.list_(pa.float32())),
    })


def test_stages_keep_arrow_schema_of_columns_they_do_not_compute(
        ray_session):
    """reproject -> with_tiles -> with_cells -> spatial_join(left) keep
    the Arrow type and values of every column they do not compute; a
    null lon gives a NaN x and an invalid tile; an existing `x` is
    replaced in its position; a two-chunk lon reads like one chunk."""
    import pyarrow as pa
    import ray.data as rd

    from proj_ray import join, stages
    from proj_ray.cells import lonlat_to_webmerc

    index = join.PolygonIndex([7], [np.array([0.0, 20.0, 20.0, 0.0])],
                              [np.array([40.0, 40.0, 50.0, 50.0])])
    payload = ["tag", "caption", "ts", "emb"]

    def run(table):
        ds = rd.from_arrow(table)
        ds = stages.reproject(ds, "+proj=webmerc +ellps=WGS84")
        ds = stages.with_tiles(ds, zoom=4)
        ds = stages.with_cells(ds, level=4)
        ds = stages.spatial_join(ds, index, how="left")
        return pa.concat_tables(
            ds.iter_batches(batch_format="pyarrow", batch_size=None)
        ).sort_by("id")

    lon = [10.0, None, -3.5, 120.0, 0.5, -170.0]
    one = _payload_table([lon])
    two = _payload_table([lon[:3], lon[3:]])
    chunks = rd.from_arrow(two).map_batches(
        lambda t: pa.table({"n": [t.column("lon").num_chunks]}),
        batch_format="pyarrow", batch_size=None).take_all()
    assert chunks == [{"n": 2}]  # the stages really see two chunks

    out = run(one)
    assert out.schema.names == [
        "id", "lon", "lat", "x", "tag", "caption", "ts", "emb", "y",
        "tile_z", "tile_x", "tile_y", "tile_valid", "cell", "poly_id"]
    for name in payload:
        assert out.schema.field(name).type == one.schema.field(name).type
        assert out.column(name).to_pylist() == one.column(name).to_pylist()
    assert str(out.schema.field("ts").type) == "timestamp[ms, tz=UTC]"

    x = out.column("x").to_numpy()
    assert out.schema.field("x").type == pa.float64()
    assert np.isnan(x[1]) and np.isfinite(np.delete(x, 1)).all()
    ok = np.array([v is not None for v in lon])
    wx, _ = lonlat_to_webmerc(np.array(lon, dtype=np.float64)[ok],
                              one.column("lat").to_numpy()[ok])
    assert np.allclose(x[ok], wx, rtol=0, atol=1e-6)
    assert out.column("tile_valid").to_pylist() == [True, False, True,
                                                    True, True, True]
    assert out.column("cell").to_pylist()[1] == -1
    assert out.column("poly_id").to_pylist() == [7, None, None, None,
                                                 None, None]

    out2 = run(two)
    assert out2.schema == out.schema
    for name in out.schema.names:
        if name in ("x", "y"):  # NaN in the null-lon row
            assert np.array_equal(out2.column(name).to_numpy(),
                                  out.column(name).to_numpy(),
                                  equal_nan=True)
        else:
            assert out2.column(name).to_pylist() == \
                out.column(name).to_pylist(), name


def test_cells_tiles_census(ray_session):
    from proj_ray.images import images_dataset
    from proj_ray.stages import with_cells, with_tiles, cell_census, \
        hot_cells, with_salted_cells

    ds = images_dataset(2000, parallelism=4)
    ds = with_cells(ds, level=6)
    ds = with_tiles(ds, zoom=6)
    pdf = ds.to_pandas()
    valid = pdf[pdf["cell"] >= 0]
    # cell and tile must agree (cell level == tile zoom here)
    from proj_ray.cells import cell_to_tile

    lvl, tx, ty = cell_to_tile(valid["cell"].to_numpy())
    assert np.array_equal(tx, valid["tile_x"].to_numpy())
    assert np.array_equal(ty, valid["tile_y"].to_numpy())
    # census: total count equals rows
    census = cell_census(with_cells(images_dataset(2000, 4), 6)).to_pandas()
    assert census["n"].sum() == 2000
    # hotspot cells must show up in the hot set at a low threshold
    hot = hot_cells(with_cells(images_dataset(2000, 4), 6), threshold=50)
    assert len(hot) >= 1
    salted = with_salted_cells(with_cells(images_dataset(2000, 4), 6),
                               hot, salt=8)
    sp = salted.to_pandas()
    assert (sp["cell_salted"] // 8 == sp["cell"]).all()


def test_knn_brute_vs_oracle(ray_session):
    from proj_ray.geodesic import WGS84_GEOD
    from proj_ray.images import images_dataset
    from proj_ray.stages import knn_brute

    ds = images_dataset(500, parallelism=4)
    pdf = ds.to_pandas()
    q_lon = np.array([2.35, -74.0])
    q_lat = np.array([48.85, 40.7])
    res = knn_brute(ds, q_lon, q_lat, k=5)
    valid = pdf[np.isfinite(pdf.lat) & (pdf.lat.abs() <= 90)]
    for qi in range(2):
        d, _, _ = WGS84_GEOD.inverse(
            np.full(len(valid), q_lat[qi]), np.full(len(valid), q_lon[qi]),
            valid["lat"].to_numpy(), valid["lon"].to_numpy())
        order = np.argsort(d, kind="stable")[:5]
        exp_ids = set(valid["image_id"].to_numpy()[order])
        got_ids = set(res[res["q"] == qi]["nid"])
        assert got_ids == exp_ids


# resumable_write's two routes: the default cap writes from the driver,
# cap 0 sends every non-empty table through the exchange
WRITE_CAPS = pytest.mark.parametrize("cap", ["default", 0])


def _set_cap(monkeypatch, cap):
    from proj_ray import dsutil

    if cap != "default":
        monkeypatch.setattr(dsutil, "DRIVER_FINISH_ROWS", cap)


@WRITE_CAPS
def test_checkpoint_resume(ray_session, tmp_path, monkeypatch, cap):
    import ray.data as rd

    from proj_ray.state import finished_partitions, resumable_write

    _set_cap(monkeypatch, cap)

    rows = [{"part": f"p{i % 4}", "v": i} for i in range(40)]
    ds = rd.from_items(rows)
    out = str(tmp_path / "ckpt")
    st1 = resumable_write(ds, out, "part")
    assert st1["written"] == 4 and st1["skipped"] == 0
    assert st1["rows_per_s"] > 0 and st1["wall_sec"] > 0
    assert finished_partitions(out) == {"p0", "p1", "p2", "p3"}
    import json

    m = json.load(open(out + "/_manifest/p0.json"))
    assert m["rows"] == 10 and m["rows_per_s"] > 0
    assert "engine_version" in m["lineage"]
    # rerun skips everything, output unchanged
    st2 = resumable_write(ds, out, "part")
    assert st2["written"] == 0 and st2["skipped"] == 4
    import pyarrow.parquet as pq
    import glob

    total = sum(pq.read_table(f).num_rows
                for f in glob.glob(out + "/part-*.parquet"))
    assert total == 40


@WRITE_CAPS
def test_partial_checkpoint_resume(ray_session, tmp_path, monkeypatch, cap):
    """Simulate a crash: remove one manifest entry, rerun, converge."""
    import glob
    import os

    import ray.data as rd

    from proj_ray.state import resumable_write

    _set_cap(monkeypatch, cap)

    rows = [{"part": f"p{i % 4}", "v": i} for i in range(40)]
    ds = rd.from_items(rows)
    out = str(tmp_path / "ckpt2")
    resumable_write(ds, out, "part")
    os.remove(os.path.join(out, "_manifest", "p2.json"))
    st = resumable_write(ds, out, "part")
    assert st["written"] == 1 and st["skipped"] == 3
    import pyarrow.parquet as pq

    total = sum(pq.read_table(f).num_rows
                for f in glob.glob(out + "/part-*.parquet"))
    assert total == 40


def _read_written(out):
    """{file name: rows sorted by id} and {pid: (rows, lineage)} of a
    resumable_write output directory."""
    import json
    import os

    import pyarrow.parquet as pq

    files = {}
    for f in sorted(os.listdir(out)):
        if f.startswith("part-"):
            df = pq.read_table(os.path.join(out, f)).to_pandas()
            files[f] = df.sort_values("id").reset_index(drop=True)
    manifest = {}
    for f in os.listdir(os.path.join(out, "_manifest")):
        with open(os.path.join(out, "_manifest", f)) as fh:
            e = json.load(fh)
        manifest[e["pid"]] = (e["rows"], e["lineage"])
    return files, manifest


def test_resumable_write_routes(ray_session, tmp_path, monkeypatch):
    """Under the cap resumable_write runs no groupby; below every table
    size it runs the exchange. Both write the same files, rows and
    manifest, both write a NaN key as part-nan and a None among strings
    as part-None, name a bool key True/False and an int64 key with
    nulls as pandas holds it (1.0, nan: also in a bucket without the
    null), and both take an empty input."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from proj_ray import dsutil
    from proj_ray.state import resumable_write

    def table():
        return rd.range(3000, override_num_blocks=6).map_batches(
            lambda b: {"id": b["id"], "part": b["id"] % 7},
            batch_format="numpy")

    def nan_table():
        return rd.from_pandas([
            pd.DataFrame({"id": [0, 1], "k": [1.5, float("nan")]}),
            pd.DataFrame({"id": [2, 3], "k": [float("nan"), 2.5]})])

    def none_table():
        return rd.from_pandas([
            pd.DataFrame({"id": [0, 1], "s": ["a", None]}),
            pd.DataFrame({"id": [2, 3], "s": [None, "b"]})])

    def bool_table():
        return rd.range(40, override_num_blocks=4).map_batches(
            lambda b: {"id": b["id"], "flag": b["id"] % 3 == 0},
            batch_format="numpy")

    def int_null_table():
        return rd.from_arrow([
            pa.table({"id": [0, 1, 2],
                      "k": pa.array([1, None, 2], pa.int64())}),
            pa.table({"id": [3, 4, 5],
                      "k": pa.array([2, 5, None], pa.int64())})])

    def empty():
        return rd.from_items([{"id": 1, "part": 2}]).filter(lambda r: False)

    lineage = {"job": "routes"}
    outs, grouped, real_groupby = {}, [], rd.Dataset.groupby

    def spy_groupby(self, *a, **k):
        grouped.append(a)
        return real_groupby(self, *a, **k)

    for route in ("driver", "exchange"):
        with monkeypatch.context() as m:
            if route == "driver":
                _no_groupby(m)
            else:
                # below 0 even the empty table takes the exchange
                m.setattr(dsutil, "DRIVER_FINISH_ROWS", -1)
                m.setattr(rd.Dataset, "groupby", spy_groupby)
            out = str(tmp_path / route)
            st = resumable_write(table(), out, "part", lineage=lineage)
            assert st["partitions"] == st["written"] == 7
            assert st["rows_written"] == 3000
            outs[route] = _read_written(out)
            nan_out = str(tmp_path / f"{route}-nan")
            st = resumable_write(nan_table(), nan_out, "k")
            assert st["partitions"] == 3
            files, manifest = _read_written(nan_out)
            assert sorted(files) == ["part-1.5.parquet", "part-2.5.parquet",
                                     "part-nan.parquet"]
            assert manifest["nan"][0] == 2
            assert list(files["part-nan.parquet"]["id"]) == [1, 2]
            none_out = str(tmp_path / f"{route}-none")
            st = resumable_write(none_table(), none_out, "s")
            assert st["partitions"] == 3
            outs[f"{route}-none"] = _read_written(none_out)
            files, manifest = outs[f"{route}-none"]
            assert sorted(files) == ["part-None.parquet", "part-a.parquet",
                                     "part-b.parquet"]
            assert list(files["part-None.parquet"]["id"]) == [1, 2]
            bool_out = str(tmp_path / f"{route}-bool")
            st = resumable_write(bool_table(), bool_out, "flag")
            assert st["partitions"] == 2 and st["rows_written"] == 40
            outs[f"{route}-bool"] = _read_written(bool_out)
            assert sorted(outs[f"{route}-bool"][0]) == [
                "part-False.parquet", "part-True.parquet"]
            int_out = str(tmp_path / f"{route}-intnull")
            st = resumable_write(int_null_table(), int_out, "k")
            assert st["partitions"] == 4
            outs[f"{route}-intnull"] = _read_written(int_out)
            files, manifest = outs[f"{route}-intnull"]
            assert sorted(files) == ["part-1.0.parquet", "part-2.0.parquet",
                                     "part-5.0.parquet", "part-nan.parquet"]
            assert list(files["part-nan.parquet"]["id"]) == [1, 5]
            assert list(files["part-2.0.parquet"]["id"]) == [2, 3]
            st = resumable_write(empty(), str(tmp_path / f"{route}-empty"),
                                 "part")
            assert st["partitions"] == st["written"] == 0
    assert grouped == [("_bk",)] * 6
    for kind in ("", "-none", "-bool", "-intnull"):
        (dfiles, dman), (xfiles, xman) = (outs["driver" + kind],
                                          outs["exchange" + kind])
        assert sorted(dfiles) == sorted(xfiles)
        for f in dfiles:
            pd.testing.assert_frame_equal(dfiles[f], xfiles[f])
            assert pq.read_schema(tmp_path / f"driver{kind}" / f).equals(
                pq.read_schema(tmp_path / f"exchange{kind}" / f))
        assert dman == xman
    dfiles, dman = outs["driver"]
    assert sorted(dfiles) == [f"part-{p}.parquet" for p in range(7)]
    assert dman["3"][0] == len(range(3, 3000, 7))
    assert dman["3"][1]["job"] == "routes"


def test_knn_cells_exact_and_pruned(ray_session):
    import numpy as np
    import ray.data as rd

    from proj_ray.stages import knn_brute, knn_cells

    rng = np.random.default_rng(7)
    n = 20000
    rows = {
        "image_id": np.arange(n, dtype=np.int64),
        "lon": rng.uniform(-179, 179, n),
        "lat": rng.uniform(-80, 80, n),
    }
    ds = rd.from_arrow(__import__("pyarrow").table(rows)).materialize()
    qlon = [10.0, -100.0, 179.5, 0.3, -45.0]
    qlat = [50.0, -30.0, 79.0, -79.9, 0.0]
    brute = knn_brute(ds, qlon, qlat, k=5, geodesic=False)
    stats = {}
    ringed = knn_cells(ds, qlon, qlat, k=5, _stats=stats)
    a = brute[["q", "nid", "rank"]].reset_index(drop=True)
    b = ringed[["q", "nid", "rank"]].reset_index(drop=True)
    assert a.astype("int64").equals(b.astype("int64"))
    # ring pruning actually pruned: the search touched only a small
    # fraction of the 20k rows (cells outside the rings never scanned)
    assert stats["rows_scanned"] < n * 0.25, stats


def test_salted_tile_counts_parity(ray_session):
    import pandas as pd

    from proj_ray.pipelines import geotag_dataset, tile_counts_salted

    n = 30000
    # low threshold forces the Zipf hotspots into the salted path
    salted = tile_counts_salted(geotag_dataset(n, parallelism=8), zoom=5,
                                threshold=50, salt=8).to_pandas()
    plain = tile_counts_salted(geotag_dataset(n, parallelism=8), zoom=5,
                               salted=False).to_pandas()
    a = salted.sort_values("tile_key").reset_index(drop=True)
    b = plain.sort_values("tile_key").reset_index(drop=True)
    assert a["tile_key"].tolist() == b["tile_key"].tolist()
    assert a["n"].tolist() == b["n"].tolist()
    _ = pd


def _numpy_tile_counts(n, zoom):
    from proj_ray.images import geotags
    from proj_ray.tiles import tile_assign

    lon, lat = geotags(np.arange(n, dtype=np.int64))
    tx, ty, _ = tile_assign(lon, lat, zoom)
    return np.unique(tx * np.int64(1 << 30) + ty, return_counts=True)


def _sorted_counts(ds):
    df = ds.to_pandas().sort_values("tile_key")
    return df["tile_key"].to_numpy(np.int64), df["n"].to_numpy(np.int64)


def _no_groupby(monkeypatch):
    import ray.data as rd

    def no_exchange(*a, **k):
        raise AssertionError("an exchange ran under the driver cap")

    monkeypatch.setattr(rd.Dataset, "groupby", no_exchange)


def test_tile_counts_under_cap_finish_on_driver(ray_session, monkeypatch):
    """Under the cap the materialized partials are summed on the driver:
    no exchange runs, and the counts equal a NumPy count."""
    from proj_ray.pipelines import geotag_dataset, spatial

    _no_groupby(monkeypatch)
    n = 30000
    keys, counts = _numpy_tile_counts(n, zoom=5)
    for salted in (True, False):
        out = spatial.tile_counts_salted(geotag_dataset(n, parallelism=8),
                                         zoom=5, threshold=50, salt=8,
                                         salted=salted)
        assert [str(t) for t in out.schema().types] == ["int64", "int64"]
        k, c = _sorted_counts(out)
        assert np.array_equal(k, keys) and np.array_equal(c, counts)


def test_tile_counts_distributed_routes_match_driver(ray_session,
                                                     monkeypatch):
    """With the cap at 0 every non-empty partial table takes the
    distributed route: coalesce (24 blocks > 2 x 4 CPUs), census, salt,
    bucketed exchanges and un-salt merge. Salted and unsalted must count
    exactly like the driver route."""
    import ray.data as rd

    from proj_ray import dsutil
    from proj_ray.pipelines import geotag_dataset, spatial

    n = 30000
    driver = _sorted_counts(spatial.tile_counts_salted(
        geotag_dataset(n, parallelism=24), zoom=5))
    # threshold 50 really salts: the Zipf hotspots put some tiles above it
    assert (driver[1] >= 50).sum() >= 3

    exchanged, repartitions = [], []
    real_sum, real_rep = spatial.bucketed_sum, rd.Dataset.repartition

    def spy_sum(parts, key_col, *a, **k):
        exchanged.append(key_col)
        return real_sum(parts, key_col, *a, **k)

    def spy_rep(self, *a, **k):
        repartitions.append(a)
        return real_rep(self, *a, **k)

    monkeypatch.setattr(spatial, "bucketed_sum", spy_sum)
    monkeypatch.setattr(rd.Dataset, "repartition", spy_rep)
    monkeypatch.setattr(dsutil, "DRIVER_FINISH_ROWS", 0)
    salted = spatial.tile_counts_salted(geotag_dataset(n, parallelism=24),
                                        zoom=5, threshold=50, salt=8)
    assert exchanged == ["tile_key", "cell_salted", "tile_key"]
    plain = spatial.tile_counts_salted(geotag_dataset(n, parallelism=24),
                                       zoom=5, salted=False)
    assert exchanged[3:] == ["tile_key"]
    assert len(repartitions) == 2
    for out in (salted, plain):
        k, c = _sorted_counts(out)
        assert np.array_equal(k, driver[0])
        assert np.array_equal(c, driver[1])


def test_tile_counts_empty_input_is_typed(ray_session, monkeypatch):
    import ray.data as rd

    from proj_ray import dsutil
    from proj_ray.pipelines import spatial

    for cap in (dsutil.DRIVER_FINISH_ROWS, 0):
        monkeypatch.setattr(dsutil, "DRIVER_FINISH_ROWS", cap)
        for salted in (True, False):
            empty = rd.from_items([{"lon": 1.0, "lat": 2.0}]) \
                .filter(lambda r: False)
            out = spatial.tile_counts_salted(empty, zoom=5, salted=salted)
            assert out.count() == 0
            assert out.schema().names == ["tile_key", "n"]
            assert [str(t) for t in out.schema().types] == \
                ["int64", "int64"]


def test_bucketed_sum_routes(ray_session, monkeypatch):
    """Under the cap bucketed_sum runs no groupby and equals a NumPy
    sum; empty input gives a typed zero-row table; with the cap at 0 the
    bucketed exchange gives the same table."""
    import pandas as pd
    import ray.data as rd

    from proj_ray import dsutil
    from proj_ray.pipelines import spatial

    rng = np.random.default_rng(5)
    keys = rng.integers(-50, 2000, 20000) * np.int64(1 << 33)
    vals = rng.integers(0, 1000, 20000)
    parts = rd.from_pandas([pd.DataFrame({"k": keys[i::6], "v": vals[i::6]})
                            for i in range(6)])
    uk, inv = np.unique(keys, return_inverse=True)
    want = np.zeros(len(uk), np.int64)
    np.add.at(want, inv, vals)

    def check(out):
        assert out.schema().names == ["k", "s"]
        assert [str(t) for t in out.schema().types] == ["int64", "int64"]
        df = out.to_pandas().sort_values("k")
        assert np.array_equal(df["k"].to_numpy(), uk)
        assert np.array_equal(df["s"].to_numpy(), want)

    with monkeypatch.context() as m:
        _no_groupby(m)
        check(spatial.bucketed_sum(parts, "k", "v", "s"))
        empty = rd.from_items([{"k": 1, "v": 2}]).filter(lambda r: False)
        out = spatial.bucketed_sum(empty, "k", "v", "s")
        assert out.count() == 0
        assert out.schema().names == ["k", "s"]
        assert [str(t) for t in out.schema().types] == ["int64", "int64"]
    monkeypatch.setattr(dsutil, "DRIVER_FINISH_ROWS", 0)
    grouped, real_groupby = [], rd.Dataset.groupby

    def spy_groupby(self, *a, **k):
        grouped.append(a)
        return real_groupby(self, *a, **k)

    monkeypatch.setattr(rd.Dataset, "groupby", spy_groupby)
    check(spatial.bucketed_sum(parts, "k", "v", "s"))
    assert grouped == [("_bk",)]


def test_bucketed_sum_is_exact_past_2_53(ray_session, monkeypatch):
    """Per-key int64 sums past 2**53 (where a float sum rounds) are
    exact on the driver route and on the exchange (cap -1), and an
    empty input gives a typed (int64, int64) zero-row table on both."""
    import pyarrow as pa
    import ray.data as rd

    from proj_ray import dsutil
    from proj_ray.pipelines import spatial

    big = 2 ** 53
    blocks = [pa.table({"k": np.array([7, 8, 7], np.int64),
                        "v": np.array([big, 1, 1], np.int64)}),
              pa.table({"k": np.array([7, 8], np.int64),
                        "v": np.array([2 ** 60 + 1, big + 3], np.int64)})]
    want = {7: big + 1 + 2 ** 60 + 1, 8: big + 4}
    assert float(want[7]) != want[7]  # a float sum could not hold it
    for cap in (dsutil.DRIVER_FINISH_ROWS, -1):
        monkeypatch.setattr(dsutil, "DRIVER_FINISH_ROWS", cap)
        out = dsutil.pull_arrow(
            spatial.bucketed_sum(rd.from_arrow(blocks), "k", "v", "s"))
        assert dict(zip(out.column("k").to_pylist(),
                        out.column("s").to_pylist())) == want
        empty = rd.from_items([{"k": 1, "v": 2}]).filter(lambda r: False)
        out = spatial.bucketed_sum(empty, "k", "v", "s")
        assert out.count() == 0
        assert out.schema().names == ["k", "s"]
        assert [str(t) for t in out.schema().types] == ["int64", "int64"]


def test_driver_finish_hands_off_one_block_rule_blocks(ray_session):
    """A table finished on the driver goes back in ceil(rows /
    ONE_BLOCK_ROWS) blocks, so each map after it runs one task per
    block; a table that fits one block (tile_join's ~1.2k tiles) stays
    one block."""
    import pyarrow as pa
    import ray.data as rd

    from proj_ray import dsutil
    from proj_ray.pipelines import spatial

    per = dsutil.ONE_BLOCK_ROWS
    for rows, blocks in ((1200, 1), (per, 1), (2 * per + 5, 3),
                         (3 * per + 1000, 4)):
        keys = np.arange(rows, dtype=np.int64)
        parts = rd.from_arrow([pa.table({"k": keys[i::3],
                                         "v": np.ones(len(keys[i::3]),
                                                      np.int64)})
                               for i in range(3)])
        out = spatial.bucketed_sum(parts, "k", "v", "n")
        assert out.num_blocks() == blocks, (rows, out.num_blocks())
        t = dsutil.pull_arrow(out)
        assert t.column("k").to_pylist() == keys.tolist()
        assert t.column("n").to_pylist() == [1] * rows


def test_tile_join_plan_is_one_operator_per_block(ray_session, monkeypatch,
                                                 tmp_path):
    """read_parquet of 8 files -> reproject -> with_tiles ->
    spatial_join -> per-block partials -> bucketed_sum fuses into ONE
    operator running one task per CPU (the driver-finished read fits
    one wave), with no exchange, and counts like a brute-force
    oracle."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from proj_ray import dsutil, join, stages
    from proj_ray.pipelines import spatial
    from proj_ray.tiles import tile_assign

    rng = np.random.default_rng(8)
    n, zoom = 24000, 8
    lon = rng.uniform(-20.0, 20.0, n)
    lat = rng.uniform(-15.0, 15.0, n)
    for f in range(8):
        pq.write_table(pa.table({"lon": lon[f::8], "lat": lat[f::8]}),
                       str(tmp_path / f"part-{f}.parquet"))
    rings = [(np.array([-10.0, 5.0, 5.0, -10.0]),
              np.array([-5.0, -5.0, 8.0, 8.0])),
             (np.array([0.0, 15.0, 7.0]), np.array([-12.0, -12.0, 10.0])),
             (np.array([-18.0, -2.0, -2.0, -18.0]),
              np.array([1.0, 1.0, 14.0, 14.0]))]
    index = join.PolygonIndex([0, 1, 2], [r[0] for r in rings],
                              [r[1] for r in rings])

    def partials(b: dict) -> dict:
        key = b["tile_x"] * np.int64(1 << 30) + b["tile_y"]
        uk, cnt = np.unique(key[b["tile_valid"]], return_counts=True)
        return {"tile_key": uk, "n": cnt.astype(np.int64)}

    stats = []
    real_pull = dsutil.pull_arrow

    def spy_pull(ds):
        stats.append(ds.stats())
        return real_pull(ds)

    monkeypatch.setattr(dsutil, "pull_arrow", spy_pull)
    ds = rd.read_parquet(str(tmp_path))
    ds = stages.reproject(ds, "+proj=tmerc +lon_0=0 +ellps=WGS84")
    ds = stages.with_tiles(ds, zoom)
    ds = stages.spatial_join(ds, index)
    ds = ds.map_batches(partials, batch_format="numpy", batch_size=None)
    out = spatial.bucketed_sum(ds, "tile_key", "n", "n")
    assert out.num_blocks() == 1
    out = out.to_pandas()

    assert len(stats) == 1
    ops = [ln for ln in stats[0].splitlines() if ln.startswith("Operator")]
    assert len(ops) == 1, ops
    assert ops[0].split(" ", 2)[2].startswith("ReadParquet->")
    cpus = int(ray_session.cluster_resources()["CPU"])
    assert "PIPJoiner" in ops[0] and f": {cpus} tasks executed" in ops[0]
    assert "Sort" not in stats[0]

    tx, ty, ok = tile_assign(lon, lat, zoom)
    key = tx * np.int64(1 << 30) + ty
    hits = np.concatenate([np.flatnonzero(join.pip_oracle(lon, lat, rx, ry)
                                          & ok) for rx, ry in rings])
    uk, cnt = np.unique(key[hits], return_counts=True)
    out = out.sort_values("tile_key")
    assert np.array_equal(out["tile_key"].to_numpy(), uk)
    assert np.array_equal(out["n"].to_numpy(), cnt)


def test_read_parquet_reads_a_small_table_as_one_block(ray_session,
                                                      tmp_path):
    """dsutil.read_parquet reads a table of at most ONE_BLOCK_ROWS rows
    (here four files) as one block, so the read and the row-wise stages
    after it run as one task; a larger table keeps Ray's split, and an
    explicit override_num_blocks wins."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from proj_ray import dsutil, stages
    from proj_ray.tiles import tile_assign

    small, big = tmp_path / "small", tmp_path / "big"
    small.mkdir()
    big.mkdir()
    n = 5000
    ids = np.arange(4 * n, dtype=np.int64)
    for f in range(4):
        pq.write_table(pa.table({"doc_id": ids[f * n:(f + 1) * n]}),
                       str(small / f"part-{f}.parquet"))
    pq.write_table(pa.table({"doc_id": np.arange(dsutil.ONE_BLOCK_ROWS + 1)}),
                   str(big / "part-0.parquet"))

    def add_geo(b: dict) -> dict:
        i = np.asarray(b["doc_id"], dtype=np.int64)
        return {"doc_id": i, "lon": (i * 61803 % 360000) / 1000.0 - 180.0,
                "lat": (i * 75487 % 170000) / 1000.0 - 85.0}

    ds = dsutil.read_parquet(str(small), columns=["doc_id"])
    ds = stages.with_tiles(ds.map_batches(add_geo, batch_format="numpy"),
                           zoom=6).materialize()
    ops = [ln for ln in ds.stats().splitlines() if ln.startswith("Operator")]
    assert len(ops) == 1, ops
    assert ops[0].split(" ", 2)[2].startswith("ReadParquet->")
    assert "1 tasks executed" in ops[0]
    got = ds.to_pandas().sort_values("doc_id")
    geo = add_geo({"doc_id": ids})
    tx, ty, ok = tile_assign(geo["lon"], geo["lat"], 6)
    assert np.array_equal(got["doc_id"].to_numpy(), ids)
    assert np.array_equal(got["tile_x"].to_numpy(), tx)
    assert np.array_equal(got["tile_y"].to_numpy(), ty)
    assert np.array_equal(got["tile_valid"].to_numpy(), ok)

    assert dsutil.read_parquet(str(big)).materialize().num_blocks() > 1
    assert dsutil.read_parquet(str(small), override_num_blocks=4) \
        .materialize().num_blocks() == 4


def test_fused_salted_tile_counts_parity(ray_session):
    """The census-free fused path (one streaming execution,
    unconditional two-level salt) must count identically to the
    censused and unsalted paths over the same synthetic geotags."""
    from proj_ray.pipelines import (geotag_dataset, tile_counts_salted,
                                    tile_counts_salted_fused)

    n = 30000
    fused = tile_counts_salted_fused(n, zoom=5, salt=8)
    plain = tile_counts_salted(geotag_dataset(n, parallelism=8), zoom=5,
                               salted=False).to_pandas()
    a = fused.sort_values("tile_key").reset_index(drop=True)
    b = plain.sort_values("tile_key").reset_index(drop=True)
    assert a["tile_key"].tolist() == b["tile_key"].tolist()
    assert a["n"].tolist() == b["n"].tolist()
    # tiny n exercises the par floor; salt=1 the degenerate salt
    f1 = tile_counts_salted_fused(997, zoom=3, salt=1)
    p1 = tile_counts_salted(geotag_dataset(997, parallelism=2), zoom=3,
                            salted=False).to_pandas()
    assert (f1.sort_values("tile_key")["n"].tolist()
            == p1.sort_values("tile_key")["n"].tolist())


def test_headline_combine_modes_agree(ray_session):
    from proj_ray.pipelines import headline_spatial

    t1, _ = headline_spatial(50000, num_cpus=4)
    t2, tiles = headline_spatial(50000, num_cpus=4, combine="tiles")
    assert t1 == t2
    assert tiles["n"].sum() == t1


def test_knn_index_exact_and_io_pruned(ray_session, tmp_path):
    """The persistent cell-partitioned layout: results identical to
    brute planar kNN, and the ring probe reads only the window's
    partitions/bytes — I/O scales with the window, not the corpus."""
    import numpy as np
    import ray.data as rd

    from proj_ray.stages import knn_brute, knn_build, knn_index

    rng = np.random.default_rng(11)
    n = 20000
    rows = {
        "image_id": np.arange(n, dtype=np.int64),
        "lon": rng.uniform(-179, 179, n),
        "lat": rng.uniform(-80, 80, n),
    }
    ds = rd.from_arrow(__import__("pyarrow").table(rows)).materialize()
    qlon = [10.0, -100.0, 179.5, 0.3, -45.0]
    qlat = [50.0, -30.0, 79.0, -79.9, 0.0]
    brute = knn_brute(ds, qlon, qlat, k=5, geodesic=False)
    path = str(tmp_path / "knn_idx")
    knn_build(ds, path, k_hint=5)
    stats = {}
    got = knn_index(path, qlon, qlat, k=5, _stats=stats)
    a = brute[["q", "nid", "rank"]].reset_index(drop=True)
    b = got[["q", "nid", "rank"]].reset_index(drop=True)
    assert a.astype("int64").equals(b.astype("int64"))
    # the probe must read a small fraction of the index — partitions
    # AND bytes (this is the I/O-pruning claim, not just compute)
    import os

    total_bytes = sum(
        os.path.getsize(os.path.join(dp, f))
        for dp, _, fs in os.walk(path) for f in fs
        if f.endswith(".parquet"))
    assert stats["partitions_read"] < stats["partitions_total"] * 0.25, \
        stats
    assert stats["bytes_read"] < total_bytes * 0.25, \
        (stats, total_bytes)


def test_dwithin_join_matches_brute(ray_session):
    import ray.data as rd

    from proj_ray.stages import dwithin_join

    rng = np.random.default_rng(11)
    n = 3000
    rows = {"doc_id": np.arange(n),
            "lon": rng.uniform(-180, 180, n),
            "lat": rng.uniform(-85, 85, n)}
    qlon = np.array([0.0, 100.0, -60.0])
    qlat = np.array([0.0, 45.0, -80.0])
    radius = 1_500_000.0
    ds = rd.from_arrow(__import__("pyarrow").table(rows))
    got = dwithin_join(ds, qlon, qlat, radius).to_pandas()
    got = set(zip(got["doc_id"], got["q"]))

    R = 6371000.0
    p1 = np.radians(rows["lat"])[:, None]
    p2 = np.radians(qlat)[None, :]
    dl = np.radians(qlon)[None, :] - np.radians(rows["lon"])[:, None]
    a = np.sin((p2 - p1) / 2) ** 2 \
        + np.cos(p1) * np.cos(p2) * np.sin(dl / 2) ** 2
    d = 2 * R * np.arcsin(np.sqrt(np.minimum(a, 1)))
    i, j = np.nonzero(d < radius)
    assert got == set(zip(i.tolist(), j.tolist()))
    assert len(got) > 20


def test_semi_anti_join_both_paths(ray_session, monkeypatch):
    import pandas as pd
    import ray.data as rd

    from proj_ray import dsutil
    from proj_ray.stages import semi_anti_join

    left = pd.DataFrame({"k": np.arange(20), "v": np.arange(20) * 10})
    right = pd.DataFrame({"rk": np.repeat([3, 5, 11, 17], 4)})
    lds, rds = rd.from_pandas(left), rd.from_pandas(right)

    for max_rows in (1_000_000, 1):  # broadcast path, then shuffle path
        monkeypatch.setattr(dsutil, "BROADCAST_ROWS", max_rows)
        anti = semi_anti_join(lds, rds, "k", right_key="rk",
                              how="anti").to_pandas()
        semi = semi_anti_join(lds, rds, "k", right_key="rk",
                              how="semi").to_pandas()
        assert sorted(semi["k"]) == [3, 5, 11, 17], max_rows
        assert sorted(anti["k"]) == \
            [i for i in range(20) if i not in (3, 5, 11, 17)], max_rows
        assert set(anti.columns) >= {"k", "v"}


def test_pivot_counts_discovery_pass(ray_session):
    import pandas as pd
    import ray.data as rd

    from proj_ray.functions.stats import pivot_counts

    df = pd.DataFrame({"u": [1, 1, 2, 2, 2, 3],
                       "t": ["a", "b", "a", "a", "c", "b"]})
    out = pivot_counts(rd.from_pandas(df), "u", "t").to_pandas()
    out = out.sort_values("u").reset_index(drop=True)
    assert list(out.columns) == ["u", "n_a", "n_b", "n_c"]
    assert out["n_a"].tolist() == [1, 2, 0]
    assert out["n_b"].tolist() == [1, 0, 1]
    assert out["n_c"].tolist() == [0, 1, 0]


def test_bloom_prefilter_parity_and_no_false_negatives(ray_session,
                                                       monkeypatch):
    import pandas as pd
    import ray.data as rd

    from proj_ray import dsutil
    from proj_ray.stages import (bloom_maybe_contains, build_bloom,
                                 semi_anti_join)

    monkeypatch.setattr(dsutil, "BROADCAST_ROWS", 1)

    rng = np.random.default_rng(21)
    left = pd.DataFrame({"k": rng.integers(0, 5000, 3000),
                         "v": rng.normal(size=3000)})
    right = pd.DataFrame({"rk": rng.integers(0, 5000, 800)})
    lds, rds = rd.from_pandas(left), rd.from_pandas(right)

    for how in ("semi", "anti"):
        with_bloom = semi_anti_join(lds, rds, "k", right_key="rk",
                                    how=how, use_bloom=True).to_pandas()
        without = semi_anti_join(lds, rds, "k", right_key="rk",
                                 how=how, use_bloom=False).to_pandas()
        a = with_bloom.sort_values(["k", "v"]).reset_index(drop=True)
        b = without.sort_values(["k", "v"]).reset_index(drop=True)
        assert np.array_equal(a["k"], b["k"]), how
        assert np.allclose(a["v"], b["v"]), how

    # no false negatives ever: every right key must probe True
    bits = build_bloom(rds, "rk", m_bits=1 << 16)
    assert bloom_maybe_contains(bits, right["rk"].to_numpy(),
                                1 << 16).all()
    # string keys take the hash_array path
    sright = rd.from_pandas(pd.DataFrame(
        {"rk": [f"key{i}" for i in range(300)]}))
    sbits = build_bloom(sright, "rk", m_bits=1 << 16)
    assert bloom_maybe_contains(
        sbits, np.array([f"key{i}" for i in range(300)],
                        dtype=object), 1 << 16).all()
