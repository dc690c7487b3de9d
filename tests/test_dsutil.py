"""`dsutil.materialize`: a plan that Ray fuses into one task-pool map
runs without Ray Data's per-op resource reservation, and nothing the
caller holds changes."""

import numpy as np
import pandas as pd
import pytest


def _parts(n_blocks: int = 4):
    import ray.data as rd

    return rd.from_pandas([pd.DataFrame({"k": np.arange(b, 40, n_blocks),
                                         "v": np.ones(40 // n_blocks,
                                                      np.int64)})
                           for b in range(n_blocks)])


def _points(tmp_path, n_files: int) -> str:
    """`n_files` small parquet files of lon/lat points. With 8 files on
    the 4 CPUs of `ray_session` Ray reads one block per file, as in
    geobench; with 4 it splits each read task's output in two."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(3)
    path = tmp_path / f"points-{n_files}"
    path.mkdir()
    for f in range(n_files):
        pq.write_table(pa.table({"lon": rng.uniform(-5.0, 5.0, 500),
                                 "lat": rng.uniform(-5.0, 5.0, 500)}),
                       str(path / f"part-{f}.parquet"))
    return str(path)


def _tile_join_chain(tmp_path):
    """geobench's tile_join stage chain: read_parquet of 8 files ->
    reproject -> with_tiles -> spatial_join -> per-block partials."""
    import ray.data as rd

    from proj_ray import join, stages

    index = join.PolygonIndex([0], [np.array([-4.0, 4.0, 4.0, -4.0])],
                              [np.array([-4.0, -4.0, 4.0, 4.0])])

    def partials(b: dict) -> dict:
        key = b["tile_x"] * np.int64(1 << 30) + b["tile_y"]
        uk, cnt = np.unique(key[b["tile_valid"]], return_counts=True)
        return {"tile_key": uk, "n": cnt.astype(np.int64)}

    ds = rd.read_parquet(_points(tmp_path, 8))
    ds = stages.reproject(ds, "+proj=tmerc +lon_0=0 +ellps=WGS84")
    ds = stages.with_tiles(ds, 8)
    ds = stages.spatial_join(ds, index)
    return ds.map_batches(partials, batch_format="numpy", batch_size=None)


def _plan(kind, tmp_path):
    import ray.data as rd

    from proj_ray.exchange import co_partition

    if kind == "tile_join_chain":
        return _tile_join_chain(tmp_path)
    if kind == "from_arrow_map_batches":
        import pyarrow as pa

        return rd.from_arrow(pa.table({"k": np.arange(10)})).map_batches(
            lambda t: t, batch_format="pyarrow")
    if kind == "materialized":
        return _parts().map_batches(lambda b: b).materialize()
    if kind == "read_split":  # Ray splits the read: it and the map stay apart
        return rd.read_parquet(_points(tmp_path, 4)).map_batches(
            lambda b: b, batch_format="pyarrow")
    if kind == "read_then_batch_size":  # the read may change row counts
        return rd.read_parquet(_points(tmp_path, 8)).map_batches(
            lambda b: b, batch_format="pyarrow", batch_size=256)
    if kind == "maps_differ_in_num_cpus":
        return _parts().map_batches(lambda b: b).map_batches(
            lambda b: b, num_cpus=0.5)
    if kind == "groupby_aggregate":
        from ray.data.aggregate import Sum

        return _parts().groupby("k").aggregate(Sum("v"))
    if kind == "union":
        return _parts().union(_parts())
    if kind == "zip":
        return _parts().zip(_parts().map_batches(
            lambda b: pd.DataFrame({"w": b["v"]}), batch_format="pandas"))
    if kind == "co_partition":
        return co_partition(_parts(), "k", lambda g: g)
    if kind == "actor_pool_map":
        class Same:  # defined here so that it pickles by value
            def __call__(self, b):
                return b

        return _parts().map_batches(Same, concurrency=1)
    raise ValueError(kind)


FUSED = ["tile_join_chain", "from_arrow_map_batches", "materialized"]
# The first three look like one map chain in the logical plan; Ray's
# fusion rules keep them apart.
NOT_FUSED = ["read_split", "read_then_batch_size", "maps_differ_in_num_cpus",
             "groupby_aggregate", "union", "zip", "co_partition",
             "actor_pool_map"]


@pytest.mark.parametrize("kind", FUSED + NOT_FUSED)
def test_one_fused_map_predicate(ray_session, tmp_path, kind):
    from proj_ray import dsutil

    assert dsutil._fuses_to_one_map(_plan(kind, tmp_path)) == \
        (kind in FUSED)


@pytest.mark.parametrize("kind", FUSED + NOT_FUSED)
@pytest.mark.parametrize("via", ["driver_table", "pull_arrow"])
def test_only_a_fused_map_runs_without_reservation(ray_session, tmp_path,
                                                   monkeypatch, kind, via):
    """The dataset that executes has reservation off exactly when the
    plan fuses into one map; the caller's dataset, the global context
    and the returned dataset all still read True."""
    from ray.data import DataContext
    from ray.data.dataset import Dataset

    from proj_ray import dsutil

    ds = _plan(kind, tmp_path)
    want = ds.to_pandas()
    seen = []
    real = Dataset.materialize

    def spy(self):
        seen.append(self.context.op_resource_reservation_enabled)
        return real(self)

    monkeypatch.setattr(Dataset, "materialize", spy)
    if via == "driver_table":
        mat, table = dsutil.driver_table(ds, dsutil.DRIVER_FINISH_ROWS,
                                         arrow=True)
    else:
        table = dsutil.pull_arrow(ds)
        mat = None
    monkeypatch.undo()

    if kind == "materialized" and via == "pull_arrow":
        assert seen == []  # a materialized dataset is pulled as it is
    else:
        assert seen == [kind not in FUSED]
    assert ds.context.op_resource_reservation_enabled
    assert DataContext.get_current().op_resource_reservation_enabled
    if mat is not None:
        assert mat.context.op_resource_reservation_enabled
        assert mat._logical_plan.context.op_resource_reservation_enabled
        assert mat.map_batches(lambda b: b) \
            .context.op_resource_reservation_enabled
    cols = sorted(want.columns)
    got = table.to_pandas()[cols].sort_values(cols).reset_index(drop=True)
    assert got.equals(want[cols].sort_values(cols).reset_index(drop=True))
