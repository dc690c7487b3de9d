"""`dsutil.materialize`: a plan that Ray fuses into one task-pool map
runs by driving that operator, with no `StreamingExecutor`, and nothing
the caller holds changes; `dsutil.from_arrow` builds its dataset on the
driver."""

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
    if path.exists():
        return str(path)
    path.mkdir()
    for f in range(n_files):
        pq.write_table(pa.table({"lon": rng.uniform(-5.0, 5.0, 500),
                                 "lat": rng.uniform(-5.0, 5.0, 500)}),
                       str(path / f"part-{f}.parquet"))
    return str(path)


def _tile_join_chain(tmp_path, **read):
    """geobench's tile_join stage chain: read_parquet of 8 files ->
    reproject -> with_tiles -> spatial_join -> per-block partials.
    `read` goes to `read_parquet`."""
    import ray.data as rd

    from proj_ray import join, stages

    index = join.PolygonIndex([0], [np.array([-4.0, 4.0, 4.0, -4.0])],
                              [np.array([-4.0, -4.0, 4.0, 4.0])])

    def partials(b: dict) -> dict:
        key = b["tile_x"] * np.int64(1 << 30) + b["tile_y"]
        uk, cnt = np.unique(key[b["tile_valid"]], return_counts=True)
        return {"tile_key": uk, "n": cnt.astype(np.int64)}

    ds = rd.read_parquet(_points(tmp_path, 8), **read)
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

    assert (dsutil._one_map_plan(_plan(kind, tmp_path)) is not None) == \
        (kind in FUSED)


def _source(ds):
    op = ds._logical_plan.dag
    while op.input_dependencies:
        op = op.input_dependencies[0]
    return op


def _executors(monkeypatch) -> list:
    """A list that grows by one for each `StreamingExecutor` built."""
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    built = []
    real = StreamingExecutor.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "__init__", spy)
    return built


@pytest.mark.parametrize("kind", FUSED + NOT_FUSED)
@pytest.mark.parametrize("via", ["driver_table", "pull_arrow"])
def test_only_a_fused_map_runs_without_reservation(ray_session, tmp_path,
                                                   monkeypatch, kind, via):
    """A plan that fuses into one map runs with no `StreamingExecutor`,
    so without Ray Data's per-op resource reservation; every other plan
    runs under one executor with reservation on. Neither changes the
    caller's dataset, its read, its context or the global context, and
    the returned dataset still reads reservation on. The pulled rows are
    those of `to_pandas()`; for `tile_join_chain`, whose per-block
    partials depend on the blocks, those of the same chain read with one
    block per CPU, which is how the helper runs its 8-file read."""
    from ray.data import DataContext

    from proj_ray import dsutil

    ds = _plan(kind, tmp_path)
    ref = _tile_join_chain(tmp_path,
                           override_num_blocks=dsutil.cluster_cpus()) \
        if kind == "tile_join_chain" else ds
    want = ref.to_pandas()
    dag, ctx = ds._logical_plan.dag, ds.context
    before = (dag.dag_str, repr(ctx), repr(DataContext.get_current()),
              getattr(_source(ds), "_parallelism", None),
              ds._plan.has_computed_output())
    built = _executors(monkeypatch)
    if via == "driver_table":
        mat, table = dsutil.driver_table(ds, dsutil.DRIVER_FINISH_ROWS,
                                         arrow=True)
    else:
        table = dsutil.pull_arrow(ds)
        mat = None
    monkeypatch.undo()

    assert [e._data_context.op_resource_reservation_enabled
            for e in built] == ([] if kind in FUSED else [True])
    assert ds.context.op_resource_reservation_enabled
    assert DataContext.get_current().op_resource_reservation_enabled
    if mat is not None:
        assert mat.context.op_resource_reservation_enabled
        assert mat._logical_plan.context.op_resource_reservation_enabled
        assert mat.map_batches(lambda b: b) \
            .context.op_resource_reservation_enabled
    assert ds._logical_plan.dag is dag and ds.context is ctx
    assert (dag.dag_str, repr(ctx), repr(DataContext.get_current()),
            getattr(_source(ds), "_parallelism", None),
            ds._plan.has_computed_output()) == before
    cols = sorted(want.columns)
    got = table.to_pandas()[cols].sort_values(cols).reset_index(drop=True)
    assert got.equals(want[cols].sort_values(cols).reset_index(drop=True))


@pytest.mark.parametrize("kind", ["groupby_aggregate", "union", "zip",
                                  "co_partition"])
def test_non_map_plans_are_refused_without_planning(ray_session, tmp_path,
                                                    monkeypatch, kind):
    from ray.data._internal.logical import optimizers

    from proj_ray import dsutil

    ds = _plan(kind, tmp_path)

    def no_planning(plan):
        raise AssertionError("planned")

    monkeypatch.setattr(optimizers, "get_execution_plan", no_planning)
    assert dsutil._one_map_plan(ds) is None


def _tasks(mat) -> int:
    """Tasks that the one operator of `mat`'s execution ran."""
    (op,) = [ln for ln in mat.stats().splitlines()
             if ln.startswith("Operator")]
    return int(op.split(": ", 1)[1].split(" tasks executed", 1)[0])


def _rows(df):
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


def test_one_map_read_runs_in_one_wave(ray_session, tmp_path):
    """8 files on 4 CPUs: Ray plans 8 read tasks (2 x CPUs), the helper
    runs 4, two files a block, with the same rows; the caller's read
    still asks Ray to size it, and runs 8 tasks on its own."""
    import ray.data as rd

    from proj_ray import dsutil

    cpus = dsutil.cluster_cpus()
    assert cpus == 4
    ds = rd.read_parquet(_points(tmp_path, 8)).map_batches(
        lambda t: t, batch_format="pyarrow")
    mat = dsutil.materialize(ds)
    assert mat.num_blocks() == cpus and _tasks(mat) == cpus
    assert _rows(mat.to_pandas()).equals(_rows(ds.to_pandas()))
    read = ds._logical_plan.dag.input_dependencies[0]
    assert read._parallelism == -1
    assert ds.materialize().num_blocks() == 8


def test_sized_split_and_in_memory_inputs_are_left_alone(ray_session,
                                                         tmp_path):
    import pyarrow as pa
    import ray.data as rd

    from proj_ray import dsutil

    same = dict(fn=lambda t: t, batch_format="pyarrow")
    sized = rd.read_parquet(_points(tmp_path, 8), override_num_blocks=8)
    split = _plan("read_split", tmp_path)
    table = pa.table({"k": np.arange(80)})
    in_memory = rd.from_arrow([table.slice(s, 10) for s in range(0, 80, 10)])
    for ds in (sized.map_batches(**same), split, in_memory.map_batches(**same)):
        assert dsutil.materialize(ds).num_blocks() == \
            ds.materialize().num_blocks() == 8


@pytest.mark.parametrize("share", [3, 6])
def test_only_a_read_that_fits_one_wave_is_packed(ray_session, tmp_path,
                                                  monkeypatch, share):
    """With the dataset's `target_max_block_size` at a third of the
    read's size the read fits 3-4 blocks, one wave of 4 CPUs, and runs
    4 tasks; at a sixth it needs 6-7 blocks and runs the 16 tasks Ray
    plans (its minimum block size lowered so that 16 files make 16
    blocks)."""
    import ray.data as rd
    from ray.data import DataContext

    from proj_ray import dsutil

    ds = rd.read_parquet(_points(tmp_path, 16)).map_batches(
        lambda t: t, batch_format="pyarrow")
    mem = ds._logical_plan.dag.input_dependencies[0]._mem_size
    monkeypatch.setattr(ds.context, "target_max_block_size", mem // share)
    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size",
                        mem // 16)
    ray_own = _tasks(ds.materialize())
    got = _tasks(dsutil.materialize(ds))
    assert ray_own == 16
    assert got == (dsutil.cluster_cpus() if share == 3 else ray_own)


def _table_map(n: int, fn=lambda t: t, **kwargs):
    """A fused one-map plan: `fn` over `dsutil.from_arrow` of `n` rows."""
    import pyarrow as pa

    from proj_ray import dsutil

    return dsutil.from_arrow(pa.table({"k": np.arange(n)})).map_batches(
        fn, batch_format="pyarrow", **kwargs)


def test_a_failed_task_raises_and_leaves_no_task_running(ray_session,
                                                         monkeypatch):
    """A UDF that raises in one task: `materialize` and `driver_table`
    raise its error, the operator's other tasks are gone, and the next
    fused plan runs."""
    import time

    from proj_ray import dsutil

    def boom(t):
        if t["k"][0].as_py() == 0:
            raise ValueError("boom")
        time.sleep(1.0)  # the other tasks are still running at the error
        return t

    ds = _table_map(3 * dsutil.ONE_BLOCK_ROWS, boom)
    ops = []
    real = dsutil._run_map

    def spy(ds, top):
        ops.append(top)
        return real(ds, top)

    monkeypatch.setattr(dsutil, "_run_map", spy)
    with pytest.raises(Exception, match="boom"):
        dsutil.materialize(ds)
    assert len(ops) == 1 and ops[0].get_active_tasks() == []
    with pytest.raises(Exception, match="boom"):
        dsutil.driver_table(ds, dsutil.DRIVER_FINISH_ROWS, arrow=True)
    assert len(ops) == 2 and ops[1].get_active_tasks() == []
    monkeypatch.undo()
    assert dsutil.pull_arrow(_table_map(100))["k"].to_pylist() == \
        list(range(100))


@pytest.mark.parametrize("need", ["concurrency", "max_errored_blocks",
                                  "resource_limits"])
def test_what_only_the_executor_enforces_falls_back(ray_session, monkeypatch,
                                                     need):
    """A one-map plan with a `concurrency` cap, a `max_errored_blocks`
    budget or resource limits runs under one `StreamingExecutor`, with
    the same rows."""
    from ray.data._internal.execution.interfaces import ExecutionResources

    from proj_ray import dsutil

    n = 3 * dsutil.ONE_BLOCK_ROWS + 5
    ds = _table_map(n, concurrency=2) if need == "concurrency" \
        else _table_map(n)
    if need == "max_errored_blocks":
        monkeypatch.setattr(ds.context, "max_errored_blocks", 1)
    if need == "resource_limits":
        monkeypatch.setattr(ds.context.execution_options, "resource_limits",
                            ExecutionResources.for_limits(cpu=2))
    assert dsutil._one_map_plan(ds) is not None
    want = ds.to_pandas()
    built = _executors(monkeypatch)
    got = dsutil.pull_pandas(ds)
    assert len(built) == 1
    assert _rows(got).equals(_rows(want))


def test_preserve_order_returns_the_slices_in_order(ray_session,
                                                    monkeypatch):
    """With `preserve_order` on, the blocks come back in input order,
    although the first slice's task finishes last."""
    import time

    from proj_ray import dsutil

    def first_last(t):
        if t["k"][0].as_py() == 0:
            time.sleep(0.5)
        return t

    n = 3 * dsutil.ONE_BLOCK_ROWS + 5
    ds = _table_map(n, first_last)
    monkeypatch.setattr(ds.context.execution_options, "preserve_order", True)
    built = _executors(monkeypatch)
    table = dsutil.pull_arrow(ds)
    assert built == []
    assert table["k"].to_pylist() == list(range(n))


@pytest.mark.parametrize("n", [0, 1, 32_768, 3 * 32_768 + 5])
def test_from_arrow_matches_ray_without_remote_tasks(ray_session,
                                                     monkeypatch, n):
    """`dsutil.from_arrow` gives the blocks, rows, schema and count of
    `rd.from_arrow` over the same slices, computing each slice's
    metadata once, in this process, with no remote task."""
    import os

    import pyarrow as pa
    import ray.data as rd
    from ray.data._internal import util
    from ray.remote_function import RemoteFunction

    from proj_ray import dsutil

    assert dsutil.ONE_BLOCK_ROWS == 32_768
    table = pa.table({"k": np.arange(n), "v": np.arange(n) * 0.5})
    slices = [table.slice(s, dsutil.ONE_BLOCK_ROWS)
              for s in range(0, n, dsutil.ONE_BLOCK_ROWS)] or [table]
    want = rd.from_arrow(slices)

    computed, remote = [], []
    real_meta, real_remote = util.get_table_block_metadata_schema, \
        RemoteFunction._remote

    def meta(t):
        computed.append((os.getpid(), t.num_rows))
        return real_meta(t)

    def no_remote(self, *args, **kwargs):
        remote.append(self)
        return real_remote(self, *args, **kwargs)

    monkeypatch.setattr(util, "get_table_block_metadata_schema", meta)
    monkeypatch.setattr(RemoteFunction, "_remote", no_remote)
    got = dsutil.from_arrow(table)
    monkeypatch.undo()

    assert remote == []
    assert computed == [(os.getpid(), t.num_rows) for t in slices]

    def rows(ds):
        return [m.num_rows for b in ds.iter_internal_ref_bundles()
                for m in b.metadata]

    assert got.num_blocks() == want.num_blocks() == len(slices)
    assert rows(got) == rows(want)
    assert got.schema() == want.schema()
    assert got.schema().base_schema == table.schema
    assert got.count() == want.count() == n
    pulled = dsutil.pull_arrow(got)
    assert pulled.schema == table.schema and pulled.equals(table)


def test_a_fused_plan_is_planned_once_unless_its_read_is_packed(
        ray_session, tmp_path, monkeypatch):
    """`materialize` runs the physical plan `_one_map_plan` built; only a
    read packed into one wave is planned again."""
    import ray.data as rd
    from ray.data._internal.logical import optimizers

    from proj_ray import dsutil

    calls = []
    real = optimizers.get_execution_plan

    def spy(plan):
        calls.append(plan)
        return real(plan)

    monkeypatch.setattr(optimizers, "get_execution_plan", spy)
    dsutil.materialize(_table_map(100))
    assert len(calls) == 1
    packed = rd.read_parquet(_points(tmp_path, 8)).map_batches(
        lambda t: t, batch_format="pyarrow")
    assert dsutil.materialize(packed).num_blocks() == dsutil.cluster_cpus()
    assert len(calls) == 3
