"""Small driver-side Dataset utilities shared across modules.

A table that fits the driver moves by block refs, not by a new
streaming execution: `pull_pandas` and `pull_arrow` `ray.get` the
materialized blocks, `driver_table` decides by a row cap whether to
pull at all, and `from_arrow` hands a driver-finished Arrow table back
as blocks of the one-block rule (`ONE_BLOCK_ROWS`). The Arrow pair
keeps int64 columns int64 and skips the pandas round trip.

Every plan that ends on the driver (`driver_table`, and a lazy
dataset given to a pull) runs through `materialize`. When Ray fuses
the plan into one task-pool map, `materialize` drives that operator
itself instead of handing the plan to Ray Data's `StreamingExecutor`.
The executor exists to arbitrate between operators: per-op resource
reservation, backpressure between queues, a scheduling loop that polls
every task with `ray.wait(num_returns=len(active), timeout=0.1)`, a
consumer that polls its output queue with 10 ms sleeps, and a
registration with the stats actor and a GCS call per run. A single map
whose whole output the driver takes has nothing to arbitrate, and the
executor cost ~25-35 ms a run on 4 vCPUs; its reservation also held a
fused map's first wave to one task under geobench's 1 GB object store
(Ray 2.49 budgets an operator with no finished task at 128 MiB x 2 =
256 MiB of pending output per task). The plans that ask for what only
the executor enforces (a `concurrency` cap, `max_errored_blocks`,
resource limits) still run under it. `from_arrow` skips Ray's metadata
tasks the same way: the driver that holds the table computes each
slice's metadata itself.

Such a plan's parquet read also runs in one wave of the cluster's
CPUs (`cluster_cpus`) when its data fits one. Ray asks a read it sizes
itself for at least 2 x CPUs tasks, so geobench's 8-file reads ran 8
tasks in two waves on 4 CPUs, each extra task ~5-9 ms of fixed cost;
`materialize` runs such a read as one task per CPU when that many
blocks stay within Ray's `target_max_block_size`. A larger read, a
read the caller sized (`override_num_blocks`), a read Ray splits
(`SplitBlocks`), an in-memory input and a plan of several operators
run as Ray plans them."""

from __future__ import annotations


def cluster_cpus() -> int:
    """The cluster's CPU count, as Ray's read sizing counts it (1 when
    the cluster reports none)."""
    import ray

    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def _one_map_plan(ds):
    """Ray's plan for `ds` when Ray runs it as one task-pool map, else
    None: (the top physical operator, the logical plan's source op).

    One map means that the physical plan, after Ray's fusion rules, is
    a `TaskPoolMapOperator` over the input buffer, or the buffer alone
    (a materialized or in-memory dataset). It is asked of the physical
    plan because the logical one does not say it: Ray keeps a read
    apart from a map with `batch_size`, a read it splits further, or
    maps whose remote args differ. A logical DAG that holds anything
    but a chain of maps over a source (an all-to-all, union, zip, join
    or limit) is refused without planning.

    Planning a copy of the logical plan leaves `ds` as it was (the
    planner rewrites the plan's DAG; it sets the detected parallelism
    on the shared `Read` op, which Ray sets again on every plan); it
    costs ~0.5 ms for an in-memory source and ~4-5 ms for geobench's
    8-file parquet read (4 vCPUs), most of it Ray sizing the read."""
    import copy

    from ray.data._internal.execution.operators.input_data_buffer import \
        InputDataBuffer
    from ray.data._internal.execution.operators.task_pool_map_operator \
        import TaskPoolMapOperator
    from ray.data._internal.logical.operators.map_operator import \
        AbstractMap
    from ray.data._internal.logical.optimizers import get_execution_plan

    op = ds._logical_plan.dag
    while op.input_dependencies:
        if not isinstance(op, AbstractMap):
            return None
        op = op.input_dependencies[0]
    logical = copy.copy(ds._logical_plan)
    top = get_execution_plan(logical).dag
    below = top.input_dependencies[0] \
        if isinstance(top, TaskPoolMapOperator) else top
    if not isinstance(below, InputDataBuffer):
        return None
    source = logical.dag
    while source.input_dependencies:
        source = source.input_dependencies[0]
    return top, source


def _wave_tasks(top, source):
    """The task count for a one-map plan's read that runs in one wave of
    the cluster's CPUs, or None to leave the read as Ray sizes it.

    Only a parquet `Read` that the user did not size
    (`override_num_blocks`) and that Ray runs without splitting its
    output: it gets one task per CPU when its data fits that many
    blocks of Ray's own `target_max_block_size` (ceil(mem_size /
    target) <= CPUs) and Ray chose more tasks. Ray asks for at least
    2 x CPUs tasks at any size, so geobench's 8-file reads ran 8 tasks
    in two waves on 4 CPUs. A read of more data is left to Ray's
    sizing. Ray does not split the packed read either: an unsplit read
    has at least as many files as tasks, and its blocks fit the
    target."""
    import math

    from ray.data._internal.datasource.parquet_datasource import \
        ParquetDatasource
    from ray.data._internal.logical.operators.read_operator import Read

    if not (isinstance(source, Read)
            and isinstance(source._datasource, ParquetDatasource)
            and source._parallelism == -1
            and top.get_additional_split_factor() == 1):
        return None
    cpus = cluster_cpus()
    mem, target = source._mem_size, top.actual_target_max_block_size
    blocks = math.ceil(mem / target) if mem and target else 1
    fits = blocks <= cpus < source.get_detected_parallelism()
    return cpus if fits else None


def _with_read_tasks(op, tasks: int):
    """A copy of the map chain that ends in `op` whose source `Read`
    asks for `tasks` read tasks, as `override_num_blocks=tasks` would.
    The chain's own ops are not changed."""
    import copy

    new = copy.copy(op)
    new._output_dependencies = []
    if op.input_dependencies:
        below = _with_read_tasks(op.input_dependencies[0], tasks)
        new._input_dependencies = [below]
        below._output_dependencies.append(new)
    else:
        new._parallelism = tasks
    return new


def _needs_executor(top, context) -> bool:
    """Whether the one-map operator `top` asks for something that only
    Ray's `StreamingExecutor` enforces: a `concurrency` cap on the map,
    a `max_errored_blocks` budget, or resource limits on the execution
    options."""
    from ray.data._internal.execution.interfaces import ExecutionResources

    options = context.execution_options
    return (top.get_concurrency() is not None
            or context.max_errored_blocks != 0
            or not options.is_resource_limits_default()
            or options.exclude_resources != ExecutionResources.zero())


def _run_map(ds, top):
    """Run `top`, the `TaskPoolMapOperator` of `ds`'s one-map plan, and
    return its output as `Dataset.materialize` would: a
    `MaterializedDataset` over the output blocks whose `stats()` reports
    the operator's tasks, wall, UDF time, rows and bytes.

    Every input bundle goes in at once, so each task is submitted as its
    input arrives and Ray's scheduler runs as many as there are free
    CPUs; the loop then waits for one task at a time and collects its
    output (a task-pool map runs data tasks only; the actor pool's
    metadata tasks never occur). The operator is shut down whatever
    happens, so a failed task leaves none of its siblings running."""
    import time

    import ray
    from ray.data._internal.execution.interfaces import RefBundle
    from ray.data._internal.execution.legacy_compat import \
        _get_initial_stats_from_plan
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.input_data_operator import \
        InputData
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import Timer
    from ray.data.block import _take_first_non_empty_schema
    from ray.data.dataset import MaterializedDataset

    source = top.input_dependencies[0]
    options = ds.context.execution_options
    began = time.perf_counter()
    out = []
    source.start(options)
    top.start(options)
    try:
        while source.has_next():
            top.add_input(source.get_next(), 0)
        top.all_inputs_done()
        while True:
            while top.has_next():
                out.append(top.get_next())
            tasks = {t.get_waitable(): t for t in top.get_active_tasks()}
            if not tasks:
                break
            (ready,), _ = ray.wait(list(tasks), num_returns=1,
                                   fetch_local=False)
            tasks[ready].on_data_ready(None)
    finally:
        top.shutdown(Timer(), force=True)

    stats = _get_initial_stats_from_plan(ds._plan).child_builder(
        top.name, override_start_time=began).build_multioperator(
        top.get_stats())
    stats.extra_metrics = top.metrics.as_dict(skip_internal_metrics=True)
    schema = _take_first_non_empty_schema(b.schema for b in out)
    blocks = [RefBundle([block], owns_blocks=False, schema=schema)
              for b in out for block in b.blocks]
    mat = MaterializedDataset(ExecutionPlan(stats, ds.context.copy()),
                              LogicalPlan(InputData(blocks), ds.context))
    mat.set_name(ds.name)
    mat._set_uuid(ds._get_uuid())
    mat._plan.execute()  # marks the plan as executed; runs nothing
    return mat


def materialize(ds):
    """`ds.materialize()`, except for a plan Ray fuses into one
    task-pool map (`_one_map_plan`): that plan runs by driving the
    fused operator Ray planned for it (`_run_map`), with no
    `StreamingExecutor`. The executor's fixed cost (10 ms output-queue
    polls, a `ray.wait(..., timeout=0.1)` loop, a stats-actor
    registration and a GCS call per run) buys nothing for a single map
    whose whole output the driver takes: there is no downstream
    operator to reserve resources for and no queue between operators
    to backpressure. Its tasks all go to Ray at once and run a task per
    free CPU from the first wave. On 4 vCPUs, geobench's tile_join
    chain took 129 -> 98 ms and tile_export's two maps 90 -> 57 and
    79 -> 47 ms, with the same operator wall and UDF time.

    When the map's source is a parquet read that fits one wave of the
    cluster's CPUs but that Ray sizes at more tasks, the read runs one
    task per CPU (`_wave_tasks`; tile_join's 8-file read: 4 tasks on 4
    CPUs, not 8 in two waves): a copy of the map chain with the read
    sized (`_with_read_tasks`) is planned again. Otherwise the physical
    plan `_one_map_plan` built is the one that runs; `ds`, its ops,
    `ds.context` and the global `DataContext` do not change.

    A plan of several operators, a materialized or in-memory dataset
    (nothing to run), and a one-map plan that asks for what only the
    executor enforces (`_needs_executor`: a `concurrency` cap,
    `max_errored_blocks`, resource limits) run by `ds.materialize()`.

    The route is not a custom executor handed to Ray through
    `ExecutionPlan.create_executor`: `Dataset.materialize` deep-copies
    the plan into a fresh `ExecutionPlan`, which drops such an
    override, and the plan then runs under the `StreamingExecutor` with
    Ray's resource reservation back on (a prototype of that route
    measured geobench's tile_join at 447k -> 323k rows/s)."""
    from ray.data._internal.execution.operators.task_pool_map_operator \
        import TaskPoolMapOperator
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.optimizers import get_execution_plan

    plan = _one_map_plan(ds)
    if plan is None or not isinstance(plan[0], TaskPoolMapOperator) \
            or _needs_executor(plan[0], ds.context):
        return ds.materialize()
    top = plan[0]
    tasks = _wave_tasks(*plan)
    if tasks is not None:
        dag = _with_read_tasks(ds._logical_plan.dag, tasks)
        top = get_execution_plan(LogicalPlan(dag, ds.context)).dag
    return _run_map(ds, top)


def _block_refs(ds):
    """The materialized `ds` and its block refs."""
    from ray.data.dataset import MaterializedDataset

    mat = ds if isinstance(ds, MaterializedDataset) else materialize(ds)
    return mat, [r for bun in mat.iter_internal_ref_bundles()
                 for r in bun.block_refs]


def pull_pandas(ds):
    """Driver-side pull of a SMALL table as pandas without spinning up
    a fresh streaming execution.

    `iter_batches`/`to_pandas` on an already-materialized dataset
    builds and tears down a whole new executor (~0.5-1 s fixed,
    measured: 0.92 s vs 0.007 s for the same 200k-row 8-block pull) —
    `ray.get` on the materialized block refs is milliseconds. Only for
    tables known to fit the driver; every caller gates on a row cap.
    Blocks convert as in `Dataset.to_pandas` (tensor columns become
    NumPy arrays).
    """
    import pandas as pd
    import ray
    from ray.data.block import BlockAccessor

    mat, refs = _block_refs(ds)
    dfs = [BlockAccessor.for_block(b).to_pandas()
           for b in ray.get(refs) if len(b)]
    if not dfs:
        cols = mat.schema().names if mat.schema() is not None else []
        return pd.DataFrame({c: [] for c in cols})
    return pd.concat(dfs, ignore_index=True) if len(dfs) > 1 else \
        dfs[0].reset_index(drop=True)


def pull_arrow(ds):
    """`pull_pandas` as one Arrow table: the same block-ref pull, with
    pandas blocks converted by `BlockAccessor.to_arrow` and one
    `pa.concat_tables`. Arrow blocks are not copied, and an int64
    column stays int64 (pandas would make it float where it holds a
    null). Blocks whose types differ (an all-null block, an int block
    next to a float one) are promoted to a common type. An empty
    dataset gives a zero-row table of its schema."""
    import pyarrow as pa
    import ray
    from ray.data.block import BlockAccessor

    mat, refs = _block_refs(ds)
    tables = [BlockAccessor.for_block(b).to_arrow()
              for b in ray.get(refs) if len(b)]
    if not tables:
        schema = mat.schema()
        if schema is None:
            return pa.table({})
        if isinstance(schema.base_schema, pa.Schema):
            return schema.base_schema.empty_table()
        return pa.table({c: pa.array([], pa.null()) for c in schema.names})
    if len(tables) == 1:
        return tables[0]
    return pa.concat_tables(tables, promote_options="permissive")


# The size rule. Every route choice that pulls a table to the driver,
# to finish it there or to `ray.put` it to every task, goes through
# `driver_table(ds, cap)` with one of these caps. Callers name the cap
# at call time (`dsutil.BROADCAST_ROWS`, not a default argument), so one
# setting, or a test's monkeypatch, steers every site of its kind.

# a (key, value) table of at most this many rows is finished on the
# driver instead of through an all-to-all (~64 MB as a pandas (int64,
# int64) frame): sums, top-k merges, driver-side graph loops
DRIVER_FINISH_ROWS = 4_000_000

# a join's small side of at most this many rows is pulled and shipped
# to every task by `ray.put`; each worker process holds its own copy,
# which is why it sits below the finish cap
BROADCAST_ROWS = 2_000_000

# rows that carry a document's text (or its shingle sets, or a
# candidate pair whose two texts get broadcast) weigh kilobytes, not
# tens of bytes: at most this many documents are handled on the driver
DOC_ROWS = 100_000


def driver_table(ds, cap: int, arrow: bool = False):
    """Materialize `ds` once and return (materialized, table or None):
    the pulled table when it has at most `cap` rows, else None, and the
    caller runs its exchange on the materialized dataset, so the input
    runs once on either route. A cap below 0 sends even an empty table
    to the exchange. The pull goes through this module's `pull_pandas`,
    or `pull_arrow` when `arrow`, looked up at call time. The input runs
    through `materialize`, so a plan that fuses into one map starts a
    full wave of tasks and reads in one wave when its data fits one."""
    mat = materialize(ds)
    if mat.count() <= cap:
        return mat, (pull_arrow if arrow else pull_pandas)(mat)
    return mat, None


def merged(ds, columns: list[str]):
    """`ds` projected to `columns` in batches of at least 65,536 rows.

    Ray bundles small input blocks (read splits, per-bucket outputs)
    into one task until the batch fills, so an exchange after this map
    (its `_bk` map fuses into this one) sorts a few full blocks rather
    than one small block per read split."""
    return ds.map_batches(lambda t: t.select(columns),
                          batch_format="pyarrow", batch_size=65536)


# a parquet table of at most this many rows reads as one block, and a
# driver-finished table goes back in blocks of at most this many rows:
# it is one kernel pass (`Operation.CHUNK`, `PolygonIndex.CHUNK`), so
# splitting it finer only adds tasks
ONE_BLOCK_ROWS = 32_768


def from_arrow(table):
    """A table finished on the driver as a Dataset of
    ceil(rows / ONE_BLOCK_ROWS) blocks (one block when it is empty).

    One block would run every map after it as ONE task (geobench's
    104k-row tile count table: one ~50 ms task, ~2 ms of it in the
    UDF, the rest in Ray's conversion of its output); blocks of the
    one-block rule run those maps one task per block, in parallel.
    The slices share the table's buffers; Ray writes each slice's own
    rows to the object store.

    The dataset is built as `rd.from_arrow` builds it (a
    `MaterializedDataset` over a `FromArrow` op), except that each
    slice's metadata and schema are computed here, on the driver that
    holds the table, by `get_table_block_metadata_schema`:
    `rd.from_arrow` runs one remote task per slice to compute them from
    the stored copy (geobench's tile_export table on 4 vCPUs: 14.8 ->
    6.9 ms)."""
    import ray
    from ray.data import DataContext
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import \
        FromArrow
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data._internal.util import get_table_block_metadata_schema
    from ray.data.dataset import MaterializedDataset

    n = table.num_rows
    slices = [table.slice(s, ONE_BLOCK_ROWS)
              for s in range(0, n, ONE_BLOCK_ROWS)] or [table]
    meta = [get_table_block_metadata_schema(t) for t in slices]
    plan = ExecutionPlan(
        DatasetStats(metadata={"FromArrow": meta}, parent=None),
        DataContext.get_current().copy())
    return MaterializedDataset(plan, LogicalPlan(
        FromArrow([ray.put(t) for t in slices], meta), plan._context))


def read_parquet(paths, columns: list[str] | None = None, **kwargs):
    """`ray.data.read_parquet`, except that a table of at most
    ONE_BLOCK_ROWS rows reads as ONE block.

    Ray's read asks for at least 2 x CPUs blocks at any size, so a
    5,000-row table arrives as 16 blocks of ~300 rows, and each
    row-wise stage after it (one call per block) runs 16 tasks that
    cost more to schedule than to run. One read task also lets Ray
    fuse the read with those stages. Rows are counted from the parquet
    footers, stopping past the cap. Meant for inputs of light row-wise
    stages: a heavy per-row map (decode, embed) wants Ray's split."""
    import pyarrow.dataset as pads
    import ray.data as rd

    if "override_num_blocks" not in kwargs:
        rows = 0
        for frag in pads.dataset(paths, format="parquet").get_fragments():
            rows += frag.metadata.num_rows
            if rows > ONE_BLOCK_ROWS:
                break
        if rows <= ONE_BLOCK_ROWS:
            kwargs["override_num_blocks"] = 1
    return rd.read_parquet(paths, columns=columns, **kwargs)
